// Unit tests for the common utility layer.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <set>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "common/barrier.hpp"
#include "common/cpu.hpp"
#include "common/env.hpp"
#include "common/flat_hash.hpp"
#include "common/rng.hpp"
#include "common/spsc_queue.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/types.hpp"
#include "testing/seed.hpp"

namespace nvc {
namespace {

using nvc::testing::replay_hint;
using nvc::testing::seed_from_env;

TEST(Types, LineConversionRoundTrips) {
  EXPECT_EQ(line_of(0), 0u);
  EXPECT_EQ(line_of(63), 0u);
  EXPECT_EQ(line_of(64), 1u);
  EXPECT_EQ(line_base(line_of(12345)), 12345u & ~63u);
}

TEST(Types, AlignUp) {
  EXPECT_EQ(align_up(0, 64), 0u);
  EXPECT_EQ(align_up(1, 64), 64u);
  EXPECT_EQ(align_up(64, 64), 64u);
  EXPECT_EQ(align_up(65, 64), 128u);
  EXPECT_EQ(align_up(7, 8), 8u);
}

TEST(Types, IsPow2) {
  EXPECT_FALSE(is_pow2(0));
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_TRUE(is_pow2(1024));
  EXPECT_FALSE(is_pow2(1023));
}

TEST(Types, Log2Pow2) {
  EXPECT_EQ(log2_pow2(1), 0u);
  EXPECT_EQ(log2_pow2(2), 1u);
  EXPECT_EQ(log2_pow2(64), 6u);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, BelowStaysInBounds) {
  Rng rng(99);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 17ull, 1000003ull}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowCoversRange) {
  Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, BelowHugeBoundStaysInBoundsAndUniform) {
  // Past 2^63 about half of all raw draws fall in the biased low range,
  // so below() rejects and redraws on most calls.
  Rng rng(21);
  const std::uint64_t bound = (std::uint64_t{1} << 63) + 1;
  constexpr int kDraws = 20000;
  double sum = 0;
  for (int i = 0; i < kDraws; ++i) {
    const std::uint64_t v = rng.below(bound);
    ASSERT_LT(v, bound);
    sum += static_cast<double>(v) / static_cast<double>(bound);
  }
  EXPECT_NEAR(sum / kDraws, 0.5, 0.02);
}

TEST(Rng, RangeInclusive) {
  Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.range(3, 6);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 6u);
    saw_lo |= (v == 3);
    saw_hi |= (v == 6);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(13);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

#if defined(__linux__)
/// CPUs in the calling thread's affinity mask, and the lowest of them.
std::pair<int, int> affinity_of_this_thread() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (pthread_getaffinity_np(pthread_self(), sizeof set, &set) != 0) {
    return {0, -1};
  }
  int first = 0;
  while (first < CPU_SETSIZE && !CPU_ISSET(first, &set)) ++first;
  return {CPU_COUNT(&set), first};
}

// The flush worker's spin rule (DESIGN.md §8) asks from its own thread
// whether spinning can leave the producer a CPU. The answer must follow
// that thread's affinity mask, not the machine's online CPU count: a
// process started under `taskset -c 0` on a many-CPU host must not spin.
TEST(CpuAffinity, ThreadPinnedToOneCpuCannotSpin) {
  bool pinned = false;
  bool spin = true;
  std::thread probe([&] {
    pinned = pin_thread_to_cpu(affinity_of_this_thread().second);
    spin = can_spin();
  });
  probe.join();
  ASSERT_TRUE(pinned);
  EXPECT_FALSE(spin);
}

// The flush worker asks from its own thread because a new thread starts
// on its creator's mask: a worker created by a pinned thread cannot spin.
TEST(CpuAffinity, ThreadCreatedByAPinnedThreadCannotSpin) {
  bool pinned = false;
  bool child_spin = true;
  std::thread parent([&] {
    pinned = pin_thread_to_cpu(affinity_of_this_thread().second);
    std::thread child([&] { child_spin = can_spin(); });
    child.join();
  });
  parent.join();
  ASSERT_TRUE(pinned);
  EXPECT_FALSE(child_spin);
}

TEST(CpuAffinity, OutOfRangePinIsRejectedAndKeepsTheMask) {
  int before = 0;
  int after = 0;
  bool negative = true;
  bool too_large = true;
  std::thread probe([&] {
    before = affinity_of_this_thread().first;
    negative = pin_thread_to_cpu(-1);
    too_large = pin_thread_to_cpu(CPU_SETSIZE);
    after = affinity_of_this_thread().first;
  });
  probe.join();
  EXPECT_FALSE(negative);
  EXPECT_FALSE(too_large);
  EXPECT_EQ(after, before);
}

TEST(CpuAffinity, UnpinnedThreadSpinsIffItsMaskHasSeveralCpus) {
  int allowed = 0;
  bool spin = false;
  std::thread probe([&] {
    allowed = affinity_of_this_thread().first;
    spin = can_spin();
  });
  probe.join();
  ASSERT_GE(allowed, 1);
  EXPECT_EQ(spin, allowed > 1);
}
#endif

TEST(MeanSummary, ArithmeticAndGeometric) {
  const auto s = summarize_means({1.0, 4.0});
  EXPECT_DOUBLE_EQ(s.arithmetic, 2.5);
  EXPECT_DOUBLE_EQ(s.geometric, 2.0);
}

TEST(TablePrinter, FormattersProduceCanonicalStrings) {
  EXPECT_EQ(TablePrinter::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::fmt_ratio(2.936), "2.94x");
  EXPECT_EQ(TablePrinter::fmt_percent(0.8321), "83.21%");
  EXPECT_EQ(TablePrinter::fmt_count(12345), "12345");
}

TEST(TablePrinter, PrintsAlignedRows) {
  TablePrinter t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"longer", "22"});
  // Smoke: printing to a memstream must not crash and must contain cells.
  char* buf = nullptr;
  std::size_t len = 0;
  FILE* mem = open_memstream(&buf, &len);
  t.print(mem);
  std::fclose(mem);
  std::string out(buf, len);
  free(buf);
  EXPECT_NE(out.find("longer"), std::string::npos);
  EXPECT_NE(out.find("value"), std::string::npos);
  EXPECT_NE(out.find("+--"), std::string::npos);
}

TEST(SpinBarrier, SynchronizesPhases) {
  constexpr std::size_t kThreads = 4;
  constexpr int kPhases = 50;
  SpinBarrier barrier(kThreads);
  std::atomic<int> phase_counter{0};
  std::vector<std::thread> threads;
  std::atomic<bool> failed{false};
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int p = 0; p < kPhases; ++p) {
        phase_counter.fetch_add(1);
        barrier.arrive_and_wait();
        // After the barrier, every thread of phase p has incremented.
        if (phase_counter.load() < (p + 1) * static_cast<int>(kThreads)) {
          failed = true;
        }
        barrier.arrive_and_wait();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(phase_counter.load(), kPhases * static_cast<int>(kThreads));
}

TEST(ThreadTeam, RunsEveryTidExactlyOnce) {
  std::vector<std::atomic<int>> hits(8);
  ThreadTeam::run(8, [&](std::size_t tid) { hits[tid].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Env, IntFallbacks) {
  ::unsetenv("NVC_TEST_UNSET");
  EXPECT_EQ(env_int("NVC_TEST_UNSET", 42), 42);
  ::setenv("NVC_TEST_SET", "17", 1);
  EXPECT_EQ(env_int("NVC_TEST_SET", 0), 17);
  ::setenv("NVC_TEST_BAD", "abc", 1);
  EXPECT_EQ(env_int("NVC_TEST_BAD", 9), 9);
  // A numeric prefix is not a value.
  ::setenv("NVC_TEST_BAD", "64k", 1);
  EXPECT_EQ(env_int("NVC_TEST_BAD", 9), 9);
  ::setenv("NVC_TEST_BAD", "1e6", 1);
  EXPECT_EQ(env_int("NVC_TEST_BAD", 9), 9);
}

TEST(Env, SeedFallsBackUnlessWhollyParsed) {
  ::setenv("NVC_TEST_SEED", "18446744073709551615", 1);
  EXPECT_EQ(seed_from_env("NVC_TEST_SEED", 5),
            18446744073709551615ull);
  ::setenv("NVC_TEST_SEED", "12abc", 1);
  EXPECT_EQ(seed_from_env("NVC_TEST_SEED", 5), 5u);
  ::setenv("NVC_TEST_SEED", "", 1);
  EXPECT_EQ(seed_from_env("NVC_TEST_SEED", 5), 5u);
  ::unsetenv("NVC_TEST_SEED");
  EXPECT_EQ(seed_from_env("NVC_TEST_SEED", 5), 5u);
}

TEST(FlatHashMap, InsertFindUpdate) {
  FlatHashMap<std::uint64_t, int> map;
  auto [v1, inserted1] = map.try_emplace(42, 7);
  EXPECT_TRUE(inserted1);
  EXPECT_EQ(*v1, 7);
  auto [v2, inserted2] = map.try_emplace(42, 99);
  EXPECT_FALSE(inserted2);      // key present: value kept
  EXPECT_EQ(*v2, 7);
  *v2 = 13;                     // slot pointer is writable
  EXPECT_EQ(*map.find(42), 13);
  EXPECT_EQ(map.find(43), nullptr);
  EXPECT_TRUE(map.contains(42));
  EXPECT_FALSE(map.contains(0));
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlatHashMap, GrowsKeepingEveryEntry) {
  FlatHashMap<std::uint64_t, std::uint64_t> map;
  constexpr std::uint64_t kN = 10000;
  for (std::uint64_t k = 0; k < kN; ++k) map.try_emplace(k, k * 3);
  EXPECT_EQ(map.size(), kN);
  EXPECT_TRUE(is_pow2(map.slot_count()));
  EXPECT_GE(map.slot_count(), 2 * kN);  // load factor stays <= 0.5
  for (std::uint64_t k = 0; k < kN; ++k) {
    ASSERT_NE(map.find(k), nullptr) << k;
    EXPECT_EQ(*map.find(k), k * 3);
  }
}

TEST(FlatHashMap, ReserveAvoidsRehash) {
  FlatHashMap<std::uint64_t, int> map;
  map.reserve(1000);
  const std::size_t slots = map.slot_count();
  for (std::uint64_t k = 0; k < 1000; ++k) map.try_emplace(k, 1);
  EXPECT_EQ(map.slot_count(), slots);
}

TEST(FlatHashMap, EraseKeepsRemainingEntriesReachable) {
  // Backward-shift deletion: removing from the middle of probe chains must
  // not strand any surviving entry behind an empty slot.
  FlatHashMap<std::uint64_t, std::uint64_t> map;
  constexpr std::uint64_t kN = 2000;
  for (std::uint64_t k = 0; k < kN; ++k) map.try_emplace(k, k);
  for (std::uint64_t k = 0; k < kN; k += 2) EXPECT_TRUE(map.erase(k));
  EXPECT_FALSE(map.erase(0));  // already gone
  EXPECT_EQ(map.size(), kN / 2);
  for (std::uint64_t k = 0; k < kN; ++k) {
    if (k % 2 == 0) {
      EXPECT_FALSE(map.contains(k)) << k;
    } else {
      ASSERT_NE(map.find(k), nullptr) << k;
      EXPECT_EQ(*map.find(k), k);
    }
  }
}

TEST(FlatHashMap, CollisionHeavyKeysStayRetrievable) {
  // Low-entropy keys (identical low bits, huge strides) are exactly what the
  // murmur finalizer must spread; every key must survive growth and lookups.
  FlatHashMap<std::uint64_t, std::uint64_t> map;
  std::vector<std::uint64_t> keys;
  for (std::uint64_t i = 1; i <= 500; ++i) {
    keys.push_back(i << 40);       // only high bits differ
    keys.push_back(i * 4096);      // page-aligned stride
    keys.push_back(i * 0x10001);   // mixed
  }
  for (const auto k : keys) map.try_emplace(k, k ^ 0xabcdef);
  EXPECT_EQ(map.size(), keys.size());
  for (const auto k : keys) {
    ASSERT_NE(map.find(k), nullptr) << k;
    EXPECT_EQ(*map.find(k), k ^ 0xabcdef);
  }
}

TEST(FlatHashMap, RandomizedMatchesUnorderedMap) {
  // Insert/erase/lookup fuzz against the reference container, on a small key
  // range so probe chains constantly form and break.
  FlatHashMap<std::uint64_t, std::uint64_t> map;
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  const std::uint64_t seed = seed_from_env("NVC_SEED", 123);
  SCOPED_TRACE(replay_hint("NVC_SEED", seed));
  Rng rng(seed);
  for (int op = 0; op < 30000; ++op) {
    const std::uint64_t key = rng.below(512);
    switch (rng.below(3)) {
      case 0: {
        const std::uint64_t value = rng();
        const auto [slot, inserted] = map.try_emplace(key, value);
        const auto [it, ref_inserted] = ref.try_emplace(key, value);
        ASSERT_EQ(inserted, ref_inserted);
        ASSERT_EQ(*slot, it->second);
        break;
      }
      case 1:
        ASSERT_EQ(map.erase(key), ref.erase(key) == 1);
        break;
      default: {
        const auto* found = map.find(key);
        const auto it = ref.find(key);
        ASSERT_EQ(found != nullptr, it != ref.end());
        if (found != nullptr) {
          ASSERT_EQ(*found, it->second);
        }
      }
    }
    ASSERT_EQ(map.size(), ref.size());
  }
}

TEST(FlatHashMap, RandomizedFullStateParityUnderRehash) {
  // Stronger property sweep: on top of insert/erase/lookup, randomly force
  // growth rehashes (reserve), clear both maps, and shift the hot key range
  // between phases so probe chains are rebuilt from scratch mid-run. After
  // every phase the ENTIRE state must match the reference — checked in both
  // directions via for_each (no extra, no missing, no stale values).
  const std::uint64_t seed = seed_from_env("NVC_SEED", 2468);
  SCOPED_TRACE(replay_hint("NVC_SEED", seed));
  Rng rng(seed);
  FlatHashMap<std::uint64_t, std::uint64_t> map;
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  for (int phase = 0; phase < 40; ++phase) {
    // Each phase works a different 256-key window; windows overlap so some
    // erases hit keys inserted many phases ago.
    const std::uint64_t base = rng.below(16) * 128;
    for (int op = 0; op < 600; ++op) {
      const std::uint64_t key = base + rng.below(256);
      if (rng.chance(0.55)) {
        const std::uint64_t value = rng();
        const auto [slot, inserted] = map.try_emplace(key, value);
        const auto [it, ref_inserted] = ref.try_emplace(key, value);
        ASSERT_EQ(inserted, ref_inserted) << "key " << key;
        ASSERT_EQ(*slot, it->second) << "key " << key;
      } else {
        ASSERT_EQ(map.erase(key), ref.erase(key) == 1) << "key " << key;
      }
    }
    if (rng.chance(0.2)) {
      // Grow well past the current population: every surviving entry must
      // land reachable in the new slot array.
      map.reserve(map.size() * 2 + 64);
    }
    if (rng.chance(0.05)) {
      map.clear();
      ref.clear();
    }
    ASSERT_EQ(map.size(), ref.size()) << "phase " << phase;
    std::size_t visited = 0;
    map.for_each([&](std::uint64_t key, std::uint64_t value) {
      ++visited;
      const auto it = ref.find(key);
      ASSERT_NE(it, ref.end()) << "for_each yielded unknown key " << key;
      ASSERT_EQ(value, it->second) << "key " << key;
    });
    ASSERT_EQ(visited, ref.size()) << "phase " << phase;
    for (const auto& [key, value] : ref) {
      const auto* found = map.find(key);
      ASSERT_NE(found, nullptr) << "key " << key << " lost in phase "
                                << phase;
      ASSERT_EQ(*found, value) << "key " << key;
    }
  }
}

TEST(FlatHashMap, ClearEmptiesButKeepsSlots) {
  FlatHashMap<std::uint64_t, int> map;
  for (std::uint64_t k = 0; k < 100; ++k) map.try_emplace(k, 1);
  const std::size_t slots = map.slot_count();
  map.clear();
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.slot_count(), slots);
  EXPECT_FALSE(map.contains(5));
  map.try_emplace(5, 2);
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlatHashMap, ForEachVisitsEveryEntryOnce) {
  FlatHashMap<std::uint64_t, std::uint64_t> map;
  for (std::uint64_t k = 10; k < 20; ++k) map.try_emplace(k, k);
  std::set<std::uint64_t> seen;
  map.for_each([&](std::uint64_t key, std::uint64_t value) {
    EXPECT_EQ(key, value);
    EXPECT_TRUE(seen.insert(key).second);
  });
  EXPECT_EQ(seen.size(), 10u);
  EXPECT_EQ(*seen.begin(), 10u);
  EXPECT_EQ(*seen.rbegin(), 19u);
}

TEST(SpscQueue, FifoOrderAcrossWraparound) {
  SpscQueue<int> q(4);
  int next_push = 0;
  int next_pop = 0;
  for (int round = 0; round < 50; ++round) {
    while (q.try_push(next_push + 0)) ++next_push;
    EXPECT_EQ(q.size(), q.capacity());
    while (auto v = q.try_pop()) {
      EXPECT_EQ(*v, next_pop);
      ++next_pop;
    }
  }
  EXPECT_EQ(next_push, next_pop);
  EXPECT_TRUE(q.empty());
}

TEST(SpscQueue, FullRingRejectsWithoutLosingValue) {
  SpscQueue<std::vector<int>> q(2);
  EXPECT_TRUE(q.try_push({1}));
  EXPECT_TRUE(q.try_push({2}));
  std::vector<int> overflow{3, 4, 5};
  EXPECT_FALSE(q.try_push(std::move(overflow)));
  EXPECT_EQ(overflow.size(), 3u);  // rejected push leaves the value intact
  auto first = q.try_pop();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->at(0), 1);
  EXPECT_TRUE(q.try_push(std::move(overflow)));
}

TEST(SpscQueue, PopReleasesSlotResources) {
  SpscQueue<std::shared_ptr<int>> q(4);
  auto payload = std::make_shared<int>(7);
  q.try_push(std::shared_ptr<int>(payload));
  auto popped = q.try_pop();
  ASSERT_TRUE(popped.has_value());
  // The ring slot was reset on pop: only `payload` and `popped` remain.
  EXPECT_EQ(payload.use_count(), 2);
}

TEST(SpscQueue, ConcurrentProducerConsumer) {
  constexpr int kItems = 100000;
  SpscQueue<int> q(64);
  std::thread producer([&] {
    for (int i = 0; i < kItems; ++i) {
      while (!q.try_push(i + 0)) std::this_thread::yield();
    }
  });
  int expected = 0;
  while (expected < kItems) {
    if (auto v = q.try_pop()) {
      ASSERT_EQ(*v, expected);
      ++expected;
    }
  }
  producer.join();
  EXPECT_TRUE(q.empty());
}

TEST(SpscQueue, StaleCachedCursorsKeepFullAndEmptyExact) {
  // Each side re-reads the other's cursor only when its cached copy says
  // full (producer) or empty (consumer). Hit both boundaries while the
  // copies are stale, lap after lap of a 4-slot ring.
  SpscQueue<int> q(4);
  int pushed = 0;
  int popped = 0;
  for (int lap = 0; lap < 64; ++lap) {
    while (q.try_push(pushed + 0)) ++pushed;
    ASSERT_EQ(q.size(), 4u);
    int rejected = -1;
    EXPECT_FALSE(q.try_push(std::move(rejected)));  // full, copy fresh
    // Free `k` slots; the producer's copy still names the old head.
    const int k = 1 + lap % 4;
    for (int i = 0; i < k; ++i) {
      auto v = q.try_pop();
      ASSERT_TRUE(v.has_value());
      EXPECT_EQ(*v, popped++);
    }
    for (int i = 0; i < k; ++i) {
      EXPECT_TRUE(q.try_push(pushed + 0)) << "lap " << lap << " slot " << i;
      ++pushed;
    }
    EXPECT_FALSE(q.try_push(pushed + 0));
    // Empty it; the consumer's copy then names a tail it has caught up
    // with, so the next pop must notice fresh pushes, not stale emptiness.
    while (auto v = q.try_pop()) EXPECT_EQ(*v, popped++);
    EXPECT_FALSE(q.try_pop().has_value());
    EXPECT_TRUE(q.empty());
    for (int i = 0; i < k; ++i) EXPECT_TRUE(q.try_push(pushed++ + 0));
    for (int i = 0; i < k; ++i) {
      auto v = q.try_pop();
      ASSERT_TRUE(v.has_value()) << "lap " << lap << " item " << i;
      EXPECT_EQ(*v, popped++);
    }
    EXPECT_FALSE(q.try_pop().has_value());
  }
  EXPECT_EQ(pushed, popped);
  EXPECT_EQ(q.pushes(), static_cast<std::size_t>(pushed));
}

TEST(SpscQueue, RandomPushPopMatchesModel) {
  // Random interleavings against a deque model: push succeeds exactly when
  // a slot is free, pop exactly when an element is queued, in FIFO order,
  // however stale either cached cursor is.
  const std::uint64_t seed = seed_from_env("NVC_SEED", 0x5b5c);
  SCOPED_TRACE(replay_hint("NVC_SEED", seed));
  Rng rng(seed);
  SpscQueue<int> q(8);
  std::deque<int> model;
  int next = 0;
  for (int op = 0; op < 20000; ++op) {
    if (rng.below(2) == 0) {
      const bool pushed = q.try_push(next + 0);
      ASSERT_EQ(pushed, model.size() < q.capacity());
      if (pushed) model.push_back(next++);
    } else {
      const std::optional<int> v = q.try_pop();
      ASSERT_EQ(v.has_value(), !model.empty());
      if (v.has_value()) {
        EXPECT_EQ(*v, model.front());
        model.pop_front();
      }
    }
    ASSERT_EQ(q.size(), model.size());
  }
}

}  // namespace
}  // namespace nvc
