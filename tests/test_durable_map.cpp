// Durable split-ordered hash map (structures/durable_map.hpp) — `ctest -L
// structures`, also in the tsan tier. Same two regimes as the queue suite:
// seeded turnstile interleavings with the linearizability search, and a
// free-running NVC_STRUCT_THREADS stress over the heap backend.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <vector>

#include "common/env.hpp"
#include "common/rng.hpp"
#include "structures/durable_map.hpp"
#include "pmem/shadow.hpp"
#include "structures/pspace.hpp"
#include "testing/history.hpp"
#include "testing/interleave.hpp"
#include "testing/linearizability.hpp"
#include "testing/seed.hpp"

namespace {

using nvc::Rng;
using nvc::structures::DurableMap;
using nvc::structures::PSpace;
using nvc::testing::check_linearizable;
using nvc::testing::HistoryRecorder;
using nvc::testing::InterleaveScheduler;
using nvc::testing::LinVerdict;
using nvc::testing::MapModel;
using nvc::testing::OpCode;
using nvc::testing::replay_hint;
using nvc::testing::seed_from_env;

void recorded_insert(DurableMap& m, HistoryRecorder& rec, std::size_t thread,
                     std::uint64_t key, std::uint64_t value) {
  const std::size_t op = rec.begin(thread, OpCode::kInsert, key, value);
  rec.end(thread, op, m.insert(key, value));
}

void recorded_erase(DurableMap& m, HistoryRecorder& rec, std::size_t thread,
                    std::uint64_t key) {
  const std::size_t op = rec.begin(thread, OpCode::kErase, key);
  std::uint64_t v = 0;
  const bool ok = m.erase(key, &v);
  rec.end(thread, op, ok, v);
}

void recorded_contains(DurableMap& m, HistoryRecorder& rec,
                       std::size_t thread, std::uint64_t key) {
  const std::size_t op = rec.begin(thread, OpCode::kContains, key);
  std::uint64_t v = 0;
  const bool ok = m.contains(key, &v);
  rec.end(thread, op, ok, v);
}

std::map<std::uint64_t, std::uint64_t> as_map(
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& kvs) {
  return {kvs.begin(), kvs.end()};
}

TEST(DurableMap, BasicOpsAndRecovery) {
  nvc::pmem::ShadowPmem shadow(64 * 1024);
  PSpace ps(shadow.size(), /*elide=*/true, &shadow);
  DurableMap m(ps, /*buckets=*/16);
  EXPECT_TRUE(m.insert(1, 10));
  EXPECT_TRUE(m.insert(17, 170));  // same bucket as 1 (mod 16)
  EXPECT_TRUE(m.insert(2, 20));
  EXPECT_FALSE(m.insert(1, 99));  // no overwrite
  std::uint64_t v = 0;
  EXPECT_TRUE(m.contains(17, &v));
  EXPECT_EQ(v, 170u);
  EXPECT_TRUE(m.erase(1, &v));
  EXPECT_EQ(v, 10u);
  EXPECT_FALSE(m.erase(1));
  EXPECT_FALSE(m.contains(1));
  // The durable list (dummies filtered out) is the map: the volatile
  // bucket table contributes nothing to recovery.
  EXPECT_EQ(as_map(m.recovered_contents()),
            (std::map<std::uint64_t, std::uint64_t>{{17, 170}, {2, 20}}));
  EXPECT_EQ(ps.table().pending_count(), 0u);
}

TEST(DurableMap, SplitOrderKeysStayInjective) {
  // so_regular forces the low sort bit; reversed keys differing only in
  // their top bit would collide without the <2^63 precondition.
  EXPECT_NE(DurableMap::so_regular(5), DurableMap::so_regular(7));
  EXPECT_NE(DurableMap::so_regular(1), DurableMap::so_dummy(1));
  // Dummy sorts are even, regular sorts odd — disjoint by construction.
  EXPECT_EQ(DurableMap::so_dummy(8) & 1, 0u);
  EXPECT_EQ(DurableMap::so_regular(8) & 1, 1u);
}

TEST(DurableMap, TurnstileInterleavingsAreLinearizable) {
  const std::uint64_t base = seed_from_env("NVC_SEED", 20260808);
  for (int iter = 0; iter < 12; ++iter) {
    const std::uint64_t seed = base + static_cast<std::uint64_t>(iter);
    SCOPED_TRACE(replay_hint("NVC_SEED", seed));
    PSpace ps(256 * 1024, /*elide=*/true);
    DurableMap m(ps, 8);
    InterleaveScheduler sched(seed);
    ps.set_yield_hook(sched.hook());
    constexpr std::size_t kThreads = 3;
    HistoryRecorder rec(kThreads);
    std::vector<std::function<void(std::size_t)>> bodies;
    for (std::size_t i = 0; i < kThreads; ++i) {
      bodies.push_back([&, i, seed](std::size_t) {
        Rng rng(seed ^ (0xC2B2AE35u * (i + 1)));
        for (int k = 0; k < 6; ++k) {
          const std::uint64_t key = 1 + rng.below(6);  // heavy contention
          switch (rng.below(3)) {
            case 0:
              recorded_insert(m, rec, i, key, 100 * (i + 1) + k);
              break;
            case 1:
              recorded_erase(m, rec, i, key);
              break;
            default:
              recorded_contains(m, rec, i, key);
          }
        }
      });
    }
    sched.run(bodies);
    const auto result = check_linearizable<MapModel>(rec.snapshot());
    ASSERT_EQ(result.verdict, LinVerdict::kOk) << result.detail;
    // Volatile state and durable state agree once all ops completed.
    std::map<std::uint64_t, std::uint64_t> live;
    for (std::uint64_t key = 1; key <= 6; ++key) {
      std::uint64_t v = 0;
      if (m.contains(key, &v)) live.emplace(key, v);
    }
    EXPECT_EQ(as_map(m.recovered_contents()), live);
    EXPECT_EQ(ps.table().pending_count(), 0u);
  }
}

TEST(DurableMap, FreeRunningStressIsLinearizable) {
  const std::size_t threads = static_cast<std::size_t>(
      nvc::env_int("NVC_STRUCT_THREADS", 4));
  const std::size_t per = std::max<std::size_t>(2, 56 / threads);
  const std::uint64_t base = seed_from_env("NVC_SEED", 20260808);
  for (int round = 0; round < 4; ++round) {
    const std::uint64_t seed = base + static_cast<std::uint64_t>(round);
    SCOPED_TRACE(replay_hint("NVC_SEED", seed));
    PSpace ps(512 * 1024, /*elide=*/true);
    DurableMap m(ps, 8);
    InterleaveScheduler sched(seed, /*free_running=*/true);
    ps.set_yield_hook(sched.hook());
    HistoryRecorder rec(threads);
    std::vector<std::function<void(std::size_t)>> bodies;
    for (std::size_t i = 0; i < threads; ++i) {
      bodies.push_back([&, i, seed](std::size_t) {
        Rng rng(seed ^ (0x165667B1u * (i + 1)));
        for (std::size_t k = 0; k < per; ++k) {
          const std::uint64_t key = 1 + rng.below(8);
          switch (rng.below(3)) {
            case 0:
              recorded_insert(m, rec, i, key, 1000 * (i + 1) + k);
              break;
            case 1:
              recorded_erase(m, rec, i, key);
              break;
            default:
              recorded_contains(m, rec, i, key);
          }
        }
      });
    }
    sched.run(bodies);
    const auto result = check_linearizable<MapModel>(rec.snapshot());
    ASSERT_EQ(result.verdict, LinVerdict::kOk) << result.detail;
    EXPECT_EQ(ps.table().pending_count(), 0u);
  }
}

}  // namespace
