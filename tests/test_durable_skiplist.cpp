// Durable skiplist (structures/durable_skiplist.hpp) — `ctest -L
// structures`, also in the tsan tier. The volatile tower index is pure
// acceleration: these tests pin its determinism and staleness-tolerance,
// and check the durable bottom list with the same linearizability +
// recovery machinery as the other suites.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <vector>

#include "common/env.hpp"
#include "common/rng.hpp"
#include "structures/durable_skiplist.hpp"
#include "pmem/shadow.hpp"
#include "structures/pspace.hpp"
#include "testing/history.hpp"
#include "testing/interleave.hpp"
#include "testing/linearizability.hpp"
#include "testing/seed.hpp"

namespace {

using nvc::Rng;
using nvc::structures::DurableSkiplist;
using nvc::structures::PSpace;
using nvc::testing::check_linearizable;
using nvc::testing::HistoryRecorder;
using nvc::testing::InterleaveScheduler;
using nvc::testing::LinVerdict;
using nvc::testing::MapModel;
using nvc::testing::OpCode;
using nvc::testing::replay_hint;
using nvc::testing::seed_from_env;

TEST(DurableSkiplist, BasicOpsAndSortedRecovery) {
  nvc::pmem::ShadowPmem shadow(64 * 1024);
  PSpace ps(shadow.size(), /*elide=*/true, &shadow);
  DurableSkiplist sl(ps);
  for (const std::uint64_t k : {42u, 7u, 99u, 13u, 58u}) {
    EXPECT_TRUE(sl.insert(k, k * 10));
  }
  EXPECT_FALSE(sl.insert(42, 1));  // no overwrite
  std::uint64_t v = 0;
  EXPECT_TRUE(sl.contains(13, &v));
  EXPECT_EQ(v, 130u);
  EXPECT_TRUE(sl.erase(42, &v));
  EXPECT_EQ(v, 420u);
  EXPECT_FALSE(sl.contains(42));
  // Recovery walks the durable bottom chain — already in key order.
  const auto rec = sl.recovered_contents();
  std::vector<std::uint64_t> keys;
  for (const auto& [k, val] : rec) {
    keys.push_back(k);
    EXPECT_EQ(val, k * 10);
  }
  EXPECT_EQ(keys, (std::vector<std::uint64_t>{7, 13, 58, 99}));
  EXPECT_EQ(ps.table().pending_count(), 0u);
}

TEST(DurableSkiplist, TowerHeightsAreDeterministicAndCapped) {
  for (std::uint64_t k = 1; k < 4096; ++k) {
    const std::size_t h = DurableSkiplist::height(k);
    EXPECT_EQ(h, DurableSkiplist::height(k));  // pure function of the key
    EXPECT_GE(h, 1u);
    EXPECT_LE(h, DurableSkiplist::kMaxLevel);
  }
  // A restarted process regrows the identical index from the recovered key
  // set — only possible because heights carry no RNG state.
}

TEST(DurableSkiplist, StaleTowersAfterEraseStayHarmless) {
  nvc::pmem::ShadowPmem shadow(64 * 1024);
  PSpace ps(shadow.size(), /*elide=*/true, &shadow);
  DurableSkiplist sl(ps);
  for (std::uint64_t k = 1; k <= 32; ++k) ASSERT_TRUE(sl.insert(k, k));
  // Erase a band in the middle: their towers stay linked and point at
  // marked bottom nodes. Searches through them must still land correctly.
  for (std::uint64_t k = 8; k <= 24; ++k) ASSERT_TRUE(sl.erase(k));
  for (std::uint64_t k = 1; k <= 32; ++k) {
    EXPECT_EQ(sl.contains(k), k < 8 || k > 24) << "key " << k;
  }
  // Reinsert through the stale region; searches route via stale hints.
  for (std::uint64_t k = 10; k <= 14; ++k) ASSERT_TRUE(sl.insert(k, k + 1));
  for (std::uint64_t k = 10; k <= 14; ++k) {
    std::uint64_t v = 0;
    ASSERT_TRUE(sl.contains(k, &v));
    EXPECT_EQ(v, k + 1);
  }
  EXPECT_EQ(ps.table().pending_count(), 0u);
}

TEST(DurableSkiplist, TurnstileInterleavingsAreLinearizable) {
  const std::uint64_t base = seed_from_env("NVC_SEED", 20260808);
  for (int iter = 0; iter < 8; ++iter) {
    const std::uint64_t seed = base + static_cast<std::uint64_t>(iter);
    SCOPED_TRACE(replay_hint("NVC_SEED", seed));
    PSpace ps(256 * 1024, /*elide=*/true);
    DurableSkiplist sl(ps);
    InterleaveScheduler sched(seed);
    ps.set_yield_hook(sched.hook());
    constexpr std::size_t kThreads = 3;
    HistoryRecorder rec(kThreads);
    std::vector<std::function<void(std::size_t)>> bodies;
    for (std::size_t i = 0; i < kThreads; ++i) {
      bodies.push_back([&, i, seed](std::size_t) {
        Rng rng(seed ^ (0x27D4EB2Fu * (i + 1)));
        for (int k = 0; k < 6; ++k) {
          const std::uint64_t key = 1 + rng.below(6);
          switch (rng.below(3)) {
            case 0: {
              const std::size_t op =
                  rec.begin(i, OpCode::kInsert, key, 100 * (i + 1) + k);
              rec.end(i, op, sl.insert(key, 100 * (i + 1) + k));
              break;
            }
            case 1: {
              const std::size_t op = rec.begin(i, OpCode::kErase, key);
              std::uint64_t v = 0;
              const bool ok = sl.erase(key, &v);
              rec.end(i, op, ok, v);
              break;
            }
            default: {
              const std::size_t op = rec.begin(i, OpCode::kContains, key);
              std::uint64_t v = 0;
              const bool ok = sl.contains(key, &v);
              rec.end(i, op, ok, v);
            }
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

TEST(DurableSkiplist, FreeRunningStressIsLinearizable) {
  const std::size_t threads = static_cast<std::size_t>(
      nvc::env_int("NVC_STRUCT_THREADS", 4));
  const std::size_t per = std::max<std::size_t>(2, 56 / threads);
  const std::uint64_t base = seed_from_env("NVC_SEED", 20260808);
  for (int round = 0; round < 3; ++round) {
    const std::uint64_t seed = base + static_cast<std::uint64_t>(round);
    SCOPED_TRACE(replay_hint("NVC_SEED", seed));
    PSpace ps(512 * 1024, /*elide=*/true);
    DurableSkiplist sl(ps);
    InterleaveScheduler sched(seed, /*free_running=*/true);
    ps.set_yield_hook(sched.hook());
    HistoryRecorder rec(threads);
    std::vector<std::function<void(std::size_t)>> bodies;
    for (std::size_t i = 0; i < threads; ++i) {
      bodies.push_back([&, i, seed](std::size_t) {
        Rng rng(seed ^ (0x85EBCA77u * (i + 1)));
        for (std::size_t k = 0; k < per; ++k) {
          const std::uint64_t key = 1 + rng.below(8);
          switch (rng.below(3)) {
            case 0: {
              const std::size_t op = rec.begin(i, OpCode::kInsert, key,
                                               1000 * (i + 1) + k);
              rec.end(i, op, sl.insert(key, 1000 * (i + 1) + k));
              break;
            }
            case 1: {
              const std::size_t op = rec.begin(i, OpCode::kErase, key);
              std::uint64_t v = 0;
              const bool ok = sl.erase(key, &v);
              rec.end(i, op, ok, v);
              break;
            }
            default: {
              const std::size_t op = rec.begin(i, OpCode::kContains, key);
              std::uint64_t v = 0;
              const bool ok = sl.contains(key, &v);
              rec.end(i, op, ok, v);
            }
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
