// Tests for MRC construction: the reuse-theory model (Eq. 3), exact LRU via
// Mattson stack distances, and direct WriteCache simulation with FASE
// clearing — plus cross-validation between the three.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <vector>

#include "common/rng.hpp"
#include "core/fase_trace.hpp"
#include "core/mrc.hpp"
#include "core/write_cache.hpp"
#include "testing/seed.hpp"

namespace nvc::core {
namespace {

using nvc::testing::replay_hint;
using nvc::testing::seed_from_env;

// --- exact LRU reference -----------------------------------------------------------

/// O(n * c) reference simulator: a plain LRU list per cache size.
double reference_lru_miss_ratio(const std::vector<LineAddr>& trace,
                                std::size_t size) {
  std::deque<LineAddr> lru;
  std::uint64_t misses = 0;
  for (const LineAddr a : trace) {
    auto it = std::find(lru.begin(), lru.end(), a);
    if (it != lru.end()) {
      lru.erase(it);
    } else {
      ++misses;
      if (lru.size() == size) lru.pop_back();
    }
    lru.push_front(a);
  }
  return static_cast<double>(misses) / static_cast<double>(trace.size());
}

TEST(MrcExactLru, MatchesReferenceSimulatorOnRandomTraces) {
  const std::uint64_t seed = seed_from_env("NVC_SEED", 21);
  SCOPED_TRACE(replay_hint("NVC_SEED", seed));
  Rng rng(seed);
  for (int round = 0; round < 5; ++round) {
    std::vector<LineAddr> trace;
    for (int i = 0; i < 500; ++i) trace.push_back(rng.below(30));
    const Mrc mrc = mrc_exact_lru(trace, 40);
    for (std::size_t c : {1u, 2u, 5u, 10u, 23u, 30u, 40u}) {
      EXPECT_NEAR(mrc.at(c), reference_lru_miss_ratio(trace, c), 1e-12)
          << "size " << c;
    }
  }
}

TEST(MrcExactLru, LoopPatternHasSharpKnee) {
  // Cyclic sweep over 10 lines: LRU misses at every size < 10, hits fully
  // at size >= 10.
  std::vector<LineAddr> trace;
  for (int rep = 0; rep < 100; ++rep) {
    for (LineAddr a = 0; a < 10; ++a) trace.push_back(a);
  }
  const Mrc mrc = mrc_exact_lru(trace, 20);
  EXPECT_GT(mrc.at(9), 0.99);  // classic LRU loop pathology
  EXPECT_LT(mrc.at(10), 0.02);  // only cold misses remain
}

TEST(MrcExactLru, MonotoneInSize) {
  const std::uint64_t seed = seed_from_env("NVC_SEED", 8);
  SCOPED_TRACE(replay_hint("NVC_SEED", seed));
  Rng rng(seed);
  std::vector<LineAddr> trace;
  for (int i = 0; i < 2000; ++i) {
    const double u = rng.uniform();
    trace.push_back(static_cast<LineAddr>(u * u * 50));
  }
  const Mrc mrc = mrc_exact_lru(trace, 50);
  for (std::size_t c = 2; c <= 50; ++c) {
    EXPECT_LE(mrc.at(c), mrc.at(c - 1) + 1e-12);
  }
}

TEST(MrcExactLru, LongTraceMatchesAMoveToFrontStack) {
  // 2^17 stores: the counting tree under the pass has three levels, and
  // distances run past one 64-time word and past one 16-word group.
  const std::uint64_t seed = seed_from_env("NVC_SEED", 33);
  SCOPED_TRACE(replay_hint("NVC_SEED", seed));
  Rng rng(seed);
  std::vector<LineAddr> trace(std::size_t{1} << 17);
  for (LineAddr& a : trace) {
    // Half the stores to 40 hot lines, half to 1500: short and long reuses.
    a = rng.below(2) == 0 ? rng.below(40) : 40 + rng.below(1500);
  }
  constexpr std::size_t kMax = 1600;
  // Reference distances from an explicit LRU stack, most recent first.
  std::vector<std::uint64_t> within(kMax + 1, 0);  // distance histogram
  std::uint64_t misses_anywhere = 0;                // cold or beyond kMax
  std::vector<LineAddr> stack;
  for (const LineAddr a : trace) {
    const auto it = std::find(stack.begin(), stack.end(), a);
    const auto dist = static_cast<std::size_t>(it - stack.begin()) + 1;
    if (it == stack.end() || dist > kMax) {
      ++misses_anywhere;
    } else {
      ++within[dist];
    }
    if (it != stack.end()) stack.erase(it);
    stack.insert(stack.begin(), a);
  }
  const Mrc mrc = mrc_exact_lru(trace, kMax);
  std::uint64_t hits = 0;
  for (std::size_t c = 1; c <= kMax; ++c) {
    hits += within[c];
    const double expected =
        static_cast<double>(trace.size() - hits) /
        static_cast<double>(trace.size());
    ASSERT_DOUBLE_EQ(mrc.at(c), expected) << "size " << c;
  }
  EXPECT_GT(misses_anywhere, 0u);
}

TEST(MrcExactLru, RenamedTraceIsTheWriteCacheFlushRatio) {
  // FASE renaming gives every FASE's lines fresh ids, so the exact pass
  // over the renamed trace counts FASE-end flushes as the compulsory
  // misses they are: it equals the write cache simulated with clearing.
  const std::uint64_t seed = seed_from_env("NVC_SEED", 5);
  SCOPED_TRACE(replay_hint("NVC_SEED", seed));
  Rng rng(seed);
  std::vector<LineAddr> trace;
  std::vector<std::size_t> boundaries;
  for (int f = 0; f < 40; ++f) {
    const std::uint64_t len = rng.range(1, 200);
    for (std::uint64_t i = 0; i < len; ++i) trace.push_back(rng.below(24));
    boundaries.push_back(trace.size());
  }
  const auto renamed = rename_trace(trace, boundaries);
  const auto n = static_cast<LogicalTime>(renamed.size());
  const Mrc exact = mrc_exact_lru(renamed, 30);
  const Mrc dense = mrc_exact_from_intervals(
      intervals_of_dense_trace(renamed, static_cast<LineAddr>(n)), n, 30);
  const Mrc sim = mrc_simulate_write_cache(trace, boundaries, 30);
  for (std::size_t c = 1; c <= 30; ++c) {
    EXPECT_NEAR(exact.at(c), sim.at(c), 1e-12) << "size " << c;
    EXPECT_DOUBLE_EQ(dense.at(c), exact.at(c)) << "size " << c;
  }
}

// --- reuse-model MRC -----------------------------------------------------------------

TEST(MrcFromReuse, PerfectlyCacheableTrace) {
  // "aaaa...": hit ratio 1 at size 1 (after the cold miss).
  std::vector<LineAddr> trace(200, 7);
  const auto reuse =
      compute_reuse_all_k(intervals_of_trace(trace),
                          static_cast<LogicalTime>(trace.size()));
  const Mrc mrc = mrc_from_reuse(reuse, 10);
  EXPECT_LT(mrc.at(1), 0.05);
}

TEST(MrcFromReuse, StreamingTraceNeverHits) {
  // All-distinct addresses: miss ratio 1 at every size.
  std::vector<LineAddr> trace;
  for (LineAddr a = 0; a < 300; ++a) trace.push_back(a);
  const auto reuse =
      compute_reuse_all_k(intervals_of_trace(trace),
                          static_cast<LogicalTime>(trace.size()));
  const Mrc mrc = mrc_from_reuse(reuse, 50);
  for (std::size_t c = 1; c <= 50; ++c) {
    EXPECT_DOUBLE_EQ(mrc.at(c), 1.0);
  }
}

TEST(MrcFromReuse, ApproximatesExactLruAtTheKnee) {
  // The HOTL conversion is an average-case model; on a working-set trace it
  // must place the knee where exact LRU places it.
  const std::uint64_t seed = seed_from_env("NVC_SEED", 10);
  SCOPED_TRACE(replay_hint("NVC_SEED", seed));
  Rng rng(seed);
  std::vector<LineAddr> trace;
  for (int rep = 0; rep < 400; ++rep) {
    for (LineAddr a = 0; a < 12; ++a) {
      trace.push_back(a);
      if (rng.chance(0.05)) trace.push_back(rng.below(200) + 100);
    }
  }
  const auto reuse = compute_reuse_all_k(
      intervals_of_trace(trace), static_cast<LogicalTime>(trace.size()));
  const Mrc model = mrc_from_reuse(reuse, 40);
  // Above the working set the model must report a low miss ratio...
  EXPECT_LT(model.at(20), 0.25);
  // ...and a clearly higher one far below it.
  EXPECT_GT(model.at(2), model.at(20) + 0.2);
}

TEST(MrcFromReuse, CurveIsNonIncreasingAndBounded) {
  const std::uint64_t seed = seed_from_env("NVC_SEED", 55);
  SCOPED_TRACE(replay_hint("NVC_SEED", seed));
  Rng rng(seed);
  std::vector<LineAddr> trace;
  for (int i = 0; i < 3000; ++i) trace.push_back(rng.below(60));
  const auto reuse = compute_reuse_all_k(
      intervals_of_trace(trace), static_cast<LogicalTime>(trace.size()));
  const Mrc mrc = mrc_from_reuse(reuse, 50);
  for (std::size_t c = 1; c <= 50; ++c) {
    EXPECT_GE(mrc.at(c), 0.0);
    EXPECT_LE(mrc.at(c), 1.0);
    if (c > 1) {
      EXPECT_LE(mrc.at(c), mrc.at(c - 1) + 1e-12);
    }
  }
}

TEST(Mrc, GradientIsDropBetweenAdjacentSizes) {
  Mrc mrc(std::vector<double>{0.9, 0.5, 0.45, 0.45});
  EXPECT_DOUBLE_EQ(mrc.gradient(2), 0.4);
  EXPECT_NEAR(mrc.gradient(3), 0.05, 1e-12);
  EXPECT_DOUBLE_EQ(mrc.gradient(4), 0.0);
}

// --- WriteCache simulation (the "actual" MRC of Fig. 7) --------------------------------

TEST(MrcSimulate, FlushRatioEqualsMissRatio) {
  // Invariant: in the write-combining cache, every miss leads to exactly
  // one flush, so simulated miss ratio == flush ratio.
  const std::uint64_t seed = seed_from_env("NVC_SEED", 3);
  SCOPED_TRACE(replay_hint("NVC_SEED", seed));
  Rng rng(seed);
  std::vector<LineAddr> trace;
  std::vector<std::size_t> boundaries;
  for (int f = 0; f < 40; ++f) {
    for (int i = 0; i < 50; ++i) trace.push_back(rng.below(15));
    boundaries.push_back(trace.size());
  }
  const Mrc sim = mrc_simulate_write_cache(trace, boundaries, 30);

  // Independent check at one size via manual counting.
  WriteCache cache(10);
  CountingSink sink;
  std::size_t bi = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    while (bi < boundaries.size() && boundaries[bi] == i) {
      cache.flush_all(sink);
      ++bi;
    }
    cache.access(trace[i], sink);
  }
  cache.flush_all(sink);
  const double flush_ratio =
      static_cast<double>(sink.count()) / static_cast<double>(trace.size());
  EXPECT_NEAR(sim.at(10), flush_ratio, 1e-12);
}

TEST(MrcSimulate, FaseClearingRaisesMissRatio) {
  // The same address stream with per-iteration FASE boundaries must miss
  // more than without boundaries (cross-FASE reuses are invalidated).
  std::vector<LineAddr> trace;
  std::vector<std::size_t> per_iter_boundaries;
  for (int rep = 0; rep < 100; ++rep) {
    trace.push_back(1);
    trace.push_back(2);
    per_iter_boundaries.push_back(trace.size());
  }
  const Mrc with_fases =
      mrc_simulate_write_cache(trace, per_iter_boundaries, 4);
  const Mrc without = mrc_simulate_write_cache(trace, {}, 4);
  EXPECT_GT(with_fases.at(4), 0.95);  // every write is a compulsory miss
  EXPECT_LT(without.at(4), 0.05);
}

TEST(MrcModelVsSimulation, AgreeOnFaseRenamedTrace) {
  // End-to-end: FASE renaming + reuse model vs direct simulation. The model
  // is approximate, but on a regular working-set trace they must agree
  // within a few percent at every size.
  std::vector<LineAddr> trace;
  std::vector<std::size_t> boundaries;
  for (int f = 0; f < 60; ++f) {
    for (int rep = 0; rep < 6; ++rep) {
      for (LineAddr a = 0; a < 8; ++a) trace.push_back(a);
    }
    boundaries.push_back(trace.size());
  }
  const auto renamed = rename_trace(trace, boundaries);
  const auto reuse = compute_reuse_all_k(
      intervals_of_trace(renamed), static_cast<LogicalTime>(renamed.size()));
  const Mrc model = mrc_from_reuse(reuse, 20);
  const Mrc sim = mrc_simulate_write_cache(trace, boundaries, 20);
  for (std::size_t c = 1; c <= 20; ++c) {
    EXPECT_NEAR(model.at(c), sim.at(c), 0.08) << "size " << c;
  }
}

}  // namespace
}  // namespace nvc::core
