// Tests for knee-based cache-size selection (paper Section III-C) and the
// online bursty sampler.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "core/analyzer.hpp"
#include "core/knee.hpp"
#include "core/sampler.hpp"

namespace nvc::core {
namespace {

Mrc step_mrc(std::size_t max_size,
             std::initializer_list<std::pair<std::size_t, double>> levels) {
  // levels: (up_to_size, miss_ratio) steps, e.g. {{4,0.9},{22,0.4},{50,0.1}}.
  std::vector<double> mr(max_size, 1.0);
  std::size_t c = 1;
  for (const auto& [upto, value] : levels) {
    for (; c <= upto && c <= max_size; ++c) mr[c - 1] = value;
  }
  for (; c <= max_size; ++c) mr[c - 1] = mr[c - 2];
  return Mrc(std::move(mr));
}

TEST(KneeFinder, PicksLargestOfTopKnees) {
  // Two clear knees at sizes 5 and 23: the paper's rule takes the largest.
  const Mrc mrc = step_mrc(50, {{4, 0.9}, {22, 0.5}, {50, 0.1}});
  const KneeResult r = KneeFinder().select(mrc);
  EXPECT_TRUE(r.had_knees);
  EXPECT_EQ(r.chosen_size, 23u);
}

TEST(KneeFinder, SingleKnee) {
  const Mrc mrc = step_mrc(50, {{9, 0.8}, {50, 0.05}});
  const KneeResult r = KneeFinder().select(mrc);
  EXPECT_TRUE(r.had_knees);
  EXPECT_EQ(r.chosen_size, 10u);
}

TEST(KneeFinder, FlatCurveFallsBackToMaxSize) {
  const Mrc mrc = step_mrc(50, {{50, 0.4}});
  const KneeResult r = KneeFinder().select(mrc);
  EXPECT_FALSE(r.had_knees);
  EXPECT_EQ(r.chosen_size, 50u);
}

TEST(KneeFinder, IgnoresNoiseBelowThreshold) {
  // A slow, even decline with no drop above min_drop is "no knee".
  std::vector<double> mr(50);
  for (std::size_t c = 0; c < 50; ++c) {
    mr[c] = 0.5 - static_cast<double>(c) * 1e-5;
  }
  KneeConfig config;
  config.min_drop = 1e-3;
  const KneeResult r = KneeFinder(config).select(Mrc(std::move(mr)));
  EXPECT_FALSE(r.had_knees);
  EXPECT_EQ(r.chosen_size, 50u);
}

TEST(KneeFinder, RespectsMaxSizeBound) {
  // A huge drop beyond max_size must not be chosen.
  const Mrc mrc = step_mrc(100, {{7, 0.9}, {79, 0.6}, {100, 0.0}});
  KneeConfig config;
  config.max_size = 50;
  const KneeResult r = KneeFinder(config).select(mrc);
  EXPECT_EQ(r.chosen_size, 8u);  // only the size-8 knee is inside the bound
}

TEST(KneeFinder, CandidatesRankedByDrop) {
  const Mrc mrc = step_mrc(50, {{4, 0.9}, {22, 0.6}, {50, 0.0}});
  const KneeResult r = KneeFinder().select(mrc);
  ASSERT_GE(r.candidates.size(), 2u);
  EXPECT_EQ(r.candidates[0], 23u);  // drop 0.6 at size 23
  EXPECT_EQ(r.candidates[1], 5u);   // drop 0.3 at size 5
}

TEST(KneeFinder, RequiresCoveringMrc) {
  KneeConfig config;
  config.max_size = 50;
  Mrc small(std::vector<double>(10, 0.5));
  EXPECT_DEATH((void)KneeFinder(config).select(small), "cover");
}

// --- BurstSampler -------------------------------------------------------------------

SamplerConfig quick_sampler(std::uint64_t burst) {
  SamplerConfig config;
  config.burst_length = burst;
  config.knee.max_size = 50;
  return config;
}

TEST(BurstSampler, SelectsAfterExactlyOneBurst) {
  BurstSampler sampler(quick_sampler(1000));
  std::optional<std::size_t> selected;
  for (int i = 0; i < 999; ++i) {
    selected = sampler.on_store(static_cast<LineAddr>(i % 12));
    EXPECT_FALSE(selected.has_value());
    EXPECT_TRUE(sampler.sampling());
  }
  selected = sampler.on_store(0);
  ASSERT_TRUE(selected.has_value());
  EXPECT_FALSE(sampler.sampling());  // hibernating forever by default
  EXPECT_EQ(sampler.bursts_completed(), 1u);
}

TEST(BurstSampler, WorkingSetTraceSelectsWorkingSetSize) {
  // Cyclic writes over 12 lines: the knee is at 12.
  BurstSampler sampler(quick_sampler(1200));
  std::optional<std::size_t> selected;
  for (int i = 0; i < 1200; ++i) {
    const auto s = sampler.on_store(static_cast<LineAddr>(i % 12));
    if (s) selected = s;
  }
  ASSERT_TRUE(selected.has_value());
  EXPECT_NEAR(static_cast<double>(*selected), 12.0, 2.0);
}

TEST(BurstSampler, InfiniteHibernationNeverResamples) {
  BurstSampler sampler(quick_sampler(100));
  int selections = 0;
  for (int i = 0; i < 5000; ++i) {
    if (sampler.on_store(static_cast<LineAddr>(i % 5))) ++selections;
  }
  EXPECT_EQ(selections, 1);
}

TEST(BurstSampler, ResampleStartsOneBurstOnADormantSampler) {
  BurstSampler sampler(quick_sampler(100));
  EXPECT_FALSE(sampler.resample());  // still sampling the first burst
  for (int i = 0; i < 100; ++i) {
    (void)sampler.on_store(static_cast<LineAddr>(i % 5));
  }
  ASSERT_TRUE(sampler.dormant());
  // Dormant: the re-sample starts at once (no warmup skip) and ends after
  // exactly one more burst, dormant again.
  ASSERT_TRUE(sampler.resample());
  EXPECT_TRUE(sampler.sampling());
  EXPECT_FALSE(sampler.resample());
  std::optional<std::size_t> selected;
  for (int i = 0; i < 100; ++i) {
    selected = sampler.on_store(static_cast<LineAddr>(i % 9));
  }
  ASSERT_TRUE(selected.has_value());
  EXPECT_EQ(sampler.bursts_completed(), 2u);
  EXPECT_NEAR(static_cast<double>(*selected), 9.0, 2.0);
  EXPECT_TRUE(sampler.dormant());

  // A counted hibernation is never dormant, so it never takes a re-sample.
  SamplerConfig hibernating = quick_sampler(100);
  hibernating.hibernation_length = 50;
  BurstSampler periodic(hibernating);
  for (int i = 0; i < 100; ++i) {
    (void)periodic.on_store(static_cast<LineAddr>(i % 5));
  }
  EXPECT_FALSE(periodic.resample());
}

TEST(BurstSampler, ResampleWaitsForTheInFlightAnalysis) {
  SamplerConfig config = quick_sampler(100);
  config.manual_analysis = true;
  BurstSampler sampler(config);
  for (int i = 0; i < 100; ++i) {
    (void)sampler.on_store(static_cast<LineAddr>(i % 5));
  }
  ASSERT_TRUE(sampler.analysis_in_flight());
  EXPECT_FALSE(sampler.resample());
  EXPECT_FALSE(sampler.sampling());
  ASSERT_TRUE(sampler.pump_analysis());
  ASSERT_TRUE(sampler.poll_selection().has_value());
  EXPECT_TRUE(sampler.resample());
}

TEST(BurstSampler, PeriodicResamplingExtension) {
  SamplerConfig config = quick_sampler(100);
  config.hibernation_length = 400;  // re-sample every 400 writes
  BurstSampler sampler(config);
  int selections = 0;
  for (int i = 0; i < 2100; ++i) {
    if (sampler.on_store(static_cast<LineAddr>(i % 7))) ++selections;
  }
  // bursts at writes 100, 600, 1100, 1600, 2100.
  EXPECT_GE(selections, 4);
}

TEST(BurstSampler, FaseBoundariesInvalidateCrossFaseReuse) {
  // "ab|ab|ab..." must select nothing small-and-perfect: with boundaries
  // after every pair, every write is compulsory, the curve is flat, and the
  // sampler falls back to max size (paper Section III-B adaptation).
  SamplerConfig config = quick_sampler(400);
  BurstSampler with_fases(config);
  std::optional<std::size_t> sel_fases;
  for (int i = 0; i < 400; ++i) {
    const auto s = with_fases.on_store(static_cast<LineAddr>(i % 2));
    if (s) sel_fases = s;
    if (i % 2 == 1) with_fases.on_fase_boundary();
  }
  ASSERT_TRUE(sel_fases.has_value());
  EXPECT_FALSE(with_fases.last_selection().had_knees);
  EXPECT_EQ(*sel_fases, config.knee.max_size);

  // Without boundaries the same stream has a perfect knee at 2.
  BurstSampler without(config);
  std::optional<std::size_t> sel_plain;
  for (int i = 0; i < 400; ++i) {
    const auto s = without.on_store(static_cast<LineAddr>(i % 2));
    if (s) sel_plain = s;
  }
  ASSERT_TRUE(sel_plain.has_value());
  EXPECT_TRUE(without.last_selection().had_knees);
  EXPECT_LE(*sel_plain, 3u);
}

TEST(BurstSampler, SkipFasesIgnoresInitializationPhase) {
  // Phase 1 (init FASE): streaming writes, working set 1. Phase 2: loop
  // over 12 lines. Without skipping, the burst samples phase 1 and the
  // selection is wrong; with skip_fases=1 it captures phase 2's knee.
  auto run = [](std::uint32_t skip) {
    SamplerConfig config = quick_sampler(600);
    config.skip_fases = skip;
    BurstSampler sampler(config);
    std::optional<std::size_t> selected;
    for (int i = 0; i < 700; ++i) {  // init: distinct addresses
      if (auto s = sampler.on_store(1000 + i)) selected = s;
    }
    sampler.on_fase_boundary();
    for (int i = 0; i < 2000; ++i) {  // steady state: 12-line loop
      if (auto s = sampler.on_store(static_cast<LineAddr>(i % 12))) {
        selected = s;
      }
    }
    return selected;
  };
  const auto unskipped = run(0);
  const auto skipped = run(1);
  ASSERT_TRUE(unskipped.has_value());
  ASSERT_TRUE(skipped.has_value());
  // Streaming init has no knees => falls back to the max size.
  EXPECT_EQ(*unskipped, KneeConfig{}.max_size);
  EXPECT_NEAR(static_cast<double>(*skipped), 12.0, 2.0);
}

TEST(BurstSampler, SkipFasesGivesUpOnSingleFasePrograms) {
  // One giant FASE: skipping must time out after one burst worth of writes
  // and still produce a selection.
  SamplerConfig config = quick_sampler(500);
  config.skip_fases = 1;
  BurstSampler sampler(config);
  std::optional<std::size_t> selected;
  for (int i = 0; i < 4 * 500 + 600; ++i) {
    if (auto s = sampler.on_store(static_cast<LineAddr>(i % 9))) {
      selected = s;
    }
  }
  ASSERT_TRUE(selected.has_value());
  EXPECT_NEAR(static_cast<double>(*selected), 9.0, 2.0);
}

TEST(BurstSampler, OfflineAnalysisMatchesOnlineOnStationaryTrace) {
  std::vector<LineAddr> trace;
  std::vector<std::size_t> boundaries;
  Rng rng(17);
  for (int f = 0; f < 50; ++f) {
    for (int rep = 0; rep < 4; ++rep) {
      for (LineAddr a = 0; a < 9; ++a) trace.push_back(a);
    }
    boundaries.push_back(trace.size());
  }

  Mrc offline_mrc;
  const KneeResult offline = BurstSampler::analyze_offline(
      trace, boundaries, KneeConfig{}, &offline_mrc);

  BurstSampler online(quick_sampler(trace.size()));
  std::optional<std::size_t> selected;
  std::size_t bi = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    while (bi < boundaries.size() && boundaries[bi] == i) {
      online.on_fase_boundary();
      ++bi;
    }
    const auto s = online.on_store(trace[i]);
    if (s) selected = s;
  }
  ASSERT_TRUE(selected.has_value());
  EXPECT_EQ(*selected, offline.chosen_size);
}

// --- knee placement on the burst's exact MRC ---------------------------------

/// One FASE in two phases: 6000 stores cycling 2 lines, then 8000 cycling
/// 10 others. The first phase's windows hold few distinct lines, so the
/// timescale model's average footprint puts the second phase's cliff at 7;
/// every one of its reuses really has stack distance 10.
std::vector<LineAddr> two_phase_burst() {
  std::vector<LineAddr> trace;
  for (LineAddr i = 0; i < 6000; ++i) trace.push_back(i % 2);
  for (LineAddr i = 0; i < 8000; ++i) trace.push_back(2 + i % 10);
  return trace;
}

KneeConfig placement_knee() {
  KneeConfig knee;
  knee.max_size = 16;
  return knee;
}

TEST(KneePlacement, ModelCliffLeftOfTheExactOneMovesToTheExactCliff) {
  const BurstAnalysis a = analyze_burst(two_phase_burst(), placement_knee());
  EXPECT_EQ(a.selection.model_size, 7u);
  EXPECT_LT(a.mrc.at(7), 0.01);  // the model has reached bottom at 7
  EXPECT_GT(a.exact.at(9), 0.5);  // the cache has not
  EXPECT_LT(a.exact.at(10), 0.01);
  EXPECT_EQ(a.selection.chosen_size, 10u);
  EXPECT_EQ(place_knee(a.mrc, a.exact, 7), 10u);
}

TEST(KneePlacement, FlatCurveStaysAtMaxSize) {
  // A stream of fresh lines: both MRCs read 1.0 everywhere.
  std::vector<LineAddr> trace(2000);
  for (LineAddr i = 0; i < trace.size(); ++i) trace[i] = i;
  const BurstAnalysis a = analyze_burst(trace, placement_knee());
  EXPECT_FALSE(a.selection.had_knees);
  EXPECT_EQ(a.selection.model_size, 16u);
  EXPECT_EQ(a.selection.chosen_size, 16u);
  EXPECT_DOUBLE_EQ(a.exact.at(1), 1.0);
  EXPECT_DOUBLE_EQ(a.exact.at(16), 1.0);
}

TEST(KneePlacement, KneeTheExactMrcConfirmsStaysPut) {
  // A 6-line loop: model and exact cliff both at 6.
  std::vector<LineAddr> trace(3000);
  for (LineAddr i = 0; i < trace.size(); ++i) trace[i] = i % 6;
  const BurstAnalysis a = analyze_burst(trace, placement_knee());
  EXPECT_EQ(a.selection.model_size, 6u);
  EXPECT_EQ(a.selection.chosen_size, 6u);
}

TEST(KneePlacement, SlackKeepsAKneeAboveAShallowExactTail) {
  // The exact curve still falls 0.008 past the knee: within the slack.
  const Mrc model = step_mrc(16, {{3, 0.9}, {16, 0.1}});
  const Mrc exact = step_mrc(16, {{3, 0.9}, {9, 0.108}, {16, 0.1}});
  EXPECT_EQ(place_knee(model, exact, 4), 4u);
  // 0.02 is not: the knee moves to where the tail ends.
  const Mrc steeper = step_mrc(16, {{3, 0.9}, {9, 0.12}, {16, 0.1}});
  EXPECT_EQ(place_knee(model, steeper, 4), 10u);
}

TEST(KneePlacement, NeverMovesLeft) {
  // The exact cliff sits left of the model's knee: the knee stays.
  const Mrc model = step_mrc(16, {{7, 0.8}, {16, 0.2}});
  const Mrc exact = step_mrc(16, {{3, 0.8}, {16, 0.2}});
  EXPECT_EQ(place_knee(model, exact, 8), 8u);
  // And over random bursts, whatever the two curves say.
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    const LineAddr ids = rng.range(2, 40);
    std::vector<LineAddr> trace(rng.range(200, 2000));
    for (LineAddr& t : trace) t = rng.below(ids);
    const BurstAnalysis a = analyze_burst(trace, placement_knee());
    EXPECT_GE(a.selection.chosen_size, a.selection.model_size)
        << "seed " << seed;
    EXPECT_EQ(a.selection.chosen_size,
              place_knee(a.mrc, a.exact, a.selection.model_size))
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace nvc::core
