// Tests for knee-based cache-size selection (paper Section III-C) and the
// online bursty sampler.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/analyzer.hpp"
#include "core/fase_trace.hpp"
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

void expect_same_mrc(const Mrc& a, const Mrc& b) {
  ASSERT_EQ(a.max_size(), b.max_size());
  const auto va = a.values();
  const auto vb = b.values();
  // Byte-identical, not approximately equal: both paths must run exactly the
  // same pipeline on exactly the same renamed trace.
  EXPECT_TRUE(std::equal(va.begin(), va.end(), vb.begin()));
}

/// Same model MRC, same exact MRC, same knee and the same placement.
void expect_same_analysis(const BurstAnalysis& a, const BurstAnalysis& b) {
  expect_same_mrc(a.mrc, b.mrc);
  expect_same_mrc(a.exact, b.exact);
  EXPECT_EQ(a.selection.chosen_size, b.selection.chosen_size);
  EXPECT_EQ(a.selection.model_size, b.selection.model_size);
  EXPECT_EQ(a.selection.had_knees, b.selection.had_knees);
  EXPECT_EQ(a.selection.candidates, b.selection.candidates);
}

BurstAnalysis last_analysis(const BurstSampler& sampler) {
  return {sampler.last_mrc(), sampler.last_exact_mrc(),
          sampler.last_selection()};
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

TEST(BurstSampler, EachCountedBurstAnalyzesItsOwnRenamedTrace) {
  // Counted hibernation, a working set that grows every 1000 stores and a
  // FASE every 64: each burst's selection (and both MRCs) must be exactly
  // analyze_burst on that burst's stores, renamed at its own FASE
  // boundaries — nothing carried over from hibernation or earlier bursts.
  SamplerConfig config = quick_sampler(300);
  config.hibernation_length = 150;
  BurstSampler sampler(config);
  std::vector<LineAddr> burst;
  std::vector<std::size_t> boundaries;
  std::vector<std::size_t> selections;
  for (std::uint64_t i = 0; i < 3000; ++i) {
    const LineAddr line = static_cast<LineAddr>(i % (8 + 4 * (i / 1000)));
    const auto selected = sampler.on_store(line);
    if (sampler.sampling() || selected) burst.push_back(line);
    if (selected) {
      const BurstAnalysis expected =
          analyze_burst(rename_trace(burst, boundaries), config.knee);
      EXPECT_EQ(*selected, expected.selection.chosen_size)
          << "burst " << selections.size();
      expect_same_analysis(last_analysis(sampler), expected);
      selections.push_back(*selected);
      burst.clear();
      boundaries.clear();
    }
    if (i % 64 == 63) {
      if (sampler.sampling()) boundaries.push_back(burst.size());
      sampler.on_fase_boundary();
    }
  }
  EXPECT_EQ(sampler.bursts_completed(), selections.size());
  ASSERT_GE(selections.size(), 3u);
  // The shifting working set must move the selection, or equal selections
  // could hide a burst analyzed on a stale trace.
  EXPECT_NE(selections.front(), selections.back());
}

TEST(BurstSampler, HibernationReEnableReReservesTraceBuffer) {
  SamplerConfig config = quick_sampler(128);
  config.hibernation_length = 64;
  BurstSampler sampler(config);
  EXPECT_GE(sampler.trace_capacity(), 128u);
  for (int i = 0; i < 128; ++i) {
    sampler.on_store(static_cast<LineAddr>(i % 6));
  }
  // Burst over: the buffer was shrunk, so the capacity is gone.
  EXPECT_EQ(sampler.trace_capacity(), 0u);
  for (int i = 0; i < 64; ++i) {
    sampler.on_store(static_cast<LineAddr>(i % 6));
  }
  // Sampling re-enabled: the full burst reservation must be back so the
  // new burst does not re-grow through repeated reallocation.
  EXPECT_TRUE(sampler.sampling());
  EXPECT_GE(sampler.trace_capacity(), 128u);
}

TEST(BurstSampler, ForeverHibernationReleasesTheTraceBuffer) {
  // After the paper's single burst the sampler ignores stores for good: the
  // trace buffer must be gone and stay gone, until a re-sample needs it.
  BurstSampler sampler(quick_sampler(256));
  for (int i = 0; i < 256; ++i) {
    (void)sampler.on_store(static_cast<LineAddr>(i % 6));
  }
  ASSERT_TRUE(sampler.dormant());
  EXPECT_EQ(sampler.trace_capacity(), 0u);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_FALSE(sampler.on_store(static_cast<LineAddr>(i % 6)).has_value());
  }
  EXPECT_EQ(sampler.trace_capacity(), 0u);
  ASSERT_TRUE(sampler.resample());
  EXPECT_GE(sampler.trace_capacity(), 256u);
}

TEST(BurstSampler, ResampleDuringABurstDoesNotRestartIt) {
  // resample() mid-burst is refused and changes nothing: the burst still
  // ends on its own burst_length-th store, on the trace it began with.
  BurstSampler sampler(quick_sampler(100));
  BurstSampler reference(quick_sampler(100));
  for (int i = 0; i < 60; ++i) {
    (void)sampler.on_store(static_cast<LineAddr>(i % 5));
    (void)reference.on_store(static_cast<LineAddr>(i % 5));
  }
  EXPECT_FALSE(sampler.resample());
  EXPECT_TRUE(sampler.sampling());
  for (int i = 60; i < 99; ++i) {
    EXPECT_FALSE(sampler.on_store(static_cast<LineAddr>(i % 5)).has_value());
    (void)reference.on_store(static_cast<LineAddr>(i % 5));
  }
  const auto selected = sampler.on_store(99 % 5);
  ASSERT_TRUE(selected.has_value());
  ASSERT_TRUE(reference.on_store(99 % 5).has_value());
  EXPECT_EQ(sampler.bursts_completed(), 1u);
  expect_same_analysis(last_analysis(sampler), last_analysis(reference));
}

TEST(BurstSampler, IdenticalStreamsGiveByteIdenticalAnalyses) {
  // One decision path, no thread in it: two samplers fed the same stores
  // and FASE boundaries select the same sizes from the same curves, burst
  // after burst.
  SamplerConfig config = quick_sampler(700);
  config.hibernation_length = 300;
  BurstSampler a(config);
  BurstSampler b(config);
  Rng rng(41);
  int selections = 0;
  for (int i = 0; i < 6000; ++i) {
    const LineAddr line = rng.below(6 + static_cast<LineAddr>(i / 1500) * 5);
    const auto sa = a.on_store(line);
    const auto sb = b.on_store(line);
    ASSERT_EQ(sa, sb) << "store " << i;
    if (sa) {
      ++selections;
      expect_same_analysis(last_analysis(a), last_analysis(b));
    }
    if (i % 90 == 89) {
      a.on_fase_boundary();
      b.on_fase_boundary();
    }
  }
  EXPECT_GE(selections, 5);
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

// --- the online decision path over a sweep of stream shapes ------------------

enum class Shape {
  kLoop,     // i % ws
  kPhases,   // loop over ws lines, then over ws2 other lines
  kGrowing,  // the working set grows by 4 lines every 1000 stores
  kRandom,   // uniform over ws lines
  kZipfish,  // squared uniform over ws lines: a few hot, a long tail
  kHotCold,  // 90% uniform over ws hot lines, 10% over 8 * ws cold ones
  kStream,   // a fresh line every store
};

struct SamplerCase {
  const char* name;
  Shape shape;
  LineAddr ws;
  LineAddr ws2 = 0;
  std::uint64_t burst = 1000;
  std::uint64_t hibernation = 0;  // 0 = forever
  std::uint32_t skip_fases = 0;
  std::uint64_t fase_length = 0;  // stores per FASE; 0 = one FASE
  std::uint64_t stores = 4000;
  std::uint64_t seed = 1;
  std::size_t min_bursts = 1;
};

LineAddr shape_line(const SamplerCase& c, std::uint64_t i, Rng& rng) {
  switch (c.shape) {
    case Shape::kLoop:
      return i % c.ws;
    case Shape::kPhases:
      return i < c.stores / 2 ? i % c.ws : 1000 + i % c.ws2;
    case Shape::kGrowing:
      return i % (c.ws + 4 * (i / 1000));
    case Shape::kRandom:
      return rng.below(c.ws);
    case Shape::kZipfish: {
      const double u = rng.uniform();
      return static_cast<LineAddr>(u * u * static_cast<double>(c.ws));
    }
    case Shape::kHotCold:
      return rng.chance(0.9) ? rng.below(c.ws) : 10000 + rng.below(8 * c.ws);
    case Shape::kStream:
      return 100000 + i;
  }
  return 0;
}

/// Print a case by its name alone: the default dump of the struct's bytes
/// would put a pointer, and so a different ctest name, into every build.
void PrintTo(const SamplerCase& c, std::ostream* os) { *os << c.name; }

std::string sampler_case_name(
    const ::testing::TestParamInfo<SamplerCase>& param) {
  return param.param.name;
}

class SamplerSweep : public ::testing::TestWithParam<SamplerCase> {};

TEST_P(SamplerSweep, EachSelectionIsAnalyzeBurstOfTheStoresItSaw) {
  // The sampler's only output is the selection its burst-ending store
  // returns. Against an oracle that keeps its own copy of every burst (the
  // warmup skip and the hibernations replayed from the config): each
  // selection must arrive on the burst_length-th recorded store, and must
  // equal both analyze_burst on that burst renamed at its own FASE
  // boundaries and the offline path on the raw burst — curves included.
  const SamplerCase& c = GetParam();
  SamplerConfig config = quick_sampler(c.burst);
  config.hibernation_length = c.hibernation;
  config.skip_fases = c.skip_fases;
  BurstSampler sampler(config);
  Rng rng(c.seed);

  std::uint32_t to_skip = c.skip_fases;
  std::uint64_t warmup = 0;
  std::vector<LineAddr> burst;
  std::vector<std::size_t> boundaries;
  std::size_t selections = 0;
  for (std::uint64_t i = 0; i < c.stores; ++i) {
    const LineAddr line = shape_line(c, i, rng);
    const bool warming = to_skip > 0;
    if (warming && ++warmup >= 4 * c.burst) to_skip = 0;
    const auto selected = sampler.on_store(line);
    if (!warming && (sampler.sampling() || selected)) burst.push_back(line);
    if (selected) {
      ++selections;
      SCOPED_TRACE(::testing::Message() << "burst " << selections);
      ASSERT_EQ(burst.size(), c.burst);
      const BurstAnalysis expected =
          analyze_burst(rename_trace(burst, boundaries), config.knee);
      EXPECT_EQ(*selected, expected.selection.chosen_size);
      expect_same_analysis(last_analysis(sampler), expected);
      BurstAnalysis offline;
      offline.selection = BurstSampler::analyze_offline(
          burst, boundaries, config.knee, &offline.mrc, &offline.exact);
      expect_same_analysis(offline, expected);
      EXPECT_GE(*selected, 1u);
      EXPECT_LE(*selected, config.knee.max_size);
      burst.clear();
      boundaries.clear();
    } else if (!warming && sampler.sampling()) {
      ASSERT_LT(burst.size(), c.burst) << "a full burst returned nothing";
    }
    if (c.fase_length > 0 && i % c.fase_length == c.fase_length - 1) {
      if (to_skip > 0) {
        --to_skip;
      } else if (sampler.sampling()) {
        boundaries.push_back(burst.size());
      }
      sampler.on_fase_boundary();
    }
  }
  EXPECT_EQ(sampler.bursts_completed(), selections);
  EXPECT_GE(selections, c.min_bursts);
  if (c.hibernation == 0 && selections > 0) {
    EXPECT_TRUE(sampler.dormant());
    EXPECT_EQ(selections, 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SamplerSweep,
    ::testing::Values(
        SamplerCase{.name = "loop12_onefase", .shape = Shape::kLoop,
                    .ws = 12, .burst = 1200},
        SamplerCase{.name = "loop8_fase64", .shape = Shape::kLoop, .ws = 8,
                    .fase_length = 64},
        SamplerCase{.name = "loop30_fase16", .shape = Shape::kLoop, .ws = 30,
                    .burst = 2000, .fase_length = 16},
        SamplerCase{.name = "pingpong_fase2", .shape = Shape::kLoop, .ws = 2,
                    .burst = 400, .fase_length = 2},
        SamplerCase{.name = "loop60_beyond_max_size", .shape = Shape::kLoop,
                    .ws = 60, .burst = 3000, .fase_length = 600},
        SamplerCase{.name = "phases_2_then_10", .shape = Shape::kPhases,
                    .ws = 2, .ws2 = 10, .burst = 3000, .fase_length = 500,
                    .stores = 5000},
        SamplerCase{.name = "phases_counted", .shape = Shape::kPhases,
                    .ws = 4, .ws2 = 20, .burst = 800, .hibernation = 700,
                    .fase_length = 100, .stores = 8000, .min_bursts = 4},
        SamplerCase{.name = "growing_counted", .shape = Shape::kGrowing,
                    .ws = 8, .burst = 300, .hibernation = 150,
                    .fase_length = 64, .stores = 3000, .min_bursts = 3},
        SamplerCase{.name = "random20", .shape = Shape::kRandom, .ws = 20,
                    .burst = 2000, .fase_length = 256, .seed = 3},
        SamplerCase{.name = "random64_fase256", .shape = Shape::kRandom,
                    .ws = 64, .burst = 4000, .fase_length = 256,
                    .stores = 5000, .seed = 4},
        SamplerCase{.name = "random20_counted", .shape = Shape::kRandom,
                    .ws = 20, .burst = 500, .hibernation = 1000,
                    .stores = 6000, .seed = 5, .min_bursts = 4},
        SamplerCase{.name = "zipfish40", .shape = Shape::kZipfish, .ws = 40,
                    .burst = 3000, .fase_length = 128, .seed = 6},
        SamplerCase{.name = "zipfish40_counted", .shape = Shape::kZipfish,
                    .ws = 40, .burst = 600, .hibernation = 400,
                    .fase_length = 97, .stores = 6000, .seed = 7,
                    .min_bursts = 5},
        SamplerCase{.name = "hotcold6", .shape = Shape::kHotCold, .ws = 6,
                    .burst = 2000, .fase_length = 100, .seed = 8},
        SamplerCase{.name = "stream", .shape = Shape::kStream, .ws = 1},
        SamplerCase{.name = "stream_counted", .shape = Shape::kStream,
                    .ws = 1, .burst = 200, .hibernation = 100,
                    .fase_length = 50, .stores = 2000, .min_bursts = 6},
        SamplerCase{.name = "skip1_loop9", .shape = Shape::kLoop, .ws = 9,
                    .burst = 600, .skip_fases = 1, .fase_length = 100},
        SamplerCase{.name = "skip3_onefase_gives_up", .shape = Shape::kLoop,
                    .ws = 9, .burst = 500, .skip_fases = 3, .stores = 2600},
        SamplerCase{.name = "skip2_random16_counted",
                    .shape = Shape::kRandom, .ws = 16, .burst = 400,
                    .hibernation = 300, .skip_fases = 2, .fase_length = 50,
                    .stores = 5000, .seed = 9, .min_bursts = 5},
        SamplerCase{.name = "minimal_burst", .shape = Shape::kLoop, .ws = 3,
                    .burst = 2, .hibernation = 1, .stores = 50,
                    .min_bursts = 10}),
    sampler_case_name);

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

TEST(KneePlacement, SyncAndOfflinePlaceIdentically) {
  // FASEs in two phases (a 2-line loop, then a 10-line loop): the model's
  // knee is left of the exact cliff, so the sampler and the offline path
  // must move it the same way, from the same exact MRC.
  std::vector<LineAddr> trace;
  std::vector<std::size_t> boundaries;
  for (int f = 0; f < 6; ++f) {
    for (LineAddr i = 0; i < 1000; ++i) trace.push_back(100 + i % 2);
    for (LineAddr i = 0; i < 1500; ++i) trace.push_back(200 + i % 10);
    boundaries.push_back(trace.size());
  }
  boundaries.pop_back();  // the trace ends inside its last FASE
  const SamplerConfig config = quick_sampler(trace.size());
  BurstSampler sampler(config);
  std::size_t next = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (next < boundaries.size() && boundaries[next] == i) {
      sampler.on_fase_boundary();
      ++next;
    }
    sampler.on_store(trace[i]);
  }
  ASSERT_EQ(sampler.bursts_completed(), 1u);

  BurstAnalysis offline;
  offline.selection = BurstSampler::analyze_offline(
      trace, boundaries, config.knee, &offline.mrc, &offline.exact);

  const BurstAnalysis online = last_analysis(sampler);
  EXPECT_LT(online.selection.model_size, online.selection.chosen_size);
  expect_same_analysis(offline, online);
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
