// Tests for the workload layer: trace recording, determinism, replay through
// policies, the cost-model replay, and the paper's qualitative per-workload
// properties (flush-ratio ordering, FASE scaling with threads), and the
// closed-form line write-backs of the policy microworkloads.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>

#include "core/policy.hpp"
#include "workloads/policy_micro.hpp"
#include "workloads/replay.hpp"
#include "workloads/workload.hpp"

namespace nvc::workloads {
namespace {

WorkloadParams quick_params(std::size_t threads = 1) {
  WorkloadParams p;
  p.threads = threads;
  p.seed = 7;
  p.full = false;
  return p;
}

TraceApi record(const std::string& name, const WorkloadParams& p,
                std::size_t arena_mb = 64) {
  TraceApi api(p.threads, arena_mb << 20);
  make_workload(name)->run(api, p);
  return api;
}

TEST(Registry, AllElevenWorkloadsRegistered) {
  const auto names = workload_names();
  EXPECT_EQ(names.size(), 11u);
  for (const auto& name : names) {
    EXPECT_NE(make_workload(name), nullptr) << name;
  }
}

TEST(Registry, UnknownNameThrows) {
  EXPECT_THROW(make_workload("radiosity"), std::out_of_range);
}

TEST(TraceApiTest, RecordsStoresAndFases) {
  TraceApi api(1);
  auto* p = static_cast<std::uint64_t*>(api.alloc(0, 64));
  {
    ApiFase fase(api, 0);
    api.store(0, p[0], std::uint64_t{1});
    api.store(0, p[1], std::uint64_t{2});  // same line: two store events
  }
  const ThreadTrace& t = api.trace(0);
  EXPECT_EQ(t.store_count, 2u);
  EXPECT_EQ(t.fase_count, 1u);
  std::vector<LineAddr> stores;
  std::vector<std::size_t> boundaries;
  t.store_trace(&stores, &boundaries);
  ASSERT_EQ(stores.size(), 2u);
  EXPECT_EQ(stores[0], stores[1]);  // same cache line
  EXPECT_EQ(boundaries, (std::vector<std::size_t>{2}));
}

TEST(TraceApiTest, MultiLineWroteSplitsPerLine) {
  TraceApi api(1);
  auto* p = api.alloc(0, 256);
  ApiFase fase(api, 0);
  api.wrote(0, p, 130);  // 64-aligned arena: 3 lines
  EXPECT_EQ(api.trace(0).store_count, 3u);
}

TEST(TraceApiTest, ComputeEventsCoalesce) {
  TraceApi api(1);
  api.compute(0, 10);
  api.compute(0, 20);
  EXPECT_EQ(api.trace(0).events.size(), 1u);
  EXPECT_EQ(api.trace(0).compute_instr, 30u);
}

TEST(TraceApiTest, ArenaAllocationsAreLineAligned) {
  TraceApi api(1);
  for (int i = 0; i < 10; ++i) {
    const auto addr = reinterpret_cast<std::uintptr_t>(api.alloc(0, 17));
    EXPECT_EQ(addr % kCacheLineSize, 0u);
  }
}

// --- determinism -------------------------------------------------------------------

class WorkloadDeterminism : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadDeterminism, SameSeedSameTrace) {
  const auto p = quick_params();
  const TraceApi a = record(GetParam(), p);
  const TraceApi b = record(GetParam(), p);
  ASSERT_EQ(a.trace(0).events.size(), b.trace(0).events.size());
  ASSERT_EQ(a.total_stores(), b.total_stores());
  for (std::size_t i = 0; i < a.trace(0).events.size(); ++i) {
    const auto& ea = a.trace(0).events[i];
    const auto& eb = b.trace(0).events[i];
    ASSERT_EQ(static_cast<int>(ea.kind), static_cast<int>(eb.kind)) << i;
    if (ea.kind == TraceEvent::Kind::kStore ||
        ea.kind == TraceEvent::Kind::kLoad) {
      // Arena allocation order is deterministic, so line addresses match
      // relative to the arena base; compare offsets by subtracting bases.
      ASSERT_EQ(ea.value - a.arena_base_line(), eb.value - b.arena_base_line())
          << i;
    } else {
      ASSERT_EQ(ea.value, eb.value) << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadDeterminism,
                         ::testing::Values("persistent-array", "queue",
                                           "hash", "linked-list", "ocean",
                                           "volrend", "barnes", "fmm",
                                           "raytrace", "water-nsquared",
                                           "water-spatial"));

// --- workload sanity ----------------------------------------------------------------

class WorkloadSanity : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadSanity, ProducesStoresAndFases) {
  const auto p = quick_params();
  const TraceApi api = record(GetParam(), p);
  EXPECT_GT(api.total_stores(), 1000u) << GetParam();
  std::uint64_t fases = 0;
  for (std::size_t tid = 0; tid < api.threads(); ++tid) {
    fases += api.trace(tid).fase_count;
  }
  EXPECT_GE(fases, 1u) << GetParam();
}

TEST_P(WorkloadSanity, FlushRatioOrderingHolds) {
  // Paper Table III ordering per benchmark: LA <= SC* <= AT <= ER = 1.
  // (SC* = SC-offline at its knee; online SC converges to it.)
  const auto p = quick_params();
  const TraceApi api = record(GetParam(), p);

  core::PolicyConfig config;
  config.atlas_table_size = 8;
  const auto er = replay_flush_count_all(api, core::PolicyKind::kEager);
  const auto la = replay_flush_count_all(api, core::PolicyKind::kLazy);
  const auto at =
      replay_flush_count_all(api, core::PolicyKind::kAtlas, config);

  // Choose SC's size from the recorded trace (offline analysis), exactly as
  // SC-offline does.
  std::vector<LineAddr> stores;
  std::vector<std::size_t> boundaries;
  api.trace(0).store_trace(&stores, &boundaries);
  const auto knee = core::BurstSampler::analyze_offline(
      stores, boundaries, core::KneeConfig{}, nullptr);
  config.cache_size = knee.chosen_size;
  const auto sc = replay_flush_count_all(
      api, core::PolicyKind::kSoftCacheOffline, config);

  EXPECT_DOUBLE_EQ(er.flush_ratio(), 1.0) << GetParam();
  EXPECT_LE(la.flushes, sc.flushes) << GetParam();
  EXPECT_LE(sc.flushes, at.flushes * 11 / 10) << GetParam();  // SC <~ AT
  EXPECT_LE(at.flushes, er.flushes) << GetParam();
}

TEST_P(WorkloadSanity, MultithreadedStrongScaling) {
  // Every workload splits a fixed problem over its threads (Table IV's
  // strong scaling), so four threads issue about as many stores as one.
  const TraceApi one = record(GetParam(), quick_params(1));
  const TraceApi four = record(GetParam(), quick_params(4));
  ASSERT_EQ(four.threads(), 4u);
  EXPECT_NEAR(static_cast<double>(four.total_stores()) /
                  static_cast<double>(one.total_stores()),
              1.0, 0.10)
      << GetParam();
}

TEST_P(WorkloadSanity, CostReplayMatchesCountingReplay) {
  // The cost-model replay (Fig. 4, Table I) and the counting replay
  // (Table III) drive the same policy over the same trace, so they must
  // agree exactly on stores and write-backs, per thread summed over two.
  const TraceApi api = record(GetParam(), quick_params(2));
  SimConfig sim;
  sim.policy.atlas_table_size = 8;
  sim.policy.cache_size = 16;
  for (const core::PolicyKind kind :
       {core::PolicyKind::kEager, core::PolicyKind::kLazy,
        core::PolicyKind::kAtlas, core::PolicyKind::kSoftCacheOffline}) {
    const auto counted = replay_flush_count_all(api, kind, sim.policy);
    const auto simulated = simulate_run(api, kind, sim);
    EXPECT_EQ(simulated.total_flushes(), counted.flushes)
        << GetParam() << " " << core::to_string(kind);
    EXPECT_EQ(simulated.total_stores(), counted.stores)
        << GetParam() << " " << core::to_string(kind);
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadSanity,
                         ::testing::Values("linked-list", "persistent-array",
                                           "queue", "hash", "barnes", "fmm",
                                           "ocean", "raytrace", "volrend",
                                           "water-nsquared",
                                           "water-spatial"));

// --- paper-specific shapes -----------------------------------------------------------

TEST(PersistentArray, AtlasFlushRatioNearOneSixteenth) {
  // Paper Section IV-B: Atlas removes ~15/16 of flushes on persistent-array
  // (16 ints per line); SC at the working-set size removes almost all.
  const TraceApi api = record("persistent-array", quick_params());
  core::PolicyConfig config;
  config.atlas_table_size = 8;
  const auto at =
      replay_flush_count_all(api, core::PolicyKind::kAtlas, config);
  EXPECT_NEAR(at.flush_ratio(), 0.0625, 0.01);

  config.cache_size = 26;
  const auto sc = replay_flush_count_all(
      api, core::PolicyKind::kSoftCacheOffline, config);
  EXPECT_LT(sc.flush_ratio(), 0.001);
}

TEST(StrongScaling, TotalStoresStableFasesGrowWithThreads) {
  // Paper Table IV analysis: SPLASH2 is strong scaling — stores stay ~the
  // same while FASE count grows with the thread count.
  const TraceApi one = record("ocean", quick_params(1));
  const TraceApi four = record("ocean", quick_params(4));

  auto totals = [](const TraceApi& api) {
    std::uint64_t stores = 0, fases = 0;
    for (std::size_t t = 0; t < api.threads(); ++t) {
      stores += api.trace(t).store_count;
      fases += api.trace(t).fase_count;
    }
    return std::pair{stores, fases};
  };
  const auto [s1, f1] = totals(one);
  const auto [s4, f4] = totals(four);
  EXPECT_NEAR(static_cast<double>(s4) / static_cast<double>(s1), 1.0, 0.05);
  EXPECT_GT(f4, f1 * 2);
}

// --- cost-model replay ----------------------------------------------------------------

TEST(CostReplay, EagerSlowerThanBest) {
  // Table I in miniature: ER pays for every flush; BEST pays none.
  const TraceApi api = record("ocean", quick_params());
  SimConfig sim;
  const auto er = simulate_run(api, core::PolicyKind::kEager, sim);
  const auto best = simulate_run(api, core::PolicyKind::kBest, sim);
  EXPECT_GT(er.makespan_cycles(), 3.0 * best.makespan_cycles());
}

TEST(CostReplay, PolicySpeedOrdering) {
  // Fig. 4 shape: BEST >= SC >= AT >= ER in speed (cycles inverted).
  const TraceApi api = record("water-nsquared", quick_params());
  SimConfig sim;
  sim.policy.atlas_table_size = 8;
  sim.policy.cache_size = 28;
  const double er =
      simulate_run(api, core::PolicyKind::kEager, sim).makespan_cycles();
  const double at =
      simulate_run(api, core::PolicyKind::kAtlas, sim).makespan_cycles();
  const double sc = simulate_run(api, core::PolicyKind::kSoftCacheOffline,
                                 sim).makespan_cycles();
  const double best =
      simulate_run(api, core::PolicyKind::kBest, sim).makespan_cycles();
  EXPECT_LT(best, sc);
  EXPECT_LT(sc, at);
  EXPECT_LT(at, er);
}

TEST(CostReplay, ScInstructionOverheadModest) {
  // Table IV: SC runs more instructions than AT, but within ~15%.
  const TraceApi api = record("water-spatial", quick_params());
  SimConfig sim;
  sim.policy.cache_size = 23;
  const auto at = simulate_run(api, core::PolicyKind::kAtlas, sim);
  const auto sc =
      simulate_run(api, core::PolicyKind::kSoftCacheOffline, sim);
  const double ratio = static_cast<double>(sc.total_instructions()) /
                       static_cast<double>(at.total_instructions());
  EXPECT_GT(ratio, 1.0);
  EXPECT_LT(ratio, 1.2);
}

TEST(CostReplay, FlushCountsMatchCountingReplay) {
  // The two replay substrates must agree on flush counts exactly.
  const TraceApi api = record("hash", quick_params());
  core::PolicyConfig config;
  config.cache_size = 8;
  SimConfig sim;
  sim.policy = config;
  const auto counted = replay_flush_count_all(
      api, core::PolicyKind::kSoftCacheOffline, config);
  const auto simulated =
      simulate_run(api, core::PolicyKind::kSoftCacheOffline, sim);
  EXPECT_EQ(simulated.total_flushes(), counted.flushes);
  EXPECT_EQ(simulated.total_stores(), counted.stores);
}

TEST(CostReplay, BarrierFlushesMatchCountingReplay) {
  // A mid-FASE persist barrier writes back every buffered line in both
  // replays. No paper workload issues one, so build the trace by hand:
  // one FASE writes lines 0-3, a barrier, then lines 0-1 again.
  TraceApi api(1);
  auto* lines = static_cast<std::uint64_t*>(api.alloc(0, 4 * kCacheLineSize));
  constexpr std::size_t kStride = kCacheLineSize / sizeof(std::uint64_t);
  {
    ApiFase fase(api, 0);
    for (std::size_t l = 0; l < 4; ++l) {
      api.store(0, lines[l * kStride], std::uint64_t{l});
    }
    api.persist_barrier(0);
    for (std::size_t l = 0; l < 2; ++l) {
      api.store(0, lines[l * kStride], std::uint64_t{l + 10});
    }
  }
  SimConfig sim;
  sim.policy.cache_size = 8;
  const auto counted =
      replay_flush_count_all(api, core::PolicyKind::kLazy, sim.policy);
  const auto simulated = simulate_run(api, core::PolicyKind::kLazy, sim);
  EXPECT_EQ(counted.flushes, 4u + 2u);  // 4 at the barrier, 2 at the end
  EXPECT_EQ(simulated.total_flushes(), counted.flushes);
  EXPECT_EQ(simulated.total_stores(), 6u);
}

// --- policy microworkloads ---------------------------------------------------------

// workloads/policy_micro.hpp's closed forms, per FASE: the stream shape
// writes back every one of its 128 stores (64 stream lines plus 64 hot-line
// writes that each miss the capacity-8 cache), except under LA, which
// combines the whole FASE into its 64 + 8 distinct lines; the reuse shape's
// 128 stores to 6 lines write back 6 lines under every deferring policy
// and 128 under ER. BM_PolicyLinesPerFase's exact_line_writes gates the
// same counts at 32 FASEs.
using PolicyMicroParam = std::tuple<core::PolicyKind, PolicyMicroShape>;

std::uint64_t closed_form_lines_per_fase(core::PolicyKind policy,
                                         PolicyMicroShape shape) {
  if (shape == PolicyMicroShape::kStream) {
    return policy == core::PolicyKind::kLazy ? 64 + 8 : 128;
  }
  return policy == core::PolicyKind::kEager ? 128 : 6;
}

class PolicyMicro : public ::testing::TestWithParam<PolicyMicroParam> {};

TEST_P(PolicyMicro, LineWritesMatchTheClosedForm) {
  const auto& [policy, shape] = GetParam();
  const std::uint64_t per_fase = closed_form_lines_per_fase(policy, shape);
  for (const std::uint64_t fases : {1u, 8u, 32u}) {
    const PolicyMicroResult r = run_policy_micro(policy, shape, fases);
    EXPECT_EQ(r.fases, fases);
    EXPECT_EQ(r.stores, fases * 128) << fases << " FASEs";
    EXPECT_EQ(r.line_writes, fases * per_fase) << fases << " FASEs";
  }
  // Bit-deterministic: a second run reads the same counts.
  const PolicyMicroResult a = run_policy_micro(policy, shape, 32);
  const PolicyMicroResult b = run_policy_micro(policy, shape, 32);
  EXPECT_EQ(a.stores, b.stores);
  EXPECT_EQ(a.line_writes, b.line_writes);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicyMicro,
    ::testing::Combine(::testing::Values(core::PolicyKind::kEager,
                                         core::PolicyKind::kLazy,
                                         core::PolicyKind::kAtlas,
                                         core::PolicyKind::kSoftCacheOffline,
                                         core::PolicyKind::kSoftCache),
                       ::testing::Values(PolicyMicroShape::kStream,
                                         PolicyMicroShape::kReuse)),
    [](const ::testing::TestParamInfo<PolicyMicroParam>& param_info) {
      std::string name = core::to_string(std::get<0>(param_info.param));
      std::erase(name, '-');
      return name + "_" + to_string(std::get<1>(param_info.param));
    });

}  // namespace
}  // namespace nvc::workloads
