// Crash matrix for the undo-log durability protocols (DESIGN.md §7).
//
// The freeze/restart rig lives in tests/support/crash_rig.{hpp,cpp} (it is
// shared with the crash-state fuzzer, test_fuzz_crash.cpp, and runs the
// production Runtime over a shadow medium); this suite drives it through a
// fixed script and sweeps the durable image's freeze
// point over EVERY event index in the run (each pstore and each attempted
// line flush, on either the data or the log path). That hits all the
// interesting boundaries: before a log sync, after the sync but before the
// data flush it ordered, mid data-flush burst, after the flushes but before
// commit, and after commit. For each freeze point the test restarts from
// the durable image, runs log recovery, and asserts the data region equals
// the state after SOME committed FASE — the all-or-nothing guarantee.
//
// A separate test checks strict/batched equivalence: same script, identical
// recovered-equivalent durable data images and identical data-flush counts,
// with batched issuing strictly fewer log fences.
//
// The async dimension runs the same engine with the flush-behind pipeline
// (core/flush_pipeline.hpp) in the data path: evicted lines queue in a ring
// popped by the background FlushWorker, so a freeze can land while lines
// are still queued — those write-backs claim later event indices and are
// dropped, exactly modeling power failing with writes still in flight. The
// sweep asserts recovery lands on a committed FASE at *every* freeze point,
// and an equivalence test asserts async data traffic is identical to sync
// once flush elision's skipped write-backs are counted back in.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "support/crash_rig.hpp"

namespace nvc::runtime {
namespace {

using nvc::testing::CrashRig;
using nvc::testing::CrashRigConfig;
using nvc::testing::rig_runtime_config;

constexpr std::size_t kDataLines = 8;
constexpr std::size_t kDataBytes = kDataLines * kCacheLineSize;
constexpr std::size_t kCells = kDataBytes / sizeof(std::uint64_t);
constexpr int kFases = 8;
constexpr int kStoresPerFase = 6;

using DataImage = std::array<std::uint64_t, kCells>;

RuntimeConfig matrix_config(LogSyncMode mode, bool async) {
  RuntimeConfig config = rig_runtime_config();  // this suite's layout
  config.log_sync = mode;
  config.async_flush = async;
  return config;
}

/// The medium: kDataLines per context, real background worker when async.
const CrashRigConfig kMedium{.data_lines = kDataLines};

DataImage to_image(const std::vector<std::uint8_t>& bytes) {
  DataImage out;
  EXPECT_EQ(bytes.size(), sizeof out);
  std::memcpy(out.data(), bytes.data(), sizeof out);
  return out;
}

/// One store of a script: the event count before the store began and the
/// volatile data image after it.
struct StoreStep {
  std::uint64_t events_before;
  DataImage state;
};

/// Deterministic script; returns the expected data image after each
/// committed FASE (index 0 = the initial all-zero state). `steps`, when
/// set, receives every store.
std::vector<DataImage> run_script(CrashRig& rig,
                                  std::vector<StoreStep>* steps = nullptr) {
  std::vector<DataImage> snapshots;
  DataImage state{};
  snapshots.push_back(state);
  Rng rng(99);
  for (int f = 0; f < kFases; ++f) {
    rig.fase_begin();
    for (int s = 0; s < kStoresPerFase; ++s) {
      const std::size_t cell = rng.below(kCells);
      const std::uint64_t value = rng();
      const std::uint64_t events_before = rig.events();
      rig.pstore_u64(0, cell, value);
      state[cell] = value;
      if (steps != nullptr) steps->push_back({events_before, state});
    }
    rig.fase_end();
    snapshots.push_back(state);
  }
  return snapshots;
}

/// Whether `line` of `image` equals that line of `other`.
bool same_line(const DataImage& image, const DataImage& other,
               std::size_t line) {
  const auto first = image.begin() + line * (kCacheLineSize / 8);
  return std::equal(first, first + kCacheLineSize / 8,
                    other.begin() + line * (kCacheLineSize / 8));
}

int snapshot_index(const std::vector<DataImage>& snapshots,
                   const DataImage& image) {
  for (std::size_t i = 0; i < snapshots.size(); ++i) {
    if (snapshots[i] == image) return static_cast<int>(i);
  }
  return -1;
}

struct MatrixParam {
  LogSyncMode mode;
  bool async;
};

class CrashMatrix : public ::testing::TestWithParam<MatrixParam> {};

TEST_P(CrashMatrix, EveryFreezePointRecoversToACommittedFase) {
  const auto [mode, async] = GetParam();

  // Dry run: learn the event count and the expected per-FASE snapshots.
  CrashRig dry(matrix_config(mode, async), kMedium);
  const auto snapshots = run_script(dry);
  const std::uint64_t total = dry.events();
  ASSERT_GT(total, 100u) << "script too small to exercise boundaries";

  // Async runs are nondeterministic in their event *indexing* (worker
  // write-backs race the application thread for slots, and each hazard
  // sync adds log flushes), so a run's total can exceed the dry run's;
  // sweep well past it so late freeze points are hit in any interleaving.
  const std::uint64_t sweep_end = async ? total + 256 : total;

  int max_recovered = -1;
  for (std::uint64_t e = 0; e <= sweep_end; ++e) {
    CrashRig rig(matrix_config(mode, async), kMedium);
    rig.freeze_at(e);
    (void)run_script(rig);
    const DataImage image = to_image(rig.recovered_data());
    const int idx = snapshot_index(snapshots, image);
    ASSERT_GE(idx, 0) << to_string(mode) << (async ? "/async" : "/sync")
                      << ": freeze at event " << e << "/" << total
                      << " recovered a state matching no committed FASE";
    if (!async) {
      // Durability is monotone in the freeze point: a later crash can never
      // recover to an older committed state. (Async runs are separate
      // interleavings per freeze index, so cross-run monotonicity is not a
      // guarantee — all-or-nothing above is.)
      ASSERT_GE(idx, max_recovered) << to_string(mode) << ": freeze " << e;
    }
    max_recovered = std::max(max_recovered, idx);
  }
  // The unfrozen end of the sweep must have reached the final state.
  EXPECT_EQ(max_recovered, kFases);
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, CrashMatrix,
    ::testing::Values(MatrixParam{LogSyncMode::kStrict, false},
                      MatrixParam{LogSyncMode::kBatched, false},
                      MatrixParam{LogSyncMode::kStrict, true},
                      MatrixParam{LogSyncMode::kBatched, true}),
    [](const auto& param_info) {
      return std::string(to_string(param_info.param.mode)) +
             (param_info.param.async ? "Async" : "Sync");
    });

// --- contiguous store runs: batched entries that grow ------------------------

/// Batched FASEs of contiguous 8-byte store runs, whose records coalesce
/// into growing entries (DESIGN.md §7): kv's adjacent pairs, a run past
/// the 48-byte payload cap, a run across a data-line boundary, and a run
/// split by a mid-FASE eviction. The write cache holds two lines, and each
/// FASE starts a fresh log at the header, so the split run's first entry
/// always straddles log lines 1 and 2 when the eviction syncs it: an
/// entry that grew after that sync would leave its new length in a line
/// no later persist covers. Returns the expected image after each commit.
std::vector<DataImage> run_runs_script(CrashRig& rig) {
  std::vector<DataImage> snapshots;
  DataImage state{};
  snapshots.push_back(state);
  Rng rng(28);
  const auto store_run = [&](std::size_t first_cell, std::size_t cells) {
    for (std::size_t cell = first_cell; cell < first_cell + cells; ++cell) {
      const std::uint64_t value = rng();
      rig.pstore_u64(0, cell, value);
      state[cell] = value;
    }
  };
  for (int f = 0; f < kFases; ++f) {
    rig.fase_begin();
    switch (f % 4) {
      case 0:  // adjacent pairs on three lines
        for (int p = 0; p < 3; ++p) {
          store_run(8 * rng.below(kDataLines) + 2 * rng.below(4), 2);
        }
        break;
      case 1:  // eight cells: one full 48-byte entry and a second one
        store_run(8 * rng.below(kDataLines), 8);
        break;
      case 2:  // six cells across a line boundary
        store_run(8 * (1 + rng.below(kDataLines - 1)) - 3, 6);
        break;
      default:  // two lines fill the cache, then a run from line 2 into 3
        store_run(0, 1);
        store_run(8, 1);
        store_run(23, 3);
        break;
    }
    rig.fase_end();
    snapshots.push_back(state);
  }
  return snapshots;
}

class CrashMatrixRuns : public ::testing::TestWithParam<bool> {};

TEST_P(CrashMatrixRuns, EveryFreezePointRecoversContiguousRuns) {
  const bool async = GetParam();
  const RuntimeConfig config = matrix_config(LogSyncMode::kBatched, async);
  CrashRig dry(config, kMedium);
  const auto snapshots = run_runs_script(dry);
  const std::uint64_t total = dry.events();
  ASSERT_GT(total, 100u) << "script too small to exercise boundaries";
  // The script must coalesce, and must sync inside FASEs (evictions).
  const RuntimeStats stats = dry.stats();
  EXPECT_LT(stats.log_records, stats.stores);
  EXPECT_GT(stats.log_syncs, static_cast<std::uint64_t>(kFases));

  const std::uint64_t sweep_end = async ? total + 256 : total;
  int max_recovered = -1;
  for (std::uint64_t e = 0; e <= sweep_end; ++e) {
    CrashRig rig(config, kMedium);
    rig.freeze_at(e);
    (void)run_runs_script(rig);
    const int idx =
        snapshot_index(snapshots, to_image(rig.recovered_data()));
    ASSERT_GE(idx, 0) << (async ? "async" : "sync") << ": freeze at event "
                      << e << "/" << total
                      << " recovered a state matching no committed FASE";
    if (!async) {
      ASSERT_GE(idx, max_recovered) << "freeze " << e;
    }
    max_recovered = std::max(max_recovered, idx);
  }
  EXPECT_EQ(max_recovered, kFases);
}

INSTANTIATE_TEST_SUITE_P(Batched, CrashMatrixRuns, ::testing::Bool(),
                         [](const auto& param_info) {
                           return param_info.param ? "Async" : "Sync";
                         });

TEST(CrashEquivalence, StrictAndBatchedConvergeWithFewerLogFences) {
  CrashRig strict(matrix_config(LogSyncMode::kStrict, false), kMedium);
  const auto strict_snaps = run_script(strict);
  CrashRig batched(matrix_config(LogSyncMode::kBatched, false), kMedium);
  const auto batched_snaps = run_script(batched);

  // Identical durable data images (no crash) and identical data-line flush
  // traffic — batching the log must not change what the policy persists.
  ASSERT_EQ(strict_snaps, batched_snaps);
  EXPECT_EQ(strict.durable_data(), batched.durable_data());
  EXPECT_EQ(to_image(strict.durable_data()), strict_snaps.back());
  EXPECT_EQ(strict.stats().flushes, batched.stats().flushes);

  // The point of the exercise: O(records) => O(epochs) log fences.
  EXPECT_LT(batched.stats().log_fences, strict.stats().log_fences);
  // Batched pays 2 fences per epoch (entries, then tail) plus 1 per commit.
  // Strict pays 1 per record for its entry, the same once-per-epoch tail
  // publish, and the same commits. (The log format is setup traffic, off
  // the per-context log backend.)
  const std::uint64_t epochs = batched.stats().log_syncs;
  EXPECT_EQ(batched.stats().log_fences, 2u * epochs + kFases);
  EXPECT_EQ(strict.stats().log_fences,
            1u * kFases * kStoresPerFase + epochs + kFases);
}

TEST(CrashEquivalence, AsyncDataTrafficIsIdenticalToSync) {
  // The pipeline moves write-backs in time and elides only those another
  // queued write-back carries: for both log protocols, the async engine
  // must produce exactly the sync engine's durable image and per-FASE
  // snapshots, and every sync write-back is an async one or an elision
  // (less the elided lines the commit-point drain wrote back after all).
  for (const LogSyncMode mode :
       {LogSyncMode::kStrict, LogSyncMode::kBatched}) {
    CrashRig sync_rig(matrix_config(mode, /*async=*/false), kMedium);
    const auto sync_snaps = run_script(sync_rig);
    CrashRig async_rig(matrix_config(mode, /*async=*/true), kMedium);
    const auto async_snaps = run_script(async_rig);
    ASSERT_EQ(sync_snaps, async_snaps) << to_string(mode);
    EXPECT_EQ(sync_rig.durable_data(), async_rig.durable_data())
        << to_string(mode);
    const RuntimeStats async_stats = async_rig.stats();
    EXPECT_EQ(sync_rig.stats().flushes,
              async_stats.flushes + async_stats.elided_flushes -
                  async_stats.elision_reflushes)
        << to_string(mode);
  }
}

TEST(CrashTearBurst, MultiLineTearWindowKeepsAllOrNothing) {
  // The write-back burst racing the power cut may span SEVERAL lines (the
  // modeled write-queue depth, CrashRigConfig::tear_burst): a gapless run
  // of post-cut flushes freeze+1, freeze+2, ... each independently drops or
  // persists a torn prefix. Sweep every freeze point with tearing forced on
  // (tear_rate = 1) and assert the all-or-nothing oracle survives — torn
  // data lines are covered by undo records that were durable before the
  // flush, and torn log lines fail their check words, so neither can smuggle
  // uncommitted bytes past recovery. The sweep must also actually open a
  // multi-line window somewhere, or this test would be vacuous.
  //
  // Before recovery, the cut image must keep the platform's 8-byte
  // power-fail atomicity: every word holds a value that word held at some
  // point in the uncut run, never half of one value and half of another.
  // The script's values differ from each word's previous value in both
  // 32-bit halves, so a split word matches none of them. The sweep must
  // also leave some data line partly old and partly new — equal neither to
  // that line with the post-cut write-backs dropped (a run without
  // tearing) nor to its volatile content when the window wrote it back —
  // or the word check would be vacuous.
  for (const LogSyncMode mode :
       {LogSyncMode::kStrict, LogSyncMode::kBatched}) {
    const RuntimeConfig config = matrix_config(mode, false);
    CrashRigConfig medium = kMedium;
    medium.tear_rate = 1.0;
    medium.tear_seed = 0x7ea2;
    CrashRigConfig untorn = medium;
    untorn.tear_rate = 0.0;

    std::vector<StoreStep> steps;
    CrashRig dry(config, medium);
    const auto snapshots = run_script(dry, &steps);
    const std::uint64_t total = dry.events();
    EXPECT_EQ(dry.torn_flushes(), 0u) << "no power cut, nothing may tear";

    std::vector<std::set<std::uint64_t>> word_values(kCells, {0});
    DataImage previous{};
    for (const StoreStep& step : steps) {
      for (std::size_t cell = 0; cell < kCells; ++cell) {
        const std::uint64_t now = step.state[cell];
        const std::uint64_t was = previous[cell];
        if (now == was) continue;
        ASSERT_NE(now >> 32, was >> 32) << "cell " << cell;
        ASSERT_NE(static_cast<std::uint32_t>(now),
                  static_cast<std::uint32_t>(was))
            << "cell " << cell;
        word_values[cell].insert(now);
      }
      previous = step.state;
    }

    std::uint64_t max_torn = 0;
    std::uint64_t mixed_lines = 0;
    std::size_t applied = 0;  // steps whose store began before the cut
    for (std::uint64_t e = 0; e <= total; ++e) {
      CrashRig rig(config, medium);
      rig.freeze_at(e);
      (void)run_script(rig);
      const DataImage cut = to_image(rig.durable_data());
      for (std::size_t cell = 0; cell < kCells; ++cell) {
        ASSERT_TRUE(word_values[cell].contains(cut[cell]))
            << to_string(mode) << ": freeze at event " << e << "/" << total
            << " left word " << cell << " holding " << std::hex << cut[cell]
            << ", a value it never held (a split 8-byte write)";
      }
      // The tear window's write-backs follow the cut without a store in
      // between, so they carry every store that began before it.
      while (applied < steps.size() && steps[applied].events_before <= e) {
        ++applied;
      }
      const DataImage volatile_at_cut =
          applied == 0 ? DataImage{} : steps[applied - 1].state;
      CrashRig dropped(config, untorn);
      dropped.freeze_at(e);
      (void)run_script(dropped);
      const DataImage no_tear = to_image(dropped.durable_data());
      for (std::size_t line = 0; line < kDataLines; ++line) {
        if (!same_line(cut, no_tear, line) &&
            !same_line(cut, volatile_at_cut, line)) {
          ++mixed_lines;
        }
      }
      const DataImage image = to_image(rig.recovered_data());
      ASSERT_GE(snapshot_index(snapshots, image), 0)
          << to_string(mode) << ": freeze at event " << e << "/" << total
          << " with torn burst recovered a never-committed state ("
          << rig.torn_flushes() << " torn write-backs)";
      max_torn = std::max(max_torn, rig.torn_flushes());
    }
    EXPECT_GE(max_torn, 2u)
        << to_string(mode)
        << ": the sweep never opened a multi-line tear window";
    EXPECT_GT(mixed_lines, 0u)
        << to_string(mode)
        << ": the sweep never left a data line partly old and partly new";
  }
}

TEST(CrashTearBurst, DepthOneWindowNeverTearsTwice) {
  // tear_burst = 1 restores the historical model: only the single write-back
  // racing the cut may land torn.
  const RuntimeConfig config = matrix_config(LogSyncMode::kBatched, false);
  CrashRigConfig medium = kMedium;
  medium.tear_burst = 1;
  medium.tear_rate = 1.0;
  medium.tear_seed = 0x7ea2;

  CrashRig dry(config, medium);
  const auto snapshots = run_script(dry);
  for (std::uint64_t e = 0; e <= dry.events(); e += 7) {
    CrashRig rig(config, medium);
    rig.freeze_at(e);
    (void)run_script(rig);
    EXPECT_LE(rig.torn_flushes(), 1u) << "freeze " << e;
    ASSERT_GE(snapshot_index(snapshots, to_image(rig.recovered_data())), 0)
        << "freeze " << e;
  }
}

TEST(CrashEquivalence, BatchedRecoversIdenticallyToStrictAtSharedBoundaries) {
  // Freeze both modes at their respective FASE-commit boundaries (event
  // streams differ, so align on fractions of the run) and check both roll
  // forward/back to committed states.
  for (const double fraction : {0.25, 0.5, 0.75}) {
    DataImage images[2];
    int i = 0;
    for (const LogSyncMode mode :
         {LogSyncMode::kStrict, LogSyncMode::kBatched}) {
      CrashRig dry(matrix_config(mode, false), kMedium);
      const auto snapshots = run_script(dry);
      CrashRig rig(matrix_config(mode, false), kMedium);
      rig.freeze_at(static_cast<std::uint64_t>(
          fraction * static_cast<double>(dry.events())));
      (void)run_script(rig);
      images[i] = to_image(rig.recovered_data());
      ASSERT_GE(snapshot_index(snapshots, images[i]), 0)
          << to_string(mode) << " at fraction " << fraction;
      ++i;
    }
  }
}

TEST(CrashHeap, FormatAndRootSurviveAPowerCut) {
  // The allocator only mutates the mapping; the Runtime writes the header
  // back at format and at every set_root. Power fails right after
  // set_root, so the shutdown seal never lands: only those write-backs can
  // make the restarted heap reopen (the reopen throws on a non-heap image)
  // with its root.
  CrashRig rig(matrix_config(LogSyncMode::kStrict, false), kMedium);
  void* root = rig.runtime().pm_alloc(64);
  rig.runtime().set_root(root);
  rig.freeze_at(rig.events());
  (void)rig.recovered_data();
  EXPECT_EQ(rig.runtime().get_root(), root);
  EXPECT_TRUE(rig.runtime().last_recovery().heap_header_ok);
}

TEST(CrashMedium, MediumDoesNotPerturbTheEngine) {
  // One script, freeze never, on the Runtime over the shadow medium and on
  // the plain Runtime with count-only flushing: identical traffic. Each
  // FASE stores every line twice in a row (the second store combines) and
  // never again, so no store targets a line queued since the last drain and
  // the hazard check cannot fire, whatever a background worker does.
  const auto script = [](auto begin, auto store, auto end) {
    for (int f = 0; f < kFases; ++f) {
      begin();
      for (std::size_t line = 0; line < kDataLines; ++line) {
        store(line * 8 + static_cast<std::size_t>(f), f * 100u + line);
        store(line * 8 + static_cast<std::size_t>(f), f * 100u + line + 1);
      }
      end();
    }
  };
  for (const LogSyncMode mode : {LogSyncMode::kStrict, LogSyncMode::kBatched}) {
    for (const bool async : {false, true}) {
      SCOPED_TRACE(std::string(to_string(mode)) + (async ? " async" : " sync"));
      CrashRig rig(matrix_config(mode, async), kMedium);
      script([&] { rig.fase_begin(); },
             [&](std::size_t cell, std::uint64_t v) {
               rig.pstore_u64(0, cell, v);
             },
             [&] { rig.fase_end(); });
      const RuntimeStats shadow = rig.stats();

      RuntimeConfig config = matrix_config(mode, async);
      config.region_name = "crash-medium." + std::to_string(::getpid());
      Runtime rt(config);
      auto* cells = static_cast<std::uint64_t*>(rt.pm_alloc(kDataBytes));
      script([&] { rt.fase_begin(); },
             [&](std::size_t cell, std::uint64_t v) {
               rt.pstore(cells[cell], v);
             },
             [&] { rt.fase_end(); });
      const RuntimeStats plain = rt.stats();
      rt.destroy_storage();

      EXPECT_GT(shadow.combined, 0u);
      EXPECT_EQ(shadow.combined, plain.combined);
      EXPECT_EQ(shadow.flushes, plain.flushes);
      EXPECT_EQ(shadow.fences, plain.fences);
      EXPECT_EQ(shadow.log_flushes, plain.log_flushes);
      EXPECT_EQ(shadow.log_fences, plain.log_fences);
      EXPECT_EQ(shadow.log_syncs, plain.log_syncs);
    }
  }
}

}  // namespace
}  // namespace nvc::runtime
