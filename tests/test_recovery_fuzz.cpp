// Image-corruption fuzzer for the salvage-mode recovery pipeline
// (DESIGN.md §14).
//
// For every combination of the two durability axes —
//
//     log protocol   strict | batched      (LogSyncMode)
//     data flushing  sync   | async        (manual flush-behind pipeline,
//                                           which carries flush elision)
//
// — a seeded workload runs on the Runtime over the crash rig's shadow
// medium, power fails at a seeded event, and the frozen durable image (the
// heap region, allocator header included, then the log segments) is
// snapshotted. Each of the eight
// corruption classes (testing/corruptor.hpp) then mutates a copy of that
// image and the copy goes through RecoveryManager. The oracle:
//
//   R1  recovery never crashes or UBs, whatever the bytes say (the whole
//       binary runs under the asan/ubsan presets like every suite);
//   R2  if the report says ok(), the salvaged data region is byte-identical
//       to the true committed prefix (the baseline recovery of the
//       *uncorrupted* image, which itself must match a committed snapshot);
//   R3  otherwise the report classifies the damage (non-empty defects) —
//       "unrecoverable" is an honest answer, silence is not.
//
// Every case prints a one-line NVC_FUZZ_SEED / NVC_CORRUPT_* replay
// command. RecoveryFuzzBug proves the harness has teeth: with the seeded
// verification-skip bug armed (RecoveryManager::set_bug_skip_verification)
// the same corrupted images produce clean reports over wrong bytes, which
// the R2 oracle flags.
#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "runtime/recovery.hpp"
#include "runtime/undo_log.hpp"
#include "support/crash_rig.hpp"
#include "testing/corruptor.hpp"
#include "testing/seed.hpp"

namespace nvc {
namespace {

using testing::CorruptionKind;
using testing::CrashRig;
using testing::CrashRigConfig;
using testing::ImageCorruptor;
using testing::ImageLayout;
using testing::rig_runtime_config;

// The 2x2 mode matrix. async always uses the manual pipeline so the whole
// interleaving replays deterministically from the seed on one OS thread.
struct RecMode {
  runtime::LogSyncMode log;
  bool async_flush;
};

std::string mode_name(const RecMode& mode) {
  return std::string(runtime::to_string(mode.log)) + "-" +
         (mode.async_flush ? "asyncflush" : "syncflush");
}

const RecMode kAllModes[] = {
    {runtime::LogSyncMode::kStrict, false},
    {runtime::LogSyncMode::kStrict, true},
    {runtime::LogSyncMode::kBatched, false},
    {runtime::LogSyncMode::kBatched, true},
};

constexpr std::size_t kContexts = 2;
constexpr std::size_t kDataLines = 16;  // per context
constexpr std::size_t kDataBytes = kDataLines * kCacheLineSize;
constexpr std::size_t kLogBytes = 4096;
constexpr std::size_t kCells = kDataBytes / sizeof(std::uint64_t);

runtime::RuntimeConfig rig_config(const RecMode& mode) {
  runtime::RuntimeConfig config = rig_runtime_config(kContexts);
  config.log_sync = mode.log;
  config.async_flush = mode.async_flush;
  config.log_segment_size = kLogBytes;
  return config;
}

CrashRigConfig rig_medium(const RecMode& mode) {
  return {.data_lines = kDataLines, .manual_pipeline = mode.async_flush};
}

std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// One deterministic mini-workload against `rig`, mirroring every store in
/// `mirror` and snapshotting the mirror into `committed[ctx]` at each
/// successful commit. Captures a mid-run durable snapshot into `stale` (for
/// the stale-generation class) when non-null.
struct WorkloadResult {
  std::array<std::vector<std::uint8_t>, kContexts> mirror;
  std::array<std::vector<std::vector<std::uint8_t>>, kContexts> committed;
};

WorkloadResult run_workload(CrashRig& rig, std::uint64_t seed,
                            std::vector<std::uint8_t>* stale) {
  WorkloadResult r;
  for (std::size_t c = 0; c < kContexts; ++c) {
    r.mirror[c].assign(kDataBytes, 0);
    r.committed[c].push_back(r.mirror[c]);  // the all-initial state
  }
  std::uint64_t rng = seed;
  constexpr std::size_t kRounds = 6;
  for (std::size_t round = 0; round < kRounds; ++round) {
    for (std::size_t c = 0; c < kContexts; ++c) {
      rig.fase_begin(c);
      const std::size_t writes = 2 + splitmix(rng) % 3;
      for (std::size_t w = 0; w < writes; ++w) {
        const std::size_t cell = splitmix(rng) % kCells;
        const std::uint64_t value = splitmix(rng);
        rig.pstore_u64(c, cell, value);
        std::memcpy(r.mirror[c].data() + cell * sizeof(value), &value,
                    sizeof(value));
      }
      if (rig.fase_end(c)) r.committed[c].push_back(r.mirror[c]);
      // Manual pipeline: write back a seeded number of queued lines, so
      // the freeze point can land mid-drain.
      for (std::size_t p = splitmix(rng) % 3; p > 0; --p) rig.pump_flush(c);
    }
    if (stale != nullptr && round == kRounds / 2) *stale = rig.durable_image();
  }
  return r;
}

ImageLayout layout_of(const CrashRig& rig) {
  ImageLayout layout;
  layout.data_offset = 0;
  layout.data_size = rig.image_log_offset(0);  // the heap region
  layout.log_offset = rig.image_log_offset(0);
  layout.log_segment_size = kLogBytes;
  layout.log_segments = kContexts;
  return layout;
}

runtime::RegionView view_of(std::vector<std::uint8_t>& image,
                            const ImageLayout& layout) {
  runtime::RegionView view;
  view.data = image.data() + layout.data_offset;
  view.data_size = layout.data_size;
  view.logs = image.data() + layout.log_offset;
  view.log_segment_size = layout.log_segment_size;
  view.log_segments = layout.log_segments;
  return view;
}

/// Context `ctx`'s data block within `image`.
std::vector<std::uint8_t> data_slice(const std::vector<std::uint8_t>& image,
                                     const CrashRig& rig, std::size_t ctx) {
  const std::size_t off = rig.image_data_offset(ctx);
  return {image.begin() + off, image.begin() + off + kDataBytes};
}

bool in_committed_set(const WorkloadResult& wl,
                      const std::vector<std::uint8_t>& image,
                      const CrashRig& rig, std::size_t ctx) {
  const std::vector<std::uint8_t> slice = data_slice(image, rig, ctx);
  for (const auto& snap : wl.committed[ctx]) {
    if (snap == slice) return true;
  }
  return false;
}

std::string corrupt_replay_line(std::uint64_t seed, const std::string& mode,
                                CorruptionKind kind, std::size_t sites) {
  return "replay: NVC_FUZZ_SEED=" + std::to_string(seed) +
         " NVC_FUZZ_MODE=" + mode +
         " NVC_CORRUPT_KIND=" + testing::to_string(kind) +
         " NVC_CORRUPT_SITES=" + std::to_string(sites) +
         " ctest -R RecoveryFuzz --output-on-failure";
}

/// Build the persisted-checksum-arena model: one commit-time CRC per data
/// line of the true committed image.
runtime::LineVerifyTable make_table(const std::vector<std::uint8_t>& image,
                                    const ImageLayout& layout) {
  runtime::LineVerifyTable table(layout.data_size);
  const std::uint8_t* data = image.data() + layout.data_offset;
  for (std::size_t idx = 0; idx < layout.data_size / kCacheLineSize; ++idx) {
    table.note_commit(idx, data + idx * kCacheLineSize);
  }
  return table;
}

class RecoveryFuzz : public ::testing::TestWithParam<RecMode> {};

TEST_P(RecoveryFuzz, CorruptedImagesNeverLie) {
  const RecMode mode = GetParam();
  const char* only = std::getenv("NVC_FUZZ_MODE");
  if (only != nullptr && only != mode_name(mode)) GTEST_SKIP();

  const std::uint64_t base_seed =
      testing::seed_from_env("NVC_FUZZ_SEED", 0x5eedull);
  CorruptionKind pinned_kind{};
  const bool kind_pinned =
      testing::parse_corruption_kind(std::getenv("NVC_CORRUPT_KIND"),
                                     pinned_kind);
  std::size_t sites = 4;
  if (const char* s = std::getenv("NVC_CORRUPT_SITES")) {
    sites = static_cast<std::size_t>(std::strtoull(s, nullptr, 10));
  }
  const std::size_t iters = [] {
    const char* s = std::getenv("NVC_FUZZ_ITERS");
    return s != nullptr
               ? static_cast<std::size_t>(std::strtoull(s, nullptr, 10))
               : std::size_t{3};
  }();

  for (std::size_t iter = 0; iter < iters; ++iter) {
    const std::uint64_t seed = base_seed + iter * 0x9e37ull;
    // Probe run: count the script's events, then pick a seeded freeze
    // point somewhere in the live middle of the run.
    std::uint64_t total = 0;
    {
      CrashRig probe(rig_config(mode), rig_medium(mode));
      run_workload(probe, seed, nullptr);
      total = probe.events();
    }
    ASSERT_GT(total, 8u);
    std::uint64_t rng = seed ^ 0xfeedULL;
    const std::uint64_t freeze = 4 + splitmix(rng) % (total - 4);

    CrashRig rig(rig_config(mode), rig_medium(mode));
    rig.freeze_at(freeze);
    std::vector<std::uint8_t> stale;
    const WorkloadResult wl = run_workload(rig, seed, &stale);
    const std::vector<std::uint8_t> img0 = rig.durable_image();
    const ImageLayout layout = layout_of(rig);

    // Baseline: salvage the *uncorrupted* image. Must come out ok, with
    // every context's data landing on one of its committed snapshots.
    std::vector<std::uint8_t> base = img0;
    runtime::RecoveryManager baseline(view_of(base, layout));
    const runtime::RecoveryReport base_report = baseline.run();
    SCOPED_TRACE(corrupt_replay_line(base_seed, mode_name(mode),
                                     CorruptionKind::kBitFlips, sites) +
                 " (freeze " + std::to_string(freeze) + ")");
    ASSERT_TRUE(base_report.ok()) << base_report.summary();
    for (std::size_t c = 0; c < kContexts; ++c) {
      EXPECT_TRUE(in_committed_set(wl, base, rig, c))
          << "context " << c
          << " baseline recovery left a never-committed state";
    }
    const runtime::LineVerifyTable table = make_table(base, layout);

    // Stage-4 sanity: re-salvaging the already-salvaged image with the
    // checksum arena attached stays clean.
    {
      std::vector<std::uint8_t> again = base;
      runtime::RecoveryManager mgr(view_of(again, layout));
      mgr.set_verify_table(&table);
      EXPECT_TRUE(mgr.run().ok());
    }

    const std::vector<std::uint8_t> base_data{
        base.begin() + layout.data_offset,
        base.begin() + layout.data_offset + layout.data_size};

    for (std::size_t k = 0; k < testing::kCorruptionKinds; ++k) {
      const CorruptionKind kind =
          kind_pinned ? pinned_kind : testing::corruption_kind(k);
      std::vector<std::uint8_t> img = img0;
      ImageCorruptor corruptor({seed + k, sites}, layout);
      const std::string what = corruptor.corrupt(kind, img, &stale);
      SCOPED_TRACE(corrupt_replay_line(base_seed, mode_name(mode), kind,
                                       sites) +
                   "\n  " + what);

      runtime::RecoveryManager mgr(view_of(img, layout));
      mgr.set_verify_table(&table);
      const runtime::RecoveryReport report = mgr.run();  // R1: must not die

      const std::vector<std::uint8_t> got{
          img.begin() + layout.data_offset,
          img.begin() + layout.data_offset + layout.data_size};
      if (report.ok()) {
        // R2: a clean/salvaged verdict must mean the true committed bytes.
        EXPECT_EQ(got, base_data) << report.summary();
      } else {
        // R3: honest failure — the report names what died.
        EXPECT_FALSE(report.defects.empty()) << report.summary();
        EXPECT_EQ(report.outcome, runtime::RecoveryOutcome::kUnrecoverable);
      }
      if (kind_pinned) break;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, RecoveryFuzz,
                         ::testing::ValuesIn(kAllModes),
                         [](const auto& mode) {
                           std::string n = mode_name(mode.param);
                           for (char& ch : n) {
                             if (ch == '-') ch = '_';
                           }
                           return n;
                         });

// ---------------------------------------------------------------------------
// Proof the harness has teeth: the seeded verification-skip bug produces a
// clean report over wrong bytes, and the R2 oracle catches exactly that.
// ---------------------------------------------------------------------------

/// Three committed FASEs on context 0, then one open (never-committed) FASE
/// of four stores to distinct cells of one data line — so the newest
/// record's payload is never masked by a later (older) rollback write to
/// the same cell. With `barrier`, a mid-FASE persist_barrier then writes
/// that line back, which first publishes the tail covering its records.
void run_open_fase(CrashRig& rig, std::uint64_t seed, bool barrier) {
  std::uint64_t s = seed;
  for (std::size_t round = 0; round < 3; ++round) {
    rig.fase_begin(0);
    for (std::size_t w = 0; w < 3; ++w) {
      rig.pstore_u64(0, splitmix(s) % kCells, splitmix(s));
    }
    ASSERT_TRUE(rig.fase_end(0));
  }
  rig.fase_begin(0);
  for (std::size_t w = 0; w < 4; ++w) {
    rig.pstore_u64(0, 16 + w * 2, splitmix(s));
  }
  if (barrier) rig.persist_barrier(0);
  // No fase_end: power could fail here; the durable image holds certified
  // uncommitted records.
}

/// Flip one payload byte of the newest certified record of segment 0.
std::vector<std::uint8_t> corrupt_newest_record(
    const std::vector<std::uint8_t>& image, const ImageLayout& layout) {
  const runtime::UndoLog::Inspection ins = runtime::UndoLog::inspect(
      image.data() + layout.log_offset, layout.log_segment_size);
  EXPECT_TRUE(ins.formatted);
  EXPECT_FALSE(ins.offsets.empty()) << "open FASE left no certified records";
  std::vector<std::uint8_t> out = image;
  if (ins.offsets.empty()) return out;
  out[layout.log_offset + ins.offsets.back() +
      sizeof(runtime::UndoLog::EntryHead)] ^= 0x40;
  return out;
}

TEST(RecoveryFuzzBug, SeededVerificationSkipIsCaught) {
  // Strict mode, sync flushing, one open FASE whose data line never left
  // the write cache: its undo records are durable, but no write-back has
  // published a tail covering them yet. A restarted process must still
  // roll back what certifies.
  CrashRig rig(rig_config(kAllModes[0]), rig_medium(kAllModes[0]));
  const std::uint64_t seed = testing::seed_from_env("NVC_FUZZ_SEED", 0xbadull);
  run_open_fase(rig, seed, /*barrier=*/false);
  const std::vector<std::uint8_t> img0 = rig.durable_image();
  const ImageLayout layout = layout_of(rig);

  // Baseline + checksum arena.
  std::vector<std::uint8_t> base = img0;
  runtime::RecoveryManager baseline(view_of(base, layout));
  ASSERT_TRUE(baseline.run().ok());
  const runtime::LineVerifyTable table = make_table(base, layout);
  const std::vector<std::uint8_t> base_data{
      base.begin() + layout.data_offset,
      base.begin() + layout.data_offset + layout.data_size};

  // Corrupt one payload byte of the newest certified record.
  const std::vector<std::uint8_t> img = corrupt_newest_record(img0, layout);

  // Honest pipeline: the record no longer certifies, so the chain stops
  // one record early — but still covers the durable tail, and the lost
  // record's data line never became durable. Rolling back the certified
  // prefix restores exactly the committed bytes: salvaged, not lost.
  {
    std::vector<std::uint8_t> copy = img;
    runtime::RecoveryManager mgr(view_of(copy, layout));
    mgr.set_verify_table(&table);
    const runtime::RecoveryReport report = mgr.run();
    const std::vector<std::uint8_t> got{
        copy.begin() + layout.data_offset,
        copy.begin() + layout.data_offset + layout.data_size};
    EXPECT_EQ(report.outcome, runtime::RecoveryOutcome::kSalvaged)
        << report.summary();
    EXPECT_TRUE(report.ok());
    EXPECT_EQ(got, base_data);
  }

  // Buggy pipeline: trusts length fields alone, replays the corrupted
  // payload, skips data verification — clean report, wrong bytes. This is
  // exactly the (report.ok() && data != committed) state the R2 oracle
  // rejects, which is the proof the fuzzer catches the seeded bug.
  {
    std::vector<std::uint8_t> copy = img;
    runtime::RecoveryManager mgr(view_of(copy, layout));
    mgr.set_verify_table(&table);
    mgr.set_bug_skip_verification(true);
    const runtime::RecoveryReport report = mgr.run();
    const std::vector<std::uint8_t> got{
        copy.begin() + layout.data_offset,
        copy.begin() + layout.data_offset + layout.data_size};
    EXPECT_TRUE(report.ok()) << report.summary();
    EXPECT_NE(got, base_data)
        << "the seeded bug failed to corrupt the salvage — fuzzer has no "
           "teeth against it";
  }

  // Second face of the same bug: a scribbled *committed* data line. The
  // honest pipeline's verify stage flags it; the buggy one stays silent.
  {
    std::vector<std::uint8_t> copy = img0;
    // Scribble a committed data line that differs from zero so the
    // damage is guaranteed visible against base_data.
    std::size_t target = rig.image_data_offset(0);
    for (std::size_t idx = 0; idx < kDataLines; ++idx) {
      const std::size_t off = rig.image_data_offset(0) + idx * kCacheLineSize;
      const std::uint8_t* line = base_data.data() + off;
      bool nonzero = false;
      for (std::size_t b = 0; b < kCacheLineSize; ++b) {
        nonzero = nonzero || line[b] != 0;
      }
      if (nonzero) {
        target = off;
        break;
      }
    }
    for (std::size_t b = 0; b < kCacheLineSize; ++b) {
      copy[target + b] ^= 0xa5;
    }
    runtime::RecoveryManager honest(view_of(copy, layout));
    honest.set_verify_table(&table);
    EXPECT_FALSE(honest.run().ok());

    std::vector<std::uint8_t> copy2 = copy;
    runtime::RecoveryManager buggy(view_of(copy2, layout));
    buggy.set_verify_table(&table);
    buggy.set_bug_skip_verification(true);
    EXPECT_TRUE(buggy.run().ok())
        << "bug armed but verification still ran";
  }
}

TEST(RecoveryFuzzTargets, DestroyedLogMagicIsReportedAndTheSlotReformatted) {
  // The log-magic target on the segment of an open FASE whose records and
  // data line are durable: the undo bytes are out of reach, so salvage must
  // report the slot unrecoverable (never clean over uncommitted data),
  // replay nothing from it, and leave it freshly formatted for reuse.
  CrashRig rig(rig_config(kAllModes[0]), rig_medium(kAllModes[0]));
  run_open_fase(rig, testing::seed_from_env("NVC_FUZZ_SEED", 0xbadull),
                /*barrier=*/true);
  const ImageLayout layout = layout_of(rig);
  std::vector<std::uint8_t> img = rig.durable_image();
  const auto slot0 = [&] {
    return runtime::UndoLog::inspect(img.data() + layout.log_offset,
                                     layout.log_segment_size);
  };
  ASSERT_FALSE(slot0().offsets.empty());

  ImageLayout first_slot = layout;
  first_slot.log_segments = 1;
  ImageCorruptor corruptor({0x1ab, 1}, first_slot);
  const std::string what =
      corruptor.corrupt(CorruptionKind::kLogMagic, img);
  SCOPED_TRACE(what);
  ASSERT_FALSE(slot0().formatted);

  runtime::RecoveryManager mgr(view_of(img, layout));
  const runtime::RecoveryReport report = mgr.run();
  EXPECT_EQ(report.outcome, runtime::RecoveryOutcome::kUnrecoverable)
      << report.summary();
  ASSERT_EQ(report.segments.size(), kContexts);
  const runtime::SegmentReport& seg = report.segments[0];
  EXPECT_EQ(seg.outcome, runtime::SegmentOutcome::kUnrecoverable);
  EXPECT_EQ(seg.records_applied, 0u);
  EXPECT_NE(seg.detail.find("magic"), std::string::npos) << seg.detail;
  EXPECT_FALSE(report.defects.empty());

  const runtime::UndoLog::Inspection after = slot0();
  EXPECT_TRUE(after.formatted);
  EXPECT_EQ(after.gen, 1u);
  EXPECT_EQ(after.durable_tail, runtime::UndoLog::kHeaderSize);
  EXPECT_TRUE(after.offsets.empty());
}

/// The heap-header target on the image of an open FASE whose records and
/// data line are durable, with the first corruptor seed whose mutation
/// names `field`; returns the salvage report (no verify table, so stage 1
/// alone judges the header).
runtime::RecoveryReport salvage_heap_header(const std::string& field) {
  CrashRig rig(rig_config(kAllModes[0]), rig_medium(kAllModes[0]));
  run_open_fase(rig, testing::seed_from_env("NVC_FUZZ_SEED", 0xbadull),
                /*barrier=*/true);
  const ImageLayout layout = layout_of(rig);
  const std::vector<std::uint8_t> img0 = rig.durable_image();
  {
    // The uncorrupted image salvages with a sound, unsealed header.
    std::vector<std::uint8_t> img = img0;
    const runtime::RecoveryReport base =
        runtime::RecoveryManager(view_of(img, layout)).run();
    EXPECT_EQ(base.outcome, runtime::RecoveryOutcome::kSalvaged)
        << base.summary();
    EXPECT_TRUE(base.heap_header_ok);
    EXPECT_TRUE(base.heap_bump_plausible);
    EXPECT_TRUE(base.defects.empty()) << base.summary();
  }
  for (std::uint64_t seed = 1; seed < 64; ++seed) {
    std::vector<std::uint8_t> img = img0;
    ImageCorruptor corruptor({seed, 1}, layout);
    const std::string what = corruptor.corrupt(CorruptionKind::kHeapHeader,
                                               img);
    if (what.find(field) == std::string::npos) continue;
    SCOPED_TRACE(what);
    EXPECT_NE(img, img0);
    return runtime::RecoveryManager(view_of(img, layout)).run();
  }
  ADD_FAILURE() << "no seed below 64 mutates the heap header's " << field;
  return {};
}

bool names_defect(const runtime::RecoveryReport& report, const char* word) {
  for (const std::string& defect : report.defects) {
    if (defect.find(word) != std::string::npos) return true;
  }
  return false;
}

TEST(RecoveryFuzzTargets, DestroyedHeapMagicIsUnrecoverable) {
  const runtime::RecoveryReport report = salvage_heap_header("magic");
  EXPECT_FALSE(report.heap_header_ok);
  EXPECT_FALSE(report.clean_shutdown);
  EXPECT_EQ(report.outcome, runtime::RecoveryOutcome::kUnrecoverable)
      << report.summary();
  EXPECT_TRUE(names_defect(report, "magic")) << report.summary();
}

TEST(RecoveryFuzzTargets, ForeignHeapVersionIsUnrecoverable) {
  const runtime::RecoveryReport report = salvage_heap_header("version");
  EXPECT_FALSE(report.heap_header_ok);
  EXPECT_TRUE(report.heap_bump_plausible);
  EXPECT_FALSE(report.clean_shutdown);
  EXPECT_EQ(report.outcome, runtime::RecoveryOutcome::kUnrecoverable)
      << report.summary();
  EXPECT_TRUE(names_defect(report, "version")) << report.summary();
}

TEST(RecoveryFuzzTargets, HeapBumpPastTheRegionIsUnrecoverable) {
  const runtime::RecoveryReport report = salvage_heap_header("bump");
  EXPECT_TRUE(report.heap_header_ok);
  EXPECT_FALSE(report.heap_bump_plausible);
  EXPECT_FALSE(report.clean_shutdown);
  EXPECT_EQ(report.outcome, runtime::RecoveryOutcome::kUnrecoverable)
      << report.summary();
  EXPECT_TRUE(names_defect(report, "bump")) << report.summary();
}

TEST(RecoveryFuzzTargets, ForgedHeapSealIsReportedNotTrusted) {
  // A seal that does not match the header vouches for nothing: the region
  // is still salvaged from its logs, but never reported as a clean
  // shutdown, and the forged seal is named.
  const runtime::RecoveryReport report = salvage_heap_header("seal");
  EXPECT_TRUE(report.heap_header_ok);
  EXPECT_TRUE(report.heap_bump_plausible);
  EXPECT_FALSE(report.clean_shutdown);
  EXPECT_EQ(report.outcome, runtime::RecoveryOutcome::kSalvaged)
      << report.summary();
  EXPECT_TRUE(names_defect(report, "seal")) << report.summary();
}

TEST(RecoveryFuzzBug, DurableDataRecordRotIsUnrecoverableWithoutVerifyTable) {
  // The same corruption once the open FASE's data line is durable: the
  // write-back published a tail covering every record, so losing the
  // newest one loses undo bytes for durable data. The tail check alone
  // must flag it — no verify table — in both log protocols.
  for (const RecMode& mode : {kAllModes[0], kAllModes[2]}) {
    CrashRig rig(rig_config(mode), rig_medium(mode));
    run_open_fase(rig, testing::seed_from_env("NVC_FUZZ_SEED", 0xbadull),
                  /*barrier=*/true);
    const ImageLayout layout = layout_of(rig);
    std::vector<std::uint8_t> img =
        corrupt_newest_record(rig.durable_image(), layout);
    runtime::RecoveryManager mgr(view_of(img, layout));
    const runtime::RecoveryReport report = mgr.run();
    EXPECT_EQ(report.outcome, runtime::RecoveryOutcome::kUnrecoverable)
        << mode_name(mode) << ": " << report.summary();
    EXPECT_GT(report.segments_unrecoverable, 0u) << mode_name(mode);
  }
}

}  // namespace
}  // namespace nvc
