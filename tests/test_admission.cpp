// Write-admission policies and endurance accounting (DESIGN.md §12).
//
// Covers the doorkeeper detector, the MRC-driven reuse verdict and its
// burst-boundary republish, the make_policy attachment rules, the exact
// byte accounting of the ablation microworkloads (including the ≥30%
// write-once reduction bound the bench gates), and the WearTracker's
// race-free totals under the flush-behind worker (the WearFlushBehind cases
// carry the tsan label).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/admission.hpp"
#include "core/policy.hpp"
#include "core/write_cache.hpp"
#include "pmem/flush.hpp"
#include "pmem/shadow.hpp"
#include "pmem/wear.hpp"
#include "runtime/runtime.hpp"
#include "workloads/admission_micro.hpp"

namespace nvc {
namespace {

using core::AdmissionConfig;
using core::AdmissionFilter;
using core::AdmitMode;
using core::PolicyConfig;
using core::PolicyKind;

TEST(AdmitMode, ParseRoundTrip) {
  for (const AdmitMode mode :
       {AdmitMode::kAlways, AdmitMode::kWriteOnce, AdmitMode::kReuse}) {
    const auto parsed = core::parse_admit_mode(core::to_string(mode));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, mode);
  }
  EXPECT_FALSE(core::parse_admit_mode("sometimes").has_value());
  EXPECT_FALSE(core::parse_admit_mode("").has_value());
}

TEST(AdmissionFilter, DoorkeeperBypassesFirstTouchAdmitsSecond) {
  AdmissionConfig config;
  config.mode = AdmitMode::kWriteOnce;
  AdmissionFilter filter(config);
  EXPECT_TRUE(filter.should_bypass(100));   // first touch in the window
  EXPECT_FALSE(filter.should_bypass(100));  // second touch: reuse, admit
  EXPECT_FALSE(filter.should_bypass(100));
  EXPECT_TRUE(filter.should_bypass(200));
  EXPECT_EQ(filter.counters().bypassed, 2u);
  EXPECT_EQ(filter.counters().readmitted, 2u);
}

// The doorkeeper hashes lines relative to `line_base` (the Runtime stamps
// its region base line there), so the collision pattern — and with it every
// exact_* counter in the admission ablation — is a function of offsets
// within the region, not of where ASLR happened to map it.
TEST(AdmissionFilter, CollisionPatternIsRelativeToLineBase) {
  constexpr LineAddr kBaseA = 0x7f12'3456'0000ULL / 64;
  constexpr LineAddr kBaseB = 0x5e98'7654'0000ULL / 64;
  AdmissionConfig a;
  a.mode = AdmitMode::kWriteOnce;
  a.window = 64;  // small table: offsets past the window force collisions
  AdmissionConfig b = a;
  a.line_base = kBaseA;
  b.line_base = kBaseB;
  AdmissionFilter fa(a);
  AdmissionFilter fb(b);
  std::uint64_t state = 42;
  for (int i = 0; i < 4096; ++i) {
    const LineAddr offset = splitmix64(state) % 512;
    EXPECT_EQ(fa.should_bypass(kBaseA + offset),
              fb.should_bypass(kBaseB + offset))
        << "offset " << offset << " diverged at step " << i;
  }
  EXPECT_EQ(fa.counters().bypassed, fb.counters().bypassed);
  EXPECT_EQ(fa.counters().readmitted, fb.counters().readmitted);
}

TEST(AdmissionFilter, ReuseModeStartsDisarmed) {
  AdmissionConfig config;
  config.mode = AdmitMode::kReuse;
  AdmissionFilter filter(config);
  EXPECT_FALSE(filter.bypass_armed());
  // No MRC evidence yet: everything is admitted, but the doorkeeper still
  // accumulates reuse evidence.
  EXPECT_FALSE(filter.should_bypass(100));
  EXPECT_FALSE(filter.should_bypass(100));
  EXPECT_EQ(filter.counters().bypassed, 0u);
  EXPECT_EQ(filter.counters().readmitted, 1u);
}

TEST(AdmissionFilter, MakePolicyAttachmentRules) {
  PolicyConfig config;
  config.admission.mode = AdmitMode::kWriteOnce;
  EXPECT_EQ(core::make_policy(PolicyKind::kEager, config)->admission(),
            nullptr);
  EXPECT_EQ(core::make_policy(PolicyKind::kBest, config)->admission(),
            nullptr);
  EXPECT_NE(core::make_policy(PolicyKind::kLazy, config)->admission(),
            nullptr);
  EXPECT_NE(core::make_policy(PolicyKind::kAtlas, config)->admission(),
            nullptr);
  EXPECT_NE(core::make_policy(PolicyKind::kSoftCache, config)->admission(),
            nullptr);
  EXPECT_NE(
      core::make_policy(PolicyKind::kSoftCacheOffline, config)->admission(),
      nullptr);

  // kReuse needs the online sampler's MRC: SC only.
  config.admission.mode = AdmitMode::kReuse;
  EXPECT_NE(core::make_policy(PolicyKind::kSoftCache, config)->admission(),
            nullptr);
  EXPECT_EQ(
      core::make_policy(PolicyKind::kSoftCacheOffline, config)->admission(),
      nullptr);
  EXPECT_EQ(core::make_policy(PolicyKind::kLazy, config)->admission(),
            nullptr);

  config.admission.mode = AdmitMode::kAlways;
  EXPECT_EQ(core::make_policy(PolicyKind::kSoftCache, config)->admission(),
            nullptr);
}

TEST(AdmissionFilter, SoftCacheBypassWritesThroughImmediately) {
  PolicyConfig config;
  config.cache_size = 4;
  config.admission.mode = AdmitMode::kWriteOnce;
  const auto policy = core::make_policy(PolicyKind::kSoftCacheOffline, config);
  core::CountingSink sink;

  policy->on_fase_begin(sink);
  policy->on_store(10, sink);  // first touch: written through, not cached
  EXPECT_EQ(sink.count(), 1u);
  EXPECT_EQ(policy->counters().bypassed, 1u);
  policy->on_store(10, sink);  // second touch: admitted into the cache
  EXPECT_EQ(sink.count(), 1u);
  policy->on_store(10, sink);  // now buffered: combines
  EXPECT_EQ(sink.count(), 1u);
  EXPECT_EQ(policy->counters().combined, 1u);
  policy->on_fase_end(sink);
  EXPECT_EQ(sink.count(), 2u);  // the admitted line flushes at FASE end
  EXPECT_EQ(policy->counters().stores, 3u);
}

TEST(AdmissionFilter, LazyAndAtlasBypassSkipTheDeferredStructure) {
  for (const PolicyKind kind : {PolicyKind::kLazy, PolicyKind::kAtlas}) {
    PolicyConfig config;
    config.admission.mode = AdmitMode::kWriteOnce;
    const auto policy = core::make_policy(kind, config);
    core::CountingSink sink;
    policy->on_fase_begin(sink);
    policy->on_store(10, sink);
    EXPECT_EQ(sink.count(), 1u) << core::to_string(kind);
    policy->on_fase_end(sink);
    // Bypassed on first touch, so nothing was recorded for FASE-end flush.
    EXPECT_EQ(sink.count(), 1u) << core::to_string(kind);
  }
}

TEST(AdmissionFilter, ReuseVerdictArmsOnStreamingDisarmsOnReuse) {
  PolicyConfig config;
  config.cache_size = 8;
  config.admission.mode = AdmitMode::kReuse;
  config.sampler.burst_length = 64;
  config.sampler.hibernation_length = 16;  // keep re-sampling (second burst)
  const auto policy = core::make_policy(PolicyKind::kSoftCache, config);
  core::CountingSink sink;

  // Burst 1: pure streaming — every line distinct, MRC flat at miss≈1.
  policy->on_fase_begin(sink);
  for (LineAddr line = 1; line <= 64; ++line) policy->on_store(line, sink);
  policy->on_fase_end(sink);
  ASSERT_NE(policy->admission(), nullptr);
  EXPECT_TRUE(policy->admission()->bypass_armed());
  EXPECT_EQ(policy->admission()->counters().verdicts, 1u);

  // Hibernation gap, then burst 2: two lines ping-pong — reuse-heavy, the
  // verdict must disarm at the burst boundary.
  policy->on_fase_begin(sink);
  for (int i = 0; i < 16 + 64 + 8; ++i) {
    policy->on_store(1000 + (i & 1), sink);
  }
  policy->on_fase_end(sink);
  EXPECT_FALSE(policy->admission()->bypass_armed());
  EXPECT_GE(policy->admission()->counters().verdicts, 2u);
}

// --- ablation microworkloads (the acceptance bound) -------------------------

TEST(AdmissionMicro, WriteOnceCutsStreamingBytesPerFase) {
  using workloads::AdmissionWorkload;
  const auto always = workloads::run_admission_micro(
      PolicyKind::kSoftCacheOffline, AdmitMode::kAlways,
      AdmissionWorkload::kWriteOnceStream, 32);
  const auto write_once = workloads::run_admission_micro(
      PolicyKind::kSoftCacheOffline, AdmitMode::kWriteOnce,
      AdmissionWorkload::kWriteOnceStream, 32);

  EXPECT_EQ(always.bypassed, 0u);
  EXPECT_GT(write_once.bypassed, 0u);
  ASSERT_GT(always.media_bytes, 0u);
  const double reduction =
      1.0 - write_once.bytes_per_fase / always.bytes_per_fase;
  // The ISSUE's acceptance bound: ≥30% fewer bytes written to media per
  // committed FASE on the write-once streaming workload.
  EXPECT_GE(reduction, 0.30) << "always=" << always.bytes_per_fase
                             << " write-once=" << write_once.bytes_per_fase;
}

TEST(AdmissionMicro, WriteOnceIsByteNeutralOnReuseHeavyTraffic) {
  using workloads::AdmissionWorkload;
  const auto always = workloads::run_admission_micro(
      PolicyKind::kSoftCacheOffline, AdmitMode::kAlways,
      AdmissionWorkload::kReuseHeavy, 32);
  const auto write_once = workloads::run_admission_micro(
      PolicyKind::kSoftCacheOffline, AdmitMode::kWriteOnce,
      AdmissionWorkload::kReuseHeavy, 32);
  ASSERT_GT(always.media_bytes, 0u);
  const double drift =
      std::abs(static_cast<double>(write_once.media_bytes) -
               static_cast<double>(always.media_bytes)) /
      static_cast<double>(always.media_bytes);
  // Re-admission from the doorkeeper keeps reuse-heavy traffic combining;
  // only the first-FASE cold touches differ.
  EXPECT_LE(drift, 0.05);
}

TEST(AdmissionMicro, ReuseModeAdaptsPerWorkload) {
  using workloads::AdmissionWorkload;
  const auto stream_always = workloads::run_admission_micro(
      PolicyKind::kSoftCache, AdmitMode::kAlways,
      AdmissionWorkload::kWriteOnceStream, 32);
  const auto stream_reuse = workloads::run_admission_micro(
      PolicyKind::kSoftCache, AdmitMode::kReuse,
      AdmissionWorkload::kWriteOnceStream, 32);
  // Streaming MRC evidence arms the bypass after the first burst.
  EXPECT_GT(stream_reuse.bypassed, 0u);
  EXPECT_LT(stream_reuse.media_bytes, stream_always.media_bytes);

  const auto hot_always = workloads::run_admission_micro(
      PolicyKind::kSoftCache, AdmitMode::kAlways,
      AdmissionWorkload::kReuseHeavy, 32);
  const auto hot_reuse = workloads::run_admission_micro(
      PolicyKind::kSoftCache, AdmitMode::kReuse,
      AdmissionWorkload::kReuseHeavy, 32);
  // Reuse-heavy evidence keeps (or puts) the bypass disarmed: byte counts
  // match `always` exactly — the verdict never arms, so no store bypasses.
  EXPECT_EQ(hot_reuse.bypassed, 0u);
  EXPECT_EQ(hot_reuse.media_bytes, hot_always.media_bytes);
}

TEST(AdmissionMicro, DeterministicAcrossRuns) {
  using workloads::AdmissionWorkload;
  const auto a = workloads::run_admission_micro(
      PolicyKind::kAtlas, AdmitMode::kWriteOnce,
      AdmissionWorkload::kWriteOnceStream, 16);
  const auto b = workloads::run_admission_micro(
      PolicyKind::kAtlas, AdmitMode::kWriteOnce,
      AdmissionWorkload::kWriteOnceStream, 16);
  EXPECT_EQ(a.media_bytes, b.media_bytes);
  EXPECT_EQ(a.bypassed, b.bypassed);
  EXPECT_EQ(a.media_line_writes, b.media_line_writes);
}

// --- endurance accounting ----------------------------------------------------

TEST(WearTracker, CountsMaxMeanAndSkew) {
  pmem::WearTracker wear;
  for (int i = 0; i < 6; ++i) wear.record(1);
  wear.record(2);
  wear.record(3);
  EXPECT_EQ(wear.line_writes(), 8u);
  EXPECT_EQ(wear.bytes_written(), 8u * kCacheLineSize);
  EXPECT_EQ(wear.line_write_count(1), 6u);
  EXPECT_EQ(wear.line_write_count(42), 0u);
  const pmem::WearStats s = wear.stats();
  EXPECT_EQ(s.lines_touched, 3u);
  EXPECT_EQ(s.max_line_writes, 6u);
  EXPECT_DOUBLE_EQ(s.mean_line_writes, 8.0 / 3.0);
  EXPECT_DOUBLE_EQ(s.leveling_skew, 6.0 / (8.0 / 3.0) - 1.0);
  wear.reset();
  EXPECT_EQ(wear.line_writes(), 0u);
  EXPECT_EQ(wear.stats().lines_touched, 0u);
}

TEST(WearTracker, FlushBackendRecordsSuccessfulWriteBacks) {
  auto wear = std::make_shared<pmem::WearTracker>();
  pmem::FlushBackend backend(pmem::FlushKind::kCountOnly);
  backend.set_wear_tracker(wear);
  alignas(kCacheLineSize) char lines[3 * kCacheLineSize] = {};
  backend.flush(&lines[0]);
  backend.flush(&lines[0]);
  backend.issue(&lines[kCacheLineSize]);
  EXPECT_EQ(wear->line_writes(), 3u);
  EXPECT_EQ(wear->line_write_count(line_of(
                reinterpret_cast<PmAddr>(&lines[0]))),
            2u);
  EXPECT_EQ(backend.media_writes(), 3u);
  EXPECT_EQ(backend.bytes_written(), 3u * kCacheLineSize);
}

TEST(WearTracker, ShadowPmemCountsBytesIncludingTornPrefixes) {
  pmem::ShadowPmem shadow(4 * kCacheLineSize);
  const std::uint64_t v = 7;
  shadow.store_value(0, v);
  shadow.store_value(kCacheLineSize, v);
  EXPECT_TRUE(shadow.flush_line(0));
  EXPECT_TRUE(shadow.flush_line(0));  // clean line: still a media write
  shadow.flush_line_torn(1, 16);
  EXPECT_EQ(shadow.bytes_written(), 2 * kCacheLineSize + 16);
  EXPECT_EQ(shadow.line_write_count(0), 2u);
  EXPECT_EQ(shadow.line_write_count(1), 1u);
  const pmem::WearStats s = shadow.wear_stats();
  EXPECT_EQ(s.lines_touched, 2u);
  EXPECT_EQ(s.max_line_writes, 2u);
  // Frozen flushes must not wear the media: power is off.
  shadow.freeze_at(shadow.events());
  shadow.flush_line(0);
  EXPECT_EQ(shadow.line_write_count(0), 2u);
}

TEST(WearTracker, RuntimeStatsAndHealthSurfaceWear) {
  runtime::RuntimeConfig config;
  config.region_name = "test-admit-wear";
  config.flush = pmem::FlushKind::kCountOnly;
  config.policy = PolicyKind::kEager;
  config.wear_tracking = true;
  runtime::Runtime rt(config);
  {
    auto* p = static_cast<std::uint64_t*>(rt.pm_alloc(1024));
    runtime::FaseScope fase(rt);
    for (int i = 0; i < 16; ++i) rt.pstore(p[8 * i], std::uint64_t(i));
  }
  const runtime::RuntimeStats s = rt.stats();
  EXPECT_GT(s.media_line_writes, 0u);
  // Count backend, no injector: every data flush reaches the media, and
  // the tracker covers the same backends the flush counters do.
  EXPECT_EQ(s.media_line_writes, s.flushes);
  EXPECT_EQ(s.media_bytes_written, s.media_line_writes * kCacheLineSize);
  EXPECT_GT(s.wear_lines_touched, 0u);
  EXPECT_GE(s.wear_max_line_writes, 1u);
  EXPECT_GT(s.wear_mean_line_writes, 0.0);

  const runtime::HealthReport health = rt.health();
  EXPECT_TRUE(health.wear_attached);
  EXPECT_EQ(health.media_bytes_written, s.media_bytes_written);
  EXPECT_EQ(health.wear_max_line_writes, s.wear_max_line_writes);
  rt.destroy_storage();

  runtime::RuntimeConfig off = config;
  off.region_name = "test-admit-wear-off";
  off.wear_tracking = false;
  runtime::Runtime rt2(off);
  EXPECT_FALSE(rt2.health().wear_attached);
  EXPECT_EQ(rt2.stats().media_bytes_written, 0u);
  rt2.destroy_storage();
}

TEST(WearTracker, BypassedStoresSurfaceInRuntimeStats) {
  runtime::RuntimeConfig config;
  config.region_name = "test-admit-bypass-stats";
  config.flush = pmem::FlushKind::kCountOnly;
  config.policy = PolicyKind::kSoftCacheOffline;
  config.policy_config.admission.mode = AdmitMode::kWriteOnce;
  runtime::Runtime rt(config);
  {
    auto* p = static_cast<std::uint8_t*>(rt.pm_alloc(64 * kCacheLineSize));
    runtime::FaseScope fase(rt);
    const std::uint64_t v = 1;
    for (int i = 0; i < 32; ++i) {
      rt.pstore(p + static_cast<std::size_t>(i) * kCacheLineSize, &v,
                sizeof(v));
    }
  }
  EXPECT_GT(rt.stats().bypassed_stores, 0u);
  rt.destroy_storage();
}

// --- wear determinism under flush-behind (tsan label) ------------------------

namespace {

/// Fixed multi-threaded store schedule; returns the stats with the shared
/// tracker's media_line_writes and media_bytes_written.
runtime::RuntimeStats wear_run(const std::string& name, bool async_flush) {
  runtime::RuntimeConfig config;
  config.region_name = name;
  config.flush = pmem::FlushKind::kCountOnly;
  config.policy = PolicyKind::kSoftCacheOffline;
  config.policy_config.cache_size = 8;
  config.async_flush = async_flush;
  config.flush_queue_depth = 64;
  config.wear_tracking = true;
  runtime::Runtime rt(config);

  constexpr int kThreads = 4;
  constexpr std::size_t kLinesPerThread = 24;
  auto* base = static_cast<std::uint8_t*>(
      rt.pm_alloc(kThreads * kLinesPerThread * kCacheLineSize +
                  kCacheLineSize));
  const auto addr = reinterpret_cast<std::uintptr_t>(base);
  base += align_up(addr, kCacheLineSize) - addr;

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&rt, base, t] {
      std::uint8_t* mine = base + static_cast<std::size_t>(t) *
                                      kLinesPerThread * kCacheLineSize;
      const std::uint64_t v = 0xabcdULL + static_cast<std::uint64_t>(t);
      for (int f = 0; f < 16; ++f) {
        runtime::FaseScope fase(rt);
        for (std::size_t i = 0; i < 32; ++i) {
          const std::size_t line = (static_cast<std::size_t>(f) * 7 + i) %
                                   kLinesPerThread;
          rt.pstore(mine + line * kCacheLineSize, &v, sizeof(v));
        }
      }
      rt.thread_flush();
    });
  }
  for (auto& th : threads) th.join();

  const runtime::RuntimeStats s = rt.stats();
  rt.destroy_storage();
  return s;
}

}  // namespace

TEST(WearFlushBehind, CountersAreExactAndDeterministicUnderFlushBehind) {
  // Exactly-once flush traffic (DESIGN.md §8) means the media sees the same
  // write-backs whether lines drain synchronously or through the flush
  // worker and helping drains, less those flush elision skipped (how many
  // depends on the worker's timing): the release-published tracker totals
  // must match the sync run's, write for write, in every async run.
  const runtime::RuntimeStats sync_run =
      wear_run("test-admit-wear-sync", false);
  EXPECT_GT(sync_run.media_line_writes, 0u);
  EXPECT_EQ(sync_run.media_bytes_written,
            sync_run.media_line_writes * kCacheLineSize);
  for (const char* name :
       {"test-admit-wear-async-a", "test-admit-wear-async-b"}) {
    const runtime::RuntimeStats async_run = wear_run(name, true);
    EXPECT_EQ(sync_run.media_line_writes,
              async_run.media_line_writes + async_run.elided_flushes -
                  async_run.elision_reflushes)
        << name;
    EXPECT_EQ(async_run.media_bytes_written,
              async_run.media_line_writes * kCacheLineSize)
        << name;
  }
}

}  // namespace
}  // namespace nvc
