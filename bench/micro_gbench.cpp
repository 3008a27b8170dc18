// Micro-benchmarks (google-benchmark): hot-path costs of the building
// blocks — software-cache operations, the linear-time reuse analysis, FASE
// renaming, Mattson stack distances, and the flush instructions themselves.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/env.hpp"
#include "common/rng.hpp"
#include "core/analyzer.hpp"
#include "core/flush_pipeline.hpp"
#include "core/fase_trace.hpp"
#include "core/mrc.hpp"
#include "core/policy.hpp"
#include "core/reuse_locality.hpp"
#include "core/sampler.hpp"
#include "core/write_cache.hpp"
#include "core/admission.hpp"
#include "harness.hpp"
#include "pmem/flush.hpp"
#include "runtime/recovery.hpp"
#include "runtime/runtime.hpp"
#include "runtime/scrub.hpp"
#include "runtime/undo_log.hpp"
#include "workloads/admission_micro.hpp"

namespace {

using namespace nvc;
using namespace nvc::core;

std::vector<LineAddr> random_trace(std::size_t n, std::size_t distinct,
                                   std::uint64_t seed = 7) {
  Rng rng(seed);
  std::vector<LineAddr> trace(n);
  for (auto& a : trace) a = rng.below(distinct);
  return trace;
}

/// A trace whose `distinct` lines are scattered across a 64 GiB line-address
/// space, like real heap addresses — NOT the dense 0..distinct ids of
/// random_trace(). The analysis kernels hash raw addresses like these; dense
/// ids would flatter std::unordered_map's identity hash.
std::vector<LineAddr> sparse_trace(std::size_t n, std::size_t distinct,
                                   std::uint64_t seed = 7) {
  Rng rng(seed);
  std::vector<LineAddr> lines(distinct);
  for (auto& l : lines) l = rng.below(1ull << 30);
  std::vector<LineAddr> trace(n);
  for (auto& a : trace) a = lines[rng.below(distinct)];
  return trace;
}

// Walks every buffered line in turn, so each hit is at the LRU end: the
// write cache's deepest search and longest shift, a shape no workload has
// (BM_ScPolicyStoreInterleaved is ocean's).
void BM_WriteCacheHit(benchmark::State& state) {
  WriteCache cache(static_cast<std::size_t>(state.range(0)));
  CountingSink sink;
  for (LineAddr l = 0; l < static_cast<LineAddr>(state.range(0)); ++l) {
    cache.access(l, sink);
  }
  LineAddr l = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(l, sink));
    l = (l + 1) % static_cast<LineAddr>(state.range(0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_WriteCacheHit)->Arg(8)->Arg(50)->Arg(64);

void BM_WriteCacheMissEvict(benchmark::State& state) {
  WriteCache cache(static_cast<std::size_t>(state.range(0)));
  CountingSink sink;
  LineAddr next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(next++, sink));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_WriteCacheMissEvict)->Arg(8)->Arg(50)->Arg(64);

void BM_AtlasTableStore(benchmark::State& state) {
  auto policy = make_policy(PolicyKind::kAtlas);
  CountingSink sink;
  Rng rng(3);
  for (auto _ : state) {
    policy->on_store(rng.below(64) + 1, sink);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_AtlasTableStore);

void BM_ScPolicyStore(benchmark::State& state) {
  PolicyConfig config;
  config.cache_size = 23;
  auto policy = make_policy(PolicyKind::kSoftCacheOffline, config);
  CountingSink sink;
  Rng rng(3);
  for (auto _ : state) {
    policy->on_store(rng.below(64) + 1, sink);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ScPolicyStore);

// Runs of 8 stores to one line (mdb's page-copy shape), same cache and line
// draw as BM_ScPolicyStore: 7 of every 8 stores repeat the line the
// previous store left buffered, which Policy::on_store counts without
// probing the cache (DESIGN.md §5 item 5). BM_ScPolicyStore's uniform
// draw almost never repeats, so it cannot show that lane.
void BM_ScPolicyRepeatStore(benchmark::State& state) {
  PolicyConfig config;
  config.cache_size = 23;
  auto policy = make_policy(PolicyKind::kSoftCacheOffline, config);
  CountingSink sink;
  Rng rng(3);
  LineAddr line = 1;
  std::uint64_t n = 0;
  for (auto _ : state) {
    if (n++ % 8 == 0) line = rng.below(64) + 1;
    policy->on_store(line, sink);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ScPolicyRepeatStore);

// Ocean's store shape: two grids written in lockstep one double at a time
// (psi and vort), plus a third line on every 8th store, into SC-offline at
// ocean's selected size 5. Consecutive stores never repeat a line, so the
// repeat-store lane never fires and every store searches the cache; hits
// land one or two lines deep and each grid moves to a new line every 8
// elements.
void BM_ScPolicyStoreInterleaved(benchmark::State& state) {
  PolicyConfig config;
  config.cache_size = 5;
  auto policy = make_policy(PolicyKind::kSoftCacheOffline, config);
  CountingSink sink;
  constexpr LineAddr kGridA = 1ull << 40;
  constexpr LineAddr kGridB = 2ull << 40;
  constexpr LineAddr kThird = 1;
  std::uint64_t n = 0;
  std::uint64_t grid_stores = 0;
  for (auto _ : state) {
    if (n++ % 8 == 7) {
      policy->on_store(kThird, sink);
    } else {
      // Element grid_stores / 2 of either grid; 8 doubles per line.
      const LineAddr base = grid_stores % 2 == 0 ? kGridA : kGridB;
      policy->on_store(base + grid_stores / 16, sink);
      ++grid_stores;
    }
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ScPolicyStoreInterleaved);

void BM_ReuseAllK(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto trace = random_trace(n, 64);
  const auto intervals = intervals_of_trace(trace);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        compute_reuse_all_k(intervals, static_cast<LogicalTime>(n)));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(n));
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ReuseAllK)->Range(1 << 12, 1 << 20)->Complexity(benchmark::oN);

void BM_IntervalExtraction(benchmark::State& state) {
  const auto trace = random_trace(1 << 16, 256);
  for (auto _ : state) {
    benchmark::DoNotOptimize(intervals_of_trace(trace));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) * (1 << 16));
}
BENCHMARK(BM_IntervalExtraction);

void BM_FaseRename(benchmark::State& state) {
  FaseRenamer renamer;
  Rng rng(5);
  int i = 0;
  for (auto _ : state) {
    if ((++i & 63) == 0) renamer.fase_boundary();
    benchmark::DoNotOptimize(renamer.rename(rng.below(128)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FaseRename);

void BM_MattsonExactLru(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto trace = random_trace(n, 128);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mrc_exact_lru(trace, 50));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(n));
}
BENCHMARK(BM_MattsonExactLru)->Range(1 << 12, 1 << 18);

// --- burst-analysis throughput (the sampler's burst-end kernels) ------------

void BM_IntervalExtractionSparse(benchmark::State& state) {
  // Raw (unrenamed) addresses: the flat-hash path of intervals_of_trace.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto trace = sparse_trace(n, n / 16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(intervals_of_trace(trace));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_IntervalExtractionSparse)->Range(1 << 14, 1 << 20);

void BM_IntervalExtractionDense(benchmark::State& state) {
  // FASE-renamed ids (dense in [0, n)): the direct-indexed path used by
  // analyze_burst — no hashing at all.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto trace = random_trace(n, n / 16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        intervals_of_dense_trace(trace, static_cast<LineAddr>(n / 16)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_IntervalExtractionDense)->Range(1 << 14, 1 << 20);

void BM_AnalyzeOffline1M(benchmark::State& state) {
  // The full pipeline on a 1M-write trace of realistic sparse addresses:
  // rename -> intervals -> reuse(k) -> MRC -> knee.
  constexpr std::size_t kWrites = 1 << 20;
  const auto trace = sparse_trace(kWrites, 1 << 16);
  std::vector<std::size_t> boundaries;
  for (std::size_t b = 4096; b < kWrites; b += 4096) boundaries.push_back(b);
  KneeConfig knee;
  knee.max_size = 1 << 12;
  for (auto _ : state) {
    Mrc mrc;
    benchmark::DoNotOptimize(
        BurstSampler::analyze_offline(trace, boundaries, knee, &mrc));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kWrites));
}
BENCHMARK(BM_AnalyzeOffline1M)->Unit(benchmark::kMillisecond);

void BM_SyncBurstAnalysis(benchmark::State& state) {
  // What the storing thread pays at burst end: the whole analysis, O(n) in
  // the burst length, at the default knee bound of 50 (SC refuses a bound
  // above WriteCache::kMaxCapacity).
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto burst = random_trace(n, n / 16);  // renamed ids are dense
  KneeConfig knee;
  knee.max_size = 50;
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyze_burst(burst, knee));
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SyncBurstAnalysis)
    ->Range(1 << 12, 1 << 20)
    ->Complexity(benchmark::oN);

// --- full-runtime pstore latency (the per-store constants) ------------------

std::string unique_region() {
  static int counter = 0;
  return "gbench.pstore." + std::to_string(::getpid()) + "." +
         std::to_string(counter++);
}

/// NVC_FLUSH selects the flush backend like every harness binary does (main
/// refuses an unknown name); unset keeps the historical default (best real
/// instruction on this CPU) so committed baselines stay comparable.
/// NVC_FLUSH_NS tunes kSimulated.
pmem::FlushKind flush_kind_from_env() {
  const std::string name = env_str("NVC_FLUSH", "");
  return name.empty() ? pmem::default_flush_kind()
                      : pmem::parse_flush_kind(name.c_str());
}

void apply_flush_env(runtime::RuntimeConfig& config) {
  config.flush = flush_kind_from_env();
  config.simulated_flush_ns = static_cast<std::uint32_t>(
      env_int("NVC_FLUSH_NS", config.simulated_flush_ns));
}

void BM_PstoreFase(benchmark::State& state) {
  // End-to-end pstore cost through the Runtime hot path (ctx lookup, undo
  // logging, policy, flush backend), as FASEs of 16 stores over 16 lines.
  // Arg0 selects the log protocol: 0 = logging off, 1 = strict (Atlas, one
  // entry persist per record), 2 = batched (one entry persist per epoch);
  // both publish the durable tail once per epoch.
  // Arg1 selects the policy: 0 = ER (flush per store), 1 = SC-offline.
  // Arg2 routes data write-backs through the flush-behind pipeline
  // (DESIGN.md §8) instead of flushing inline on this thread.
  // exact_log_flushes_per_fase counts the undo-log lines written back per
  // FASE (entries plus header). Every FASE logs the same records into a
  // freshly truncated log, so the count is exact; one untimed FASE first
  // keeps the segment's format() write-back out of it.
  const int log_mode = static_cast<int>(state.range(0));
  const bool soft_cache = state.range(1) == 1;
  const bool async = state.range(2) == 1;
  runtime::RuntimeConfig config;
  config.region_name = unique_region();
  config.region_size = 4u << 20;
  config.policy = soft_cache ? core::PolicyKind::kSoftCacheOffline
                             : core::PolicyKind::kEager;
  config.policy_config.cache_size = 23;
  apply_flush_env(config);
  config.async_flush = async;
  config.undo_logging = log_mode != 0;
  config.log_sync = log_mode == 2 ? runtime::LogSyncMode::kBatched
                                  : runtime::LogSyncMode::kStrict;
  runtime::Runtime rt(config);
  constexpr int kStoresPerFase = 16;
  auto* arr = static_cast<std::uint64_t*>(
      rt.pm_alloc(kStoresPerFase * kCacheLineSize));
  std::uint64_t v = 0;
  const auto fase = [&] {
    rt.fase_begin();
    for (int s = 0; s < kStoresPerFase; ++s) {
      rt.pstore(arr[s * 8], v++);
    }
    rt.fase_end();
  };
  fase();
  const std::uint64_t log_flushes_before = rt.stats().log_flushes;
  for (auto _ : state) fase();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kStoresPerFase);
  const runtime::RuntimeStats stats = rt.stats();
  state.counters["exact_log_flushes_per_fase"] = benchmark::Counter(
      static_cast<double>(stats.log_flushes - log_flushes_before) /
      static_cast<double>(state.iterations()));
  state.counters["flushes"] =
      benchmark::Counter(static_cast<double>(stats.flushes));
  state.counters["fences"] =
      benchmark::Counter(static_cast<double>(stats.fences));
  state.counters["log_fences"] =
      benchmark::Counter(static_cast<double>(stats.log_fences));
  state.counters["log_syncs"] =
      benchmark::Counter(static_cast<double>(stats.log_syncs));
  state.SetLabel(std::string(log_mode == 0 ? "log=off"
                             : log_mode == 1 ? "log=strict"
                                             : "log=batched") +
                 (soft_cache ? "/SC" : "/ER") + (async ? "/async" : ""));
  rt.destroy_storage();
}

BENCHMARK(BM_PstoreFase)->ArgsProduct({{0, 1, 2}, {0, 1}, {0, 1}});

void BM_PstoreFaseRuns(benchmark::State& state) {
  // The BM_PstoreFase path (SC-offline, sync flush) on FASEs of 16 8-byte
  // stores laid out contiguously, where batched records coalesce into
  // growing entries (DESIGN.md §7). Arg0: 1 = strict, 2 = batched logging.
  // Arg1 selects the shape: 0 = kv's pairs (8 lines, two adjacent stores
  // each), 1 = one contiguous 128-byte run. exact_log_records_per_fase
  // counts undo-log entries and exact_log_flushes_per_fase undo-log line
  // write-backs, both per FASE after one untimed FASE (the segment's
  // format() write-back stays out).
  const bool batched = state.range(0) == 2;
  const bool run = state.range(1) == 1;
  runtime::RuntimeConfig config;
  config.region_name = unique_region();
  config.region_size = 4u << 20;
  config.policy = core::PolicyKind::kSoftCacheOffline;
  config.policy_config.cache_size = 23;
  apply_flush_env(config);
  config.undo_logging = true;
  config.log_sync = batched ? runtime::LogSyncMode::kBatched
                            : runtime::LogSyncMode::kStrict;
  runtime::Runtime rt(config);
  constexpr int kStoresPerFase = 16;
  auto* arr = static_cast<std::uint64_t*>(
      rt.pm_alloc(kStoresPerFase / 2 * kCacheLineSize));
  std::uint64_t v = 0;
  const auto fase = [&] {
    rt.fase_begin();
    for (int s = 0; s < kStoresPerFase; ++s) {
      rt.pstore(arr[run ? s : (s / 2) * 8 + s % 2], v++);
    }
    rt.fase_end();
  };
  fase();
  const runtime::RuntimeStats before = rt.stats();
  for (auto _ : state) fase();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kStoresPerFase);
  const runtime::RuntimeStats stats = rt.stats();
  const auto iterations = static_cast<double>(state.iterations());
  state.counters["exact_log_flushes_per_fase"] = benchmark::Counter(
      static_cast<double>(stats.log_flushes - before.log_flushes) /
      iterations);
  state.counters["exact_log_records_per_fase"] = benchmark::Counter(
      static_cast<double>(stats.log_records - before.log_records) /
      iterations);
  state.SetLabel(std::string(batched ? "log=batched" : "log=strict") +
                 (run ? "/run" : "/pairs"));
  rt.destroy_storage();
}
BENCHMARK(BM_PstoreFaseRuns)->ArgsProduct({{1, 2}, {0, 1}});

// --- hardened recovery (DESIGN.md §14) --------------------------------------

void BM_PstoreFaseScrubIdle(benchmark::State& state) {
  // Foreground cost of the hardening settings on the BM_PstoreFase shape
  // (log=strict, SC-offline, sync flush = BM_PstoreFase/1/1/0). Arg0:
  //   0  verify_data only — prices the commit-time CRC publish plus the
  //      per-store dirty marking;
  //   1  scrub only — the scrubber runs on the flush worker's idle hook
  //      while this thread commits FASEs; the delta is the interference of
  //      background image re-reads with the foreground store path;
  //   2  both.
  // The acceptance bar (EXPERIMENTS.md): arg 1 stays within 1% of
  // BM_PstoreFase/1/1/0 — scrubbing must be free when the worker is busy.
  const int knobs = static_cast<int>(state.range(0));
  runtime::RuntimeConfig config;
  config.region_name = unique_region();
  config.region_size = 4u << 20;
  config.policy = core::PolicyKind::kSoftCacheOffline;
  config.policy_config.cache_size = 23;
  apply_flush_env(config);
  config.undo_logging = true;
  config.log_sync = runtime::LogSyncMode::kStrict;
  config.verify_data = knobs != 1;
  config.scrub = knobs != 0;
  runtime::Runtime rt(config);
  constexpr int kStoresPerFase = 16;
  auto* arr = static_cast<std::uint64_t*>(
      rt.pm_alloc(kStoresPerFase * kCacheLineSize));
  std::uint64_t v = 0;
  for (auto _ : state) {
    rt.fase_begin();
    for (int s = 0; s < kStoresPerFase; ++s) {
      rt.pstore(arr[s * 8], v++);
    }
    rt.fase_end();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kStoresPerFase);
  const runtime::ScrubStats scrub = rt.scrub_stats();
  state.counters["scrub_slices"] =
      benchmark::Counter(static_cast<double>(scrub.slices));
  state.counters["scrub_lines"] =
      benchmark::Counter(static_cast<double>(scrub.lines_scanned));
  state.SetLabel(knobs == 0   ? "verify"
                 : knobs == 1 ? "scrub"
                              : "verify+scrub");
  rt.destroy_storage();
}
BENCHMARK(BM_PstoreFaseScrubIdle)->Arg(0)->Arg(1)->Arg(2);

void BM_RecoveryReplay(benchmark::State& state) {
  // Salvage-pipeline throughput: one log segment holding Arg0 certified
  // uncommitted records over a 256-line data region, replayed (walk +
  // certify + newest-first rollback + commit) from a pristine copy each
  // iteration. items/sec = records replayed per second; the memcpy of the
  // working image is included (it is what a real restart pays to page the
  // image in).
  const std::size_t records = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kLines = 256;
  constexpr std::size_t kPayload = 48;
  const std::size_t entry_size =
      sizeof(runtime::UndoLog::EntryHead) + ((kPayload + 7) & ~std::size_t{7});
  const std::size_t seg_size =
      runtime::UndoLog::kHeaderSize + records * entry_size + 64;

  std::vector<std::uint8_t> data0(kLines * kCacheLineSize);
  Rng rng(11);
  for (auto& b : data0) b = static_cast<std::uint8_t>(rng());
  std::vector<std::uint8_t> log0(seg_size, 0);
  runtime::UndoLog::LogHeader header{};
  header.magic = runtime::UndoLog::kMagic;
  std::uint64_t off = runtime::UndoLog::kHeaderSize;
  for (std::size_t r = 0; r < records; ++r) {
    const std::uint64_t token =
        (rng.below(kLines * kCacheLineSize - kPayload)) & ~std::uint64_t{7};
    std::uint8_t payload[kPayload];
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng());
    runtime::UndoLog::EntryHead entry{};
    entry.addr_token = token;
    entry.len = kPayload;
    entry.check = runtime::UndoLog::entry_check(token, kPayload, 1, payload);
    std::memcpy(log0.data() + off, &entry, sizeof(entry));
    std::memcpy(log0.data() + off + sizeof(entry), payload, kPayload);
    off += entry_size;
  }
  header.state = runtime::UndoLog::pack_state(1, off);
  std::memcpy(log0.data(), &header, sizeof(header));

  std::vector<std::uint8_t> data = data0;
  std::vector<std::uint8_t> log = log0;
  std::size_t undone = 0;
  for (auto _ : state) {
    std::memcpy(data.data(), data0.data(), data0.size());
    std::memcpy(log.data(), log0.data(), log0.size());
    runtime::RegionView view;
    view.data = data.data();
    view.data_size = data.size();
    view.logs = log.data();
    view.log_segment_size = log.size();
    view.log_segments = 1;
    view.heap_header = false;
    runtime::RecoveryManager manager(view);
    runtime::RecoveryReport report = manager.run();
    undone = report.records_undone;
    benchmark::DoNotOptimize(report);
  }
  if (undone != records) state.SkipWithError("replay did not certify");
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(records));
}
BENCHMARK(BM_RecoveryReplay)->Arg(16)->Arg(256)->Arg(2048);

// --- write-admission ablation (DESIGN.md §12) -------------------------------

void BM_PstoreFaseAdmit(benchmark::State& state) {
  // Admission pricing on the BM_PstoreFase shape (log=off, SC-offline,
  // sync flush). Arg0:
  //   0  NVC_ADMIT=always — no filter attached; the control. The delta
  //      against BM_PstoreFase/0/1/0 is one null-pointer test per store,
  //      the <1% idle bound from EXPERIMENTS.md.
  //   1  write-once over the same 16 hot lines — after the first FASE every
  //      store re-admits from the doorkeeper, so this prices the tag probe
  //      on a hot path that never bypasses.
  //   2  write-once over a 8192-line cycle (twice the doorkeeper window, so
  //      tags are always evicted between revisits) — steady-state bypass:
  //      every store writes through immediately.
  const int mode = static_cast<int>(state.range(0));
  constexpr int kStoresPerFase = 16;
  constexpr std::size_t kStreamLines = 8192;
  runtime::RuntimeConfig config;
  config.region_name = unique_region();
  config.region_size = 4u << 20;
  config.policy = core::PolicyKind::kSoftCacheOffline;
  config.policy_config.cache_size = 23;
  config.policy_config.admission.mode =
      mode == 0 ? core::AdmitMode::kAlways : core::AdmitMode::kWriteOnce;
  apply_flush_env(config);
  runtime::Runtime rt(config);
  const std::size_t lines = mode == 2 ? kStreamLines : kStoresPerFase;
  auto* arr =
      static_cast<std::uint64_t*>(rt.pm_alloc(lines * kCacheLineSize));
  std::uint64_t v = 0;
  std::size_t next = 0;
  for (auto _ : state) {
    rt.fase_begin();
    for (int s = 0; s < kStoresPerFase; ++s) {
      rt.pstore(arr[(next % lines) * 8], v++);
      ++next;
    }
    rt.fase_end();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kStoresPerFase);
  const runtime::RuntimeStats stats = rt.stats();
  state.counters["flushes"] =
      benchmark::Counter(static_cast<double>(stats.flushes));
  state.counters["bypassed"] =
      benchmark::Counter(static_cast<double>(stats.bypassed_stores));
  state.SetLabel(mode == 0   ? "admit=always"
                 : mode == 1 ? "admit=write-once/hot"
                             : "admit=write-once/stream");
  rt.destroy_storage();
}
BENCHMARK(BM_PstoreFaseAdmit)->Arg(0)->Arg(1)->Arg(2);

void BM_AdmissionBytesPerFase(benchmark::State& state) {
  // The bytes-written-to-media ablation: policy x admission mode x traffic
  // shape (workloads/admission_micro.hpp documents both shapes and their
  // closed-form byte counts). The headline metrics are the exact_ counters,
  // computed from one fixed 32-FASE run OUTSIDE the timing loop — they are
  // bit-deterministic and iteration-count-independent, and bench/compare.py
  // gates them exactly (no tolerance) instead of with the noisy-time
  // envelope. The timed loop runs a short 8-FASE replay end to end so the
  // entry also carries a real cost.
  const core::PolicyKind kinds[] = {
      core::PolicyKind::kEager, core::PolicyKind::kLazy,
      core::PolicyKind::kAtlas, core::PolicyKind::kSoftCacheOffline,
      core::PolicyKind::kSoftCache};
  const auto policy = kinds[state.range(0)];
  const auto admit = static_cast<core::AdmitMode>(state.range(1));
  const auto shape =
      static_cast<workloads::AdmissionWorkload>(state.range(2));
  const auto exact = workloads::run_admission_micro(policy, admit, shape, 32);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        workloads::run_admission_micro(policy, admit, shape, 8));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 8);
  state.counters["exact_bytes_per_fase"] =
      benchmark::Counter(exact.bytes_per_fase);
  state.counters["exact_media_line_writes"] =
      benchmark::Counter(static_cast<double>(exact.media_line_writes));
  state.counters["exact_bypassed"] =
      benchmark::Counter(static_cast<double>(exact.bypassed));
  state.counters["wear_max_line_writes"] =
      benchmark::Counter(static_cast<double>(exact.wear_max_line_writes));
  state.SetLabel(std::string(core::to_string(policy)) + "/" +
                 core::to_string(admit) + "/" +
                 workloads::to_string(shape));
}
BENCHMARK(BM_AdmissionBytesPerFase)
    // ER/LA/AT/SC-offline x {always, write-once}; kReuse needs the online
    // sampler, so only the online SC rows carry all three modes.
    ->ArgsProduct({{0, 1, 2, 3}, {0, 1}, {0, 1}})
    ->ArgsProduct({{4}, {0, 1, 2}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);

// --- flush-behind pipeline (DESIGN.md §8) -----------------------------------

void BM_FlushPipelineIssue(benchmark::State& state) {
  // What one evicted line costs the application thread. Sync mode pays the
  // device (simulated write-back, NVC_FLUSH_NS, default 100 ns); async mode
  // pays a ring push plus the in-flight ticket upsert — the "eviction-path
  // cost = ring push" claim in executable form.
  const bool async = state.range(0) == 1;
  const auto sim_ns =
      static_cast<std::uint32_t>(env_int("NVC_FLUSH_NS", 100));
  if (async) {
    // Ring deeper than the fixed iteration count: nothing overflows, so
    // every timed iteration is the pure enqueue path.
    auto channel = FlushWorker::shared().open_channel(
        std::make_unique<CountingSink>(), 32768);
    CountingSink local;
    AsyncFlushSink sink(channel, &local);
    LineAddr l = 0;
    for (auto _ : state) {
      sink.flush_line(++l);
    }
    sink.drain();
  } else {
    pmem::FlushBackend backend(pmem::FlushKind::kSimulated, sim_ns);
    alignas(64) static char buffer[64] = {};
    for (auto _ : state) {
      backend.flush(&buffer[0]);
    }
    backend.fence();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel(async ? "async:ring-push" : "sync:sim-flush");
}
BENCHMARK(BM_FlushPipelineIssue)->Arg(0)->Arg(1)->Iterations(16384);

void BM_FlushPipelineFase(benchmark::State& state) {
  // Eviction-heavy FASE: 64 distinct lines through an 8-line soft cache, so
  // ~56 evictions plus the end-of-FASE drain hit the flush path every
  // iteration. Sync mode serializes the simulated write-backs on this
  // thread; async mode overlaps them in the pipelined device (issue slots
  // instead of full latencies).
  const bool async = state.range(0) == 1;
  runtime::RuntimeConfig config;
  config.region_name = unique_region();
  config.region_size = 4u << 20;
  config.policy = core::PolicyKind::kSoftCacheOffline;
  config.policy_config.cache_size = 8;
  config.flush = pmem::FlushKind::kSimulated;
  config.simulated_flush_ns =
      static_cast<std::uint32_t>(env_int("NVC_FLUSH_NS", 100));
  config.async_flush = async;
  config.undo_logging = true;
  config.log_sync = runtime::LogSyncMode::kBatched;
  runtime::Runtime rt(config);
  constexpr int kLines = 64;
  auto* arr = static_cast<std::uint64_t*>(rt.pm_alloc(kLines * kCacheLineSize));
  std::uint64_t v = 0;
  for (auto _ : state) {
    rt.fase_begin();
    for (int s = 0; s < kLines; ++s) {
      rt.pstore(arr[s * 8], v++);
    }
    rt.fase_end();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kLines);
  const runtime::RuntimeStats stats = rt.stats();
  state.counters["flushes"] =
      benchmark::Counter(static_cast<double>(stats.flushes));
  state.counters["fences"] =
      benchmark::Counter(static_cast<double>(stats.fences));
  state.SetLabel(async ? "async" : "sync");
  rt.destroy_storage();
}
BENCHMARK(BM_FlushPipelineFase)->Arg(0)->Arg(1);

void BM_AsyncCommitHandoff(benchmark::State& state) {
  // The kv-batched-async commit shape: FASEs of 16 pstores over 8 lines,
  // batched undo log, SC-offline holding all 8, so every write-back is a
  // commit-time line. The count-only backend makes write-backs free: what
  // async mode measures against sync is the ring handoff to the live shared
  // worker alone — pushes, the hazard checks of the next FASE's pstores, and
  // the drain racing a spinning worker.
  const bool async = state.range(0) == 1;
  runtime::RuntimeConfig config;
  config.region_name = unique_region();
  config.region_size = 4u << 20;
  config.policy = core::PolicyKind::kSoftCacheOffline;
  config.policy_config.cache_size = 23;
  config.flush = pmem::FlushKind::kCountOnly;
  config.async_flush = async;
  config.undo_logging = true;
  config.log_sync = runtime::LogSyncMode::kBatched;
  runtime::Runtime rt(config);
  constexpr int kLines = 8;
  constexpr int kStoresPerFase = 16;
  auto* arr = static_cast<std::uint64_t*>(rt.pm_alloc(kLines * kCacheLineSize));
  std::uint64_t v = 0;
  for (auto _ : state) {
    rt.fase_begin();
    for (int s = 0; s < kStoresPerFase; ++s) {
      rt.pstore(arr[(s % kLines) * 8 + s / kLines], v++);
    }
    rt.fase_end();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kStoresPerFase);
  const runtime::RuntimeStats stats = rt.stats();
  state.counters["flushes"] =
      benchmark::Counter(static_cast<double>(stats.flushes));
  state.counters["fences"] =
      benchmark::Counter(static_cast<double>(stats.fences));
  state.SetLabel(async ? "async" : "sync");
  rt.destroy_storage();
}
BENCHMARK(BM_AsyncCommitHandoff)->Arg(0)->Arg(1);

// --- the flush worker (DESIGN.md §8) ----------------------------------------

/// Shared-fixture handshake for the multi-threaded worker benchmarks: thread
/// 0 publishes the fixture, every thread spins for it, and the last thread
/// out tears it down (google-benchmark joins all threads between runs, so
/// the statics cycle cleanly run to run).
template <typename Fixture>
Fixture* await_fixture(benchmark::State& state, std::atomic<Fixture*>& slot) {
  if (state.thread_index() == 0) {
    slot.store(new Fixture(), std::memory_order_release);
  }
  Fixture* fixture;
  while ((fixture = slot.load(std::memory_order_acquire)) == nullptr) {
    std::this_thread::yield();
  }
  return fixture;
}

void BM_FlushPipelineDrainPool(benchmark::State& state) {
  // N app threads (one flush channel each, ->Threads axis) against one
  // worker: each iteration pushes a burst of 64 lines and drains. The Arg
  // is the worker count, always 1; it keeps the rows' names. The gate
  // compares these entries under --threads-noise.
  static std::atomic<FlushWorker*> shared_worker{nullptr};
  static std::atomic<int> done_threads{0};
  if (state.thread_index() == 0) done_threads.store(0);
  FlushWorker* worker = await_fixture(state, shared_worker);
  auto channel = worker->open_channel(std::make_unique<CountingSink>(), 256);
  constexpr int kBurst = 64;
  LineAddr next = static_cast<LineAddr>(state.thread_index() + 1) << 32;
  for (auto _ : state) {
    for (int i = 0; i < kBurst; ++i) {
      ++next;
      while (!channel->try_push(next)) {
        channel->request_wake();
        std::this_thread::yield();
      }
    }
    channel->request_wake();
    channel->wait_drained();
  }
  channel->close();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kBurst);
  if (done_threads.fetch_add(1, std::memory_order_acq_rel) + 1 ==
      state.threads()) {
    delete worker;
    shared_worker.store(nullptr, std::memory_order_release);
  }
}
BENCHMARK(BM_FlushPipelineDrainPool)
    ->Arg(1)
    ->Threads(1)
    ->Threads(8)
    ->Threads(32)
    ->Threads(64)
    ->UseRealTime();

void BM_FaseNoop(benchmark::State& state) {
  // An empty begin/end pair: isolates the per-FASE constant (two context
  // lookups + policy boundary calls), the cost the thread-local fast path
  // in Runtime::ctx() targets.
  runtime::RuntimeConfig config;
  config.region_name = unique_region();
  config.region_size = 1u << 20;
  config.policy = core::PolicyKind::kBest;
  config.flush = pmem::FlushKind::kCountOnly;
  runtime::Runtime rt(config);
  for (auto _ : state) {
    rt.fase_begin();
    rt.fase_end();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  rt.destroy_storage();
}
BENCHMARK(BM_FaseNoop);

void BM_FlushInstruction(benchmark::State& state) {
  const auto kind = static_cast<pmem::FlushKind>(state.range(0));
  pmem::FlushBackend backend(kind, /*simulated_latency_ns=*/100);
  alignas(64) static volatile char buffer[64 * 64];
  std::size_t i = 0;
  for (auto _ : state) {
    buffer[(i % 64) * 64] = static_cast<char>(i);
    backend.flush(const_cast<const char*>(&buffer[(i % 64) * 64]));
    ++i;
  }
  backend.fence();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel(pmem::to_string(backend.kind()));
}
BENCHMARK(BM_FlushInstruction)
    ->Arg(static_cast<int>(pmem::FlushKind::kClflush))
    ->Arg(static_cast<int>(pmem::FlushKind::kClflushopt))
    ->Arg(static_cast<int>(pmem::FlushKind::kClwb))
    ->Arg(static_cast<int>(pmem::FlushKind::kCountOnly));

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): when NVC_BENCH_JSON names a file
// (default: BENCH_micro.json at the repo root, baked in at configure time;
// empty string disables), results are written there as google-benchmark
// JSON — name, real/cpu time, and the flush/fence counters — alongside the
// normal console output. The committed bench/BENCH_micro.baseline.json was
// produced this way, and bench/compare.py diffs a fresh run against it.
// Implemented by injecting --benchmark_out flags so an explicit flag on the
// command line still wins.
#ifndef NVC_BENCH_DEFAULT_JSON
#define NVC_BENCH_DEFAULT_JSON "BENCH_micro.json"
#endif
int main(int argc, char** argv) {
  nvc::bench::check_enum_knobs();
  std::vector<char*> args(argv, argv + argc);
  const std::string json_path =
      nvc::env_str("NVC_BENCH_JSON", NVC_BENCH_DEFAULT_JSON);
  std::string out_flag = "--benchmark_out=" + json_path;
  std::string format_flag = "--benchmark_out_format=json";
  bool has_out_flag = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark_out=", 0) == 0) {
      has_out_flag = true;
    }
  }
  if (!json_path.empty() && !has_out_flag) {
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
