#include "bench.hpp"

#include <sys/mman.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>

namespace nvc::e2e {

std::uint64_t Options::scaled(double nominal) const {
  const double factor = seconds / kNominalSeconds / (quick ? 20.0 : 1.0);
  return std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::llround(nominal * factor)));
}

runtime::RuntimeConfig base_config(const Options& options,
                                   const std::string& region,
                                   std::size_t region_bytes) {
  runtime::RuntimeConfig config;
  config.region_name = region;
  config.region_size = region_bytes;
  config.fresh = true;
  config.policy = core::PolicyKind::kSoftCache;
  config.policy_config.atlas_table_size = 8;
  config.policy_config.cache_size = core::WriteCache::kDefaultCapacity;
  config.policy_config.sampler.burst_length = 1u << 16;
  config.policy_config.sampler.skip_fases = 1;
  config.policy_config.sampler.async_analysis = false;
  config.flush = options.flush;
  config.simulated_flush_ns = 250;
  config.async_flush = false;
  config.undo_logging = false;
  config.log_sync = runtime::LogSyncMode::kStrict;
  config.max_threads = 1;
  return config;
}

std::string region_name(const Options& options, const std::string& what) {
  return "e2e." + std::to_string(::getpid()) + "." + options.workload + "." +
         what;
}

void prefault(runtime::Runtime& rt) {
  const pmem::PmemRegion& data = rt.allocator().region();
  // Kernels before 5.14 lack MADV_POPULATE_WRITE; their first touches then
  // fault in the timed phase as before.
  ::madvise(data.base(), data.size(), MADV_POPULATE_WRITE);
}

// --- Windows -----------------------------------------------------------------

void Windows::add(std::uint64_t ops) {
  ops_ += ops;
  const std::uint64_t now = ticks();
  const double s = static_cast<double>(now - start_) * ns_per_tick() / 1e9;
  if (s >= kWindowSeconds) {
    rates_.push_back(static_cast<double>(ops_) / s);
    start_ = now;
    ops_ = 0;
  }
}

void Windows::end() {
  const double s = seconds_since(start_);
  if (ops_ > 0 && s >= kWindowSeconds / 2) {
    rates_.push_back(static_cast<double>(ops_) / s);
  }
  ops_ = 0;
}

// --- BenchApi ----------------------------------------------------------------

void* BenchApi::alloc(std::size_t, std::size_t size) {
  const auto t0 = ticks();
  void* p = nullptr;
  {
    SpanScope span(tracer_, SpanKind::kAlloc);
    p = rt_.pm_alloc(size);
  }
  alloc_us_.push_back(seconds_since(t0) * 1e6);
  allocations_.push_back(Allocation{p, size});
  return p;
}

void BenchApi::fase_begin(std::size_t) {
  if (depth_++ == 0) {
    fase_start_ = op_start_ticks();
    if (recorder_ != nullptr) recorder_->mark(Recorder::kBegin);
  }
  SpanScope span(tracer_, SpanKind::kBegin);
  rt_.fase_begin();
}

void BenchApi::fase_end(std::size_t) {
  {
    SpanScope span(tracer_, SpanKind::kCommit);
    rt_.fase_end();
  }
  if (--depth_ == 0) {
    fase_us_.push_back(seconds_since(fase_start_) * 1e6);
    if (recorder_ != nullptr) recorder_->mark(Recorder::kEnd);
  }
}

void BenchApi::persist_barrier(std::size_t) {
  {
    SpanScope span(tracer_, SpanKind::kBarrier);
    rt_.persist_barrier();
  }
  if (recorder_ != nullptr) recorder_->mark(Recorder::kBarrier);
}

// --- Pass ----------------------------------------------------------------------

void Pass::fail(const std::string& what, std::uint64_t count) {
  failed += count;
  if (failures.size() < 8) failures.push_back(what);
}

void Pass::add_stats(const runtime::RuntimeStats& s,
                     const runtime::RuntimeStats& since) {
  stats.stores += s.stores - since.stores;
  stats.combined += s.combined - since.combined;
  stats.fases += s.fases - since.fases;
  stats.flushes += s.flushes - since.flushes;
  stats.log_flushes += s.log_flushes - since.log_flushes;
  stats.fences += s.fences - since.fences;
  stats.log_fences += s.log_fences - since.log_fences;
  stats.instructions += s.instructions - since.instructions;
  stats.log_records += s.log_records - since.log_records;
  stats.log_bytes += s.log_bytes - since.log_bytes;
  stats.log_syncs += s.log_syncs - since.log_syncs;
  stats.cache_sizes.insert(stats.cache_sizes.end(), s.cache_sizes.begin(),
                           s.cache_sizes.end());
}

double seconds_since(std::uint64_t start) {
  return static_cast<double>(ticks() - start) * ns_per_tick() / 1e9;
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void clean_restarts(runtime::RuntimeConfig config, int cycles, Pass& pass) {
  config.fresh = false;
  for (int i = 0; i < cycles; ++i) {
    const auto t0 = ticks();
    runtime::Runtime rt(config);
    const bool needed = rt.needs_recovery();
    const std::size_t undone = rt.recover();
    pass.recover_ms.push_back(seconds_since(t0) * 1e3);
    pass.records_undone.push_back(static_cast<double>(undone));
    if (needed || undone != 0) {
      pass.fail("clean restart found " + std::to_string(undone) +
                " records to undo");
    }
  }
}

void destroy_regions(const runtime::RuntimeConfig& config) {
  pmem::PmemRegion::destroy(config.region_name);
  pmem::PmemRegion::destroy(config.region_name + ".log");
}

}  // namespace nvc::e2e
