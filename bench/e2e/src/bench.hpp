// Shared pieces of the end-to-end benchmark: run options, the fixed runtime
// configuration, the PersistApi adapter every workload's calls into the
// runtime go through, and the per-pass result the metrics are computed from.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "runtime/runtime.hpp"
#include "trace.hpp"
#include "workloads/api.hpp"

namespace nvc::e2e {

/// Length of the timed phase the nominal input sizes are calibrated for
/// (4-vCPU x86 host, simulated 250 ns write-back); --seconds scales every
/// input size linearly, so counts stay deterministic per (seed, seconds).
inline constexpr double kNominalSeconds = 8.0;

/// One store span is recorded per this many store calls.
inline constexpr std::uint64_t kStoreSampleEvery = 64;

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = kNominalSeconds;
  bool trace = false;
  bool quick = false;  // every input at about 1/20 size
  std::string plant_bug;
  pmem::FlushKind flush = pmem::FlushKind::kSimulated;
  std::string out_dir;

  /// `nominal` scaled by --seconds and --quick, never below 1.
  std::uint64_t scaled(double nominal) const;
  bool planted(const char* oracle) const { return plant_bug == oracle; }
};

/// The configuration every workload starts from: SC online policy, the
/// harness sampler (64K-write burst, skip_fases=1), one application thread,
/// write-backs through the selected backend at 250 ns when simulated, no
/// undo log, synchronous flushing.
runtime::RuntimeConfig base_config(const Options& options,
                                   const std::string& region,
                                   std::size_t region_bytes);

/// Unique region name for this process.
std::string region_name(const Options& options, const std::string& what);

/// Fault in every page of a fresh runtime's data region, as part of
/// set-up. Otherwise the first store to each page pays a file-system page
/// fault inside the timed phase, and those faults, not the runtime, set
/// the FASE latency tail. (The one log segment is small and warms within
/// the first txns.)
void prefault(runtime::Runtime& rt);

/// Store lines and FASE boundaries of the traced pass, capped at a number
/// of store lines; what the core.policy / core.analyzer replays consume.
class Recorder {
 public:
  static constexpr std::uint64_t kBegin = 1ULL << 63;
  static constexpr std::uint64_t kEnd = kBegin | 1;
  static constexpr std::uint64_t kBarrier = kBegin | 2;

  explicit Recorder(std::uint64_t max_stores) : max_stores_(max_stores) {}

  void stores(const void* addr, std::size_t len) {
    const auto a = reinterpret_cast<PmAddr>(addr);
    for (LineAddr line = line_of(a); line <= line_of(a + len - 1); ++line) {
      if (recorded_ == max_stores_) return;
      events_.push_back(line);
      ++recorded_;
    }
  }
  void mark(std::uint64_t marker) {
    if (recorded_ < max_stores_) events_.push_back(marker);
  }

  /// Store lines (values without the top bit) and markers, in order.
  const std::vector<std::uint64_t>& events() const noexcept { return events_; }

 private:
  std::uint64_t max_stores_;
  std::uint64_t recorded_ = 0;
  std::vector<std::uint64_t> events_;
};

/// Throughput measured in windows of at least kWindowSeconds, each closed
/// at an op boundary (mdb, kv; a splash window is one round); ops_per_s is
/// a high percentile of the window rates.
class Windows {
 public:
  static constexpr double kWindowSeconds = 0.02;

  /// Start a timed stretch.
  void begin() {
    start_ = ticks();
    ops_ = 0;
  }
  /// `ops` more ops completed.
  void add(std::uint64_t ops);
  /// End a timed stretch; a partial window of half the length still counts.
  void end();

  const std::vector<double>& rates() const noexcept { return rates_; }

 private:
  std::uint64_t start_ = 0;  // ticks()
  std::uint64_t ops_ = 0;
  std::vector<double> rates_;
};

/// PersistApi over one Runtime. Counts user bytes and store lines, times
/// FASEs (begin to the return of end) and allocations, and, when tracing,
/// records spans around each runtime call and the store stream.
class BenchApi final : public workloads::PersistApi {
 public:
  explicit BenchApi(runtime::Runtime& rt) : rt_(rt) {}

  void trace_into(Tracer* tracer, Recorder* recorder) {
    tracer_ = tracer;
    recorder_ = recorder;
  }
  void* alloc(std::size_t tid, std::size_t size) override;
  void fase_begin(std::size_t tid) override;
  void fase_end(std::size_t tid) override;
  void wrote(std::size_t, const void* addr, std::size_t len) override {
    store_call(addr, len, [&] { rt_.pwrote(addr, len); });
  }
  void persist_barrier(std::size_t tid) override;

  /// Logged in-place store (Runtime::pstore), the kv workloads' store path.
  void pstore(void* dst, const void* src, std::size_t len) {
    store_call(dst, len, [&] { rt_.pstore(dst, src, len); });
  }

  runtime::Runtime& runtime() noexcept { return rt_; }
  std::uint64_t user_bytes() const noexcept { return user_bytes_; }
  std::uint64_t store_calls() const noexcept { return store_calls_; }
  const std::vector<double>& fase_us() const noexcept { return fase_us_; }
  const std::vector<double>& alloc_us() const noexcept { return alloc_us_; }
  struct Allocation {
    void* base;
    std::size_t size;
  };
  const std::vector<Allocation>& allocations() const noexcept {
    return allocations_;
  }

 private:
  template <typename Call>
  void store_call(const void* addr, std::size_t len, Call&& call) {
    user_bytes_ += len;
    ++store_calls_;
    if (recorder_ != nullptr) recorder_->stores(addr, len);
    if (tracer_ != nullptr && sampled()) {
      SpanScope span(tracer_, SpanKind::kStore);
      call();
    } else {
      call();
    }
  }

  /// A pseudo-random 1-in-kStoreSampleEvery draw: a fixed stride would alias
  /// with the workloads' periodic store patterns.
  bool sampled() {
    static_assert(kStoreSampleEvery == 64);
    sample_ = sample_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return (sample_ >> 58) == 0;
  }

  runtime::Runtime& rt_;
  Tracer* tracer_ = nullptr;
  Recorder* recorder_ = nullptr;
  std::uint64_t sample_ = 0;
  std::uint64_t user_bytes_ = 0;
  std::uint64_t store_calls_ = 0;
  std::uint32_t depth_ = 0;
  std::uint64_t fase_start_ = 0;  // ticks()
  std::vector<double> fase_us_;
  std::vector<double> alloc_us_;
  std::vector<Allocation> allocations_;
};

/// Everything one pass over a workload measured. A pass is set-up, the
/// timed phase, and the oracle checks that follow it.
struct Pass {
  double wall_s = 0.0;        // timed phase only
  std::uint64_t ops = 0;      // ops completed in the timed phase
  runtime::RuntimeStats stats;  // timed phase, summed over rounds
  std::uint64_t user_bytes = 0;
  std::uint64_t store_calls = 0;
  std::vector<double> window_rates;  // ops per second, per Windows window
  std::vector<double> fase_us;
  std::vector<double> read_us;
  std::vector<double> setup_s;
  std::vector<double> alloc_us;
  std::vector<double> recover_ms;      // reopen + recover() per restart
  std::vector<double> records_undone;  // per restart
  double page_copies_per_txn = 0.0;    // mdb only
  double peak_rss_mb = 0.0;            // right after the timed phase

  std::uint64_t failed = 0;  // oracle failures
  std::vector<std::string> failures;  // the first few, for the report

  void fail(const std::string& what, std::uint64_t count = 1);
  /// Add the counters a runtime gained since `since` into `stats`.
  void add_stats(const runtime::RuntimeStats& s,
                 const runtime::RuntimeStats& since = {});
};

/// Seconds elapsed since a ticks() stamp.
double seconds_since(std::uint64_t start);
double peak_rss_mb();

/// Restart `config`'s region `cycles` times with fresh=false: reopen and
/// recover(), timing both into pass.recover_ms / records_undone.
void clean_restarts(runtime::RuntimeConfig config, int cycles, Pass& pass);

/// Remove a closed runtime's backing files (data and log regions).
void destroy_regions(const runtime::RuntimeConfig& config);

/// core.policy.store_ns: ns per store replaying the recorded stream through
/// a fresh SC policy with a counting sink (median of 3 replays).
double replay_policy_ns(const Recorder& recorder,
                        const core::PolicyConfig& config);
/// core.analyzer.burst_ms: BurstSampler::analyze_offline on the recorded
/// burst the live sampler analyzed (median of 5).
double analyze_burst_ms(const Recorder& recorder,
                        const core::SamplerConfig& sampler);
/// ns per line of FlushBackend::flush over dirty lines, fence included.
double flush_line_ns(pmem::FlushKind kind, std::uint32_t simulated_ns);

Pass run_splash(const Options& options, Tracer* tracer, Recorder* recorder);
Pass run_mdb(const Options& options, Tracer* tracer, Recorder* recorder);
Pass run_kv(const Options& options, Tracer* tracer, Recorder* recorder);

}  // namespace nvc::e2e
