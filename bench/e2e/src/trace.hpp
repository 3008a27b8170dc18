// Span tracing for the end-to-end benchmark's traced run, plus the clock and
// statistics helpers every per-operation timing goes through.
//
// Spans are recorded from the benchmark's own code around each call into a
// library layer (runtime, pmem, mdb); nothing inside the libraries is
// instrumented. Every span keeps its name, start, end and parent in memory;
// the list is written out when the run ends. A layer's self time is its
// spans' duration minus the part their child spans cover.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace nvc::e2e {

/// Timestamp for short intervals: the invariant TSC on x86-64, finer and
/// cheaper to read than steady_clock, fenced so the loads and stores being
/// timed cannot drift across it; steady_clock ns elsewhere.
inline std::uint64_t ticks() noexcept {
#if defined(__x86_64__)
  _mm_lfence();
  const std::uint64_t t = __rdtsc();
  _mm_lfence();
  return t;
#else
  return static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

/// ticks() for the start of a timed op, after draining the store buffer.
/// Stores the benchmark's own bookkeeping leaves in flight (model updates
/// that miss the caches) would otherwise hold the line-fill buffers the
/// op's loads need and charge the op up to a microsecond.
inline std::uint64_t op_start_ticks() noexcept {
  std::atomic_thread_fence(std::memory_order_seq_cst);
  return ticks();
}

/// Nanoseconds per tick, calibrated against steady_clock on first use.
double ns_per_tick();

enum class SpanKind : std::uint8_t {
  kStore,       // runtime.store: Runtime::pwrote / Runtime::pstore (sampled)
  kBegin,       // runtime.begin: Runtime::fase_begin
  kCommit,      // runtime.commit: Runtime::fase_end
  kBarrier,     // runtime.barrier: Runtime::persist_barrier
  kAlloc,       // pmem.alloc: Runtime::pm_alloc
  kMdbPut,      // mdb.put: Db::WriteTxn::put
  kMdbDel,      // mdb.del: Db::WriteTxn::del
  kMdbCommit,   // mdb.commit: Db::WriteTxn::commit
  kMdbGet,      // mdb.get: Db::ReadTxn::get
  kMdbScan,     // mdb.scan: Db::ReadTxn::scan
  kCount,
};

inline constexpr std::size_t kSpanKinds =
    static_cast<std::size_t>(SpanKind::kCount);

const char* span_name(SpanKind kind);

struct Span {
  std::uint64_t start = 0;   // ticks
  std::uint64_t end = 0;     // ticks
  std::int32_t parent = -1;  // index into the span list; -1 = no parent
  SpanKind kind = SpanKind::kStore;
};

/// Per-kind time, in ticks, after taking the tracer's own cost `overhead`
/// off every span and scaling it by `weight[kind]` (a sampled kind stands
/// for `weight` calls per recorded span).
struct SelfTimes {
  std::array<double, kSpanKinds> total{};  // weighted span durations
  std::array<double, kSpanKinds> self{};   // minus weighted child spans
  double covered = 0.0;                    // weighted spans without parent
};

SelfTimes self_times(const std::vector<Span>& spans,
                     const std::array<double, kSpanKinds>& weight,
                     double overhead);

/// Percentile p (in [0, 100]) of `values`, 0 when empty: the mean of the
/// order statistics within one binomial standard deviation,
/// sqrt(q(1-q)n), of the target rank q(n-1), or linear interpolation when
/// that is under one rank. On large samples this is the textbook value; on
/// small ones it does not jump between clusters (ocean's FASEs come in two).
double percentile(std::vector<double> values, double p);

/// Percentile `across` over consecutive windows of `samples` (in time
/// order) of each window's percentile p. Windows hold at least 1000
/// samples, so a p99 has ten beyond it, and there are at most 200; fewer
/// samples form one window. Interference from outside the process then
/// moves the windows it hits, not the result.
double windowed_percentile(const std::vector<double>& samples, double p,
                           double across);

class Tracer {
 public:
  /// Measures the tracer's own cost per span (the median duration of an
  /// empty span) before recording anything.
  Tracer();

  std::int32_t open(SpanKind kind) {
    const auto index = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(Span{0, 0, stack_.empty() ? -1 : stack_.back(), kind});
    stack_.push_back(index);
    // Stamped last, so a growing span list is not charged to the span.
    spans_.back().start = ticks();
    return index;
  }

  void close(std::int32_t index) {
    spans_[static_cast<std::size_t>(index)].end = ticks();
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const noexcept { return spans_; }
  /// The tracer's own cost per span, in ticks.
  double overhead() const noexcept { return overhead_; }

  /// Durations, in ns and net of the tracer's own cost, of every recorded
  /// span of one kind.
  std::vector<double> durations_ns(SpanKind kind) const;

  /// Write the first `limit` spans as CSV (index,name,start_ns,end_ns,
  /// parent; times from the tracer's creation) after a comment line giving
  /// the total span count.
  bool dump(const std::string& path, std::size_t limit) const;

 private:
  std::uint64_t origin_;
  double overhead_ = 0.0;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// RAII span; a null tracer records nothing.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, SpanKind kind)
      : tracer_(tracer), index_(tracer != nullptr ? tracer->open(kind) : -1) {}
  ~SpanScope() {
    if (tracer_ != nullptr) tracer_->close(index_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
  std::int32_t index_;
};

}  // namespace nvc::e2e
