// The six persistent-data-caching techniques compared in the paper
// (Section IV-A), behind one interface so every experiment runs them through
// identical plumbing:
//
//   ER          eager: flush each persistent store immediately
//   LA          lazy: record dirty lines, flush them all at FASE end
//   AT          Atlas: fixed-size direct-mapped address table (the paper's
//               state of the art, Section II-A)
//   SC          this paper: adaptive software write-combining cache with
//               online bursty-sampled MRC and knee-based sizing
//   SC-offline  the software cache with a size chosen from a profiling run
//   BEST        no flushes at all — invalid, but an upper bound on any
//               flush schedule (Section IV-A)
//
// Each policy reports the store/flush counts used for the paper's flush
// ratios (Table III) and an estimate of the bookkeeping instructions it
// executes per operation, which feeds the hwsim cost model (Table IV's
// instruction counts).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/flat_hash.hpp"
#include "common/types.hpp"
#include "core/sampler.hpp"
#include "core/write_cache.hpp"

namespace nvc::core {

enum class PolicyKind : std::uint8_t {
  kEager,      // ER
  kLazy,       // LA
  kAtlas,      // AT
  kSoftCache,  // SC (online adaptive)
  kSoftCacheOffline,
  kBest,
};

const char* to_string(PolicyKind kind);

struct PolicyConfig {
  /// AT: number of table entries (Atlas uses 8).
  std::size_t atlas_table_size = 8;
  /// AT: ways per set. 1 = Atlas' direct-mapped table (the paper's
  /// baseline); >1 is an ablation variant with per-set LRU replacement.
  std::size_t atlas_associativity = 1;
  /// SC-offline: the profiled best size; SC: the initial (default) size.
  std::size_t cache_size = WriteCache::kDefaultCapacity;
  /// SC: online sampler configuration.
  SamplerConfig sampler;
};

struct PolicyCounters {
  std::uint64_t stores = 0;
  std::uint64_t combined = 0;     // stores absorbed by write combining
  std::uint64_t fases = 0;
  std::uint64_t instructions = 0; // bookkeeping instruction estimate

  /// The paper's headline metric: flushes / stores, computed by the caller
  /// from the sink's flush count and `stores`.
  double flush_ratio(std::uint64_t flushes) const noexcept {
    return stores == 0 ? 0.0
                       : static_cast<double>(flushes) /
                             static_cast<double>(stores);
  }
};

class Policy {
 public:
  virtual ~Policy() = default;

  virtual PolicyKind kind() const noexcept = 0;
  const char* name() const noexcept { return to_string(kind()); }

  /// A persistent store to `line` occurred inside a FASE. The one store
  /// entry of every policy (DESIGN.md §5 item 5): a store to `repeat_line_`
  /// — the line the previous store left buffered — changes nothing but
  /// counters, so it is only counted here; every other store runs the
  /// policy's own do_store(), which decides whether to arm the lane.
  void on_store(LineAddr line, FlushSink& sink) {
    if (line == repeat_line_) {
      ++repeats_;
      return;
    }
    repeat_line_ = do_store(line, sink) ? line : kNoRepeat;
  }

  /// Outermost FASE boundaries. (Nested FASEs are handled by the runtime;
  /// policies only see outermost begin/end, as in Atlas.) A begin only
  /// counts the FASE and disarms the repeat lane.
  void on_fase_begin(FlushSink&) {
    repeat_line_ = kNoRepeat;
    ++counters_.fases;
  }
  void on_fase_end(FlushSink& sink) {
    repeat_line_ = kNoRepeat;
    do_fase_end(sink);
  }

  /// Mid-FASE persistence barrier: flush everything buffered and drain,
  /// WITHOUT signalling a FASE boundary. For stateless-at-boundary policies
  /// this is the same flushing work as on_fase_end (the default forwards),
  /// but the sampling policy must not advance its renamer epoch here — the
  /// FASE is still open.
  void flush_buffered(FlushSink& sink) {
    repeat_line_ = kNoRepeat;
    do_flush_buffered(sink);
  }

  /// Program end: release anything still buffered.
  void finish(FlushSink& sink) {
    repeat_line_ = kNoRepeat;
    do_finish(sink);
  }

  /// Read-only snapshot: the counted repeat stores are folded in at the
  /// policy's per-repeat cost, so the totals equal what probing every
  /// repeat would have counted. Reads only; the owning thread stays the
  /// sole writer of every field behind it.
  PolicyCounters counters() const noexcept {
    PolicyCounters c = counters_;
    c.stores += repeats_ * repeat_cost_.stores;
    c.combined += repeats_ * repeat_cost_.combined;
    c.instructions += repeats_ * repeat_cost_.instructions;
    return c;
  }

  /// SC / SC-offline: current software-cache capacity (0 for others).
  virtual std::size_t current_cache_size() const noexcept { return 0; }

 protected:
  /// `repeat_cost`: what one repeat store adds to the counters — exactly
  /// what the policy's own store code counts for a store to the line it
  /// buffered last.
  explicit Policy(PolicyCounters repeat_cost = {}) noexcept
      : repeat_cost_(repeat_cost) {}

  /// Runs every store on_store() does not count as a repeat. True arms
  /// the repeat lane for `line`: the line is buffered now, and a store to
  /// it before the next boundary would change nothing but counters_ (by
  /// repeat_cost_) — no flush, no structure or sampler state.
  virtual bool do_store(LineAddr line, FlushSink& sink) = 0;
  virtual void do_fase_end(FlushSink& sink) { sink.drain(); }
  virtual void do_flush_buffered(FlushSink& sink) { do_fase_end(sink); }
  virtual void do_finish(FlushSink& sink) { sink.drain(); }

  PolicyCounters counters_;

 private:
  /// No line: LineAddr is a byte address >> 6, so all-ones never occurs.
  static constexpr LineAddr kNoRepeat = ~LineAddr{0};

  LineAddr repeat_line_ = kNoRepeat;
  std::uint64_t repeats_ = 0;
  PolicyCounters repeat_cost_;
};

/// Instantiate one of the six techniques.
std::unique_ptr<Policy> make_policy(PolicyKind kind,
                                    const PolicyConfig& config = {});

// ---------------------------------------------------------------------------
// Concrete policies (exposed for white-box tests).
// ---------------------------------------------------------------------------

/// ER: clflush after every store. Cheap bookkeeping, maximal flush count.
class EagerPolicy final : public Policy {
 public:
  PolicyKind kind() const noexcept override { return PolicyKind::kEager; }

 private:
  bool do_store(LineAddr line, FlushSink& sink) override;
};

/// LA: remember every dirty line, flush the whole set at FASE end. Minimal
/// flush count, maximal FASE-end stall.
class LazyPolicy final : public Policy {
 public:
  LazyPolicy();
  PolicyKind kind() const noexcept override { return PolicyKind::kLazy; }

 private:
  bool do_store(LineAddr line, FlushSink& sink) override;
  void do_fase_end(FlushSink& sink) override;
  void do_finish(FlushSink& sink) override;
  void flush_pending(FlushSink& sink);
  /// line -> first-write sequence. Open addressing: LA's per-store cost is
  /// one linear probe instead of unordered_map's node allocation + chase.
  FlatHashMap<LineAddr, std::uint64_t> pending_;
  std::uint64_t seq_ = 0;
};

/// AT: Atlas' fixed-size direct-mapped table of modified line addresses
/// (paper Section II-A: "equivalent to a direct-mapped, fixed size cache").
/// An associativity knob (>1 ways, per-set LRU) is provided as an ablation.
class AtlasPolicy final : public Policy {
 public:
  AtlasPolicy(std::size_t table_size, std::size_t associativity = 1);
  PolicyKind kind() const noexcept override { return PolicyKind::kAtlas; }

 private:
  bool do_store(LineAddr line, FlushSink& sink) override;
  void do_fase_end(FlushSink& sink) override;
  void do_finish(FlushSink& sink) override;
  struct Entry {
    LineAddr line = 0;  // 0 = empty (line 0 is never persistent)
    std::uint64_t stamp = 0;
  };
  void flush_table(FlushSink& sink);
  std::vector<Entry> table_;  // sets_ x ways_, row-major by set
  std::size_t sets_;
  std::size_t ways_;
  std::uint64_t clock_ = 0;
};

/// SC's check of its MRC against its own flush counter that fired a
/// re-sample: the size the first burst applied, the miss ratio the burst's
/// exact MRC predicted there, the flush ratio the cache showed instead over
/// the window's `stores`, and whether a miss inside a FASE longer than a
/// burst closed the window (`mid_fase`) rather than an outermost FASE end.
struct ResampleCheck {
  std::size_t size = 0;
  double predicted = 0.0;
  double observed = 0.0;
  std::uint64_t stores = 0;
  bool mid_fase = false;
};

/// SC / SC-offline: the adaptive software write-combining cache. SC's
/// burst analysis runs inside the store that ends the burst, and the
/// selected size applies there (DESIGN.md §6).
///
/// MRC check (DESIGN.md §5): with forever-hibernation, SC compares the
/// flush ratio its cache shows over each window of at least one burst of
/// stores with the miss ratio the burst's exact MRC (FASE-end flushes
/// included) predicted at the applied size. A window closes at an
/// outermost FASE end, or at a cache miss once the current FASE alone has
/// run a burst of stores since the window opened. The first window that
/// exceeds kResampleSlack × predicted + kResampleFloor starts one more
/// burst; its selection applies as max(new, old), so the cache never
/// shrinks and, by LRU inclusion, never flushes more than the first choice
/// would have. At most one re-sample per policy.
class SoftCachePolicy final : public Policy {
 public:
  static constexpr double kResampleSlack = 1.25;
  static constexpr double kResampleFloor = 0.01;

  /// `online`: true = SC (bursty sampling + resize), false = SC-offline
  /// (fixed, profiled size).
  SoftCachePolicy(const PolicyConfig& config, bool online);
  PolicyKind kind() const noexcept override {
    return online_ ? PolicyKind::kSoftCache : PolicyKind::kSoftCacheOffline;
  }
  std::size_t current_cache_size() const noexcept override {
    return cache_.capacity();
  }

  const WriteCache& cache() const noexcept { return cache_; }
  const BurstSampler& sampler() const noexcept { return sampler_; }

  /// Re-samples started by the MRC check (0 or 1), and the check that
  /// started one.
  std::uint32_t resamples() const noexcept { return fired_ ? 1 : 0; }
  const std::optional<ResampleCheck>& fired_check() const noexcept {
    return fired_;
  }

 private:
  bool do_store(LineAddr line, FlushSink& sink) override;
  void do_fase_end(FlushSink& sink) override;
  void do_flush_buffered(FlushSink& sink) override;
  void do_finish(FlushSink& sink) override;
  void sample_store(LineAddr line, FlushSink& sink);
  void apply_selection(std::size_t selected, FlushSink& sink);
  bool check_prediction(bool mid_fase);
  void open_window();
  void arm_miss_check();

  WriteCache cache_;
  BurstSampler sampler_;
  bool online_;
  // MRC check state: the prediction at the applied size (set by the first
  // selection), the cache's flush and store counts where the current
  // window opened, the store count where the current FASE began, and the
  // store count from which a miss closes the window (kNever while the
  // check is off).
  static constexpr std::uint64_t kNever = ~std::uint64_t{0};
  std::optional<double> predicted_;
  std::uint64_t window_flushes_ = 0;
  std::uint64_t window_stores_ = 0;
  std::uint64_t fase_start_ = 0;
  std::uint64_t miss_check_at_ = kNever;
  std::optional<ResampleCheck> fired_;
};

/// BEST: never flush. Invalid as a persistence technique; used as the upper
/// bound of optimal caching.
class BestPolicy final : public Policy {
 public:
  BestPolicy() : Policy(PolicyCounters{.stores = 1}) {}
  PolicyKind kind() const noexcept override { return PolicyKind::kBest; }

 private:
  bool do_store(LineAddr line, FlushSink& sink) override;
};

}  // namespace nvc::core
