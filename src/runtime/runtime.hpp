// The FASE runtime: the piece Atlas implements with an LLVM pass plus a
// runtime library. Our LLVM-pass substitution (see DESIGN.md) is an explicit
// instrumentation API with identical semantics:
//
//   Runtime rt(config);
//   {
//     FaseScope fase(rt);              // lock-acquire in Atlas terms
//     rt.pstore(&node->next, value);   // instrumented persistent store
//   }                                  // FASE end: policy flush + log commit
//
// Responsibilities:
//   * owns the persistent data region and heap (pmem::PmemAllocator);
//   * maintains one ThreadContext per thread: caching policy instance, flush
//     backend, undo-log segment — all thread-private, lock-free on the hot
//     path (paper Section II-B);
//   * FASE nesting: only outermost begin/end reach the policy and the log
//     commit (a FASE is lock-scoped and may nest, unlike a transaction);
//   * durable undo logging + recovery for failure atomicity;
//   * aggregation of per-thread statistics for the benchmark harness.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "core/elision.hpp"
#include "core/policy.hpp"
#include "pmem/flush.hpp"
#include "pmem/pmem_alloc.hpp"
#include "pmem/pmem_region.hpp"
#include "runtime/health.hpp"
#include "runtime/recovery.hpp"
#include "runtime/undo_log.hpp"

namespace nvc::runtime {

class Scrubber;
struct ScrubStats;
struct WriteBackSpec;

struct RuntimeConfig {
  std::string region_name = "default";
  std::size_t region_size = 64u << 20;  // data region bytes
  /// If false, open an existing region (recovery / restart path).
  bool fresh = true;

  core::PolicyKind policy = core::PolicyKind::kSoftCache;
  core::PolicyConfig policy_config;

  pmem::FlushKind flush = pmem::default_flush_kind();
  std::uint32_t simulated_flush_ns = 100;

  /// Flush-behind pipeline (NVC_FLUSH_ASYNC=1): data-line write-backs are
  /// enqueued to the shared background FlushWorker instead of executing on
  /// the application thread; commit points (drain) wait on a completion
  /// ticket. Synchronous flushing stays the default (DESIGN.md §8).
  /// Flush-behind carries write-back dedup (DESIGN.md §13): one shared
  /// core::FlushElisionTable skips an eviction of a line whose write-back
  /// is already queued and not yet started (announce on the application
  /// thread, retire on the worker right before the write), and every
  /// commit-point drain re-checks its elided lines.
  bool async_flush = false;
  /// Per-thread flush ring capacity in lines (a power of two). A full ring
  /// falls back to a synchronous local flush.
  std::size_t flush_queue_depth = 1024;

  /// Durable undo logging (off for pure flush-counting experiments).
  bool undo_logging = false;
  /// When records become durable: per record (kStrict, Atlas' protocol) or
  /// once per epoch at ordered sync points (kBatched — see DESIGN.md §7 for
  /// the ordering invariant and the eADR/simulated-backend assumption).
  LogSyncMode log_sync = LogSyncMode::kStrict;
  std::size_t log_segment_size = 1u << 20;
  std::size_t max_threads = 64;

  /// Endurance accounting (DESIGN.md §12): attach one shared
  /// pmem::WearTracker to every flush backend — application-thread and
  /// worker-side — so stats()/health() can report bytes written to media
  /// and per-line wear. Off by default: the write-back hot path then keeps
  /// a single null-pointer test.
  bool wear_tracking = false;

  /// Commit-granularity data verification (DESIGN.md §14): every FASE
  /// commit publishes a CRC32C per touched data line into a shared
  /// LineVerifyTable; the online scrubber and the recovery pipeline's
  /// verify stage check lines against it. Off by default: the store path
  /// keeps a single null-pointer test.
  bool verify_data = false;

  /// Online scrubbing (DESIGN.md §14): register a background
  /// Scrubber on the flush worker's idle hook — it re-reads the image
  /// when the write-back rings are empty and repairs detectably corrupt
  /// metadata from redundant copies. Requires nothing else; combines with
  /// verify_data for data-line checking.
  bool scrub = false;
};

/// Statistics aggregated over all thread contexts.
struct RuntimeStats {
  std::uint64_t stores = 0;
  std::uint64_t combined = 0;
  std::uint64_t fases = 0;
  std::uint64_t flushes = 0;       // data lines written back to NVRAM
  std::uint64_t log_flushes = 0;   // undo-log lines written back
  std::uint64_t fences = 0;
  std::uint64_t log_fences = 0;    // fences on the undo-log path
  std::uint64_t instructions = 0;  // policy bookkeeping estimate
  std::uint64_t log_records = 0;   // undo-log entries (a coalesced store
                                   // adds none, DESIGN.md §7)
  std::uint64_t log_bytes = 0;
  std::uint64_t log_syncs = 0;     // log entry persists (epochs in kBatched)
  // Write admission (NVC_ADMIT; zero under the default `always` mode):
  std::uint64_t bypassed_stores = 0;   // stores written through past a cache
  // Flush elision (flush-behind only; zero under synchronous flushing):
  std::uint64_t elided_flushes = 0;     // scheduled write-backs skipped
  std::uint64_t elision_reflushes = 0;  // drain re-checks that flushed
  // Endurance accounting (wear_tracking; all zero when tracking is off):
  std::uint64_t media_line_writes = 0;   // write-backs that reached media
  std::uint64_t media_bytes_written = 0; // media_line_writes * line size
  std::uint64_t wear_lines_touched = 0;  // distinct lines written
  std::uint64_t wear_max_line_writes = 0;
  double wear_mean_line_writes = 0.0;
  double wear_leveling_skew = 0.0;       // max/mean - 1 (0 = leveled)
  std::size_t threads = 0;
  std::vector<std::size_t> cache_sizes;  // per-thread selected sizes (SC)
  // SC's MRC check (DESIGN.md §5): re-samples it started, summed over
  // contexts, and for each re-sampled context the check that fired.
  std::uint64_t sampler_resamples = 0;
  std::vector<core::ResampleCheck> resample_checks;

  double flush_ratio() const noexcept {
    return stores == 0
               ? 0.0
               : static_cast<double>(flushes) / static_cast<double>(stores);
  }
};

/// A crash medium (DESIGN.md §9), the test seam in place of the mmap'ed
/// regions and the hardware flush path: it supplies both regions' memory
/// (the same bytes to every Runtime built over it, so a restart reopens
/// them), receives every write-back and fence of every backend the runtime
/// builds, and performs pstore's data write.
class Medium : public pmem::FlushMedium {
 public:
  virtual void* data_region(std::size_t size) = 0;
  virtual void* log_region(std::size_t size) = 0;
  /// pstore's data write: after the undo record and the hazard check,
  /// before the policy sees the store.
  virtual void store(void* dst, const void* src, std::size_t len) = 0;
  /// Open flush channels the worker never sweeps: queued write-backs then run
  /// only under pump_flush() and the helping drain.
  virtual bool manual_flush() const = 0;
};

class Runtime {
 public:
  /// `medium` (not owned; outlives the runtime) is the crash-test seam
  /// above; null runs on the real regions.
  explicit Runtime(RuntimeConfig config, Medium* medium = nullptr);
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // --- persistent heap ------------------------------------------------------

  /// Allocate persistent memory (durable location, not failure-atomic).
  void* pm_alloc(std::size_t size);
  void pm_free(void* p);

  /// Durable root pointer, the recovery entry point.
  void set_root(void* p);
  void* get_root() const;

  template <typename T>
  T* pm_new() {
    return static_cast<T*>(pm_alloc(sizeof(T)));
  }

  // --- FASEs and instrumented stores ---------------------------------------

  /// Enter a failure-atomic section on this thread (nestable).
  void fase_begin();

  /// Leave a FASE; the outermost end flushes per policy and commits the log.
  /// True when this was the outermost end (the commit point); inner ends
  /// return false.
  bool fase_end();

  /// Instrumented persistent store: logs the old value (if logging), applies
  /// the write, and reports the line to the caching policy. Must run inside
  /// a FASE for atomicity; outside a FASE it degrades to store+report, as
  /// Atlas permits for unprotected persistent writes.
  void pstore(void* dst, const void* src, std::size_t len);

  template <typename T>
  void pstore(T& dst, const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    pstore(&dst, &value, sizeof(T));
  }

  /// Report-only variant: the caller already wrote [addr, addr+len) (e.g.
  /// via a library like memcpy) and needs it tracked for persistence.
  void pwrote(const void* addr, std::size_t len);

  /// Mid-FASE persistence barrier: flush everything this thread's policy
  /// has buffered and fence. Used by stores with their own commit ordering
  /// (e.g. MDB writes data pages durably before publishing the new meta).
  void persist_barrier();

  // --- recovery -------------------------------------------------------------

  /// True if any thread's log segment holds uncommitted records — or
  /// corruption the salvage pipeline needs to classify and repair.
  bool needs_recovery() const;

  /// Run the salvage-mode recovery pipeline (runtime/recovery.hpp): roll
  /// back uncommitted FASEs to their last verifiable commit, classify every
  /// corruption, reformat unrecoverable log segments. Returns records
  /// undone; the full report is available from last_recovery() and the
  /// headline from health().
  std::size_t recover();

  /// Classified report of the most recent recover() (default-constructed
  /// if recovery never ran; see HealthReport::recovery_ran).
  RecoveryReport last_recovery() const;

  // --- introspection ---------------------------------------------------------

  /// Aggregate statistics over every thread that used this runtime.
  /// The per-context policy and app-side backend counters are read without
  /// synchronisation (only the context list is locked): the totals are
  /// exact only while the threads owning those contexts are quiescent —
  /// joined, or parked outside any runtime call. Policy::counters() must
  /// stay a read-only snapshot (it folds in the repeat-store lane's count,
  /// DESIGN.md §5 item 5) so this reader never writes a policy field.
  RuntimeStats stats() const;

  /// Aggregate health view: wear, the last recovery's verdict and the
  /// scrubber's counters (runtime/health.hpp).
  HealthReport health() const;

  /// Drain this thread's context: flush anything buffered (program end).
  void thread_flush();

  const RuntimeConfig& config() const noexcept { return config_; }
  pmem::PmemAllocator& allocator() noexcept { return *allocator_; }

  /// Commit-time data checksums (null unless config.verify_data).
  const LineVerifyTable* verify_table() const noexcept {
    return verify_table_.get();
  }
  /// The online scrubber (null unless config.scrub). Exposed so tests and
  /// benchmarks can pump slices manually instead of waiting for an idle
  /// worker.
  Scrubber* scrubber() noexcept { return scrubber_.get(); }
  /// Scrubber counters (all zero when scrubbing is off).
  ScrubStats scrub_stats() const;

  /// Remove the backing files (test teardown).
  void destroy_storage();

  // --- test seams (crash rig, deterministic schedulers) ----------------------

  /// Bind the calling thread to context slot `slot` (creating the slots up
  /// to it): its FASE, store and barrier calls act on that context until
  /// the next bind, or until the thread uses another Runtime.
  void bind_context(std::size_t slot);
  /// Write back one queued line of slot `slot`'s flush ring (manual
  /// channels; false when none).
  bool pump_flush(std::size_t slot);
  /// The shared flush-elision table (null unless config.async_flush).
  const std::shared_ptr<core::FlushElisionTable>& elision_table()
      const noexcept {
    return elision_;
  }

 private:
  struct ThreadContext;

  ThreadContext& ctx();
  ThreadContext& ctx_slow();
  /// Context of `slot`, creating the slots up to it.
  ThreadContext& context_at(std::size_t slot);
  /// Append the next context slot (contexts_mutex_ held).
  ThreadContext& add_context();
  /// Every flush backend the runtime builds. Metered ones (per-context data,
  /// log and worker side) carry the wear tracker; unmetered ones (heap header, log format, recovery, scrub repairs) only
  /// reach the medium.
  pmem::FlushBackend make_backend(bool metered) const;
  /// One context's write-back route (runtime/write_back_route.hpp).
  WriteBackSpec route_spec(core::FlushSink* sync_sink, UndoLog* log) const;
  /// Write the heap header back (format, reopen, set_root, seal): the
  /// allocator only mutates the mapping.
  void persist_header();
  /// Dirty the verify-table lines of [addr, addr+len) (needs the
  /// verify_data table). pstore calls it before its data write.
  void mark_dirty(ThreadContext& c, const void* addr, std::size_t len);
  /// Report [addr, addr+len) to the policy, line by line.
  void report(ThreadContext& c, const void* addr, std::size_t len);
  /// Publish commit-time checksums for the FASE's touched lines
  /// (verify_data; no-op otherwise).
  void publish_commit(ThreadContext& c);
  /// Raw-memory view of the live regions for the recovery pipeline.
  RegionView region_view(core::FlushSink* sink) const;

  RuntimeConfig config_;
  Medium* medium_;
  /// Endurance accounting (null unless config_.wear_tracking). Shared: the
  /// worker-side backend inside a FlushChannel keeps a reference, and a
  /// channel may outlive the Runtime.
  std::shared_ptr<pmem::WearTracker> wear_;
  /// Flush-elision table (null unless config_.async_flush). One table for
  /// all contexts — cross-thread dedup is the point — and shared because
  /// the worker-side retire stage inside a FlushChannel may outlive us.
  std::shared_ptr<core::FlushElisionTable> elision_;
  std::unique_ptr<pmem::PmemAllocator> allocator_;
  pmem::PmemRegion log_region_;
  std::uint64_t instance_id_;
  /// Commit-time data-line checksums (null unless config_.verify_data).
  /// Shared: the scrubber holds a reference and is itself kept alive by the
  /// flush worker only through a weak_ptr, but belt-and-braces beats a
  /// dangle.
  std::shared_ptr<LineVerifyTable> verify_table_;
  /// Online scrubber (null unless config_.scrub). shared_ptr because the
  /// worker's idle hook tracks it via weak_ptr — destruction is deregistration.
  std::shared_ptr<Scrubber> scrubber_;
  /// Most recent salvage report (guarded by recovery_mutex_).
  mutable std::mutex recovery_mutex_;
  RecoveryReport last_recovery_;
  bool recovery_ran_ = false;

  /// Guards the persistent heap (allocate/free/root). Separate from
  /// contexts_mutex_ so allocation never contends with thread registration
  /// or stats().
  mutable std::mutex alloc_mutex_;

  mutable std::mutex contexts_mutex_;
  std::vector<std::unique_ptr<ThreadContext>> contexts_;
};

/// RAII failure-atomic section (maps to Atlas' lock-based FASE).
class FaseScope {
 public:
  explicit FaseScope(Runtime& rt) : rt_(rt) { rt_.fase_begin(); }
  ~FaseScope() { rt_.fase_end(); }
  FaseScope(const FaseScope&) = delete;
  FaseScope& operator=(const FaseScope&) = delete;

 private:
  Runtime& rt_;
};

}  // namespace nvc::runtime
