// The write-back route: every stage between a caching policy and the media,
// built once per thread context (DESIGN.md §8, stage table).
//
// A policy sees one FlushSink — route.sink(). Behind it sit the stages the
// configuration asks for, in this fixed order:
//
//   application side   log-order -> elide -> ring push
//                                 | sync write-back -> retry/quarantine
//                                   -> media
//   worker side        retire -> retry/quarantine -> issue
//   (inside the FlushChannel)
//
// Flush elision is part of flush-behind: the elide stage and both retire
// stages (worker side, and the ring's overflow to the sync path) exist
// exactly when the ring does. A stage that is off is never constructed:
// the bare synchronous route is the caller's sync sink itself. sink()
// returns one cached pointer, and the async->sync degradation latch swaps
// it exactly once, to the degraded route (log-order over the retrying sync
// path, skipping ring and elision).
// The route also owns the degradation and commit-suspension latches, the
// write-after-enqueue hazard check a pstore runs before its data write, the
// channel's pump/wait hooks, and the elision and ring counters.
#pragma once

#include <cstdint>
#include <memory>

#include "core/elision.hpp"
#include "core/elision_sink.hpp"
#include "core/fault_sink.hpp"
#include "core/flush_pipeline.hpp"
#include "core/log_ordered_sink.hpp"
#include "pmem/fault.hpp"
#include "runtime/undo_log.hpp"

namespace nvc::runtime {

/// What a route is built from. Every pointer stage is optional.
struct WriteBackSpec {
  /// Application-side synchronous data sink (not owned; must outlive the
  /// route). Ring overflow and the degraded route write back through it.
  core::FlushSink* sync_sink = nullptr;
  /// Worker-side base sink. Non-null turns the flush-behind ring, and with
  /// it flush elision, on; the channel takes ownership, because it may
  /// outlive the route.
  std::unique_ptr<core::FlushSink> worker_sink;
  std::size_t ring_depth = core::FlushWorker::kDefaultQueueDepth;  // pow2
  /// Open a channel the worker never sweeps (deterministic tests).
  bool manual_channel = false;
  core::FlushDeviceModel device;
  /// Undo log of this context (not owned). Null: no log-order stage.
  UndoLog* log = nullptr;
  /// Shared flush-elision table: required with a ring, refused without.
  std::shared_ptr<core::FlushElisionTable> elision;
  /// Fault accounting. Non-null arms the retry/quarantine stages and the
  /// latches (see arm_faults).
  std::shared_ptr<core::FaultStats> faults;
  core::RetryPolicy retry;
  /// Transient failures after which the degradation latches fire.
  std::uint32_t degrade_after = 4;

  /// The one arming rule: retry/quarantine is built iff `injector` can fail
  /// a write-back. An idle (torn-only) injector keeps its backend hooks,
  /// but retrying a flush that cannot fail is dead weight.
  void arm_faults(const pmem::FaultInjector* injector,
                  const pmem::FaultConfig& config);
};

class WriteBackRoute {
 public:
  explicit WriteBackRoute(WriteBackSpec spec);

  WriteBackRoute(const WriteBackRoute&) = delete;
  WriteBackRoute& operator=(const WriteBackRoute&) = delete;

  /// The sink policies flush into right now.
  core::FlushSink& sink() noexcept { return *current_; }

  /// Degradation latches, evaluated at the outermost FASE begin. Once
  /// faults reach the threshold (or any line is quarantined) the ring is
  /// drained and bypassed for good, and a batched log turns strict.
  void maybe_degrade();

  /// Commit-suspension latch: false from the first quarantined line on. A
  /// lost write-back must keep the undo records that cover it, so the
  /// caller never moves the commit point again.
  bool commit_allowed() noexcept;

  /// Write-after-enqueue hazard: true when a write-back of `line` may still
  /// be scheduled — queued in this route's live ring, or pending in the
  /// shared elision table (possibly another context's) — so it could carry
  /// bytes of a store about to happen.
  bool inflight(LineAddr line) const noexcept {
    return (ring_ != nullptr && ring_->maybe_inflight(line)) ||
           (elision_ != nullptr && elision_->pending(line));
  }

  /// Called after a store's undo records were appended and before its data
  /// write: if any touched line is inflight(), make the records durable
  /// first (or, when the log media refuses, drain the ring so no queued
  /// write-back can carry the new bytes). Requires a log.
  void order_store(LineAddr first, LineAddr last);

  /// Write back one queued line (manual channels; false when none).
  bool pump_one() { return channel_ != nullptr && channel_->pump_one(); }
  /// Wait until every line ever queued has been written back.
  void wait_drained() {
    if (channel_ != nullptr) channel_->wait_drained();
  }

  /// Lines the worker side wrote back (release-published by the channel).
  std::uint64_t ring_flushes() const noexcept {
    return channel_ != nullptr ? channel_->flushed() : 0;
  }
  std::uint64_t elided() const noexcept {
    return eliding_ != nullptr ? eliding_->elided_count() : 0;
  }
  std::uint64_t reflushed() const noexcept {
    return eliding_ != nullptr ? eliding_->reflushed_count() : 0;
  }
  /// Fault accounting (null when the injector cannot fire).
  const core::FaultStats* faults() const noexcept { return faults_.get(); }
  bool flush_degraded() const noexcept {
    return async_ != nullptr && ring_ == nullptr;
  }
  bool log_degraded() const noexcept { return log_degraded_; }
  bool commit_suspended() const noexcept { return commit_suspended_; }

 private:
  UndoLog* log_;
  std::shared_ptr<core::FlushElisionTable> elision_;
  std::shared_ptr<core::FaultStats> faults_;
  std::uint32_t degrade_after_;
  /// Stages, in construction order (destruction drains the ring while the
  /// sinks below it are still alive).
  std::unique_ptr<core::FaultTolerantSink> retry_sync_;
  std::unique_ptr<core::FaultTolerantSink> retry_log_;
  std::shared_ptr<core::FlushChannel> channel_;
  std::unique_ptr<core::RetiringSink> retire_overflow_;
  std::unique_ptr<core::AsyncFlushSink> async_;
  std::unique_ptr<core::ElidingSink> eliding_;
  std::unique_ptr<core::LogOrderedSink> ordered_;
  std::unique_ptr<core::LogOrderedSink> degraded_;
  /// The retrying synchronous data path (the spec's sync sink when faults
  /// are off).
  core::FlushSink* sync_;
  core::FlushSink* current_;
  /// The live ring: async_ until the flush latch fires, then null.
  core::AsyncFlushSink* ring_ = nullptr;
  bool log_degraded_ = false;
  bool commit_suspended_ = false;
};

}  // namespace nvc::runtime
