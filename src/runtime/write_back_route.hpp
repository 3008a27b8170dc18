// The write-back route: every stage between a caching policy and the media,
// built once per thread context (DESIGN.md §8, stage table).
//
// A policy sees one FlushSink — route.sink(). Behind it sit the stages the
// configuration asks for, in this fixed order:
//
//   application side   log-order -> elide -> ring push
//                                 | sync write-back -> media
//   worker side        retire -> issue
//   (inside the FlushChannel)
//
// Flush elision is part of flush-behind: the elide stage and both retire
// stages (worker side, and the ring's overflow to the sync path) exist
// exactly when the ring does. A stage that is off is never constructed:
// the bare synchronous route is the caller's sync sink itself, and sink()
// returns one pointer fixed at construction.
// The route also owns the write-after-enqueue hazard check a pstore runs
// before its data write, the channel's pump/wait hooks, and the elision
// and ring counters.
#pragma once

#include <cstdint>
#include <memory>

#include "core/elision.hpp"
#include "core/elision_sink.hpp"
#include "core/flush_pipeline.hpp"
#include "core/log_ordered_sink.hpp"
#include "runtime/undo_log.hpp"

namespace nvc::runtime {

/// What a route is built from. Every pointer stage is optional.
struct WriteBackSpec {
  /// Application-side synchronous data sink (not owned; must outlive the
  /// route). Ring overflow writes back through it.
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
};

class WriteBackRoute {
 public:
  explicit WriteBackRoute(WriteBackSpec spec);

  WriteBackRoute(const WriteBackRoute&) = delete;
  WriteBackRoute& operator=(const WriteBackRoute&) = delete;

  /// The sink policies flush into.
  core::FlushSink& sink() noexcept { return *sink_; }

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
  /// first. Requires a log.
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

 private:
  UndoLog* log_;
  std::shared_ptr<core::FlushElisionTable> elision_;
  /// Stages, in construction order (destruction drains the ring while the
  /// sinks below it are still alive).
  std::shared_ptr<core::FlushChannel> channel_;
  std::unique_ptr<core::RetiringSink> retire_overflow_;
  std::unique_ptr<core::AsyncFlushSink> ring_;
  std::unique_ptr<core::ElidingSink> eliding_;
  std::unique_ptr<core::LogOrderedSink> ordered_;
  /// The top stage: what sink() returns.
  core::FlushSink* sink_;
};

}  // namespace nvc::runtime
