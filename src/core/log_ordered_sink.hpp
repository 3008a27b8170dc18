// The FlushSink seam between caching policies and the durable undo log.
//
// The undo log (runtime/undo_log.hpp) publishes its durable tail once per
// *epoch*, in both modes; with LogSyncMode::kBatched an undo record also
// only appends to the log segment, and its entry becomes durable at the
// same point. An epoch ends exactly when the runtime is about to issue the
// first software-controlled data-line write-back since the last sync. The
// ordering invariant that keeps recovery sound is:
//
//   every log entry covering a data line is durable, and covered by the
//   durable tail, before that line is flushed to NVRAM by software
//   (DESIGN.md §7).
//
// LogOrderedSink enforces the invariant mechanically: it decorates the sink
// that policies flush into and forces EpochLog::sync() before forwarding
// each flush_line(). sync() is O(1) — a single compare — when nothing new
// has been appended, so only the first flush after a batch of records pays
// the entry persist (batched) and the single durable-tail publish.
#pragma once

#include "common/assert.hpp"
#include "core/write_cache.hpp"

namespace nvc::core {

/// A durable log whose appended entries must be durable, and covered by its
/// durable tail, before any software-issued data flush (the undo log: in
/// strict mode record() already persisted the entries and sync() only
/// publishes the tail; in batched mode sync() persists both).
class EpochLog {
 public:
  virtual ~EpochLog() = default;

  /// Make every entry appended so far durable (flush + fence + durable tail
  /// publish). Must be O(1) when there is nothing pending. Returns false
  /// when the log media rejected a write-back — the entries are NOT
  /// durable and callers must not proceed with anything that depends on
  /// them (see LogOrderedSink::flush_line).
  virtual bool sync() = 0;
};

/// FlushSink decorator: forces `log->sync()` before each forwarded data-line
/// flush, so log-entry durability is ordered before data durability without
/// the policies knowing a log exists.
class LogOrderedSink final : public FlushSink {
 public:
  /// `log` may be null (no undo logging): the sink degrades to forwarding.
  LogOrderedSink(FlushSink* inner, EpochLog* log)
      : inner_(inner), log_(log) {
    NVC_REQUIRE(inner_ != nullptr);
  }

  bool flush_line(LineAddr line) override {
    // A failed log sync means undo records covering this line may not be
    // durable: flushing the data anyway could persist new bytes with no
    // durable record of the old ones, breaking all-or-nothing recovery.
    // Drop the data flush instead — the line stays volatile (lost on
    // crash, which recovery handles), and the caller's fault accounting
    // sees the false.
    if (log_ != nullptr && !log_->sync()) return false;
    return inner_->flush_line(line);
  }

  void drain() override { inner_->drain(); }

 private:
  FlushSink* inner_;
  EpochLog* log_;
};

}  // namespace nvc::core
