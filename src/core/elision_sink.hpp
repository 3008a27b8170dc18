// FlushSink decorators around FlushElisionTable's write-back dedup
// protocol (DESIGN.md §13). Elision is part of flush-behind: both
// decorators sit around the flush-behind ring and nowhere else.
//
// ElidingSink sits on the application-thread write-back path, directly
// below the LogOrderedSink (the log sync for a data line must run whether
// or not the media write is elided — the log-before-data invariant of §7
// is decided above this layer) and above the AsyncFlushSink feeding the
// ring. It consults announce() per line: owners forward to the ring,
// elided lines are skipped and remembered. drain() — the commit-point
// barrier — re-checks every line elided since the last drain: one still
// pending means the owning write-back has not started yet (it may live in
// another thread's ring, which our drain ticket does not cover), so the
// line is written back and drained before the commit proceeds. This closes
// the cross-thread durability hole under the same in-model assumption as
// §7/§8: an *issued* write-back is durable (simulated/shadow backends;
// eADR-class hardware where the flush is ordering-only).
//
// RetiringSink is the executor-side counterpart: it retires the line
// immediately BEFORE forwarding to the real write-back — the
// decrement-before-write order the table's soundness argument requires.
// It wraps the worker-side sink inside the FlushChannel (below the ring,
// above FaultTolerantSink/IssueSink) and the ring's overflow path, the
// two places an owner's write-back executes.
#pragma once

#include <algorithm>
#include <memory>
#include <vector>

#include "core/elision.hpp"
#include "core/write_cache.hpp"

namespace nvc::core {

/// Executor-side decorator: retire, then write back.
class RetiringSink final : public FlushSink {
 public:
  /// Owning inner (worker-side: the FlushChannel owns this sink).
  RetiringSink(std::unique_ptr<FlushSink> inner,
               std::shared_ptr<FlushElisionTable> table)
      : owned_(std::move(inner)), inner_(owned_.get()),
        table_(std::move(table)) {}

  /// Non-owning inner (the ring's overflow path).
  RetiringSink(FlushSink* inner, std::shared_ptr<FlushElisionTable> table)
      : inner_(inner), table_(std::move(table)) {}

  bool flush_line(LineAddr line) override {
    table_->retire(line);
    return inner_->flush_line(line);
  }
  void drain() override { inner_->drain(); }

 private:
  std::unique_ptr<FlushSink> owned_;
  FlushSink* inner_;
  std::shared_ptr<FlushElisionTable> table_;
};

/// Producer-side decorator: skip write-backs that are already scheduled.
class ElidingSink final : public FlushSink {
 public:
  /// `inner` queues the write-back (the AsyncFlushSink); whatever
  /// executes it retires the line through a RetiringSink.
  ElidingSink(FlushSink* inner, std::shared_ptr<FlushElisionTable> table)
      : inner_(inner), table_(std::move(table)) {}

  bool flush_line(LineAddr line) override {
    // Owners and untracked announces schedule their own write-back. With
    // tracking full (drain is overdue) an elider schedules one too rather
    // than lose the commit-time re-check for this line.
    if (table_->announce(line) != FlushElisionTable::Announce::kElided ||
        elided_.size() >= kMaxTracked) {
      return inner_->flush_line(line);
    }
    elided_.push_back(line);
    elided_count_++;
    return true;
  }

  void drain() override {
    inner_->drain();
    if (elided_.empty()) return;
    std::sort(elided_.begin(), elided_.end());
    elided_.erase(std::unique(elided_.begin(), elided_.end()), elided_.end());
    bool reflushed = false;
    for (const LineAddr line : elided_) {
      // Still pending at the barrier: the owning write-back has not started
      // (or the retire was lost — the seeded-bug dimension), so our bytes
      // are not on their way to the media. Write it back without
      // announcing: correctness beats a duplicate write here.
      if (table_->pending(line)) {
        inner_->flush_line(line);
        reflushed = true;
        reflushed_count_++;
      }
    }
    elided_.clear();
    if (reflushed) inner_->drain();
  }

  /// Write-backs skipped because an owner was already scheduled.
  std::uint64_t elided_count() const noexcept { return elided_count_; }
  /// Elided lines the drain barrier had to flush locally after all.
  std::uint64_t reflushed_count() const noexcept { return reflushed_count_; }

 private:
  static constexpr std::size_t kMaxTracked = 4096;

  FlushSink* inner_;
  std::shared_ptr<FlushElisionTable> table_;
  /// Lines elided since the last drain (producer-thread private).
  std::vector<LineAddr> elided_;
  std::uint64_t elided_count_ = 0;
  std::uint64_t reflushed_count_ = 0;
};

}  // namespace nvc::core
