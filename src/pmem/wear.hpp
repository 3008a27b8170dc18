// Endurance accounting for NVRAM media (DESIGN.md §12).
//
// NVRAM cells wear out per write; the interesting quantities are how many
// bytes reached the media and how evenly those writes spread over lines. A
// WearTracker is shared by every flush backend of a Runtime — application-thread backends
// and the worker-side backends below the flush-behind rings — so the hot
// path publishes with a release-ordered atomic and a short critical section,
// exactly like the PR 3 flushed counters: stats() never reads a plain
// counter another thread may be mutating.
//
// Opt-in (RuntimeConfig::wear_tracking): with no tracker attached, the
// backends' write-back path keeps a single null-pointer test.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>

#include "common/types.hpp"

namespace nvc::pmem {

/// Snapshot of the media's wear state.
struct WearStats {
  std::uint64_t line_writes = 0;     // successful line write-backs to media
  std::uint64_t bytes_written = 0;   // line_writes * kCacheLineSize
  std::uint64_t lines_touched = 0;   // distinct lines ever written
  std::uint64_t max_line_writes = 0; // hottest line's write count
  double mean_line_writes = 0.0;
  /// Estimated leveling skew, max/mean - 1: 0 = perfectly leveled writes,
  /// large = a hot spot burning through one line's endurance budget.
  double leveling_skew = 0.0;
};

/// Thread-safe shared wear accounting, attached to FlushBackends.
/// record() is called once per write-back.
class WearTracker {
 public:
  /// Account one successful full-line write-back of `line`.
  void record(LineAddr line);

  /// Race-free total without taking the map mutex (release-published by
  /// record(), acquire-read here) — the cheap counter stats aggregation
  /// polls while the flush worker writes back.
  std::uint64_t line_writes() const noexcept {
    return total_.load(std::memory_order_acquire);
  }
  std::uint64_t bytes_written() const noexcept {
    return line_writes() * kCacheLineSize;
  }

  /// Full per-line aggregation (max/mean/skew) under the map mutex.
  WearStats stats() const;

  /// Writes recorded against one line (0 if never written).
  std::uint64_t line_write_count(LineAddr line) const;

  void reset();

 private:
  std::atomic<std::uint64_t> total_{0};
  mutable std::mutex mutex_;
  std::unordered_map<LineAddr, std::uint64_t> counts_;
};

}  // namespace nvc::pmem
