// Cache-line flush backends.
//
// The paper's system (Atlas) persists data with x86 `clflush`; newer parts
// offer `clflushopt` (weakly ordered) and `clwb` (no invalidation; the paper
// notes Atlas avoids it for visibility reasons). This module wraps all three
// plus a simulated backend (busy-wait of configurable cost) so experiments run
// identically on hardware without the instructions, and an accounting-only
// backend for pure flush counting.
//
// All backends count issued flushes and fences; counters are per-instance so
// per-thread backends need no atomics on the hot path.
#pragma once

#include <cstdint>
#include <memory>

#include "common/types.hpp"

namespace nvc::pmem {

class WearTracker;

enum class FlushKind : std::uint8_t {
  kClflush,     // flush + invalidate, strongly ordered (Atlas' choice)
  kClflushopt,  // flush + invalidate, weakly ordered (needs sfence)
  kClwb,        // write back, line stays valid (needs sfence)
  kSimulated,   // spin for a configured latency; for hosts without the insns
  kCountOnly,   // no work at all; used when only flush counts matter
};

/// Pick the best available backend for real-hardware timing experiments:
/// clflush if supported (paper fidelity), else simulated.
FlushKind default_flush_kind();

/// Parse "clflush" / "clflushopt" / "clwb" / "sim" / "count".
FlushKind parse_flush_kind(const char* name);

const char* to_string(FlushKind kind);

class FaultInjector;

/// Crash-model seam beneath a backend (DESIGN.md §9): every write-back and
/// fence goes to the medium instead of the hardware path, and the medium,
/// not the backend, consults any fault injector.
class FlushMedium {
 public:
  virtual ~FlushMedium() = default;
  /// Write back the cache line holding `addr`; false = the media failed it.
  virtual bool write_back(const void* addr) = 0;
  virtual void fence() = 0;
};

/// Outcome of one write-back attempt. Real hardware reports media errors
/// asynchronously (machine-check / poisoned reads); the simulated backends
/// surface them synchronously through this result so software-level retry
/// and quarantine policy is exercisable.
enum class FlushResult : std::uint8_t {
  kOk,         // line accepted by the media
  kTransient,  // this attempt failed; a retry may succeed
  kBadLine,    // the line is permanently bad; retries are pointless
};

/// Issues cache-line write-backs and memory fences, counting both.
class FlushBackend {
 public:
  explicit FlushBackend(FlushKind kind = default_flush_kind(),
                        std::uint32_t simulated_latency_ns = 100);

  /// Write back (and possibly invalidate) the cache line holding `addr`.
  FlushResult flush(const void* addr) noexcept;

  /// Posted variant for the flush-behind pipeline: issue the write-back
  /// without stalling for its completion. The hardware kinds execute the
  /// (posted) instruction — the fence is where completion is awaited; the
  /// simulated kind only counts, because the async sink models the device
  /// timeline at the producer instead of spinning here on the worker.
  FlushResult issue(const void* addr) noexcept;

  /// Flush every line in [addr, addr+size). Returns the worst per-line
  /// result (kBadLine > kTransient > kOk).
  FlushResult flush_range(const void* addr, std::size_t size) noexcept;

  /// Order previously issued weak flushes (sfence; no-op for kCountOnly).
  void fence() noexcept;

  /// Route every flush/issue decision through `injector` (nullptr detaches).
  /// Shared ownership for the same reason as the wear tracker below.
  void set_fault_injector(std::shared_ptr<FaultInjector> injector) noexcept {
    injector_ = std::move(injector);
  }
  FaultInjector* fault_injector() const noexcept { return injector_.get(); }

  /// Record every successful write-back against `wear` (endurance
  /// accounting, DESIGN.md §12; nullptr detaches). Shared ownership because
  /// worker-side backends inside a FlushChannel may outlive the Runtime
  /// that owns the tracker.
  void set_wear_tracker(std::shared_ptr<WearTracker> wear) noexcept {
    wear_ = std::move(wear);
  }
  WearTracker* wear_tracker() const noexcept { return wear_.get(); }

  /// Hand every write-back and fence to `medium` (nullptr detaches; not
  /// owned). Counters still count here.
  void set_medium(FlushMedium* medium) noexcept { medium_ = medium; }

  FlushKind kind() const noexcept { return kind_; }
  std::uint64_t flush_count() const noexcept { return flushes_; }
  std::uint64_t fence_count() const noexcept { return fences_; }
  std::uint64_t fault_count() const noexcept { return faults_; }
  /// Write-backs that actually reached the media: attempts minus injected
  /// failures (a rejected attempt programs no cells).
  std::uint64_t media_writes() const noexcept { return flushes_ - faults_; }
  std::uint64_t bytes_written() const noexcept {
    return media_writes() * kCacheLineSize;
  }
  void reset_counters() noexcept { flushes_ = fences_ = faults_ = 0; }

 private:
  FlushResult consult_injector(const void* addr) noexcept;
  FlushResult on_medium(const void* addr) noexcept;

  FlushKind kind_;
  std::uint32_t simulated_latency_ns_;
  std::shared_ptr<FaultInjector> injector_;
  std::shared_ptr<WearTracker> wear_;
  FlushMedium* medium_ = nullptr;
  std::uint64_t flushes_ = 0;
  std::uint64_t fences_ = 0;
  std::uint64_t faults_ = 0;  // injected failures observed by this backend
};

}  // namespace nvc::pmem
