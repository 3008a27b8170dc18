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

#include "common/types.hpp"

namespace nvc::pmem {

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

/// Crash-model seam beneath a backend (DESIGN.md §9): every write-back and
/// fence goes to the medium instead of the hardware path.
class FlushMedium {
 public:
  virtual ~FlushMedium() = default;
  /// Write back the cache line holding `addr`.
  virtual void write_back(const void* addr) = 0;
  virtual void fence() = 0;
};

/// Issues cache-line write-backs and memory fences, counting both.
class FlushBackend {
 public:
  explicit FlushBackend(FlushKind kind = default_flush_kind(),
                        std::uint32_t simulated_latency_ns = 100);

  /// Write back (and possibly invalidate) the cache line holding `addr`.
  void flush(const void* addr) noexcept;

  /// Posted variant for the flush-behind pipeline: issue the write-back
  /// without stalling for its completion. The hardware kinds execute the
  /// (posted) instruction — the fence is where completion is awaited; the
  /// simulated kind only counts, because the async sink models the device
  /// timeline at the producer instead of spinning here on the worker.
  void issue(const void* addr) noexcept;

  /// Flush every line in [addr, addr+size).
  void flush_range(const void* addr, std::size_t size) noexcept;

  /// Order previously issued weak flushes (sfence; no-op for kCountOnly).
  void fence() noexcept;

  /// Hand every write-back and fence to `medium` (nullptr detaches; not
  /// owned). Counters still count here.
  void set_medium(FlushMedium* medium) noexcept { medium_ = medium; }

  FlushKind kind() const noexcept { return kind_; }
  std::uint64_t flush_count() const noexcept { return flushes_; }
  std::uint64_t fence_count() const noexcept { return fences_; }
  void reset_counters() noexcept { flushes_ = fences_ = 0; }

 private:
  /// The one write-back path of flush() and issue(): `spin` adds the
  /// simulated kind's synchronous latency.
  void write_back(const void* addr, bool spin) noexcept;

  FlushKind kind_;
  std::uint32_t simulated_latency_ns_;
  FlushMedium* medium_ = nullptr;
  std::uint64_t flushes_ = 0;
  std::uint64_t fences_ = 0;
};

}  // namespace nvc::pmem
