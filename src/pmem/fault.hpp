// Deterministic NVRAM media-fault injection.
//
// Real NVRAM write paths fail in ways the paper's model ignores: transient
// flush errors (media busy, thermal throttling), lines that go permanently
// bad, and write-backs torn mid-line by a power cut. The FaultInjector makes
// those failure classes reproducible: every decision is a pure function of
// (seed, line, per-line attempt ordinal), so a fuzzing campaign replays
// bit-for-bit from its seed and a crash-injection sweep sees identical
// pre-freeze fault outcomes at every freeze point (the ordinal sequence of
// the common prefix never depends on where the power cut lands).
//
// Fault classes:
//  - transient: this attempt fails; a retry (next ordinal) may succeed.
//  - bad line: a stable per-line verdict — every attempt fails until the
//    line is quarantined by the fault-tolerant sink above.
//  - torn write-back: at a crash point, the first dropped flush may instead
//    persist a prefix of the line. Torn lengths are multiples of 8 bytes,
//    matching the 8-byte power-fail atomicity unit real platforms (ADR)
//    guarantee — a packed 8-byte header word can never itself tear.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/types.hpp"

namespace nvc::pmem {

/// Settings for the injector, set by the caller (RuntimeConfig::fault).
/// Retry/degradation policy lives here too: the runtime copies those fields
/// into its (pmem-agnostic) core retry machinery so one struct controls
/// both sides.
struct FaultConfig {
  double rate = 0.0;            // P(transient failure) per flush attempt
  double bad_line_rate = 0.0;   // P(a given line is permanently bad)
  std::vector<LineAddr> bad_lines;  // explicit bad set (tests), additive
  double torn_rate = 0.0;       // P(the crash-point write-back tears)
  std::uint32_t max_retries = 8;    // attempts after the first failure
  std::uint64_t backoff_ns = 200;       // first retry backoff
  std::uint64_t backoff_cap_ns = 10000;  // exponential backoff ceiling
  std::uint32_t degrade_after = 4;  // transients before a mode latch fires
  std::uint64_t seed = 1;

  /// True when any fault class is configured (the runtime then owns an
  /// injector). A torn-only config is enabled but idle(): tearing happens
  /// only at a modeled power cut, never on a live write-back.
  bool enabled() const noexcept {
    return rate > 0.0 || bad_line_rate > 0.0 || !bad_lines.empty() ||
           torn_rate > 0.0;
  }
};

/// Verdict for one flush attempt.
struct FaultDecision {
  bool fail = false;  // the line does not persist this attempt
  bool bad = false;   // permanent: set only together with fail
};

/// Shared, thread-safe decision source consulted by ShadowPmem and
/// FlushBackend. Counters use release publication so stats readers racing
/// the async flush worker see consistent values.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultConfig& config);

  /// Decide the fate of the next write-back attempt of `line`, advancing
  /// the line's attempt ordinal. Thread-safe.
  FaultDecision on_flush_attempt(LineAddr line);

  /// Stable per-line verdict: permanently bad media.
  bool line_bad(LineAddr line) const noexcept;

  /// Bytes of `line` that a torn crash-point write-back would persist:
  /// 0 = the write-back drops whole (no tear), else a multiple of 8 in
  /// [8, 56]. Pure — same answer every call, no ordinal advance.
  std::size_t torn_bytes(LineAddr line) const noexcept;

  const FaultConfig& config() const noexcept { return config_; }

  /// True when no write-back decision can ever fail (a torn-only
  /// config). Callers on the flush hot path check this before consulting,
  /// so an attached-but-idle injector costs one predictable branch per
  /// flush.
  bool idle() const noexcept { return idle_; }

  std::uint64_t transients() const noexcept {
    return transients_.load(std::memory_order_acquire);
  }
  std::uint64_t bad_hits() const noexcept {
    return bad_hits_.load(std::memory_order_acquire);
  }
  void reset_counters() noexcept;

 private:
  FaultConfig config_;
  std::unordered_set<LineAddr> explicit_bad_;
  // True when no write-back decision can ever fire (torn-only config):
  // on_flush_attempt returns kOk without touching the mutex or the per-line
  // ordinal map, keeping an attached-but-idle injector off the flush hot
  // path.
  bool idle_ = false;
  std::atomic<std::uint64_t> transients_{0};
  std::atomic<std::uint64_t> bad_hits_{0};
  mutable std::mutex mu_;
  std::unordered_map<LineAddr, std::uint64_t> attempts_;
};

}  // namespace nvc::pmem
