// Media-health introspection for the FASE runtime.
//
// When a FaultInjector is attached (RuntimeConfig::fault, or a real fallible
// backend in spirit), the retry/quarantine machinery of core::FaultTolerantSink
// accumulates per-thread FaultStats; Runtime::health() aggregates them into
// one report an operator (or a test) can poll: how much transient noise the
// media produced, which lines are permanently lost, and which graceful
// degradations have latched (DESIGN.md §10).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace nvc::runtime {

/// Headline verdict of a salvage-mode recovery pass (runtime/recovery.hpp).
enum class RecoveryOutcome : std::uint8_t {
  kClean,          // image committed; nothing to replay
  kSalvaged,       // uncommitted FASEs rolled back to the last verifiable
                   // commit; image is consistent
  kUnrecoverable,  // corruption destroyed state the all-or-nothing contract
                   // depends on — surviving bytes must not be trusted
};

/// Aggregated media-health view over every thread context of a Runtime.
struct HealthReport {
  /// A FaultInjector is wired into the flush paths (even if all-zero rates).
  bool faults_attached = false;

  /// Write-back attempts rejected transiently (before retry verdicts).
  std::uint64_t transient_faults = 0;
  /// Retry attempts issued by the fault-tolerant sinks.
  std::uint64_t flush_retries = 0;

  /// Union of every context's poisoned-line set, sorted. A quarantined line
  /// exhausted its retries: its content is NOT durable and the owning
  /// context has suspended commits (recovery pins at its last good commit).
  std::vector<LineAddr> quarantined_lines;

  /// Contexts whose flush-behind pipeline latched to synchronous flushing.
  std::size_t flush_degraded_contexts = 0;
  /// Contexts whose batched log latched to strict per-record durability.
  std::size_t log_degraded_contexts = 0;
  /// Contexts that stopped committing FASEs because of quarantined lines.
  std::size_t commit_suspended_contexts = 0;

  /// A WearTracker is wired into the flush paths (wear_tracking).
  bool wear_attached = false;
  /// Endurance accounting snapshot (all zero unless wear_attached):
  std::uint64_t media_bytes_written = 0;
  std::uint64_t wear_max_line_writes = 0;
  double wear_mean_line_writes = 0.0;
  /// max/mean - 1: 0 = perfectly leveled, large = one line absorbing a
  /// disproportionate share of the device's endurance budget.
  double wear_leveling_skew = 0.0;

  /// Salvage-mode recovery (runtime/recovery.hpp): set once Runtime::recover
  /// has run. The full classified RecoveryReport is available from
  /// Runtime::last_recovery(); this is the operator headline.
  bool recovery_ran = false;
  RecoveryOutcome recovery_outcome = RecoveryOutcome::kClean;
  std::uint64_t recovery_records_undone = 0;
  std::uint64_t recovery_defects = 0;

  /// Online scrubber (runtime/scrub.hpp): zero unless `scrub` armed it.
  bool scrub_attached = false;
  std::uint64_t scrub_lines_scanned = 0;
  std::uint64_t scrub_metadata_repairs = 0;  // restored from redundant copies
  std::uint64_t scrub_checksum_mismatches = 0;
  std::uint64_t scrub_media_quarantines = 0;  // injector-confirmed bad lines

  /// Any degradation latch fired or any line was lost.
  bool degraded() const noexcept {
    return flush_degraded_contexts > 0 || log_degraded_contexts > 0 ||
           commit_suspended_contexts > 0 || !quarantined_lines.empty() ||
           recovery_outcome == RecoveryOutcome::kUnrecoverable;
  }
};

}  // namespace nvc::runtime
