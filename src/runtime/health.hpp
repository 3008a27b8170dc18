// Health introspection for the FASE runtime: Runtime::health() gathers the
// last recovery's verdict and the online scrubber's counters into one
// report an operator (or a test) can poll.
#pragma once

#include <cstdint>

namespace nvc::runtime {

/// Headline verdict of a salvage-mode recovery pass (runtime/recovery.hpp).
enum class RecoveryOutcome : std::uint8_t {
  kClean,          // image committed; nothing to replay
  kSalvaged,       // uncommitted FASEs rolled back to the last verifiable
                   // commit; image is consistent
  kUnrecoverable,  // corruption destroyed state the all-or-nothing contract
                   // depends on — surviving bytes must not be trusted
};

/// Aggregated health view of a Runtime.
struct HealthReport {
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
};

}  // namespace nvc::runtime
