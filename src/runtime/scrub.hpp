// Online scrubbing (DESIGN.md §14): a background pass that re-reads the
// persistent image while the runtime serves traffic, piggybacked on the
// flush worker's idle hook (core::IdleTask) so it costs nothing while
// write-back rings hold work.
//
// Each slice (one idle_step) does a bounded amount of work:
//
//   metadata — the heap header and the per-slot undo-log header magics are
//     checked against redundant copies: a DRAM mirror of the heap header the
//     Runtime refreshes under its allocation lock at every legitimate
//     mutation (so the mirror is authoritative by construction), and the
//     compile-time log magic constant. Detectably corrupt metadata is
//     *repaired* in place, written back and fenced (so the repair survives
//     a crash), and counted.
//   data lines — a batch of kBatchLines lines is swept per slice: when
//     verify_data is on, clean, committed lines are verified against their
//     commit-time CRC32C; mismatches are counted and reported (data has no
//     redundant copy to repair from; honesty over heroics).
//
// Thread-safety: slices self-serialize on a try-lock (the worker's idle
// slice and a manual step() never scrub concurrently; a busy scrubber is
// simply skipped), the heap-header check runs under the Runtime's
// allocation lock so it can never race a legitimate mutation, and the
// verify table's dirty bits suppress checks on lines with in-flight stores.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/types.hpp"
#include "core/flush_pipeline.hpp"
#include "pmem/flush.hpp"
#include "pmem/wear.hpp"
#include "runtime/recovery.hpp"

namespace nvc::runtime {

struct ScrubStats {
  std::uint64_t slices = 0;          // idle steps that did work
  std::uint64_t passes = 0;          // full sweeps of the data region
  std::uint64_t lines_scanned = 0;
  std::uint64_t metadata_repairs = 0;
  std::uint64_t checksum_mismatches = 0;
};

class Scrubber final : public core::IdleTask {
 public:
  /// Data lines re-read per slice.
  static constexpr std::size_t kBatchLines = 64;

  /// `backend` writes repairs back (used only inside slices, which are
  /// serialized).
  Scrubber(pmem::FlushBackend backend, void* data, std::size_t data_size,
           void* logs, std::size_t log_segment_size,
           std::size_t log_segments);

  // --- wiring (all optional; call before the first slice) -------------------

  /// The owner's lock guarding heap-header mutations (Runtime's allocation
  /// mutex). Header checks/repairs run under it; without one the header
  /// phase is skipped (no way to exclude a racing legitimate mutation).
  void set_header_lock(std::mutex* lock) { header_lock_ = lock; }
  /// Commit-time data checksums (RuntimeConfig::verify_data).
  void set_verify_table(std::shared_ptr<const LineVerifyTable> table) {
    table_ = std::move(table);
  }
  /// Endurance accounting: metadata repairs are media writes too.
  void set_wear(std::shared_ptr<pmem::WearTracker> wear) {
    wear_ = std::move(wear);
  }

  /// Owner hook: the heap header was legitimately mutated — refresh the
  /// mirror. MUST be called under the same lock passed to set_header_lock
  /// (the Runtime calls it from its allocation paths).
  void refresh_header_mirror();

  // --- execution ------------------------------------------------------------

  /// One bounded slice (core::IdleTask). Returns true when anything was
  /// scanned; false when another slice is already running.
  bool idle_step() override;

  /// Manual pump for tests/benchmarks: same slice as idle_step.
  bool step() { return idle_step(); }

  /// Stop scrubbing and wait out any in-flight slice. After this returns no
  /// step will touch the region again — the owner calls it before unmapping
  /// (the flush worker may hold a locked shared_ptr mid-slice; the weak_ptr
  /// expiring alone cannot interrupt that).
  void shutdown();

  ScrubStats stats() const;

 private:
  void scrub_metadata();
  void scrub_data_batch();
  /// Write back and fence the repaired bytes [p, p+len), and count their
  /// lines as media writes.
  void persist_repair(const char* p, std::size_t len);

  pmem::FlushBackend backend_;
  char* const data_;
  const std::size_t data_size_;
  char* const logs_;
  const std::size_t log_segment_size_;
  const std::size_t log_segments_;

  std::mutex* header_lock_ = nullptr;
  std::shared_ptr<const LineVerifyTable> table_;
  std::shared_ptr<pmem::WearTracker> wear_;

  /// Serializes the worker's slices with manual steps (try-lock: a busy
  /// scrubber is skipped, never waited on).
  std::mutex slice_mutex_;
  std::atomic<bool> stopped_{false};
  /// Heap-header mirror (refreshed by the owner under header_lock_).
  std::vector<char> header_mirror_;
  bool mirror_valid_ = false;

  std::size_t cursor_ = 0;  // next data line to scan (under slice_mutex_)
  std::atomic<std::uint64_t> slices_{0};
  std::atomic<std::uint64_t> passes_{0};
  std::atomic<std::uint64_t> lines_scanned_{0};
  std::atomic<std::uint64_t> metadata_repairs_{0};
  std::atomic<std::uint64_t> checksum_mismatches_{0};
};

}  // namespace nvc::runtime
