// Write-back dedup: per-line pending counters for scheduled write-backs
// (DESIGN.md §13).
//
// FliT (PAPERS.md) observes that persistent code flushes the same cache
// line many times, and that a per-line counter of in-flight write-backs
// lets a thread skip ("elide") a flush another thread already owes. On
// Optane-class media, where duplicate writes dominate cost ("Writes Hurt",
// PAPERS.md), that is the lever. The runtime keeps only FliT's dedup idea,
// applied to write-back *scheduling* on its eviction route:
//
//   announce(line) answers "is a write-back of this line already scheduled
//   and not yet started?". The first announcer becomes the owner and must
//   schedule the flush; later announcers are elided — the owner's
//   still-unstarted write-back will read the line through cache coherence
//   and carry their bytes.
//
//   retire(line) is called by the executor immediately BEFORE the media
//   write. That order is what makes elision sound: the slot's RMWs are
//   totally ordered, so an elider whose increment preceded the retire has
//   its payload store ordered before the executor's read of the line
//   (acq_rel on the slot), while an elider that loses the race finds the
//   slot empty and becomes the next owner itself.
//
//   A line whose slot holds another line (a hash collision), whose count is
//   saturated, or that lies beyond the 48-bit slot encoding is kUntracked:
//   the caller schedules its own flush and never retires. Collisions only
//   cost duplicate write-backs, never a wrong elision.
//
// Each runtime's sink stack owns its own table.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "common/types.hpp"

namespace nvc::core {

class FlushElisionTable {
 public:
  static constexpr std::size_t kDefaultSlots = 4096;  // power of two

  /// announce() verdicts.
  enum class Announce : std::uint8_t {
    kOwner,      // first announcer: schedule the write-back, retire() later
    kElided,     // an unstarted write-back is already scheduled: skip
    kUntracked,  // slot unavailable (collision/overflow): flush, no retire
  };

  struct Stats {
    std::uint64_t announces = 0;   // scheduling probes
    std::uint64_t owners = 0;      // announces that must schedule
    std::uint64_t elisions = 0;    // skipped write-backs
    std::uint64_t retires = 0;     // write-backs that cleared a pending slot
    std::uint64_t collisions = 0;  // slot held a different line
  };

  /// Lines hash to slots by their offset from `line_base`, so collisions
  /// replay bit-for-bit wherever the region is mapped.
  explicit FlushElisionTable(std::size_t slots = kDefaultSlots,
                             LineAddr line_base = 0);

  /// Probe-and-mark for a path about to schedule a write-back of `line`.
  Announce announce(LineAddr line);

  /// Called by the write-back executor immediately BEFORE the media write
  /// (decrement-before-write is the soundness hinge — see file comment).
  /// Returns the number of announces the write satisfies (0 when the slot
  /// held no pending count for `line`, e.g. after an untracked announce).
  std::uint32_t retire(LineAddr line);

  /// True from an owner's announce() of `line` until the retire() of its
  /// write-back: a write-back of the line is scheduled and has not started.
  /// False for untracked lines.
  bool pending(LineAddr line) const;

  // --- Introspection --------------------------------------------------------

  Stats stats() const;
  std::size_t slot_count() const noexcept { return mask_ + 1; }

  /// Lines with a nonzero pending count right now (a slot scan).
  /// Quiescence invariant for the harnesses: once every ring is
  /// drained and every sink's drain() ran, this must be zero — a stuck
  /// entry means some announced write-back never retired (exactly what the
  /// seeded revert-retire bug produces).
  std::size_t pending_count() const;

  /// Seeded-bug hook for the checker-validation tests (never set in
  /// production wiring): retire() reports the satisfied count but leaves
  /// the pending count in place — the "reverted decrement". Every later
  /// announce of the line is then elided although no write-back remains
  /// scheduled; only the ElidingSink's drain re-check still writes the line
  /// back, and the fuzzers' quiescence check (pending_count()) must fail.
  void set_bug_revert_retire(bool on) noexcept { bug_revert_retire_ = on; }
  bool bug_revert_retire() const noexcept { return bug_revert_retire_; }

 private:
  // Slot word: line in the high 48 bits, pending count in the low 16.
  // Lines at or above 2^48 (byte addresses >= 2^54) are untracked.
  static constexpr std::uint64_t kCountBits = 16;
  static constexpr std::uint64_t kCountMask = (1ULL << kCountBits) - 1;
  static constexpr std::uint64_t kMaxLine = 1ULL << 48;

  static std::uint64_t pack(LineAddr line, std::uint64_t count) noexcept {
    return (line << kCountBits) | count;
  }
  static LineAddr slot_line(std::uint64_t word) noexcept {
    return word >> kCountBits;
  }
  static std::uint64_t slot_count_of(std::uint64_t word) noexcept {
    return word & kCountMask;
  }

  std::atomic<std::uint64_t>& slot_for(LineAddr line) noexcept {
    return slots_[splitmix64_hash(line - line_base_) & mask_];
  }
  const std::atomic<std::uint64_t>& slot_for(LineAddr line) const noexcept {
    return slots_[splitmix64_hash(line - line_base_) & mask_];
  }
  static std::uint64_t splitmix64_hash(LineAddr line) noexcept;

  std::size_t mask_;
  LineAddr line_base_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> slots_;
  bool bug_revert_retire_ = false;

  /// Written by the announcing threads, so apart from the read-only fields
  /// above that every probe reads.
  alignas(kCacheLineSize) std::atomic<std::uint64_t> announces_{0};
  std::atomic<std::uint64_t> owners_{0};
  std::atomic<std::uint64_t> elisions_{0};
  std::atomic<std::uint64_t> collisions_{0};
  /// Written by whichever thread executes a write-back (the flush worker,
  /// behind a ring), so apart from the announcers' counters.
  alignas(kCacheLineSize) std::atomic<std::uint64_t> retires_{0};
};

}  // namespace nvc::core
