// FliT-style flush elision: per-line flush-pending counters (DESIGN.md §13).
//
// FliT (PAPERS.md) observes that persistent lock-free structures flush the
// same cache line many times: the thread that wrote a location flushes it,
// and every concurrent helper that *depends* on that write flushes it again
// before proceeding, because it cannot know whether the writer's flush has
// happened yet. A per-location counter removes the redundancy: the writer
// tags the line for the duration of its write-back and untags it after, so
// a helper that reads the counter at zero knows the line is already durable
// and skips ("elides") its flush. On Optane-class media, where duplicate
// writes dominate cost ("Writes Hurt", PAPERS.md), this is the main lever.
//
// The table exposes two protocols over the same slot array:
//
//   FliT face — tag(line) / untag(line) around a writer's flush, and
//   pending(line) for helpers. Elision direction: a helper skips only when
//   the counter is ZERO (no write-back in flight => the line is durable).
//   A nonzero counter means some writer is mid-protocol, so the helper
//   flushes conservatively. Collisions and overflow fall back to a shared
//   counter that keeps pending() conservative: hash-colliding lines can
//   only cause spurious flushes, never a wrong elision.
//
//   Dedup face — announce(line) / retire(line) for write-back *scheduling*
//   paths (the runtime's eviction route). announce() answers "is a
//   write-back of this line already scheduled and not yet started?": the
//   first announcer becomes the owner and must schedule the flush; later
//   announcers are elided — the owner's still-unstarted write-back will
//   read the line through cache coherence and carry their bytes. The
//   executor calls retire(line) immediately BEFORE performing the media
//   write. That order is what makes elision sound: the slot's RMWs are
//   totally ordered, so an elider whose increment preceded the retire has
//   its payload store ordered before the executor's read of the line
//   (acq_rel on the slot), while an elider that loses the race finds the
//   slot empty and becomes the next owner itself. Collisions return
//   kUntracked: the caller schedules its own flush and never retires.
//
// The two faces share slot encoding but are never mixed on one table
// instance (a retire() clears the whole count, which would strand FliT
// taggers). Each deployment — a runtime's sink stack, a structure suite's
// persistence space — owns its own table.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "common/types.hpp"

namespace nvc::core {

class FlushElisionTable {
 public:
  static constexpr std::size_t kDefaultSlots = 4096;  // power of two

  /// Where a tag() landed; untag() must hand it back.
  enum class Tag : std::uint8_t {
    kSlot,    // counted in the line's own slot
    kShared,  // collision/overflow: counted in the shared fallback
  };

  /// announce() verdicts for the scheduling-dedup face.
  enum class Announce : std::uint8_t {
    kOwner,      // first announcer: schedule the write-back, retire() later
    kElided,     // an unstarted write-back is already scheduled: skip
    kUntracked,  // slot unavailable (collision/overflow): flush, no retire
  };

  struct Stats {
    std::uint64_t tags = 0;        // FliT-face writer tags
    std::uint64_t announces = 0;   // dedup-face scheduling probes
    std::uint64_t owners = 0;      // announces that must schedule
    std::uint64_t elisions = 0;    // dedup-face skipped write-backs
    std::uint64_t retires = 0;     // write-backs that cleared a pending slot
    std::uint64_t collisions = 0;  // slot held a different line
  };

  /// Lines hash to slots by their offset from `line_base`, so collisions
  /// replay bit-for-bit wherever the region is mapped.
  explicit FlushElisionTable(std::size_t slots = kDefaultSlots,
                             LineAddr line_base = 0);

  // --- FliT face (writer tagging + helper elision) --------------------------

  /// A writer is about to flush `line`: raise its pending count. The
  /// returned token says where the count landed and must be passed back to
  /// untag() after the flush completed.
  Tag tag(LineAddr line);

  /// The writer's flush completed: drop the count raised by tag().
  void untag(LineAddr line, Tag where);

  /// Helper probe: true while any write-back of `line` may be in flight.
  /// False means every tagged flush of the line completed — a helper that
  /// needs the line durable may elide its own flush. Conservative under
  /// collisions/overflow (shared fallback nonzero => true for all lines).
  bool pending(LineAddr line) const;

  // --- Dedup face (write-back scheduling) -----------------------------------

  /// Probe-and-mark for a path about to schedule a write-back of `line`.
  Announce announce(LineAddr line);

  /// Called by the write-back executor immediately BEFORE the media write
  /// (decrement-before-write is the soundness hinge — see file comment).
  /// Returns the number of announces the write satisfies (0 when the slot
  /// held no pending count for `line`, e.g. after an untracked announce).
  std::uint32_t retire(LineAddr line);

  // --- Introspection --------------------------------------------------------

  Stats stats() const;
  std::size_t slot_count() const noexcept { return mask_ + 1; }

  /// Lines with a nonzero pending count right now (slot scan + shared
  /// fallback). Quiescence invariant for the harnesses: once every ring is
  /// drained and every sink's drain() ran, this must be zero — a stuck
  /// entry means some announced write-back never retired (exactly what the
  /// seeded revert-retire bug produces).
  std::size_t pending_count() const;

  /// Seeded-bug hook for the checker-validation tests (never set in
  /// production wiring): retire() reports the satisfied count but leaves
  /// the pending count in place — the "reverted decrement". Every later
  /// announce of the line is then elided although no write-back remains
  /// scheduled, so the line's newest bytes never reach the media and the
  /// durable-linearizability oracle must flag the recovered state.
  void set_bug_revert_retire(bool on) noexcept { bug_revert_retire_ = on; }
  bool bug_revert_retire() const noexcept { return bug_revert_retire_; }

 private:
  // Slot word: line in the high 48 bits, pending count in the low 16.
  // Lines at or above 2^48 (byte addresses >= 2^54) use the shared
  // fallback; count saturation does too.
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
  /// Shared conservative fallback: collisions and overflow count here, so
  /// pending() stays true for every line while any fallback tag is live.
  /// Every pending() probe reads it, and the dedup face never writes it,
  /// so it sits apart from the counters the announcing threads write.
  alignas(kCacheLineSize) std::atomic<std::uint64_t> shared_{0};
  bool bug_revert_retire_ = false;

  alignas(kCacheLineSize) mutable std::atomic<std::uint64_t> tags_{0};
  mutable std::atomic<std::uint64_t> announces_{0};
  mutable std::atomic<std::uint64_t> owners_{0};
  mutable std::atomic<std::uint64_t> elisions_{0};
  mutable std::atomic<std::uint64_t> collisions_{0};
  /// Written by whichever thread executes a write-back (the flush worker,
  /// behind a ring), so apart from the announcers' counters.
  alignas(kCacheLineSize) mutable std::atomic<std::uint64_t> retires_{0};
};

}  // namespace nvc::core
