#include "core/elision.hpp"

#include <bit>

#include "common/assert.hpp"
#include "common/rng.hpp"

namespace nvc::core {

FlushElisionTable::FlushElisionTable(std::size_t slots, LineAddr line_base)
    : line_base_(line_base) {
  NVC_REQUIRE(slots >= 2);
  slots = std::bit_ceil(slots);
  mask_ = slots - 1;
  slots_ = std::make_unique<std::atomic<std::uint64_t>[]>(slots);
  for (std::size_t i = 0; i < slots; ++i) {
    slots_[i].store(0, std::memory_order_relaxed);
  }
}

std::uint64_t FlushElisionTable::splitmix64_hash(LineAddr line) noexcept {
  return splitmix64_mix(line);
}

FlushElisionTable::Tag FlushElisionTable::tag(LineAddr line) {
  tags_.fetch_add(1, std::memory_order_relaxed);
  if (line >= kMaxLine) {
    shared_.fetch_add(1, std::memory_order_acq_rel);
    return Tag::kShared;
  }
  std::atomic<std::uint64_t>& slot = slot_for(line);
  std::uint64_t cur = slot.load(std::memory_order_acquire);
  for (;;) {
    if (cur == 0) {
      if (slot.compare_exchange_weak(cur, pack(line, 1),
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
        return Tag::kSlot;
      }
      continue;  // cur reloaded by the failed CAS
    }
    if (slot_line(cur) == line) {
      if (slot_count_of(cur) == kCountMask) break;  // saturated: fall back
      if (slot.compare_exchange_weak(cur, cur + 1, std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
        return Tag::kSlot;
      }
      continue;
    }
    collisions_.fetch_add(1, std::memory_order_relaxed);
    break;
  }
  // Collision or saturation: count in the shared fallback, which keeps
  // pending() conservatively true for every line until the untag.
  shared_.fetch_add(1, std::memory_order_acq_rel);
  return Tag::kShared;
}

void FlushElisionTable::untag(LineAddr line, Tag where) {
  if (where == Tag::kShared) {
    [[maybe_unused]] const std::uint64_t prev =
        shared_.fetch_sub(1, std::memory_order_acq_rel);
    NVC_ASSERT(prev > 0);
    return;
  }
  std::atomic<std::uint64_t>& slot = slot_for(line);
  std::uint64_t cur = slot.load(std::memory_order_acquire);
  for (;;) {
    NVC_ASSERT(slot_line(cur) == line && slot_count_of(cur) > 0,
               "untag of a line this table never slot-tagged");
    const std::uint64_t next = slot_count_of(cur) == 1 ? 0 : cur - 1;
    if (slot.compare_exchange_weak(cur, next, std::memory_order_acq_rel,
                                   std::memory_order_acquire)) {
      return;
    }
  }
}

bool FlushElisionTable::pending(LineAddr line) const {
  if (shared_.load(std::memory_order_acquire) != 0) return true;
  if (line >= kMaxLine) return false;  // shared-only lines were counted above
  const std::uint64_t cur = slot_for(line).load(std::memory_order_acquire);
  return cur != 0 && slot_line(cur) == line;
}

FlushElisionTable::Announce FlushElisionTable::announce(LineAddr line) {
  announces_.fetch_add(1, std::memory_order_relaxed);
  if (line >= kMaxLine) return Announce::kUntracked;
  std::atomic<std::uint64_t>& slot = slot_for(line);
  std::uint64_t cur = slot.load(std::memory_order_acquire);
  for (;;) {
    if (cur == 0) {
      if (slot.compare_exchange_weak(cur, pack(line, 1),
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
        owners_.fetch_add(1, std::memory_order_relaxed);
        return Announce::kOwner;
      }
      continue;
    }
    if (slot_line(cur) == line) {
      if (slot_count_of(cur) == kCountMask) return Announce::kUntracked;
      if (slot.compare_exchange_weak(cur, cur + 1, std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
        elisions_.fetch_add(1, std::memory_order_relaxed);
        return Announce::kElided;
      }
      continue;
    }
    collisions_.fetch_add(1, std::memory_order_relaxed);
    return Announce::kUntracked;
  }
}

std::uint32_t FlushElisionTable::retire(LineAddr line) {
  if (line >= kMaxLine) return 0;
  std::atomic<std::uint64_t>& slot = slot_for(line);
  std::uint64_t cur = slot.load(std::memory_order_acquire);
  for (;;) {
    if (cur == 0 || slot_line(cur) != line) return 0;
    const auto count = static_cast<std::uint32_t>(slot_count_of(cur));
    if (bug_revert_retire_) {
      // Seeded bug (test hook): report success but leave the pending count
      // in place. Future announces of this line elide forever.
      return count;
    }
    if (slot.compare_exchange_weak(cur, 0, std::memory_order_acq_rel,
                                   std::memory_order_acquire)) {
      retires_.fetch_add(1, std::memory_order_relaxed);
      return count;
    }
  }
}

std::size_t FlushElisionTable::pending_count() const {
  std::size_t n = shared_.load(std::memory_order_acquire) != 0 ? 1 : 0;
  for (std::size_t i = 0; i <= mask_; ++i) {
    if (slots_[i].load(std::memory_order_acquire) != 0) ++n;
  }
  return n;
}

FlushElisionTable::Stats FlushElisionTable::stats() const {
  Stats s;
  s.tags = tags_.load(std::memory_order_relaxed);
  s.announces = announces_.load(std::memory_order_relaxed);
  s.owners = owners_.load(std::memory_order_relaxed);
  s.elisions = elisions_.load(std::memory_order_relaxed);
  s.retires = retires_.load(std::memory_order_relaxed);
  s.collisions = collisions_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace nvc::core
