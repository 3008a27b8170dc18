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

bool FlushElisionTable::pending(LineAddr line) const {
  if (line >= kMaxLine) return false;
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
  std::size_t n = 0;
  for (std::size_t i = 0; i <= mask_; ++i) {
    if (slots_[i].load(std::memory_order_acquire) != 0) ++n;
  }
  return n;
}

FlushElisionTable::Stats FlushElisionTable::stats() const {
  Stats s;
  s.announces = announces_.load(std::memory_order_relaxed);
  s.owners = owners_.load(std::memory_order_relaxed);
  s.elisions = elisions_.load(std::memory_order_relaxed);
  s.retires = retires_.load(std::memory_order_relaxed);
  s.collisions = collisions_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace nvc::core
