// Open-addressing hash map for the analysis kernels.
//
// The locality analyses (interval extraction, footprint, Mattson, FASE
// renaming) are O(n) passes whose constant factor is dominated by one
// hash lookup per trace element. `std::unordered_map` pays a pointer chase
// per probe (node-based buckets); this table is a power-of-two slot array
// with linear probing at load factor <= 0.5 and backward-shift deletion (no
// tombstones, so probe chains never degrade and rehash is only ever for
// growth).
//
// Keys must be trivially copyable integers (cache-line addresses, logical
// times); values must be default-constructible and movable. Pointers
// returned by find()/try_emplace() are invalidated by the next insertion.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/assert.hpp"

namespace nvc {

/// 64-bit finalizer (murmur3) — line addresses are often sequential, which
/// plain masking would cluster badly.
constexpr std::uint64_t hash_mix_u64(std::uint64_t x) noexcept {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

template <typename Key, typename Value>
class FlatHashMap {
  static_assert(std::is_integral_v<Key> || std::is_enum_v<Key>,
                "FlatHashMap keys are hashed as 64-bit integers");

 public:
  FlatHashMap() { allocate(kMinSlots); }
  explicit FlatHashMap(std::size_t expected_entries) {
    allocate(slots_for(expected_entries));
  }

  /// Grow so that `expected_entries` insertions need no further rehash.
  void reserve(std::size_t expected_entries) {
    const std::size_t want = slots_for(expected_entries);
    if (want > slots_.size()) rehash(want);
  }

  /// Insert `key -> value` unless present. Returns the value slot and
  /// whether an insertion happened (mirrors unordered_map::try_emplace).
  std::pair<Value*, bool> try_emplace(Key key, Value value) {
    if ((size_ + 1) * 2 > slots_.size()) rehash(slots_.size() * 2);
    std::size_t slot = home(key);
    while (slots_[slot].used) {
      if (slots_[slot].key == key) return {&slots_[slot].value, false};
      slot = (slot + 1) & mask_;
    }
    slots_[slot].key = key;
    slots_[slot].value = std::move(value);
    slots_[slot].used = true;
    ++size_;
    return {&slots_[slot].value, true};
  }

  Value* find(Key key) noexcept {
    std::size_t slot = home(key);
    while (slots_[slot].used) {
      if (slots_[slot].key == key) return &slots_[slot].value;
      slot = (slot + 1) & mask_;
    }
    return nullptr;
  }
  const Value* find(Key key) const noexcept {
    return const_cast<FlatHashMap*>(this)->find(key);
  }

  bool contains(Key key) const noexcept { return find(key) != nullptr; }

  /// Remove `key` if present; backward-shift deletion keeps probe chains
  /// tombstone-free. Returns whether a removal happened.
  bool erase(Key key) noexcept {
    std::size_t slot = home(key);
    while (slots_[slot].used) {
      if (slots_[slot].key == key) break;
      slot = (slot + 1) & mask_;
    }
    if (!slots_[slot].used) return false;

    std::size_t hole = slot;
    std::size_t probe = (hole + 1) & mask_;
    while (slots_[probe].used) {
      const std::size_t h = home(slots_[probe].key);
      // Move the entry back if its home does not lie in (hole, probe].
      if (((probe - h) & mask_) >= ((probe - hole) & mask_)) {
        slots_[hole] = std::move(slots_[probe]);
        hole = probe;
      }
      probe = (probe + 1) & mask_;
    }
    slots_[hole] = Slot{};
    --size_;
    return true;
  }

  /// Drop all entries, keeping the slot array.
  void clear() noexcept {
    for (Slot& s : slots_) s = Slot{};
    size_ = 0;
  }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  std::size_t slot_count() const noexcept { return slots_.size(); }

  /// Visit every entry as fn(key, value) in unspecified order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.used) fn(s.key, s.value);
    }
  }

 private:
  struct Slot {
    Key key{};
    Value value{};
    bool used = false;
  };

  static constexpr std::size_t kMinSlots = 16;

  static std::size_t slots_for(std::size_t entries) {
    std::size_t n = kMinSlots;
    while (n < entries * 2) n <<= 1;  // keep load factor <= 0.5
    return n;
  }

  std::size_t home(Key key) const noexcept {
    return static_cast<std::size_t>(
               hash_mix_u64(static_cast<std::uint64_t>(key))) &
           mask_;
  }

  void allocate(std::size_t n) {
    NVC_ASSERT(n >= kMinSlots && (n & (n - 1)) == 0);
    slots_.assign(n, Slot{});
    mask_ = n - 1;
  }

  void rehash(std::size_t n) {
    std::vector<Slot> old = std::move(slots_);
    allocate(n);
    for (Slot& s : old) {
      if (!s.used) continue;
      std::size_t slot = home(s.key);
      while (slots_[slot].used) slot = (slot + 1) & mask_;
      slots_[slot] = std::move(s);
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

}  // namespace nvc
