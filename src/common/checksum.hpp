// The one checksum module every self-certifying persistent byte in this
// repo goes through (DESIGN.md §14).
//
// Two families, chosen per use:
//
//   FNV-1a (32-bit)  — the undo log's record check words (PR 2). Cheap,
//                      byte-at-a-time, and already baked into every durable
//                      log image: the incremental Fnv32 class reproduces the
//                      historical per-record mixing order bit-for-bit, so
//                      logs written before this module existed still
//                      certify after reopen.
//   CRC32C (Castagnoli) — region/heap metadata seals and data-line
//                      verification (verify_data, the online scrubber).
//                      Detects burst errors FNV can miss; the polynomial
//                      real NVRAM/storage stacks use (iSCSI, ext4, NVMe).
//
// Everything here is header-only, constexpr-friendly, and allocation-free;
// recovery code calls it on arbitrary untrusted bytes, so nothing in this
// file may read outside [data, data+len) or branch on byte values.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace nvc {

/// Incremental FNV-1a (32-bit). Mix order defines the certified layout:
/// callers feed fields in a fixed sequence and any reordering changes the
/// check word (which is the point — a field swap is corruption).
class Fnv32 {
 public:
  static constexpr std::uint32_t kOffsetBasis = 0x811c9dc5u;
  static constexpr std::uint32_t kPrime = 0x01000193u;

  constexpr void mix_byte(std::uint8_t byte) noexcept {
    h_ ^= byte;
    h_ *= kPrime;
  }

  constexpr void mix_bytes(const void* data, std::size_t len) noexcept {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < len; ++i) mix_byte(p[i]);
  }

  /// Mix an unsigned integral value little-endian (byte 0 = low byte),
  /// independent of host endianness — durable images are byte streams.
  template <typename T>
  constexpr void mix_le(T value) noexcept {
    static_assert(std::is_unsigned_v<T>);
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      mix_byte(static_cast<std::uint8_t>(value >> (8 * i)));
    }
  }

  constexpr std::uint32_t value() const noexcept { return h_; }

 private:
  std::uint32_t h_ = kOffsetBasis;
};

/// One-shot FNV-1a over a byte range.
constexpr std::uint32_t fnv1a32(const void* data, std::size_t len) noexcept {
  Fnv32 h;
  h.mix_bytes(data, len);
  return h.value();
}

namespace detail {

/// Reflected CRC32C (Castagnoli, poly 0x1EDC6F41 => reflected 0x82F63B78),
/// byte-at-a-time table generated at compile time. 64-byte lines and
/// 144-byte headers don't justify a sliced or hardware variant; the table
/// fits one KiB and the scrubber's batches amortize everything else.
constexpr std::array<std::uint32_t, 256> make_crc32c_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0x82f63b78u : 0u);
    }
    table[i] = crc;
  }
  return table;
}

inline constexpr std::array<std::uint32_t, 256> kCrc32cTable =
    make_crc32c_table();

}  // namespace detail

/// CRC32C of [data, data+len), chainable: pass a previous return value as
/// `seed` to continue a running checksum over a split buffer (the identity
/// crc32c(a+b) == crc32c(b, seed=crc32c(a)) holds).
constexpr std::uint32_t crc32c(const void* data, std::size_t len,
                               std::uint32_t seed = 0) noexcept {
  std::uint32_t crc = ~seed;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    crc = (crc >> 8) ^ detail::kCrc32cTable[(crc ^ p[i]) & 0xffu];
  }
  return ~crc;
}

}  // namespace nvc
