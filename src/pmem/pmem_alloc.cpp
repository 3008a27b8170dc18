#include "pmem/pmem_alloc.hpp"

#include <cstring>
#include <stdexcept>
#include <string>

#include "common/assert.hpp"
#include "common/checksum.hpp"
#include "common/types.hpp"

namespace nvc::pmem {

namespace {
constexpr std::uint32_t kBlockAllocated = 0xA110CA7Eu;
constexpr std::uint32_t kBlockFree = 0xF4EEF4EEu;
}  // namespace

struct PmemAllocator::Header {
  std::uint64_t magic;
  std::uint32_t version;
  std::uint32_t reserved;
  POffset root;
  POffset bump;                    // next unreserved byte
  std::uint64_t bytes_in_use;      // live allocation payload bytes
  POffset free_list[kNumClasses];  // heads of size-class free lists
  std::uint64_t seal;              // clean-shutdown seal (see header comment)
};

struct PmemAllocator::BlockHeader {
  std::uint32_t state;       // kBlockAllocated | kBlockFree
  std::uint32_t size_class;  // index into the class table
  std::uint64_t payload;     // requested payload size
  POffset next_free;         // link when on a free list
  std::uint64_t pad;         // keep payload 16-byte aligned (header = 32B)
};

PmemAllocator::PmemAllocator(PmemRegion region, bool format)
    : region_(std::move(region)) {
  static_assert(sizeof(BlockHeader) == 32);
  // The seal word occupies what was zero padding before the bump frontier
  // (136 -> align_up(136, 16) = 144), so pre-seal images reopen unchanged:
  // their seal reads 0 = unsealed, and every other field keeps its offset.
  static_assert(sizeof(Header) == 144);
  NVC_REQUIRE(region_.valid());
  if (format) {
    NVC_REQUIRE(region_.size() > sizeof(Header) + kCacheLineSize);
    Header* h = header();
    std::memset(h, 0, sizeof(Header));
    h->magic = kMagic;
    h->version = kVersion;
    h->root = kNullOffset;
    h->bump = align_up(sizeof(Header), kMinBlock);
    h->bytes_in_use = 0;
  } else {
    // The open path treats the file as untrusted input: a truncated or
    // foreign image is a diagnosable error, never an abort.
    if (region_.size() <= sizeof(Header) + kCacheLineSize) {
      throw std::runtime_error(
          "PmemAllocator: region too small to hold a heap (" +
          std::to_string(region_.size()) + " bytes)");
    }
    const HeaderStatus st = inspect(region_.base(), region_.size());
    if (!st.magic_ok) {
      throw std::runtime_error("PmemAllocator: region is not a nvcache heap");
    }
    if (!st.version_ok) {
      throw std::runtime_error(
          "PmemAllocator: heap layout version mismatch (found " +
          std::to_string(st.version) + ", want " + std::to_string(kVersion) +
          ")");
    }
    if (st.seal_valid) seal_gen_ = st.seal_gen;
  }
}

PmemAllocator::Header* PmemAllocator::header() const {
  return static_cast<Header*>(region_.base());
}

PmemAllocator::BlockHeader* PmemAllocator::block_at(POffset offset) const {
  NVC_ASSERT(offset >= sizeof(Header) + sizeof(BlockHeader));
  return static_cast<BlockHeader*>(
      region_.at(offset - sizeof(BlockHeader)));
}

std::size_t PmemAllocator::class_for(std::size_t size) {
  std::size_t cls = 0;
  std::size_t block = kMinBlock;
  while (block < size && cls + 1 < kNumClasses) {
    block <<= 1;
    ++cls;
  }
  return block >= size ? cls : kNumClasses;  // kNumClasses => oversized
}

std::size_t PmemAllocator::class_block_size(std::size_t cls) {
  return kMinBlock << cls;
}

POffset PmemAllocator::allocate(std::size_t size) {
  if (size == 0) size = 1;
  Header* h = header();
  const std::size_t cls = class_for(size);

  // Fast path: reuse a block from the size-class free list.
  if (cls < kNumClasses && h->free_list[cls] != kNullOffset) {
    const POffset off = h->free_list[cls];
    BlockHeader* b = block_at(off);
    NVC_ASSERT(b->state == kBlockFree);
    h->free_list[cls] = b->next_free;
    b->state = kBlockAllocated;
    b->payload = size;
    b->next_free = kNullOffset;
    h->bytes_in_use += size;
    return off;
  }

  // Slow path: bump-allocate a fresh block. Payloads are cache-line aligned
  // so persistent objects never straddle lines gratuitously (and alignas(64)
  // members work); recycled blocks keep the alignment they were created
  // with.
  const std::size_t payload_capacity =
      cls < kNumClasses ? class_block_size(cls) : align_up(size, kMinBlock);
  const std::size_t total = sizeof(BlockHeader) + payload_capacity;
  const POffset start =
      align_up(h->bump + sizeof(BlockHeader), kCacheLineSize) -
      sizeof(BlockHeader);
  if (start + total > region_.size()) return kNullOffset;  // region exhausted
  h->bump = start + total;

  auto* b = static_cast<BlockHeader*>(region_.at(start));
  b->state = kBlockAllocated;
  b->size_class =
      cls < kNumClasses ? static_cast<std::uint32_t>(cls) : ~0u;
  b->payload = size;
  b->next_free = kNullOffset;
  b->pad = 0;
  h->bytes_in_use += size;
  return start + sizeof(BlockHeader);
}

void PmemAllocator::deallocate(POffset offset) {
  if (offset == kNullOffset) return;
  Header* h = header();
  BlockHeader* b = block_at(offset);
  NVC_REQUIRE(b->state == kBlockAllocated, "double free or corruption");
  h->bytes_in_use -= b->payload;
  b->state = kBlockFree;
  if (b->size_class != ~0u) {
    NVC_ASSERT(b->size_class < kNumClasses);
    b->next_free = h->free_list[b->size_class];
    h->free_list[b->size_class] = offset;
  }
  // Oversized blocks are not recycled; the experiments never churn them.
}

std::size_t PmemAllocator::block_size(POffset offset) const {
  const BlockHeader* b = block_at(offset);
  NVC_REQUIRE(b->state == kBlockAllocated);
  return b->size_class != ~0u ? class_block_size(b->size_class)
                              : align_up(b->payload, kMinBlock);
}

POffset PmemAllocator::root() const { return header()->root; }

void PmemAllocator::set_root(POffset offset) { header()->root = offset; }

std::size_t PmemAllocator::bytes_in_use() const {
  return header()->bytes_in_use;
}

std::size_t PmemAllocator::bytes_reserved() const { return header()->bump; }

std::uint64_t PmemAllocator::compute_seal(const void* header_bytes,
                                          std::uint32_t gen) {
  // CRC over the header image with the seal field zeroed (the seal cannot
  // cover itself); the generation in the high word keeps the whole seal
  // nonzero and distinguishes successive clean shutdowns for the scrubber's
  // stale-image detection.
  Header copy;
  std::memcpy(&copy, header_bytes, sizeof(copy));
  copy.seal = 0;
  const std::uint32_t crc = crc32c(&copy, sizeof(copy));
  return (static_cast<std::uint64_t>(gen) << 32) | crc;
}

std::uint64_t PmemAllocator::seal() {
  Header* h = header();
  ++seal_gen_;
  if (seal_gen_ == 0) seal_gen_ = 1;  // wrap: 0 is reserved for "never"
  h->seal = compute_seal(h, seal_gen_);
  return h->seal;
}

void PmemAllocator::unseal() {
  header()->seal = 0;
}

bool PmemAllocator::sealed_clean() const {
  const Header* h = header();
  if (h->seal == 0) return false;
  return h->seal == compute_seal(h, static_cast<std::uint32_t>(h->seal >> 32));
}

PmemAllocator::HeaderStatus PmemAllocator::inspect(const void* base,
                                                   std::size_t size) {
  HeaderStatus st;
  if (base == nullptr || size < sizeof(Header)) return st;
  Header h;
  std::memcpy(&h, base, sizeof(h));
  st.magic_ok = h.magic == kMagic;
  st.version = h.version;
  st.version_ok = h.version == kVersion;
  st.root = h.root;
  st.bump = h.bump;
  st.bump_plausible = h.bump >= align_up(sizeof(Header), kMinBlock) &&
                      h.bump <= size;
  st.sealed = h.seal != 0;
  if (st.sealed) {
    st.seal_gen = static_cast<std::uint32_t>(h.seal >> 32);
    st.seal_valid = h.seal == compute_seal(&h, st.seal_gen);
  }
  return st;
}

std::size_t PmemAllocator::version_offset() noexcept {
  return offsetof(Header, version);
}

std::size_t PmemAllocator::bump_offset() noexcept {
  return offsetof(Header, bump);
}

std::size_t PmemAllocator::seal_offset() noexcept {
  return offsetof(Header, seal);
}

std::size_t PmemAllocator::header_size() noexcept { return sizeof(Header); }

}  // namespace nvc::pmem
