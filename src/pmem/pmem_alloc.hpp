// A persistent heap allocator over a PmemRegion, in the spirit of Makalu
// (Bhandari et al., OOPSLA'16), scoped to what the experiments need:
//
//  * position-independent: all metadata is stored as region offsets, so a
//    region can be re-mapped at a different base address and re-opened;
//  * size-class segregated free lists with an append-only bump frontier;
//  * a root-object slot so recovery can find the application's data;
//  * a magic/version header so open() can reject foreign files.
//
// The allocator itself is NOT failure-atomic; the FASE runtime provides
// atomicity by logging. This matches Atlas, where allocation durability is
// the job of the persistent allocator and consistency the job of FASEs.
#pragma once

#include <cstddef>
#include <cstdint>

#include "pmem/pmem_region.hpp"

namespace nvc::pmem {

/// Offset-based persistent pointer. 0 is the null offset.
using POffset = std::uint64_t;
inline constexpr POffset kNullOffset = 0;

class PmemAllocator {
 public:
  /// Format a fresh region as a heap.
  explicit PmemAllocator(PmemRegion region, bool format);

  PmemAllocator(PmemAllocator&&) = default;
  PmemAllocator& operator=(PmemAllocator&&) = default;

  /// Allocate `size` bytes (16-byte aligned). Returns kNullOffset when the
  /// region is exhausted.
  POffset allocate(std::size_t size);

  /// Return a block to its size-class free list.
  void deallocate(POffset offset);

  /// Usable size of an allocated block (>= requested size).
  std::size_t block_size(POffset offset) const;

  /// Root-object offset: the durable entry point for recovery.
  POffset root() const;
  void set_root(POffset offset);

  /// Resolve an offset to a live pointer in this mapping.
  template <typename T = void>
  T* resolve(POffset offset) const {
    return offset == kNullOffset ? nullptr
                                 : static_cast<T*>(region_.at(offset));
  }

  /// Offset of a pointer previously returned by resolve/allocate.
  POffset offset_of(const void* p) const { return region_.offset_of(p); }

  PmemRegion& region() noexcept { return region_; }
  const PmemRegion& region() const noexcept { return region_; }

  /// Bytes handed out minus bytes freed (for tests and leak accounting).
  std::size_t bytes_in_use() const;

  /// Total bytes consumed from the bump frontier.
  std::size_t bytes_reserved() const;

  // Clean-shutdown seal (DESIGN.md §14). The header ends in one 8-byte seal
  // word: 0 = unsealed (heap in use, or a crash interrupted a session);
  // nonzero = (seal_generation << 32) | CRC32C of the header bytes with the
  // seal field zeroed. Writing it is a single aligned 8-byte store, atomic
  // with respect to power failure: a cut mid-seal leaves either the old
  // word (image reads as dirty — safe) or the new one (header was already
  // quiescent — also safe); no torn state can fake a clean image whose
  // header bytes don't match the checksum. Callers flush the header line
  // through their own sink; the allocator only mutates the mapping.

  /// Write the seal word (bumping the seal generation). Call only when the
  /// heap is quiescent; returns the word written.
  std::uint64_t seal();
  /// Clear the seal word (first mutation of a session does this before any
  /// other header byte changes).
  void unseal();
  /// True when the seal word is present and its checksum matches the
  /// current header bytes.
  bool sealed_clean() const;
  /// Generation of the last valid seal seen at open (0 = never sealed).
  std::uint32_t seal_generation() const noexcept { return seal_gen_; }

  /// Untrusted read of a raw region's heap header: never throws, aborts, or
  /// reads outside [base, base+size). The salvage pipeline's first stage.
  struct HeaderStatus {
    bool magic_ok = false;
    bool version_ok = false;
    bool sealed = false;          // nonzero seal word present
    bool seal_valid = false;      // ...and its CRC matches the header bytes
    bool bump_plausible = false;  // frontier lands inside the region
    std::uint32_t version = 0;
    std::uint32_t seal_gen = 0;
    std::uint64_t root = 0;
    std::uint64_t bump = 0;
  };
  static HeaderStatus inspect(const void* base, std::size_t size);

  static constexpr std::uint64_t kMagic = 0x4e56434148454150ULL;  // "NVCAHEAP"
  static constexpr std::uint32_t kVersion = 1;
  static constexpr std::size_t kNumClasses = 12;  // 16B .. 32KiB
  static constexpr std::size_t kMinBlock = 16;
  /// Region offsets of the header fields recovery validates (the image
  /// corruptor targets them; the magic is the first word).
  static std::size_t version_offset() noexcept;
  static std::size_t bump_offset() noexcept;
  static std::size_t seal_offset() noexcept;
  static std::size_t header_size() noexcept;

 private:
  struct Header;       // region-resident superblock
  struct BlockHeader;  // per-allocation header

  Header* header() const;
  BlockHeader* block_at(POffset offset) const;
  static std::size_t class_for(std::size_t size);
  static std::size_t class_block_size(std::size_t cls);
  static std::uint64_t compute_seal(const void* header_bytes,
                                    std::uint32_t gen);

  PmemRegion region_;
  std::uint32_t seal_gen_ = 0;
};

}  // namespace nvc::pmem
