// DRAM-emulated persistent memory regions, following the paper's emulation
// methodology (Section IV-A): a file on tmpfs is memory-mapped MAP_SHARED into
// the process. Data in tmpfs survives process termination, so the mapping
// behaves as directly mapped, byte-addressable persistent memory across
// process lifetimes (though not across host power loss — exactly as in the
// paper's emulator).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/types.hpp"

namespace nvc::pmem {

/// Directory used for region backing files; NVC_PMEM_DIR overrides, default
/// is /dev/shm (tmpfs) falling back to /tmp.
std::string region_dir();

/// RAII owner of one mmap'ed persistent region.
class PmemRegion {
 public:
  /// Create (or truncate) a region file of `size` bytes and map it.
  static PmemRegion create(const std::string& name, std::size_t size);

  /// Map an existing region file; size is taken from the file.
  static PmemRegion open(const std::string& name);

  /// Whether a region file with this name exists (used by recovery).
  static bool exists(const std::string& name);

  /// Remove a region's backing file without mapping it.
  static void destroy(const std::string& name);

  /// Non-owning view of `size` bytes at `base` that some other owner keeps
  /// alive (a crash medium's image): never unmapped, no backing file.
  static PmemRegion borrow(void* base, std::size_t size);

  PmemRegion() = default;
  PmemRegion(PmemRegion&& other) noexcept;
  PmemRegion& operator=(PmemRegion&& other) noexcept;
  PmemRegion(const PmemRegion&) = delete;
  PmemRegion& operator=(const PmemRegion&) = delete;
  ~PmemRegion();

  bool valid() const noexcept { return base_ != nullptr; }
  void* base() const noexcept { return base_; }
  std::size_t size() const noexcept { return size_; }
  const std::string& name() const noexcept { return name_; }
  const std::string& path() const noexcept { return path_; }

  /// Byte offset of a pointer inside the region (for position-independent
  /// persistent pointers).
  std::uint64_t offset_of(const void* p) const noexcept;

  /// Pointer at a byte offset.
  void* at(std::uint64_t offset) const noexcept;

  /// True if p points inside [base, base+size).
  bool contains(const void* p) const noexcept;

  /// msync the whole region (heavyweight durability point; used at clean
  /// shutdown, not on the store path).
  void sync() const;

  /// Unmap and delete the backing file.
  void close_and_destroy();

 private:
  PmemRegion(std::string name, std::string path, void* base, std::size_t size)
      : name_(std::move(name)), path_(std::move(path)), base_(base),
        size_(size) {}

  void unmap() noexcept;

  std::string name_;
  std::string path_;
  void* base_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace nvc::pmem
