#include "pmem/pmem_region.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "common/assert.hpp"
#include "common/env.hpp"

namespace nvc::pmem {

namespace {

std::string region_path(const std::string& name) {
  return region_dir() + "/nvcache." + name + ".pmem";
}

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

}  // namespace

std::string region_dir() {
  std::string dir = env_str("NVC_PMEM_DIR", "");
  if (!dir.empty()) return dir;
  struct stat st {};
  if (::stat("/dev/shm", &st) == 0 && S_ISDIR(st.st_mode)) return "/dev/shm";
  return "/tmp";
}

PmemRegion PmemRegion::create(const std::string& name, std::size_t size) {
  NVC_REQUIRE(size > 0);
  const std::string path = region_path(name);
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0600);
  if (fd < 0) throw_errno("PmemRegion::create open " + path);
  if (::ftruncate(fd, static_cast<off_t>(size)) != 0) {
    ::close(fd);
    throw_errno("PmemRegion::create ftruncate " + path);
  }
  void* base =
      ::mmap(nullptr, size, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);
  if (base == MAP_FAILED) throw_errno("PmemRegion::create mmap " + path);
  return PmemRegion(name, path, base, size);
}

PmemRegion PmemRegion::open(const std::string& name) {
  const std::string path = region_path(name);
  const int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) throw_errno("PmemRegion::open " + path);
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    throw_errno("PmemRegion::open fstat " + path);
  }
  if (st.st_size <= 0) {
    // Not an OS error (errno is stale here): the backing file was truncated
    // to nothing — a corrupt image, reported as such rather than crashing
    // in mmap or in a later header read.
    ::close(fd);
    throw std::runtime_error("PmemRegion::open " + path +
                             ": region file is empty (truncated image?)");
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  void* base =
      ::mmap(nullptr, size, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);
  if (base == MAP_FAILED) throw_errno("PmemRegion::open mmap " + path);
  return PmemRegion(name, path, base, size);
}

bool PmemRegion::exists(const std::string& name) {
  struct stat st {};
  return ::stat(region_path(name).c_str(), &st) == 0;
}

void PmemRegion::destroy(const std::string& name) {
  ::unlink(region_path(name).c_str());
}

PmemRegion PmemRegion::borrow(void* base, std::size_t size) {
  NVC_REQUIRE(base != nullptr && size > 0);
  return PmemRegion("", "", base, size);
}

PmemRegion::PmemRegion(PmemRegion&& other) noexcept
    : name_(std::move(other.name_)), path_(std::move(other.path_)),
      base_(std::exchange(other.base_, nullptr)),
      size_(std::exchange(other.size_, 0)) {}

PmemRegion& PmemRegion::operator=(PmemRegion&& other) noexcept {
  if (this != &other) {
    unmap();
    name_ = std::move(other.name_);
    path_ = std::move(other.path_);
    base_ = std::exchange(other.base_, nullptr);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

PmemRegion::~PmemRegion() { unmap(); }

std::uint64_t PmemRegion::offset_of(const void* p) const noexcept {
  NVC_ASSERT(contains(p));
  return static_cast<std::uint64_t>(static_cast<const char*>(p) -
                                    static_cast<const char*>(base_));
}

void* PmemRegion::at(std::uint64_t offset) const noexcept {
  NVC_ASSERT(offset < size_);
  return static_cast<char*>(base_) + offset;
}

bool PmemRegion::contains(const void* p) const noexcept {
  const auto* c = static_cast<const char*>(p);
  const auto* b = static_cast<const char*>(base_);
  return base_ != nullptr && c >= b && c < b + size_;
}

void PmemRegion::sync() const {
  if (base_ != nullptr) ::msync(base_, size_, MS_SYNC);
}

void PmemRegion::close_and_destroy() {
  const std::string path = path_;
  unmap();
  if (!path.empty()) ::unlink(path.c_str());
}

void PmemRegion::unmap() noexcept {
  if (base_ != nullptr) {
    if (!path_.empty()) ::munmap(base_, size_);  // borrowed views have none
    base_ = nullptr;
    size_ = 0;
  }
}

}  // namespace nvc::pmem
