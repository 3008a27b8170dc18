#include "pmem/flush.hpp"

#include <chrono>
#include <cstring>

#include "common/assert.hpp"
#include "common/cpu.hpp"

namespace nvc::pmem {

namespace {

#if defined(__x86_64__)
inline void do_clflush(const void* p) noexcept {
  asm volatile("clflush %0"
               : "+m"(*static_cast<volatile char*>(const_cast<void*>(p))));
}
inline void do_clflushopt(const void* p) noexcept {
  asm volatile("clflushopt %0"
               : "+m"(*static_cast<volatile char*>(const_cast<void*>(p))));
}
inline void do_clwb(const void* p) noexcept {
  asm volatile("clwb %0"
               : "+m"(*static_cast<volatile char*>(const_cast<void*>(p))));
}
inline void do_sfence() noexcept { asm volatile("sfence" ::: "memory"); }
#else
inline void do_clflush(const void*) noexcept {}
inline void do_clflushopt(const void*) noexcept {}
inline void do_clwb(const void*) noexcept {}
inline void do_sfence() noexcept {
  std::atomic_thread_fence(std::memory_order_seq_cst);
}
#endif

inline void spin_ns(std::uint32_t ns) noexcept {
  const auto start = std::chrono::steady_clock::now();
  while (std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - start)
             .count() < ns) {
    // busy wait: models a synchronous flush-to-NVRAM latency
  }
}

}  // namespace

FlushKind default_flush_kind() {
#if defined(__x86_64__)
  if (cpu_features().clflush) return FlushKind::kClflush;
#endif
  return FlushKind::kSimulated;
}

FlushKind parse_flush_kind(const char* name) {
  if (name == nullptr) return default_flush_kind();
  if (std::strcmp(name, "clflush") == 0) return FlushKind::kClflush;
  if (std::strcmp(name, "clflushopt") == 0) return FlushKind::kClflushopt;
  if (std::strcmp(name, "clwb") == 0) return FlushKind::kClwb;
  if (std::strcmp(name, "sim") == 0) return FlushKind::kSimulated;
  if (std::strcmp(name, "count") == 0) return FlushKind::kCountOnly;
  return default_flush_kind();
}

const char* to_string(FlushKind kind) {
  switch (kind) {
    case FlushKind::kClflush:
      return "clflush";
    case FlushKind::kClflushopt:
      return "clflushopt";
    case FlushKind::kClwb:
      return "clwb";
    case FlushKind::kSimulated:
      return "sim";
    case FlushKind::kCountOnly:
      return "count";
  }
  NVC_UNREACHABLE("invalid FlushKind");
}

FlushBackend::FlushBackend(FlushKind kind, std::uint32_t simulated_latency_ns)
    : kind_(kind), simulated_latency_ns_(simulated_latency_ns) {
  // Downgrade unavailable hardware instructions to the simulated backend so
  // that a configuration string never silently produces no-op flushes.
  const auto& f = cpu_features();
  const bool ok = (kind_ == FlushKind::kSimulated) ||
                  (kind_ == FlushKind::kCountOnly) ||
                  (kind_ == FlushKind::kClflush && f.clflush) ||
                  (kind_ == FlushKind::kClflushopt && f.clflushopt) ||
                  (kind_ == FlushKind::kClwb && f.clwb);
  if (!ok) kind_ = FlushKind::kSimulated;
}

void FlushBackend::write_back(const void* addr, bool spin) noexcept {
  ++flushes_;
  if (medium_ != nullptr) {
    medium_->write_back(addr);
    return;
  }
  switch (kind_) {
    case FlushKind::kClflush:
      do_clflush(addr);
      break;
    case FlushKind::kClflushopt:
      do_clflushopt(addr);
      break;
    case FlushKind::kClwb:
      do_clwb(addr);
      break;
    case FlushKind::kSimulated:
      if (spin) spin_ns(simulated_latency_ns_);
      break;
    case FlushKind::kCountOnly:
      break;
  }
}

void FlushBackend::flush(const void* addr) noexcept {
  write_back(addr, /*spin=*/true);
}

void FlushBackend::issue(const void* addr) noexcept {
  write_back(addr, /*spin=*/false);
}

void FlushBackend::flush_range(const void* addr, std::size_t size) noexcept {
  if (size == 0) return;
  auto first = reinterpret_cast<std::uintptr_t>(addr) & ~(kCacheLineSize - 1);
  const auto last = reinterpret_cast<std::uintptr_t>(addr) + size - 1;
  for (std::uintptr_t line = first; line <= last; line += kCacheLineSize) {
    flush(reinterpret_cast<const void*>(line));
  }
}

void FlushBackend::fence() noexcept {
  ++fences_;
  if (medium_ != nullptr) {
    medium_->fence();
    return;
  }
  if (kind_ == FlushKind::kCountOnly) return;
  do_sfence();
}

}  // namespace nvc::pmem
