#include "workloads/policy_micro.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>

#include "common/assert.hpp"
#include "common/types.hpp"

namespace nvc::workloads {

namespace {

constexpr std::uint64_t kStreamPerFase = 64;  // lines per FASE, none reused
constexpr std::uint64_t kHotLines = 8;        // fits the default soft cache
constexpr std::uint64_t kReuseLines = 6;
constexpr std::uint64_t kReuseStoresPerFase = 128;

std::string unique_region_name() {
  static std::atomic<std::uint64_t> counter{0};
  char buf[64];
  std::snprintf(buf, sizeof(buf), "policy-micro-%d-%llu",
                static_cast<int>(::getpid()),
                static_cast<unsigned long long>(
                    counter.fetch_add(1, std::memory_order_relaxed)));
  return buf;
}

/// First 64-byte-aligned address inside an allocation of `lines` cache
/// lines plus alignment slack, so every 64-byte-strided store touches
/// exactly one line and the line accounting is exact.
std::uint8_t* aligned_lines(runtime::Runtime& rt, std::uint64_t lines) {
  auto* raw = static_cast<std::uint8_t*>(
      rt.pm_alloc(lines * kCacheLineSize + kCacheLineSize));
  const auto addr = reinterpret_cast<std::uintptr_t>(raw);
  return raw + (align_up(addr, kCacheLineSize) - addr);
}

runtime::RuntimeConfig micro_config(core::PolicyKind policy,
                                    std::uint64_t stream_lines) {
  runtime::RuntimeConfig config;
  config.region_name = unique_region_name();
  config.region_size = std::max<std::size_t>(
      std::size_t{1} << 20, (stream_lines + 64) * kCacheLineSize * 2);
  config.policy = policy;
  config.flush = pmem::FlushKind::kCountOnly;
  if (policy == core::PolicyKind::kSoftCache) {
    // Online sampling, scaled so the first burst lands after two FASEs.
    // The knee selection is capped at the base capacity: without the cap
    // the online policy grows the cache past the hot set's reuse distance
    // and the stream shape prices the sampler instead of the cache.
    config.policy_config.sampler.burst_length = 256;
    config.policy_config.sampler.knee.max_size = 8;
  }
  return config;
}

}  // namespace

const char* to_string(PolicyMicroShape shape) {
  switch (shape) {
    case PolicyMicroShape::kStream:
      return "stream";
    case PolicyMicroShape::kReuse:
      return "reuse";
  }
  NVC_UNREACHABLE("invalid PolicyMicroShape");
}

PolicyMicro::PolicyMicro(core::PolicyKind policy, PolicyMicroShape shape,
                         std::uint64_t stream_fases)
    : shape_(shape),
      stream_lines_(stream_fases * kStreamPerFase),
      rt_(micro_config(policy, stream_lines_)),
      stream_(aligned_lines(rt_, stream_lines_)),
      hot_(aligned_lines(rt_, kHotLines)) {
  NVC_REQUIRE(stream_fases >= 1);
}

PolicyMicro::~PolicyMicro() { rt_.destroy_storage(); }

void PolicyMicro::replay(std::uint64_t fases) {
  const std::uint64_t value = 0x5ca1ab1eULL;
  for (std::uint64_t f = 0; f < fases; ++f) {
    runtime::FaseScope fase(rt_);
    if (shape_ == PolicyMicroShape::kStream) {
      // One stream store between consecutive hot-line writes: each hot
      // line's reuse distance is 15 distinct lines, just past the
      // default capacity-8 soft cache, so the stream turns the whole
      // hot set into eviction churn.
      for (std::uint64_t step = 0; step < kStreamPerFase; ++step) {
        rt_.pstore(stream_ + next_stream_ * kCacheLineSize, &value,
                   sizeof(value));
        next_stream_ = (next_stream_ + 1) % stream_lines_;
        rt_.pstore(hot_ + (step % kHotLines) * kCacheLineSize, &value,
                   sizeof(value));
      }
    } else {
      for (std::uint64_t step = 0; step < kReuseStoresPerFase; ++step) {
        rt_.pstore(hot_ + (step % kReuseLines) * kCacheLineSize, &value,
                   sizeof(value));
      }
    }
  }
}

PolicyMicroResult PolicyMicro::finish() {
  rt_.thread_flush();
  const runtime::RuntimeStats s = rt_.stats();
  PolicyMicroResult r;
  r.fases = s.fases;
  r.stores = s.stores;
  r.line_writes = s.flushes;
  return r;
}

PolicyMicroResult run_policy_micro(core::PolicyKind policy,
                                   PolicyMicroShape shape,
                                   std::uint64_t fases) {
  PolicyMicro micro(policy, shape, fases);
  micro.replay(fases);
  return micro.finish();
}

}  // namespace nvc::workloads
