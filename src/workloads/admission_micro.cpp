#include "workloads/admission_micro.hpp"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <string>

#include "common/assert.hpp"
#include "common/types.hpp"
#include "runtime/runtime.hpp"

namespace nvc::workloads {

namespace {

constexpr std::uint64_t kStreamPerFase = 64;  // never-reused lines per FASE
constexpr std::uint64_t kHotLines = 8;        // fits the default soft cache
constexpr std::uint64_t kReuseLines = 6;
constexpr std::uint64_t kReuseStoresPerFase = 128;

std::string unique_region_name() {
  static std::atomic<std::uint64_t> counter{0};
  char buf[64];
  std::snprintf(buf, sizeof(buf), "admit-micro-%d-%llu",
                static_cast<int>(::getpid()),
                static_cast<unsigned long long>(
                    counter.fetch_add(1, std::memory_order_relaxed)));
  return buf;
}

/// First 64-byte-aligned address inside an allocation of `lines` cache
/// lines plus alignment slack, so every 64-byte-strided store touches
/// exactly one line and the byte accounting is exact.
std::uint8_t* aligned_lines(runtime::Runtime& rt, std::uint64_t lines) {
  auto* raw = static_cast<std::uint8_t*>(
      rt.pm_alloc(lines * kCacheLineSize + kCacheLineSize));
  const auto addr = reinterpret_cast<std::uintptr_t>(raw);
  return raw + (align_up(addr, kCacheLineSize) - addr);
}

}  // namespace

const char* to_string(AdmissionWorkload workload) {
  switch (workload) {
    case AdmissionWorkload::kWriteOnceStream:
      return "stream";
    case AdmissionWorkload::kReuseHeavy:
      return "reuse";
  }
  NVC_UNREACHABLE("invalid AdmissionWorkload");
}

AdmissionMicroResult run_admission_micro(core::PolicyKind policy,
                                         core::AdmitMode admit,
                                         AdmissionWorkload workload,
                                         std::uint64_t fases) {
  NVC_REQUIRE(fases >= 1);
  runtime::RuntimeConfig config;
  config.region_name = unique_region_name();
  const std::uint64_t stream_lines = fases * kStreamPerFase;
  config.region_size = std::max<std::size_t>(
      std::size_t{1} << 20, (stream_lines + 64) * kCacheLineSize * 2);
  config.policy = policy;
  config.flush = pmem::FlushKind::kCountOnly;
  config.wear_tracking = true;
  config.policy_config.admission.mode = admit;
  if (policy == core::PolicyKind::kSoftCache) {
    // Online sampling, scaled so the first burst (and with it the kReuse
    // verdict) lands after two FASEs. The knee selection is capped at the
    // base capacity so the stall bound — not the cache — has to absorb the
    // stream: without the cap the online policy simply grows the cache past
    // the hot set's reuse distance and the admission dimension measures
    // nothing.
    config.policy_config.sampler.burst_length = 256;
    config.policy_config.sampler.knee.max_size = 8;
  }

  runtime::Runtime rt(config);
  {
    std::uint8_t* stream = aligned_lines(rt, stream_lines);
    std::uint8_t* hot = aligned_lines(rt, kHotLines);
    std::uint64_t next_stream = 0;
    const std::uint64_t value = 0x5ca1ab1eULL;

    for (std::uint64_t f = 0; f < fases; ++f) {
      runtime::FaseScope fase(rt);
      if (workload == AdmissionWorkload::kWriteOnceStream) {
        // One stream store between consecutive hot-line writes: each hot
        // line's reuse distance is 15 distinct lines, just past the
        // default capacity-8 soft cache, so under `always` the stream
        // turns the whole hot set into eviction churn.
        for (std::uint64_t step = 0; step < kStreamPerFase; ++step) {
          rt.pstore(stream + (next_stream++) * kCacheLineSize, &value,
                    sizeof(value));
          rt.pstore(hot + (step % kHotLines) * kCacheLineSize, &value,
                    sizeof(value));
        }
      } else {
        for (std::uint64_t step = 0; step < kReuseStoresPerFase; ++step) {
          rt.pstore(hot + (step % kReuseLines) * kCacheLineSize, &value,
                    sizeof(value));
        }
      }
    }
    rt.thread_flush();
  }

  const runtime::RuntimeStats s = rt.stats();
  AdmissionMicroResult r;
  r.fases = s.fases;
  r.stores = s.stores;
  r.bypassed = s.bypassed_stores;
  r.media_line_writes = s.media_line_writes;
  r.media_bytes = s.media_bytes_written;
  r.wear_max_line_writes = s.wear_max_line_writes;
  r.wear_leveling_skew = s.wear_leveling_skew;
  r.bytes_per_fase =
      static_cast<double>(r.media_bytes) / static_cast<double>(fases);
  rt.destroy_storage();
  return r;
}

}  // namespace nvc::workloads
