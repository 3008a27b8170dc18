// Layer replays for the traced run: the core policy and burst analyzer are
// timed on the recorded store stream, away from the runtime around them,
// and the per-line cost of a pmem write-back is timed on its own.
#include <cstdlib>
#include <cstring>

#include "bench.hpp"
#include "core/policy.hpp"
#include "core/sampler.hpp"

namespace nvc::e2e {

namespace {

bool is_store(std::uint64_t event) { return (event & Recorder::kBegin) == 0; }

}  // namespace

double replay_policy_ns(const Recorder& recorder,
                        const core::PolicyConfig& config) {
  std::vector<double> samples;
  for (int rep = 0; rep < 3; ++rep) {
    auto policy = core::make_policy(core::PolicyKind::kSoftCache, config);
    core::CountingSink sink;
    const auto t0 = ticks();
    for (const std::uint64_t event : recorder.events()) {
      if (is_store(event)) {
        policy->on_store(event, sink);
      } else if (event == Recorder::kBegin) {
        policy->on_fase_begin(sink);
      } else if (event == Recorder::kEnd) {
        policy->on_fase_end(sink);
      } else {
        policy->flush_buffered(sink);
      }
    }
    policy->finish(sink);
    const double ns = seconds_since(t0) * 1e9;
    const std::uint64_t stores = policy->counters().stores;
    samples.push_back(stores == 0 ? 0.0 : ns / static_cast<double>(stores));
  }
  return percentile(std::move(samples), 50.0);
}

double analyze_burst_ms(const Recorder& recorder,
                        const core::SamplerConfig& sampler) {
  // The burst the live sampler takes: the first burst_length stores after
  // skip_fases FASE ends.
  std::vector<LineAddr> burst;
  std::vector<std::size_t> boundaries;
  std::uint32_t ends_seen = 0;
  for (const std::uint64_t event : recorder.events()) {
    if (burst.size() == sampler.burst_length) break;
    if (is_store(event)) {
      if (ends_seen >= sampler.skip_fases) burst.push_back(event);
    } else if (event == Recorder::kEnd || event == Recorder::kBarrier) {
      if (event == Recorder::kEnd) ++ends_seen;
      if (!burst.empty()) boundaries.push_back(burst.size());
    }
  }
  if (burst.empty()) return 0.0;
  std::vector<double> samples;
  for (int rep = 0; rep < 5; ++rep) {
    core::Mrc mrc;
    const auto t0 = ticks();
    core::BurstSampler::analyze_offline(burst, boundaries, sampler.knee, &mrc);
    samples.push_back(seconds_since(t0) * 1e3);
  }
  return percentile(std::move(samples), 50.0);
}

double flush_line_ns(pmem::FlushKind kind, std::uint32_t simulated_ns) {
  constexpr std::size_t kLines = 4096;
  auto* lines = static_cast<char*>(
      std::aligned_alloc(kCacheLineSize, kLines * kCacheLineSize));
  NVC_REQUIRE(lines != nullptr);
  pmem::FlushBackend backend(kind, simulated_ns);
  std::vector<double> samples;
  for (int rep = 0; rep < 5; ++rep) {
    std::memset(lines, rep, kLines * kCacheLineSize);  // dirty every line
    const auto t0 = ticks();
    for (std::size_t i = 0; i < kLines; ++i) {
      backend.flush(lines + i * kCacheLineSize);
    }
    backend.fence();
    samples.push_back(seconds_since(t0) * 1e9 / kLines);
  }
  std::free(lines);
  return percentile(std::move(samples), 50.0);
}

}  // namespace nvc::e2e
