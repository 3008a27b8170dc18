#include "core/sampler.hpp"

#include "common/assert.hpp"

namespace nvc::core {

BurstSampler::BurstSampler(SamplerConfig config)
    : config_(config), fases_to_skip_(config.skip_fases) {
  NVC_REQUIRE(config_.burst_length >= 2, "a burst must contain reuses");
  NVC_REQUIRE(!config_.async_analysis,
              "burst analysis runs only on the storing thread");
  burst_trace_.reserve(static_cast<std::size_t>(config_.burst_length));
}

void BurstSampler::on_fase_boundary() {
  if (fases_to_skip_ > 0) {
    --fases_to_skip_;
    return;
  }
  if (sampling_) renamer_.fase_boundary();
}

std::optional<std::size_t> BurstSampler::on_store(LineAddr line) {
  if (fases_to_skip_ > 0) {
    // Warmup: don't record, but give up skipping if no FASE boundary shows
    // up within a few bursts worth of writes (single-FASE programs).
    if (++warmup_writes_ >= 4 * config_.burst_length) fases_to_skip_ = 0;
    return std::nullopt;
  }
  if (!sampling_) {
    if (config_.hibernation_length == 0) return std::nullopt;  // forever
    if (++hibernated_ < config_.hibernation_length) return std::nullopt;
    start_burst();
  }
  burst_trace_.push_back(renamer_.rename(line));
  if (burst_trace_.size() >= config_.burst_length) return finish_burst();
  return std::nullopt;
}

void BurstSampler::start_burst() {
  sampling_ = true;
  hibernated_ = 0;
  renamer_.reset();
  burst_trace_.clear();
  // The buffer was released at burst end (shrink_to_fit); re-reserve so the
  // burst doesn't re-grow from capacity 0 through repeated reallocation.
  burst_trace_.reserve(static_cast<std::size_t>(config_.burst_length));
}

bool BurstSampler::resample() {
  if (!dormant()) return false;
  start_burst();
  return true;
}

std::size_t BurstSampler::finish_burst() {
  sampling_ = false;
  BurstAnalysis analysis = analyze_burst(burst_trace_, config_.knee);
  last_mrc_ = std::move(analysis.mrc);
  last_exact_mrc_ = std::move(analysis.exact);
  last_selection_ = analysis.selection;
  ++bursts_;
  burst_trace_.clear();
  burst_trace_.shrink_to_fit();
  return last_selection_.chosen_size;
}

KneeResult BurstSampler::analyze_offline(
    const std::vector<LineAddr>& trace,
    const std::vector<std::size_t>& boundaries, const KneeConfig& knee,
    Mrc* mrc_out, Mrc* exact_out) {
  NVC_REQUIRE(!trace.empty());
  const std::vector<LineAddr> renamed = rename_trace(trace, boundaries);
  BurstAnalysis analysis = analyze_burst(renamed, knee);
  if (mrc_out != nullptr) *mrc_out = std::move(analysis.mrc);
  if (exact_out != nullptr) *exact_out = std::move(analysis.exact);
  return analysis.selection;
}

}  // namespace nvc::core
