#include "core/sampler.hpp"

#include "common/assert.hpp"

namespace nvc::core {

BurstSampler::BurstSampler(SamplerConfig config)
    : config_(config), fases_to_skip_(config.skip_fases) {
  NVC_REQUIRE(config_.burst_length >= 2, "a burst must contain reuses");
  if (config_.manual_analysis) config_.async_analysis = true;
  burst_trace_.reserve(static_cast<std::size_t>(config_.burst_length));
  if (config_.async_analysis) {
    channel_ = config_.manual_analysis
                   ? AnalysisWorker::shared().open_manual_channel()
                   : AnalysisWorker::shared().open_channel();
  }
}

BurstSampler::~BurstSampler() {
  if (channel_) channel_->close();
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
    if (++hibernated_ >= config_.hibernation_length) {
      // Don't start a new burst while the previous one is still being
      // analyzed in the background; keep hibernating until it lands.
      if (channel_ && !channel_->idle()) return std::nullopt;
      start_burst();
    } else {
      return std::nullopt;
    }
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
  // The buffer was released at burst end (shrink_to_fit / move into the
  // analysis channel); re-reserve so the burst doesn't re-grow from
  // capacity 0 through repeated reallocation.
  burst_trace_.reserve(static_cast<std::size_t>(config_.burst_length));
}

bool BurstSampler::resample() {
  if (!dormant() || analysis_in_flight()) return false;
  start_burst();
  return true;
}

void BurstSampler::apply_analysis(BurstAnalysis&& analysis) {
  last_mrc_ = std::move(analysis.mrc);
  last_exact_mrc_ = std::move(analysis.exact);
  last_selection_ = analysis.selection;
}

std::optional<std::size_t> BurstSampler::finish_burst() {
  sampling_ = false;
  if (channel_ && channel_->submit(std::move(burst_trace_), config_.knee)) {
    // O(1) handoff: the analysis runs on the worker; the current cache size
    // stays in effect until the selection is polled at a FASE boundary.
    // (burst_trace_ is moved-from; on_store re-reserves when re-sampling.)
    burst_trace_ = {};
    return std::nullopt;
  }
  // Synchronous mode — or the async ring was full (only possible with very
  // short hibernation), in which case the burst is analyzed in place rather
  // than dropped.
  BurstAnalysis analysis = analyze_burst(burst_trace_, config_.knee);
  apply_analysis(std::move(analysis));
  ++bursts_;
  burst_trace_.clear();
  burst_trace_.shrink_to_fit();
  return last_selection_.chosen_size;
}

std::optional<std::size_t> BurstSampler::poll_selection() {
  if (!channel_) return std::nullopt;
  const std::uint64_t done = channel_->completed();
  if (done == results_consumed_) return std::nullopt;
  if (auto result = channel_->take_result()) {
    apply_analysis(std::move(*result));
  }
  // Count every completed analysis even if a newer result overwrote an
  // unpolled older one (bursts_ tracks analyses, not polls).
  bursts_ += done - results_consumed_;
  results_consumed_ = done;
  return last_selection_.chosen_size;
}

void BurstSampler::drain() {
  if (channel_) channel_->drain();
}

bool BurstSampler::pump_analysis() {
  return channel_ && channel_->manual() && channel_->pump_one();
}

bool BurstSampler::analysis_in_flight() const {
  return channel_ && !channel_->idle();
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
