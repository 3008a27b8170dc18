// Online MRC analysis by bursty sampling (paper Section III-C).
//
// Execution is split into bursts and hibernation periods. During a burst the
// sampler records the FASE-renamed persistent-write trace; at burst end it
// runs the linear-time reuse analysis, converts to an MRC, and selects a
// cache size. The paper uses one 64M-write burst and an infinite hibernation
// ("we found it is sufficient to analyze MRC just once"); both knobs are
// configurable here, including periodic re-sampling for phase-changing
// programs (listed as future work in the paper, implemented here as an
// extension). With forever-hibernation the SC policy can also ask for one
// more burst on demand (resample()) when its own flush counter contradicts
// the MRC (DESIGN.md §5).
//
// The analysis runs inside the on_store() that completes the burst, on the
// storing thread, and the selection is returned from that call: one
// deterministic decision path for SC, the accuracy experiments (Fig. 7/8)
// and the crash fuzzers (DESIGN.md §6).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/analyzer.hpp"
#include "core/fase_trace.hpp"
#include "core/knee.hpp"
#include "core/mrc.hpp"
#include "core/reuse_locality.hpp"

namespace nvc::core {

struct SamplerConfig {
  /// Writes per burst. Paper: 64M; defaults here are scaled so the quick
  /// benchmarks sample meaningfully.
  std::uint64_t burst_length = 1u << 20;
  /// Writes to hibernate between bursts; 0 = hibernate forever after the
  /// first burst (the paper's configuration).
  std::uint64_t hibernation_length = 0;
  /// Warmup skipping: delay the first burst until this many FASE boundaries
  /// have passed (initialization writes usually all sit in the first FASE
  /// and have a different working set than steady state). Bounded: if no
  /// boundary arrives within one burst worth of writes, sampling starts
  /// anyway (after four bursts worth of writes), so single-FASE programs
  /// still get analyzed. 0 = the paper's sample-from-the-start behavior.
  std::uint32_t skip_fases = 0;
  /// Must stay false: BurstSampler refuses true. Burst analysis always runs
  /// on the storing thread (see file comment). The field is kept only
  /// because the end-to-end benchmark's source assigns it; the next change
  /// to that benchmark deletes this field together with the assignment.
  bool async_analysis = false;
  KneeConfig knee;
};

class BurstSampler {
 public:
  explicit BurstSampler(SamplerConfig config = {});

  BurstSampler(const BurstSampler&) = delete;
  BurstSampler& operator=(const BurstSampler&) = delete;

  /// Observe one persistent write. Returns the newly selected cache size
  /// when this write completes a burst (the analysis ran in this call).
  std::optional<std::size_t> on_store(LineAddr line);

  /// Observe a FASE boundary (needed for the renaming transform).
  void on_fase_boundary();

  /// Start one more burst now, without a warmup skip. Works only on a
  /// dormant sampler: false, and nothing changes, otherwise. The burst
  /// ends as any other — on_store() returns its selection — and the sampler
  /// is dormant again afterwards.
  bool resample();

  bool sampling() const noexcept { return sampling_; }
  /// True when on_store() ignores stores for good: the first burst is over
  /// (sampling() stays true through the warmup skip) and hibernation is
  /// forever (length 0) rather than counted. Only a dormant sampler lets SC
  /// count a repeat store without observing it (DESIGN.md §5 item 5).
  bool dormant() const noexcept {
    return !sampling_ && config_.hibernation_length == 0;
  }
  std::uint64_t burst_length() const noexcept { return config_.burst_length; }

  /// Reserved capacity of the burst trace buffer (test hook for the
  /// hibernation re-reserve behavior).
  std::size_t trace_capacity() const noexcept {
    return burst_trace_.capacity();
  }

  /// Results of the most recent completed burst (empty before the first):
  /// the model MRC, the burst's exact MRC, and the placed selection.
  const Mrc& last_mrc() const noexcept { return last_mrc_; }
  const Mrc& last_exact_mrc() const noexcept { return last_exact_mrc_; }
  const KneeResult& last_selection() const noexcept { return last_selection_; }
  std::uint64_t bursts_completed() const noexcept { return bursts_; }

  /// Analyze a complete trace offline and select a size (used by SC-offline
  /// and by the accuracy experiments). `boundaries` as in rename_trace().
  /// `exact_out` receives the whole trace's exact write-cache MRC.
  static KneeResult analyze_offline(const std::vector<LineAddr>& trace,
                                    const std::vector<std::size_t>& boundaries,
                                    const KneeConfig& knee, Mrc* mrc_out,
                                    Mrc* exact_out = nullptr);

 private:
  void start_burst();
  std::size_t finish_burst();

  SamplerConfig config_;
  std::uint32_t fases_to_skip_ = 0;
  std::uint64_t warmup_writes_ = 0;
  FaseRenamer renamer_;
  std::vector<LineAddr> burst_trace_;
  bool sampling_ = true;
  std::uint64_t hibernated_ = 0;
  std::uint64_t bursts_ = 0;
  Mrc last_mrc_;
  Mrc last_exact_mrc_;
  KneeResult last_selection_;
};

}  // namespace nvc::core
