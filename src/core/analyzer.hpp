// Burst analysis (paper Section III-C): one completed, FASE-renamed burst
// trace in, the MRC and the selected cache size out.
//
// The sampler runs this inside the on_store() that ends a burst, on the
// storing thread, and the selection applies at once; SC-offline and the
// accuracy experiments run it on a whole renamed trace. One function serves
// both, so the online and offline selections of the same trace are equal.
// The stall is linear in the burst length and is paid at each burst end,
// which the paper's forever-hibernation makes rare (DESIGN.md §6).
#pragma once

#include <span>

#include "common/types.hpp"
#include "core/knee.hpp"
#include "core/mrc.hpp"

namespace nvc::core {

/// Result of analyzing one (already FASE-renamed) burst trace.
struct BurstAnalysis {
  Mrc mrc;    // the paper's timescale model
  Mrc exact;  // the burst's exact write-cache MRC (stack distances)
  KneeResult selection;
};

/// The full burst analysis: reuse intervals (dense path — renamed ids lie in
/// [0, trace.size())) -> reuse(k) for all k -> MRC -> knee selection, then
/// one exact stack-distance pass over the same trace on which the knee is
/// placed (place_knee). Deterministic: the sampler and the offline path
/// both call exactly this.
BurstAnalysis analyze_burst(std::span<const LineAddr> renamed_trace,
                            const KneeConfig& knee);

}  // namespace nvc::core
