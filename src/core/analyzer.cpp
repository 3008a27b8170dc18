#include "core/analyzer.hpp"

#include "common/assert.hpp"
#include "core/reuse_locality.hpp"

namespace nvc::core {

BurstAnalysis analyze_burst(std::span<const LineAddr> renamed_trace,
                            const KneeConfig& knee) {
  NVC_REQUIRE(!renamed_trace.empty());
  const auto n = static_cast<LogicalTime>(renamed_trace.size());
  // Renamed identities are allocated sequentially from 0, so they are dense
  // in [0, n) and the direct-indexed interval extraction applies.
  const auto intervals =
      intervals_of_dense_trace(renamed_trace, static_cast<LineAddr>(n));
  const ReuseCurve reuse = compute_reuse_all_k(intervals, n);
  BurstAnalysis out;
  out.mrc = mrc_from_reuse(reuse, knee.max_size);
  out.exact = mrc_exact_from_intervals(intervals, n, knee.max_size);
  out.selection = KneeFinder(knee).select(out.mrc);
  out.selection.model_size = out.selection.chosen_size;
  out.selection.chosen_size =
      place_knee(out.mrc, out.exact, out.selection.chosen_size);
  return out;
}

}  // namespace nvc::core
