// Cache-size selection from an MRC (paper Section III-C, "Cache Size
// Optimization").
//
// The paper's procedure: compute the miss-ratio decrease for every unit
// increase of the cache size (the gradient), rank the decreases, take the
// top few as candidate knees, and choose the candidate with the largest
// cache size. The maximal size is bounded (default 50) to cap the FASE-end
// drain stall; if the MRC has no obvious inflection point, the maximal size
// is chosen.
#pragma once

#include <cstddef>
#include <vector>

#include "core/mrc.hpp"

namespace nvc::core {

struct KneeConfig {
  std::size_t default_size = 8;  // paper: initial cache size
  std::size_t max_size = 50;     // paper: bound on FASE-end stall
  std::size_t top_candidates = 5;
  /// A gradient below this is noise, not an inflection point. The paper's
  /// Fig. 2 knees are drops of several percentage points.
  double min_drop = 1e-3;
};

struct KneeResult {
  std::size_t chosen_size = 0;
  std::vector<std::size_t> candidates;  // ranked by gradient, best first
  bool had_knees = false;               // false => fell back to max_size
  /// The knee on the model MRC before place_knee() moved it (analyze_burst
  /// sets it; chosen_size >= model_size).
  std::size_t model_size = 0;
};

/// Knee placement tolerance: how far, in miss ratio, the exact MRC may sit
/// above its value at the largest size where the model's knee says it has
/// reached bottom.
inline constexpr double kPlacementSlack = 0.01;

/// Regret bound of knee placement: the placed size's exact miss ratio may
/// exceed the exact miss ratio at the largest size by at most this fraction
/// of it. A constant, not a knob (DESIGN.md §5 item 8).
inline constexpr double kRegretBound = 0.05;

/// Knee placement (DESIGN.md §5 item 8): move the model's knee `knee` right,
/// never left, to the smallest size s >= knee with
///   exact(s) - exact(max) <= min(model(knee) - model(max) + kPlacementSlack,
///                                kRegretBound * exact(max)),
/// where max is the MRCs' common largest size. The timescale model puts a
/// sharp cliff a few sizes early; the exact MRC of the same burst says where
/// the cliff really is. A tail of drops each too small to rank as a knee
/// still costs write-backs; the regret bound caps what it may cost. A knee
/// the exact MRC confirms within both bounds stays put.
std::size_t place_knee(const Mrc& model, const Mrc& exact, std::size_t knee);

class KneeFinder {
 public:
  explicit KneeFinder(KneeConfig config = {}) : config_(config) {}

  /// Pick a cache size from the MRC. The MRC must cover [1, max_size].
  KneeResult select(const Mrc& mrc) const;

  const KneeConfig& config() const noexcept { return config_; }

 private:
  KneeConfig config_;
};

}  // namespace nvc::core
