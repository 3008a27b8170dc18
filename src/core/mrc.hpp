// Miss-ratio curves for the software write-combining cache.
//
// Three ways to obtain an MRC, all used by the paper's evaluation:
//   1. the reuse-theory model (Eq. 3): hr(c) = reuse(k+1) - reuse(k) at
//      c = k - reuse(k) — the paper's linear-time contribution;
//   2. exact fully-associative LRU via stack distances (the classic Mattson
//      one-pass algorithm) — the "actual MRC" baseline of Fig. 7, and, over
//      a renamed burst, what SC places its knee on (DESIGN.md §5);
//   3. direct simulation of the WriteCache at each size with FASE clearing —
//      the ground truth including FASE-end compulsory misses.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/reuse_locality.hpp"

namespace nvc::core {

/// Discrete miss-ratio curve over integer cache sizes 1..max_size.
class Mrc {
 public:
  Mrc() = default;
  explicit Mrc(std::vector<double> miss_ratio_by_size)
      : mr_(std::move(miss_ratio_by_size)) {}

  std::size_t max_size() const noexcept { return mr_.size(); }
  bool empty() const noexcept { return mr_.empty(); }

  /// Miss ratio at integer cache size c (1-based).
  double at(std::size_t c) const;

  /// Miss-ratio drop when growing the cache from c-1 to c (c >= 2).
  double gradient(std::size_t c) const;

  std::span<const double> values() const noexcept { return mr_; }

 private:
  std::vector<double> mr_;
};

/// Convert a reuse curve into an MRC over sizes 1..max_size (paper Eq. 3).
/// Produces scattered (c, mr) samples with c = k - reuse(k), resamples them
/// onto the integer grid, and clamps to [0, 1]. The curve is made
/// non-increasing (an LRU cache obeys inclusion, so a larger cache can only
/// lower the miss ratio; raw derivative noise would otherwise create false
/// knees).
Mrc mrc_from_reuse(const ReuseCurve& reuse, std::size_t max_size);

/// Exact fully-associative LRU MRC by Mattson stack distances, computed in
/// one pass with a counting tree (O(n log n), whatever max_size is). Cold
/// misses count as misses at every size.
Mrc mrc_exact_lru(std::span<const LineAddr> trace, std::size_t max_size);

/// The same pass over a length-n trace given by its reuse intervals, in
/// order of their ends (as intervals_of_trace and intervals_of_dense_trace
/// return them). On a FASE-renamed trace every FASE's lines have fresh ids,
/// so the result is the write cache's exact flush ratio with FASE-end
/// flushes included (= mrc_simulate_write_cache on the unrenamed trace and
/// the same boundaries).
Mrc mrc_exact_from_intervals(std::span<const ReuseInterval> intervals,
                             LogicalTime n, std::size_t max_size);

/// Ground truth for the write-combining cache: replay the trace through a
/// WriteCache of each size in [1, max_size], flushing at every FASE boundary
/// (boundaries[i] = trace index before which a FASE ends). The miss ratio of
/// size c equals its flush ratio: every miss inserts a line that is flushed
/// exactly once, by eviction or at a FASE end.
Mrc mrc_simulate_write_cache(std::span<const LineAddr> trace,
                             std::span<const std::size_t> boundaries,
                             std::size_t max_size);

}  // namespace nvc::core
