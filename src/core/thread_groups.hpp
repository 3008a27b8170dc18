// Thread grouping by write-locality similarity — the paper's stated future
// work (Section III-C): "To reduce the overhead, we could group threads with
// similar write locality and calculate one MRC for each group."
//
// Implementation: each thread contributes its sampled MRC as a feature
// vector; agglomerative clustering merges the closest pair of groups while
// their average-linkage L1 distance stays below a tolerance; each group then
// gets one shared MRC (the member average) and one knee-selected size.
// Sampling cost scales with groups, not threads.
#pragma once

#include <cstddef>
#include <vector>

#include "core/knee.hpp"
#include "core/mrc.hpp"

namespace nvc::core {

struct ThreadGroupConfig {
  /// Maximum mean per-size |Δ miss ratio| for two groups to merge.
  double merge_tolerance = 0.05;
  KneeConfig knee;
};

struct ThreadGroups {
  /// group_of[t] = group index of thread t.
  std::vector<std::size_t> group_of;
  /// Per group: the shared MRC and the knee-selected cache size.
  std::vector<Mrc> group_mrc;
  std::vector<std::size_t> group_size;

  std::size_t num_groups() const noexcept { return group_mrc.size(); }
};

/// Average per-size absolute miss-ratio difference between two MRCs of the
/// same max_size (the clustering metric).
double mrc_distance(const Mrc& a, const Mrc& b);

/// Cluster per-thread MRCs and select one cache size per group.
ThreadGroups group_threads(const std::vector<Mrc>& per_thread_mrcs,
                           const ThreadGroupConfig& config = {});

}  // namespace nvc::core
