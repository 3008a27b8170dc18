// Summary statistics for the benchmark tables' "average" rows.
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

namespace nvc {

/// Arithmetic and geometric means of a sample vector (used for the paper's
/// "average" rows, which mix both conventions).
struct MeanSummary {
  double arithmetic = 0.0;
  double geometric = 0.0;
};

inline MeanSummary summarize_means(const std::vector<double>& xs) {
  MeanSummary s;
  if (xs.empty()) return s;
  double sum = 0.0;
  double logsum = 0.0;
  for (double x : xs) {
    sum += x;
    logsum += std::log(std::max(x, 1e-300));
  }
  s.arithmetic = sum / static_cast<double>(xs.size());
  s.geometric = std::exp(logsum / static_cast<double>(xs.size()));
  return s;
}

}  // namespace nvc
