#include "core/knee.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace nvc::core {

KneeResult KneeFinder::select(const Mrc& mrc) const {
  NVC_REQUIRE(!mrc.empty());
  NVC_REQUIRE(mrc.max_size() >= config_.max_size,
              "MRC does not cover the selectable size range");

  // Gradient at size c: drop in miss ratio from growing c-1 -> c.
  struct Candidate {
    std::size_t size;
    double drop;
  };
  std::vector<Candidate> drops;
  drops.reserve(config_.max_size);
  for (std::size_t c = 2; c <= config_.max_size; ++c) {
    const double d = mrc.gradient(c);
    if (d >= config_.min_drop) drops.push_back({c, d});
  }

  KneeResult result;
  if (drops.empty()) {
    // Flat curve: no knee to exploit; take the maximal size (paper rule).
    result.chosen_size = config_.max_size;
    result.had_knees = false;
    return result;
  }

  std::stable_sort(drops.begin(), drops.end(),
                   [](const Candidate& a, const Candidate& b) {
                     return a.drop > b.drop;
                   });
  const std::size_t take = std::min(config_.top_candidates, drops.size());
  for (std::size_t i = 0; i < take; ++i) {
    result.candidates.push_back(drops[i].size);
  }

  // Among the top-ranked knees, the largest size captures every ranked drop
  // (paper: "choose the knee that has the largest cache size").
  result.chosen_size =
      *std::max_element(result.candidates.begin(), result.candidates.end());
  result.had_knees = true;
  return result;
}

std::size_t place_knee(const Mrc& model, const Mrc& exact, std::size_t knee) {
  const std::size_t max = model.max_size();
  NVC_REQUIRE(exact.max_size() == max, "model and exact MRCs differ in range");
  NVC_REQUIRE(knee >= 1 && knee <= max);
  const double allowed =
      std::min(model.at(knee) - model.at(max) + kPlacementSlack,
               kRegretBound * exact.at(max));
  std::size_t s = knee;
  while (s < max && exact.at(s) - exact.at(max) > allowed) ++s;
  return s;
}

}  // namespace nvc::core
