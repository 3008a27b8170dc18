#include "core/thread_groups.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/assert.hpp"

namespace nvc::core {

double mrc_distance(const Mrc& a, const Mrc& b) {
  NVC_REQUIRE(!a.empty() && !b.empty());
  NVC_REQUIRE(a.max_size() == b.max_size(),
              "MRCs must cover the same size range");
  double total = 0.0;
  for (std::size_t c = 1; c <= a.max_size(); ++c) {
    total += std::abs(a.at(c) - b.at(c));
  }
  return total / static_cast<double>(a.max_size());
}

namespace {

Mrc average_mrc(const std::vector<Mrc>& mrcs,
                const std::vector<std::size_t>& members) {
  const std::size_t n = mrcs[members.front()].max_size();
  std::vector<double> avg(n, 0.0);
  for (const std::size_t m : members) {
    for (std::size_t c = 1; c <= n; ++c) {
      avg[c - 1] += mrcs[m].at(c);
    }
  }
  for (double& v : avg) v /= static_cast<double>(members.size());
  return Mrc(std::move(avg));
}

}  // namespace

ThreadGroups group_threads(const std::vector<Mrc>& per_thread_mrcs,
                           const ThreadGroupConfig& config) {
  NVC_REQUIRE(!per_thread_mrcs.empty());
  const std::size_t threads = per_thread_mrcs.size();

  // Start with singleton groups; greedily merge the closest pair while it
  // stays under the tolerance (average linkage via group-average MRCs).
  std::vector<std::vector<std::size_t>> members(threads);
  std::vector<Mrc> centroid;
  centroid.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    members[t] = {t};
    centroid.push_back(per_thread_mrcs[t]);
  }

  for (;;) {
    double best = std::numeric_limits<double>::infinity();
    std::size_t bi = 0, bj = 0;
    for (std::size_t i = 0; i < members.size(); ++i) {
      for (std::size_t j = i + 1; j < members.size(); ++j) {
        const double d = mrc_distance(centroid[i], centroid[j]);
        if (d < best) {
          best = d;
          bi = i;
          bj = j;
        }
      }
    }
    if (members.size() <= 1 || best > config.merge_tolerance) break;
    // Merge j into i.
    members[bi].insert(members[bi].end(), members[bj].begin(),
                       members[bj].end());
    members.erase(members.begin() + static_cast<std::ptrdiff_t>(bj));
    centroid.erase(centroid.begin() + static_cast<std::ptrdiff_t>(bj));
    centroid[bi] = average_mrc(per_thread_mrcs, members[bi]);
  }

  ThreadGroups result;
  result.group_of.assign(threads, 0);
  KneeFinder finder(config.knee);
  for (std::size_t g = 0; g < members.size(); ++g) {
    for (const std::size_t t : members[g]) result.group_of[t] = g;
    result.group_mrc.push_back(centroid[g]);
    result.group_size.push_back(finder.select(centroid[g]).chosen_size);
  }
  return result;
}

}  // namespace nvc::core
