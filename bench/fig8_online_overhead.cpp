// Figure 8 — the cost of online cache-size selection: run SC once with the
// best size preset (no sampling) and once with online sampling + adaptation,
// and report the time difference, for 1 and 8 threads.
// Paper: overhead is a near-fixed absolute cost (avg 0.52 s on their
// machine), 1%..10% of execution time, avg 6.78%.
//
// Quick-scale runs last milliseconds, so host noise is as large as the
// effect. Preset and online runs therefore alternate repetition by
// repetition (which goes first alternates too), each pair gives one
// overhead, and a row prints the pairs' median with its quartiles.
#include <algorithm>
#include <cstdio>

#include "harness.hpp"

namespace {

/// Linear-interpolated quantile q in [0, 1] of `xs`.
double quantile(std::vector<double> xs, double q) {
  std::sort(xs.begin(), xs.end());
  const double at = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(at);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (at - static_cast<double>(lo));
}

}  // namespace

int main() {
  using namespace nvc;
  using namespace nvc::bench;
  print_banner("Figure 8: online cache-size-selection overhead",
               "Fig. 8 — overhead 1%..10% of execution time, avg 6.78%");

  const int pairs =
      std::max(1, static_cast<int>(env_int("NVC_REPEATS", 9)));
  TablePrinter table({"Program", "Threads", "preset (s)", "online (s)",
                      "overhead", "q1", "q3"});
  std::vector<double> overheads;

  for (const auto& name : splash_workloads()) {
    const auto knee = offline_knee(record_trace(name, params_from_env(1)));
    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
      const auto params = params_from_env(threads);
      auto preset_config = default_policy_config();
      preset_config.cache_size = knee.chosen_size;
      const auto online_config = default_policy_config();
      std::vector<double> preset_s, online_s, pair_overheads;
      for (int r = 0; r < pairs; ++r) {
        auto preset = [&] {
          preset_s.push_back(run_live(name, core::PolicyKind::kSoftCacheOffline,
                                      params, preset_config)
                                 .seconds);
        };
        auto online = [&] {
          online_s.push_back(run_live(name, core::PolicyKind::kSoftCache,
                                      params, online_config)
                                 .seconds);
        };
        if (r % 2 == 0) {
          preset();
          online();
        } else {
          online();
          preset();
        }
        pair_overheads.push_back((online_s.back() - preset_s.back()) /
                                 online_s.back());
      }
      const double overhead = quantile(pair_overheads, 0.5);
      overheads.push_back(overhead);
      table.add_row({name, TablePrinter::fmt_count(threads),
                     TablePrinter::fmt(quantile(preset_s, 0.5), 4),
                     TablePrinter::fmt(quantile(online_s, 0.5), 4),
                     TablePrinter::fmt_percent(overhead),
                     TablePrinter::fmt_percent(quantile(pair_overheads, 0.25)),
                     TablePrinter::fmt_percent(quantile(pair_overheads, 0.75))});
    }
  }
  table.print();
  std::printf("\noverhead: median of %d paired runs (q1, q3: its quartiles); "
              "average of the medians: %s (paper: 6.78%%)\n",
              pairs,
              TablePrinter::fmt_percent(summarize_means(overheads).arithmetic)
                  .c_str());
  return 0;
}
