// Ablation — MRC analysis algorithms. The paper motivates its reuse-based
// timescale analysis by the cost of classical reuse-distance measurement
// (Section III-A: "reuse distance is costly to measure, especially online").
// This bench quantifies the claim on our traces, comparing
//
//   timescale  — the paper's linear-time reuse(k) analysis (O(n + r));
//   mattson    — exact LRU stack distances via a Fenwick tree (O(n log n));
//
// on (a) analysis wall time, (b) the cache size each selects, and (c) mean
// absolute error against the ground-truth write-cache simulation.
#include <cmath>
#include <cstdio>

#include "core/fase_trace.hpp"
#include "harness.hpp"

namespace {

double mean_abs_error(const nvc::core::Mrc& a, const nvc::core::Mrc& b) {
  double total = 0;
  for (std::size_t c = 1; c <= a.max_size(); ++c) {
    total += std::abs(a.at(c) - b.at(c));
  }
  return total / static_cast<double>(a.max_size());
}

}  // namespace

int main() {
  using namespace nvc;
  using namespace nvc::bench;
  print_banner("Ablation: MRC analysis algorithms",
               "Section III-A — timescale analysis vs classical "
               "reuse-distance measurement");

  const std::size_t max_size = core::KneeConfig{}.max_size;
  TablePrinter table({"Workload", "Algorithm", "analysis (ms)", "chosen",
                      "mean |err|"});

  for (const char* name :
       {"barnes", "ocean", "water-nsquared", "water-spatial"}) {
    const auto traces = record_trace(name, params_from_env(1));
    std::vector<LineAddr> stores;
    std::vector<std::size_t> boundaries;
    traces.trace(0).store_trace(&stores, &boundaries);
    const auto renamed = core::rename_trace(stores, boundaries);
    const core::Mrc truth =
        core::mrc_simulate_write_cache(stores, boundaries, max_size);
    const core::KneeFinder finder{core::KneeConfig{}};

    // 1. The paper's timescale analysis (renamed ids are dense, so the
    // direct-indexed interval extraction applies — same as analyze_burst).
    Stopwatch t1;
    const auto intervals = core::intervals_of_dense_trace(
        renamed, static_cast<LineAddr>(renamed.size()));
    const auto reuse = core::compute_reuse_all_k(
        intervals, static_cast<LogicalTime>(renamed.size()));
    const core::Mrc timescale = core::mrc_from_reuse(reuse, max_size);
    const double ms1 = t1.seconds() * 1e3;

    // 2. Exact Mattson stack distances.
    Stopwatch t2;
    const core::Mrc mattson = core::mrc_exact_lru(renamed, max_size);
    const double ms2 = t2.seconds() * 1e3;

    const struct {
      const char* label;
      const core::Mrc* mrc;
      double ms;
    } rows[] = {{"timescale", &timescale, ms1}, {"mattson", &mattson, ms2}};
    for (const auto& row : rows) {
      table.add_row({name, row.label, TablePrinter::fmt(row.ms, 2),
                     TablePrinter::fmt_count(
                         finder.select(*row.mrc).chosen_size),
                     TablePrinter::fmt(mean_abs_error(*row.mrc, truth), 4)});
    }
  }
  table.print();
  std::printf("\n'chosen' sizes within a few entries of each other mean the "
              "knee decision is robust to the analysis method; the paper's "
              "timescale analysis should be the fastest at full trace "
              "lengths.\n");
  return 0;
}
