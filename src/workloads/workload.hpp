// Workload abstraction and registry.
//
// The paper evaluates 12 applications: seven SPLASH2 programs (all but
// radiosity, lu, fft, cholesky and radix appear in its tables), four
// micro-benchmarks from the Atlas repository, and the MDB key-value store.
// Each is reproduced here as a self-contained mini-app over PersistApi (see
// DESIGN.md for the substitution rationale). A workload runs its own thread
// team; thread `tid` talks to the API with that tid, which keeps software
// caches, traces and statistics per-thread.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "workloads/api.hpp"

namespace nvc::workloads {

struct WorkloadParams {
  std::size_t threads = 1;
  std::uint64_t seed = 42;
  /// false: quick problem size (seconds); true: paper-scale (NVC_FULL=1).
  bool full = false;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::string name() const = 0;

  /// Problem-size label for the Table III reproduction (e.g. "16384").
  virtual std::string problem_size(const WorkloadParams& p) const = 0;

  /// Execute the workload, reporting persistent writes through `api`.
  virtual void run(PersistApi& api, const WorkloadParams& p) = 0;
};

/// The paper's Table III workloads (excluding mdb, provided by nvc-mdb), in
/// the paper's order.
std::vector<std::string> workload_names();

/// Instantiate a workload by name; throws std::out_of_range for unknown.
std::unique_ptr<Workload> make_workload(const std::string& name);

// Factories (one per mini-app translation unit).
std::unique_ptr<Workload> make_linked_list();
std::unique_ptr<Workload> make_persistent_array();
std::unique_ptr<Workload> make_queue();
std::unique_ptr<Workload> make_hash();
std::unique_ptr<Workload> make_barnes();
std::unique_ptr<Workload> make_fmm();
std::unique_ptr<Workload> make_ocean();
std::unique_ptr<Workload> make_raytrace();
std::unique_ptr<Workload> make_volrend();
std::unique_ptr<Workload> make_water_nsquared();
std::unique_ptr<Workload> make_water_spatial();

}  // namespace nvc::workloads
