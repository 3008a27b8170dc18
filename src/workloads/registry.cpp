#include <functional>
#include <stdexcept>
#include <utility>

#include "workloads/workload.hpp"

namespace nvc::workloads {

namespace {

struct Entry {
  const char* name;
  std::unique_ptr<Workload> (*factory)();
};

// Paper Table III order (mdb is provided by the nvc-mdb library and is
// registered by the benchmark harness, not here, to keep the dependency
// direction workloads <- mdb).
constexpr Entry kEntries[] = {
    {"linked-list", &make_linked_list},
    {"persistent-array", &make_persistent_array},
    {"queue", &make_queue},
    {"hash", &make_hash},
    {"barnes", &make_barnes},
    {"fmm", &make_fmm},
    {"ocean", &make_ocean},
    {"raytrace", &make_raytrace},
    {"volrend", &make_volrend},
    {"water-nsquared", &make_water_nsquared},
    {"water-spatial", &make_water_spatial},
};

}  // namespace

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const Entry& e : kEntries) names.emplace_back(e.name);
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  for (const Entry& e : kEntries) {
    if (name == e.name) return e.factory();
  }
  throw std::out_of_range("unknown workload: " + name);
}

}  // namespace nvc::workloads
