#include "testing/seed.hpp"

#include <cstdlib>
#include <sstream>

#include "common/env.hpp"

namespace nvc::testing {

std::uint64_t seed_from_env(const char* env_var, std::uint64_t fallback) {
  // Unsigned parse: derived seeds use all 64 bits, which env_int's signed
  // parse would clamp to INT64_MAX.
  const std::string v = env_str(env_var, "");
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(v.c_str(), &end, 10);
  return end == v.c_str() ? fallback : parsed;
}

std::string replay_hint(const char* env_var, std::uint64_t seed) {
  std::ostringstream out;
  out << "replay: " << env_var << "=" << seed;
  return out.str();
}

std::string fuzz_replay_line(std::uint64_t program_seed,
                             const std::string& mode_name,
                             std::uint64_t freeze_event,
                             const std::string& env) {
  std::ostringstream out;
  out << "replay: NVC_FUZZ_SEED=" << program_seed << " NVC_FUZZ_MODE="
      << mode_name << " NVC_FUZZ_FREEZE=" << freeze_event;
  if (!env.empty()) out << " " << env;
  out << " ctest -R test_fuzz_crash --output-on-failure";
  return out.str();
}

}  // namespace nvc::testing
