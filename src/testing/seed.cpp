#include "testing/seed.hpp"

#include <charconv>
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
                             const std::string& fault_env) {
  std::ostringstream out;
  out << "replay: NVC_FUZZ_SEED=" << program_seed << " NVC_FUZZ_MODE="
      << mode_name << " NVC_FUZZ_FREEZE=" << freeze_event;
  if (!fault_env.empty()) out << " " << fault_env;
  out << " ctest -R test_fuzz_crash --output-on-failure";
  return out.str();
}

pmem::FaultConfig fault_config_from_env() {
  pmem::FaultConfig c;
  c.rate = env_double("NVC_FAULT_RATE", c.rate);
  c.bad_line_rate = env_double("NVC_FAULT_BAD_LINES", c.bad_line_rate);
  c.torn_rate = env_double("NVC_FAULT_TORN", c.torn_rate);
  c.max_retries = static_cast<std::uint32_t>(
      env_int("NVC_FAULT_RETRIES", c.max_retries));
  c.degrade_after = static_cast<std::uint32_t>(
      env_int("NVC_FAULT_DEGRADE_AFTER", c.degrade_after));
  c.seed = seed_from_env("NVC_FAULT_SEED", seed_from_env("NVC_SEED", 1));
  return c;
}

std::string fault_replay_env(const pmem::FaultConfig& fault) {
  if (!fault.enabled()) return "";
  // Shortest text that parses back to the same double, so a replay line
  // names exactly the campaign's rates.
  const auto rate = [](double v) {
    char buf[32];
    return std::string(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
  };
  std::ostringstream out;
  out << "NVC_FAULT_RATE=" << rate(fault.rate)
      << " NVC_FAULT_BAD_LINES=" << rate(fault.bad_line_rate)
      << " NVC_FAULT_TORN=" << rate(fault.torn_rate)
      << " NVC_FAULT_RETRIES=" << fault.max_retries
      << " NVC_FAULT_DEGRADE_AFTER=" << fault.degrade_after
      << " NVC_FAULT_SEED=" << fault.seed;
  return out.str();
}

}  // namespace nvc::testing
