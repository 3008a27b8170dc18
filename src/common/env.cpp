#include "common/env.hpp"

#include <cstdlib>

namespace nvc {

std::int64_t env_int(const char* name, std::int64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  const long long parsed = std::strtoll(v, &end, 10);
  if (end == v) return fallback;
  return parsed;
}

double env_double(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(v, &end);
  if (end == v) return fallback;
  return parsed;
}

std::string env_str(const char* name, const std::string& fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::string(v) : fallback;
}

}  // namespace nvc
