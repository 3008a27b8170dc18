#include "common/env.hpp"

#include <cerrno>
#include <cstdlib>

namespace nvc {

std::int64_t env_int(const char* name, std::int64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(v, &end, 10);
  // Only a value that parses whole counts: "64k" is not 64.
  if (end == v || *end != '\0' || errno == ERANGE) return fallback;
  return parsed;
}

std::string env_str(const char* name, const std::string& fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::string(v) : fallback;
}

}  // namespace nvc
