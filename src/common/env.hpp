// Environment-variable readers for the code that parses knobs: the bench
// harness and the tests. The libraries take every setting from their
// callers; the one exception is the region directory (pmem_region.cpp).
#pragma once

#include <cstdint>
#include <string>

namespace nvc {

/// Read an integer environment variable, or `fallback` if it is unset or
/// is not a whole decimal integer ("64k" and "1e6" fall back).
std::int64_t env_int(const char* name, std::int64_t fallback);

/// Read a string environment variable, or `fallback` if unset.
std::string env_str(const char* name, const std::string& fallback);

}  // namespace nvc
