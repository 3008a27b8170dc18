// Seed plumbing for randomized tests.
//
// Every randomized suite in this repo must be replayable from its CTest
// output alone: when a property fails, the line that gtest prints has to
// contain the exact environment that reproduces it. These helpers read the
// seed knobs (NVC_SEED for the property suites, NVC_FUZZ_SEED for the
// crash fuzzer) and format the replay hints the tests attach via
// SCOPED_TRACE / assertion messages.
#pragma once

#include <cstdint>
#include <string>

namespace nvc::testing {

/// The effective seed for a randomized test case: the value of `env_var`
/// when set to a whole decimal integer (a global override that re-seeds
/// every case of the suite), otherwise the case's built-in default.
std::uint64_t seed_from_env(const char* env_var, std::uint64_t fallback);

/// "replay: NVC_SEED=1234" — attach with SCOPED_TRACE so any failing
/// assertion below it prints the seed that reproduces the run.
std::string replay_hint(const char* env_var, std::uint64_t seed);

/// The fuzzer's one-line replay command: environment + ctest invocation
/// that deterministically reproduces one (seed, mode, freeze) crash case.
std::string fuzz_replay_line(std::uint64_t program_seed,
                             const std::string& mode_name,
                             std::uint64_t freeze_event);

}  // namespace nvc::testing
