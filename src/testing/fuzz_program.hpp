// Random FASE programs for the crash-state fuzzer (DESIGN.md §9).
//
// A FuzzProgram is a seeded, fully deterministic script over the public
// runtime surface: failure-atomic sections (including nested and empty
// ones), persistent stores of varied sizes and alignments (many straddle a
// cache-line boundary on purpose), runs of stores to one line split by a
// barrier or a FASE end, mid-FASE persistence barriers, and
// allocate/free of the objects the stores target — interleaved across
// several logical contexts, each modeling one runtime thread. The same
// program is interpreted twice: by the Runtime over the crash rig's medium
// (tests/support/crash_rig) under an injected power failure, and
// analytically by the DurabilityOracle, which computes every legally
// recoverable state. One 64-bit seed reproduces the whole program.
//
// Object model: every context owns a private data region; objects are
// bump-allocated ranges inside it and addresses are never reused, so a
// freed object's bytes stay inert and the whole region image remains a
// deterministic function of the committed stores. Stores only ever target
// live objects and only ever happen inside a FASE.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace nvc::testing {

enum class FuzzOpKind : std::uint8_t {
  kFaseBegin,       // enter a FASE on ctx (nestable)
  kFaseEnd,         // leave a FASE on ctx (outermost end = commit)
  kPstore,          // instrumented persistent store into a live object
  kPersistBarrier,  // mid-FASE flush of everything buffered
  kAlloc,           // allocate `object` (size = len), outside any FASE
  kFree,            // free `object`, outside any FASE
};

const char* to_string(FuzzOpKind kind);

struct FuzzOp {
  FuzzOpKind kind;
  std::uint32_t ctx = 0;     // which logical context executes the op
  std::uint32_t object = 0;  // kPstore/kAlloc/kFree: index into objects
  std::uint32_t offset = 0;  // kPstore: byte offset within the object
  std::uint32_t len = 0;     // kPstore: bytes written; kAlloc: object size
  std::uint64_t value_seed = 0;  // kPstore: derives the payload bytes
};

struct FuzzObject {
  std::uint32_t ctx = 0;  // owning context
  PmAddr offset = 0;      // byte offset within the context's data region
  std::uint32_t size = 0;
};

struct FuzzProgramConfig {
  std::size_t max_contexts = 3;
  /// Per-context data region, in cache lines. Small on purpose: repeated
  /// stores to the same lines are what make crash states interesting.
  std::size_t data_lines = 16;
  /// Approximate op count (the generator adds closing kFaseEnd ops).
  std::size_t target_ops = 160;
  /// Largest single pstore; > kCacheLineSize so some stores span 2+ lines
  /// and get logged in multiple undo pieces.
  std::uint32_t max_store = 160;
};

struct FuzzProgram {
  std::uint64_t seed = 0;
  std::size_t contexts = 1;
  std::size_t data_lines = 16;           // per context
  std::vector<FuzzOp> ops;
  std::vector<FuzzObject> objects;       // indexed by FuzzOp::object

  std::size_t data_bytes() const noexcept {
    return data_lines * kCacheLineSize;
  }
};

/// Generate a random program. Same (seed, config) => identical program,
/// on every platform (all randomness flows through common/rng.hpp).
FuzzProgram generate_program(std::uint64_t seed,
                             const FuzzProgramConfig& config = {});

/// The payload a kPstore writes: `len` bytes derived from `value_seed` by
/// splitmix64. Shared by the interpreter and the oracle so both sides
/// materialize identical data.
std::vector<std::uint8_t> payload_bytes(std::uint64_t value_seed,
                                        std::size_t len);

}  // namespace nvc::testing
