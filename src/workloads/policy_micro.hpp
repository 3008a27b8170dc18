// Deterministic microworkloads that pin each policy's line write-backs on
// two closed-form traffic shapes (values in EXPERIMENTS.md, "Write
// admission: deleted").
//
// Both shapes are exact and replayable (count backend, fixed iteration
// order, no randomness):
//
//   stream   every FASE interleaves 64 never-reused streaming lines with
//            8 hot lines written 8 times each, one stream store between
//            consecutive hot-line writes. The hot set alone fits the
//            default soft cache (capacity 8), but the interleaved stream
//            pushes each hot line's reuse distance to 15, so every soft
//            cache access misses and the FASE writes back 128 lines. LA
//            buffers the whole FASE and writes back 64 + 8.
//
//   reuse    every FASE writes 6 lines round-robin, 128 stores. Every
//            deferring policy combines them and writes back 6 lines per
//            FASE; ER writes back every store.
//
// Used by bench/micro_gbench.cpp, whose exact_ counters bench/compare.py
// gates with zero tolerance.
#pragma once

#include <cstdint>

#include "core/policy.hpp"
#include "runtime/runtime.hpp"

namespace nvc::workloads {

enum class PolicyMicroShape : std::uint8_t {
  kStream,
  kReuse,
};

const char* to_string(PolicyMicroShape shape);

struct PolicyMicroResult {
  std::uint64_t fases = 0;
  std::uint64_t stores = 0;
  std::uint64_t line_writes = 0;  // data lines written back
};

/// One shape on its own Runtime (count backend, synchronous flushes, no
/// undo log) under `policy`, set up once so replay() can be timed alone.
class PolicyMicro {
 public:
  /// Allocates stream lines for `stream_fases` FASEs; later FASEs reuse
  /// them from the first line on. Each FASE's end writes back everything
  /// it buffered, so a reused stream line still costs one write-back.
  PolicyMicro(core::PolicyKind policy, PolicyMicroShape shape,
              std::uint64_t stream_fases);
  ~PolicyMicro();

  PolicyMicro(const PolicyMicro&) = delete;
  PolicyMicro& operator=(const PolicyMicro&) = delete;

  /// Run `fases` more FASEs of the shape.
  void replay(std::uint64_t fases);
  /// Release what the thread still buffers; the counts of every FASE run.
  PolicyMicroResult finish();

 private:
  PolicyMicroShape shape_;
  std::uint64_t stream_lines_;
  runtime::Runtime rt_;
  std::uint8_t* stream_;
  std::uint8_t* hot_;
  std::uint64_t next_stream_ = 0;
};

/// Run `fases` FASEs of `shape` through a fresh PolicyMicro. Deterministic:
/// same arguments, same result, bit for bit.
PolicyMicroResult run_policy_micro(core::PolicyKind policy,
                                   PolicyMicroShape shape,
                                   std::uint64_t fases = 64);

}  // namespace nvc::workloads
