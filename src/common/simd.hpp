// Compile-time SIMD dispatch for the analysis kernels (PR 7).
//
// The hot analysis loops (reuse/footprint accumulation, the exact MRC's
// counting tree) get AVX2 paths guarded by a scalar fallback chosen at
// compile time: __AVX2__ is set by -march=native (NVC_NATIVE=ON, the
// default) on hosts that have it, and NVC_NO_SIMD=ON forces the scalar
// path everywhere for differential testing. There is deliberately no
// runtime dispatch — per-call branching would cost more than these short
// kernels, and the binary already targets the build host.
//
// Bit-exactness contract: every vector path here must produce bit-identical
// results to its scalar fallback. The double-precision kernels only ever
// add/subtract integer-valued doubles (interval counts, gap counts) whose
// magnitudes stay far below 2^53, so reassociating the additions across
// lanes is exact, and the final divisions use operand-for-operand the same
// values as the scalar loop. The integer kernel (the counting-tree
// decrement) is plain integer arithmetic, lane-for-lane identical. Tests
// assert equality with EXPECT_DOUBLE_EQ, not tolerances, and the crash
// fuzzer's byte-identical replay oracle would catch any divergence that
// slipped through.
#pragma once

#include <cstdint>

#if defined(__AVX2__) && !defined(NVC_NO_SIMD)
#define NVC_SIMD_AVX2 1
#include <immintrin.h>
#else
#define NVC_SIMD_AVX2 0
#endif

namespace nvc {

/// Which kernel flavor this binary compiled in (diagnostics, bench labels).
inline constexpr const char* simd_backend() noexcept {
#if NVC_SIMD_AVX2
  return "avx2";
#else
  return "scalar";
#endif
}

#if NVC_SIMD_AVX2

namespace simd {

/// [0, a0, a1, a2]: shift doubles up one lane, zero-filling lane 0.
inline __m256d shift_up1_pd(__m256d a) noexcept {
  const __m256d rot = _mm256_permute4x64_pd(a, _MM_SHUFFLE(2, 1, 0, 0));
  return _mm256_blend_pd(rot, _mm256_setzero_pd(), 0x1);
}

/// [0, 0, a0, a1]: shift doubles up two lanes, zero-filling lanes 0-1.
inline __m256d shift_up2_pd(__m256d a) noexcept {
  const __m256d rot = _mm256_permute4x64_pd(a, _MM_SHUFFLE(1, 0, 0, 0));
  return _mm256_blend_pd(rot, _mm256_setzero_pd(), 0x3);
}

/// In-register inclusive prefix sum: [a0, a0+a1, a0+a1+a2, a0+a1+a2+a3].
/// Exact for integer-valued doubles (addition of exactly representable
/// integers below 2^53 is associative).
inline __m256d prefix_sum_pd(__m256d a) noexcept {
  a = _mm256_add_pd(a, shift_up1_pd(a));
  return _mm256_add_pd(a, shift_up2_pd(a));
}

}  // namespace simd

#endif  // NVC_SIMD_AVX2

/// group[k] -= 1 for every lane k < lane of a 16-entry group (the exact
/// MRC's counting tree, core/mrc.cpp). Integer arithmetic, so both paths
/// agree exactly.
inline void decrement_below_u32x16(std::uint32_t* group,
                                   std::uint32_t lane) noexcept {
#if NVC_SIMD_AVX2
  const __m256i at = _mm256_set1_epi32(static_cast<int>(lane));
  const __m256i lanes_lo = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i lanes_hi = _mm256_setr_epi32(8, 9, 10, 11, 12, 13, 14, 15);
  auto* lo = reinterpret_cast<__m256i*>(group);
  auto* hi = reinterpret_cast<__m256i*>(group + 8);
  // cmpgt yields -1 in the lanes below `lane`: adding it decrements them.
  _mm256_storeu_si256(lo, _mm256_add_epi32(_mm256_loadu_si256(lo),
                                           _mm256_cmpgt_epi32(at, lanes_lo)));
  _mm256_storeu_si256(hi, _mm256_add_epi32(_mm256_loadu_si256(hi),
                                           _mm256_cmpgt_epi32(at, lanes_hi)));
#else
  for (std::uint32_t k = 0; k < lane; ++k) --group[k];
#endif
}

}  // namespace nvc
