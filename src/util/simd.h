// Portable SIMD helpers for the distance hot paths.
//
// Every routine here is a drop-in replacement for an obvious scalar loop
// and is guaranteed to produce BITWISE IDENTICAL results to that loop: the
// vector lanes perform exactly the per-element IEEE-754 operations
// (additions, subtractions, ordered comparisons) the scalar code performs,
// in an order that cannot change any result (no reassociation, no FMA
// contraction, no reductions over additions). That property is what lets
// the bucket-queue Dijkstra path use these helpers while staying
// bit-identical to the historical binary-heap loop (see
// core/distance/d2d_distance.cc).
//
// Dispatch is compile-time: AVX2 when the translation unit is compiled
// with -mavx2 (or equivalent), else SSE2 (baseline on x86-64), else the
// plain scalar loops. Building with -DINDOOR_NO_SIMD=1 (CMake option
// INDOOR_NO_SIMD) forces the scalar fallback everywhere, which the CI
// matrix uses to prove the vector paths change nothing.

#ifndef INDOOR_UTIL_SIMD_H_
#define INDOOR_UTIL_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <limits>

#if !defined(INDOOR_NO_SIMD) && defined(__AVX2__)
#define INDOOR_SIMD_AVX2 1
#include <immintrin.h>
#elif !defined(INDOOR_NO_SIMD) && defined(__SSE2__)
#define INDOOR_SIMD_SSE2 1
#include <emmintrin.h>
#endif

namespace indoor {
namespace simd {

/// Name of the active implementation, for bench/CI JSON surfaces.
#if defined(INDOOR_SIMD_AVX2)
inline constexpr const char* kImplName = "avx2";
#elif defined(INDOOR_SIMD_SSE2)
inline constexpr const char* kImplName = "sse2";
#else
inline constexpr const char* kImplName = "scalar";
#endif

namespace detail {
inline constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace detail

/// out[i] = base + w[i] for i in [0, n). One independent IEEE addition per
/// lane — bitwise identical to the scalar loop.
inline void AddBase(double base, const double* w, double* out, size_t n) {
  size_t i = 0;
#if defined(INDOOR_SIMD_AVX2)
  const __m256d b = _mm256_set1_pd(base);
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i, _mm256_add_pd(b, _mm256_loadu_pd(w + i)));
  }
#elif defined(INDOOR_SIMD_SSE2)
  const __m128d b = _mm_set1_pd(base);
  for (; i + 2 <= n; i += 2) {
    _mm_storeu_pd(out + i, _mm_add_pd(b, _mm_loadu_pd(w + i)));
  }
#endif
  for (; i < n; ++i) out[i] = base + w[i];
}

/// Relaxation filter for one CSR edge span: writes into `out_idx`
/// (ascending) every index i in [0, n) with cand[i] < dist[targets[i]],
/// and returns how many were written. The comparison reads `dist` as it
/// was BEFORE the span is applied, so when the same target appears twice
/// in one span the caller must re-check `cand[i] < dist[to]` while
/// applying — a stale pass is re-filtered there, and a stale fail is
/// impossible (dist only decreases, so an entry filtered out here could
/// never pass later). `out_idx` must hold at least n entries.
inline size_t FilterImprovements(const double* cand, const uint32_t* targets,
                                 const double* dist, size_t n,
                                 uint32_t* out_idx) {
  size_t count = 0;
  size_t i = 0;
#if defined(INDOOR_SIMD_AVX2)
  for (; i + 4 <= n; i += 4) {
    const __m128i idx =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(targets + i));
    // The masked gather with an all-ones mask loads the same four lanes;
    // the unmasked intrinsic leaves its source operand undefined, which
    // GCC reports as "may be used uninitialized".
    const __m256d d = _mm256_mask_i32gather_pd(
        _mm256_setzero_pd(), dist, idx,
        _mm256_castsi256_pd(_mm256_set1_epi64x(-1)), sizeof(double));
    const __m256d c = _mm256_loadu_pd(cand + i);
    int m = _mm256_movemask_pd(_mm256_cmp_pd(c, d, _CMP_LT_OQ));
    while (m != 0) {
      const int bit = __builtin_ctz(static_cast<unsigned>(m));
      out_idx[count++] = static_cast<uint32_t>(i) + static_cast<uint32_t>(bit);
      m &= m - 1;
    }
  }
#elif defined(INDOOR_SIMD_SSE2)
  for (; i + 2 <= n; i += 2) {
    const __m128d d = _mm_set_pd(dist[targets[i + 1]], dist[targets[i]]);
    const __m128d c = _mm_loadu_pd(cand + i);
    int m = _mm_movemask_pd(_mm_cmplt_pd(c, d));
    while (m != 0) {
      const int bit = __builtin_ctz(static_cast<unsigned>(m));
      out_idx[count++] = static_cast<uint32_t>(i) + static_cast<uint32_t>(bit);
      m &= m - 1;
    }
  }
#endif
  for (; i < n; ++i) {
    if (cand[i] < dist[targets[i]]) out_idx[count++] = static_cast<uint32_t>(i);
  }
  return count;
}

/// mask[i] = (v[i] <= bound) ? 1 : 0 for i in [0, n). Ordered comparison:
/// NaN and +inf lanes yield 0, exactly like the scalar `<=`.
inline void MaskLessEqual(const double* v, size_t n, double bound,
                          uint8_t* mask) {
  size_t i = 0;
#if defined(INDOOR_SIMD_AVX2)
  const __m256d b = _mm256_set1_pd(bound);
  for (; i + 4 <= n; i += 4) {
    const int m = _mm256_movemask_pd(
        _mm256_cmp_pd(_mm256_loadu_pd(v + i), b, _CMP_LE_OQ));
    mask[i] = static_cast<uint8_t>(m & 1);
    mask[i + 1] = static_cast<uint8_t>((m >> 1) & 1);
    mask[i + 2] = static_cast<uint8_t>((m >> 2) & 1);
    mask[i + 3] = static_cast<uint8_t>((m >> 3) & 1);
  }
#elif defined(INDOOR_SIMD_SSE2)
  const __m128d b = _mm_set1_pd(bound);
  for (; i + 2 <= n; i += 2) {
    const int m = _mm_movemask_pd(_mm_cmple_pd(_mm_loadu_pd(v + i), b));
    mask[i] = static_cast<uint8_t>(m & 1);
    mask[i + 1] = static_cast<uint8_t>((m >> 1) & 1);
  }
#endif
  for (; i < n; ++i) mask[i] = v[i] <= bound ? 1 : 0;
}

namespace detail {

/// max(acc, term) where term is valid only when both operands are finite;
/// invalid lanes contribute 0 (the accumulator starts at 0, so the final
/// result is already clamped to >= 0).
inline double AltTermMax(double acc, double a, double b) {
  // term = a - b, valid iff a != +inf && b != +inf && a != -inf && b != -inf.
  if (a != kInf && b != kInf && a != -kInf && b != -kInf) {
    const double t = a - b;
    if (t > acc) acc = t;
  }
  return acc;
}

#if defined(INDOOR_SIMD_AVX2)
/// Vector lane-mask: all-ones where x is finite (not +-inf). Inputs are
/// never NaN (distances are finite or +-inf sentinels).
inline __m256d FiniteMask(__m256d x) {
  const __m256d pinf = _mm256_set1_pd(kInf);
  const __m256d ninf = _mm256_set1_pd(-kInf);
  return _mm256_and_pd(_mm256_cmp_pd(x, pinf, _CMP_NEQ_OQ),
                       _mm256_cmp_pd(x, ninf, _CMP_NEQ_OQ));
}
#elif defined(INDOOR_SIMD_SSE2)
/// Two-lane FiniteMask (see the AVX2 variant above).
inline __m128d FiniteMask(__m128d x) {
  const __m128d pinf = _mm_set1_pd(kInf);
  const __m128d ninf = _mm_set1_pd(-kInf);
  return _mm_and_pd(_mm_cmpneq_pd(x, pinf), _mm_cmpneq_pd(x, ninf));
}
#endif

}  // namespace detail

/// ALT triangle-inequality lower bound on d(s, t) from per-door landmark
/// rows (core/index/landmark_index.h): for each landmark l,
///   d(s,t) >= fwd_t[l] - fwd_s[l]   (fwd_x[l] = d(l, x))
///   d(s,t) >= bwd_s[l] - bwd_t[l]   (bwd_x[l] = d(x, l))
/// Terms with an infinite operand are skipped; the result is clamped to
/// >= 0. Subtractions and max are exact, so every implementation returns
/// the same bits.
inline double AltPairBound(const double* fwd_s, const double* fwd_t,
                           const double* bwd_s, const double* bwd_t,
                           size_t n) {
  double acc = 0.0;
  size_t i = 0;
#if defined(INDOOR_SIMD_AVX2)
  __m256d vacc = _mm256_setzero_pd();
  for (; i + 4 <= n; i += 4) {
    const __m256d fs = _mm256_loadu_pd(fwd_s + i);
    const __m256d ft = _mm256_loadu_pd(fwd_t + i);
    const __m256d bs = _mm256_loadu_pd(bwd_s + i);
    const __m256d bt = _mm256_loadu_pd(bwd_t + i);
    const __m256d t1 = _mm256_and_pd(
        _mm256_and_pd(detail::FiniteMask(ft), detail::FiniteMask(fs)),
        _mm256_sub_pd(ft, fs));
    const __m256d t2 = _mm256_and_pd(
        _mm256_and_pd(detail::FiniteMask(bs), detail::FiniteMask(bt)),
        _mm256_sub_pd(bs, bt));
    vacc = _mm256_max_pd(vacc, _mm256_max_pd(t1, t2));
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, vacc);
  for (const double v : lanes) {
    if (v > acc) acc = v;
  }
#endif
  for (; i < n; ++i) {
    acc = detail::AltTermMax(acc, fwd_t[i], fwd_s[i]);
    acc = detail::AltTermMax(acc, bwd_s[i], bwd_t[i]);
  }
  return acc;
}

/// Landmark-major batch variant of the ALT bound, used by the approximate
/// kNN tier (core/index/approx_knn.h): for ONE landmark l with the
/// query-side aggregates fq = d(l, q) and bq = d(q, l), folds the terms
///   acc[o] = max(acc[o], fwd[o] - fq, bq - bwd[o])
/// over a whole landmark-major row (fwd[o] = d(l, object_o), bwd[o] =
/// d(object_o, l)). Terms with an infinite operand are skipped, exactly as
/// in AltTermMax; callers zero `acc` before the first landmark so the
/// final accumulator is clamped to >= 0. Per-lane subtract/compare/max
/// only, so every tier returns the same bits as the scalar loop.
inline void AltBatchBoundMax(const double* fwd, const double* bwd, double fq,
                             double bq, double* acc, size_t n) {
  size_t i = 0;
#if defined(INDOOR_SIMD_AVX2)
  const __m256d vfq = _mm256_set1_pd(fq);
  const __m256d vbq = _mm256_set1_pd(bq);
  const __m256d fq_ok = detail::FiniteMask(vfq);
  const __m256d bq_ok = detail::FiniteMask(vbq);
  for (; i + 4 <= n; i += 4) {
    const __m256d f = _mm256_loadu_pd(fwd + i);
    const __m256d b = _mm256_loadu_pd(bwd + i);
    const __m256d t1 = _mm256_and_pd(
        _mm256_and_pd(detail::FiniteMask(f), fq_ok), _mm256_sub_pd(f, vfq));
    const __m256d t2 = _mm256_and_pd(
        _mm256_and_pd(bq_ok, detail::FiniteMask(b)), _mm256_sub_pd(vbq, b));
    // maxpd keeps the SECOND operand on ties, so (term, acc) ordering
    // reproduces the scalar strict `t > acc` replacement bit-for-bit
    // (masked-out terms become +0.0 and never displace a >= 0 acc).
    __m256d a = _mm256_loadu_pd(acc + i);
    a = _mm256_max_pd(t1, a);
    a = _mm256_max_pd(t2, a);
    _mm256_storeu_pd(acc + i, a);
  }
#elif defined(INDOOR_SIMD_SSE2)
  const __m128d vfq = _mm_set1_pd(fq);
  const __m128d vbq = _mm_set1_pd(bq);
  const __m128d fq_ok = detail::FiniteMask(vfq);
  const __m128d bq_ok = detail::FiniteMask(vbq);
  for (; i + 2 <= n; i += 2) {
    const __m128d f = _mm_loadu_pd(fwd + i);
    const __m128d b = _mm_loadu_pd(bwd + i);
    const __m128d t1 = _mm_and_pd(
        _mm_and_pd(detail::FiniteMask(f), fq_ok), _mm_sub_pd(f, vfq));
    const __m128d t2 = _mm_and_pd(
        _mm_and_pd(bq_ok, detail::FiniteMask(b)), _mm_sub_pd(vbq, b));
    // Same (term, acc) maxpd ordering as the AVX2 tier: SSE2 maxpd also
    // keeps the SECOND operand on ties, matching the scalar `t > acc`.
    __m128d a = _mm_loadu_pd(acc + i);
    a = _mm_max_pd(t1, a);
    a = _mm_max_pd(t2, a);
    _mm_storeu_pd(acc + i, a);
  }
#endif
  for (; i < n; ++i) {
    double a = detail::AltTermMax(acc[i], fwd[i], fq);
    a = detail::AltTermMax(a, bq, bwd[i]);
    acc[i] = a;
  }
}

/// Target-SET variant of AltPairBound, used by the virtual-source Dijkstra
/// to prune pushes: lower-bounds min over the destination-door set T of
/// d(v, t), given the per-query aggregates
///   min_tf[l] = min over t in T of fwd_t[l]   (+inf when no finite entry)
///   max_tb[l] = max over t in T of bwd_t[l]   (-inf when T empty; +inf
///                                              when any t cannot reach l)
/// For each landmark l: min_t d(v,t) >= min_tf[l] - fwd_v[l] and
/// min_t d(v,t) >= bwd_v[l] - max_tb[l]; terms with an infinite operand
/// are skipped and the result is clamped to >= 0.
inline double AltSetBound(const double* fwd_v, const double* bwd_v,
                          const double* min_tf, const double* max_tb,
                          size_t n) {
  double acc = 0.0;
  size_t i = 0;
#if defined(INDOOR_SIMD_AVX2)
  __m256d vacc = _mm256_setzero_pd();
  for (; i + 4 <= n; i += 4) {
    const __m256d fv = _mm256_loadu_pd(fwd_v + i);
    const __m256d bv = _mm256_loadu_pd(bwd_v + i);
    const __m256d mtf = _mm256_loadu_pd(min_tf + i);
    const __m256d mtb = _mm256_loadu_pd(max_tb + i);
    const __m256d t1 = _mm256_and_pd(
        _mm256_and_pd(detail::FiniteMask(mtf), detail::FiniteMask(fv)),
        _mm256_sub_pd(mtf, fv));
    const __m256d t2 = _mm256_and_pd(
        _mm256_and_pd(detail::FiniteMask(bv), detail::FiniteMask(mtb)),
        _mm256_sub_pd(bv, mtb));
    vacc = _mm256_max_pd(vacc, _mm256_max_pd(t1, t2));
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, vacc);
  for (const double v : lanes) {
    if (v > acc) acc = v;
  }
#endif
  for (; i < n; ++i) {
    acc = detail::AltTermMax(acc, min_tf[i], fwd_v[i]);
    acc = detail::AltTermMax(acc, bwd_v[i], max_tb[i]);
  }
  return acc;
}

}  // namespace simd
}  // namespace indoor

#endif  // INDOOR_UTIL_SIMD_H_
