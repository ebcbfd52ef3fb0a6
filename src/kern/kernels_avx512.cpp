// AVX-512 backend: 8-lane double kernels (512-bit), compiled with
// -mavx512f -mavx512dq -mavx512bw -mavx512vl and -ffp-contract=off.
// The floating-point kernels are the shared bodies of simd_impl.hpp
// instantiated over the Avx512 traits below, under the same contract as
// the AVX2 backend; this TU holds only what its instructions make its
// own: the traits, the forwarding of small model kernels to AVX2, the
// 512-bit census, and the draw sweep and candidate screen (vpmullq,
// 64-bit-index gathers, vpcompressd/q).
// dispatch.cpp only publishes this table after CPUID confirms
// F+DQ+BW+VL.

// GCC 12's avx512fintrin.h seeds _mm512_reduce_add_pd/_epi64,
// _mm512_extract*x4, _mm512_srli_*, _mm512_broadcast_i32x4 and others
// with _mm512_undefined_* placeholder operands. Inlined into the kernels
// below, -Wall reports those placeholders as (maybe-)uninitialized reads
// and -Werror stops the build, though they are the header's don't-care
// inputs, not reads of our data. The pragma is limited to this file and
// to the GCC releases before 13, and precedes every include so that it
// covers the header's lines.
#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ < 13
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

#include <immintrin.h>

#include "kern/kern.hpp"
#include "kern/scalar_impl.hpp"
#include "kern/simd_impl.hpp"
#include "kern/tables.hpp"
#include "kern/varint_simd.hpp"

namespace rumor::kern {

namespace {

struct Avx512 {
  using Vec = __m512d;
  static constexpr std::size_t kLanes = 8;

  static Vec load(const double* p) { return _mm512_loadu_pd(p); }
  static void store(double* p, Vec v) { _mm512_storeu_pd(p, v); }
  static Vec set1(double x) { return _mm512_set1_pd(x); }
  static Vec zero() { return _mm512_setzero_pd(); }
  static double reduce(Vec v) { return _mm512_reduce_add_pd(v); }

  static Vec gather(const double* w, const std::uint32_t* idx) {
    return _mm512_i32gather_pd(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx)), w, 8);
  }

  /// The last, partial vector: only the lanes set in `mask`.
  struct Partial {
    explicit Partial(std::size_t count)
        : mask(static_cast<__mmask8>((1u << count) - 1u)) {}
    __mmask8 mask;
    Vec load(const double* p) const { return _mm512_maskz_loadu_pd(mask, p); }
    void store(double* p, Vec v) const { _mm512_mask_storeu_pd(p, mask, v); }
  };
};

using V = Avx512;
constexpr std::size_t kLanes = V::kLanes;

// Below two full vectors of groups the 512-bit model kernels lose to
// the 256-bit ones — masked loads plus the deeper horizontal Θ /
// coupling reductions cost more than the halved lane count saves, and
// the paper-scale optimal-control solves run at n ≈ 10–20. The model
// kernels forward to the AVX2 table there (bitwise-consistently: the
// rhs and fused-step kernels forward at the same threshold, and the
// elementwise stage kernels are bit-identical across backends). The
// batched kernels never forward: they fill vectors by lanes, not
// groups.
constexpr std::size_t kSmallN = 2 * kLanes;

double sir_rhs(const double* s, const double* i, const double* lambda,
               const double* phi, std::size_t n, double mean_k, double alpha,
               double e1, double e2, double* ds, double* di) {
#ifdef RUMOR_KERN_HAVE_AVX2
  if (n < kSmallN) {
    return avx2_ops().sir_rhs(s, i, lambda, phi, n, mean_k, alpha, e1, e2,
                              ds, di);
  }
#endif
  return simd::sir_rhs<V>(s, i, lambda, phi, n, mean_k, alpha, e1, e2, ds,
                          di);
}

void costate_rhs(const double* s, const double* i, const double* psi,
                 const double* phic, const double* lambda,
                 const double* phi_over_k, std::size_t n, double c1e1,
                 double c2e2, double e1, double e2, double theta,
                 bool diagonal, double* dpsi, double* dphi) {
#ifdef RUMOR_KERN_HAVE_AVX2
  if (n < kSmallN) {
    avx2_ops().costate_rhs(s, i, psi, phic, lambda, phi_over_k, n, c1e1,
                           c2e2, e1, e2, theta, diagonal, dpsi, dphi);
    return;
  }
#endif
  simd::costate_rhs<V>(s, i, psi, phic, lambda, phi_over_k, n, c1e1, c2e2,
                       e1, e2, theta, diagonal, dpsi, dphi);
}

void sir_rk4_step(const double* y, std::size_t n, double mean_k, double alpha,
                  const double* e1, const double* e2, const double* lambda,
                  const double* phi, double h, double* y_next,
                  double* scratch) {
#ifdef RUMOR_KERN_HAVE_AVX2
  if (n < kSmallN) {
    avx2_ops().sir_rk4_step(y, n, mean_k, alpha, e1, e2, lambda, phi, h,
                            y_next, scratch);
    return;
  }
#endif
  simd::sir_rk4_step<V>(y, n, mean_k, alpha, e1, e2, lambda, phi, h, y_next,
                        scratch);
}

void costate_rk4_step(const double* w, std::size_t n, const double* y0,
                      const double* ymid, const double* y1,
                      const double* lambda, const double* phi_over_k,
                      const double* theta, const double* e1, const double* e2,
                      double c1, double c2, double h, bool diagonal,
                      double* w_next, double* scratch) {
#ifdef RUMOR_KERN_HAVE_AVX2
  if (n < kSmallN) {
    avx2_ops().costate_rk4_step(w, n, y0, ymid, y1, lambda, phi_over_k,
                                theta, e1, e2, c1, c2, h, diagonal, w_next,
                                scratch);
    return;
  }
#endif
  simd::costate_rk4_step<V>(w, n, y0, ymid, y1, lambda, phi_over_k, theta, e1,
                            e2, c1, c2, h, diagonal, w_next, scratch);
}

/// Per-64-bit-lane byte-sum popcount of 8 words via the nibble lookup
/// widened to 512 bits (shuffle/sad need AVX512BW).
inline __m512i popcount_epi64(__m512i v) {
  const __m512i lookup = _mm512_broadcast_i32x4(_mm_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4));
  const __m512i low_mask = _mm512_set1_epi8(0x0f);
  const __m512i lo = _mm512_and_si512(v, low_mask);
  const __m512i hi = _mm512_and_si512(_mm512_srli_epi32(v, 4), low_mask);
  const __m512i counts = _mm512_add_epi8(_mm512_shuffle_epi8(lookup, lo),
                                         _mm512_shuffle_epi8(lookup, hi));
  return _mm512_sad_epu8(counts, _mm512_setzero_si512());
}

void census2(const std::uint64_t* words, std::size_t nnodes,
             std::uint64_t out[2]) {
  const std::size_t full = nnodes / scalar::kNodesPerWord;
  const std::size_t vec_words = full - full % kLanes;
  const __m512i even =
      _mm512_set1_epi64(static_cast<long long>(scalar::kEvenBits));
  __m512i infected = _mm512_setzero_si512();
  __m512i recovered = _mm512_setzero_si512();
  for (std::size_t w = 0; w < vec_words; w += kLanes) {
    const __m512i v =
        _mm512_loadu_si512(reinterpret_cast<const void*>(words + w));
    infected = _mm512_add_epi64(infected,
                                popcount_epi64(_mm512_and_si512(v, even)));
    recovered = _mm512_add_epi64(
        recovered, popcount_epi64(_mm512_andnot_si512(even, v)));
  }
  std::uint64_t tail[2];
  scalar::census2(words + vec_words,
                  nnodes - vec_words * scalar::kNodesPerWord, tail);
  out[0] = tail[0] + static_cast<std::uint64_t>(
                         _mm512_reduce_add_epi64(infected));
  out[1] = tail[1] + static_cast<std::uint64_t>(
                         _mm512_reduce_add_epi64(recovered));
}

// splitmix64 on eight u64 lanes (vpmullq is AVX512DQ).
inline __m512i splitmix64(__m512i x) {
  __m512i z = _mm512_add_epi64(
      x, _mm512_set1_epi64(static_cast<long long>(0x9E3779B97F4A7C15ULL)));
  z = _mm512_mullo_epi64(
      _mm512_xor_si512(z, _mm512_srli_epi64(z, 30)),
      _mm512_set1_epi64(static_cast<long long>(0xBF58476D1CE4E5B9ULL)));
  z = _mm512_mullo_epi64(
      _mm512_xor_si512(z, _mm512_srli_epi64(z, 27)),
      _mm512_set1_epi64(static_cast<long long>(0x94D049BB133111EBULL)));
  return _mm512_xor_si512(z, _mm512_srli_epi64(z, 31));
}

std::size_t draw_candidates(std::uint64_t key, std::uint64_t threshold,
                            const std::uint32_t* exposure,
                            const std::uint64_t* premix, std::size_t lo,
                            std::size_t hi, std::uint32_t* out,
                            std::uint64_t* keys) {
  const __m512i step = _mm512_set1_epi64(static_cast<long long>(key));
  const __m512i limit = _mm512_set1_epi64(static_cast<long long>(threshold));
  // Node ids are u32; the 32-bit lanes wrap exactly as unsigned adds.
  __m256i ids32 = _mm256_add_epi32(
      _mm256_set1_epi32(static_cast<int>(static_cast<std::uint32_t>(lo))),
      _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  std::size_t count = 0;
  std::size_t v = lo;
  for (; v + kLanes <= hi; v += kLanes) {
    // hash_mix(key, v) = splitmix64(key ^ premix(v)) is the node's stream
    // key; its first draw is one more splitmix64 step.
    const __m512i mixed =
        splitmix64(_mm512_xor_si512(step, _mm512_loadu_si512(premix + v)));
    const __m512i draw = _mm512_srli_epi64(splitmix64(mixed), 11);
    const __m256i exposed =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(exposure + v));
    const __mmask8 keep = _mm512_cmplt_epu64_mask(draw, limit) |
                          _mm256_test_epi32_mask(exposed, exposed);
    // Compress in a register and store all eight lanes: the slots past
    // the kept ids and keys lie inside this range's own output
    // (count <= v - lo), and the next store overwrites them. A
    // memory-destination compress would avoid the overhang but is
    // microcoded on some cores.
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + count),
                        _mm256_maskz_compress_epi32(keep, ids32));
    _mm512_storeu_si512(keys + count, _mm512_maskz_compress_epi64(keep, mixed));
    count += static_cast<std::size_t>(__builtin_popcount(keep));
    ids32 = _mm256_add_epi32(ids32, _mm256_set1_epi32(8));
  }
  return count + scalar::draw_candidates(key, threshold, exposure, premix, v,
                                         hi, out + count, keys + count);
}

std::size_t screen_candidates(const ScreenInputs& in, std::uint32_t* ids,
                              std::uint64_t* keys, std::size_t count) {
  const __m512i threshold_immunize =
      _mm512_set1_epi64(static_cast<long long>(in.threshold_immunize));
  const __m512i threshold_block =
      _mm512_set1_epi64(static_cast<long long>(in.threshold_block));
  const __m512i golden =
      _mm512_set1_epi64(static_cast<long long>(0x9E3779B97F4A7C15ULL));
  std::size_t kept = 0;
  std::size_t i = 0;
  for (; i + kLanes <= count; i += kLanes) {
    const __m256i ids32 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ids + i));
    const __m512i key = _mm512_loadu_si512(keys + i);
    // Node ids are u32: zero-extended 64-bit gather indices.
    const __m512i v = _mm512_cvtepu32_epi64(ids32);
    const __m512i word = _mm512_i64gather_epi64(_mm512_srli_epi64(v, 5),
                                                in.words, 8);
    const __m512i compartment = _mm512_and_si512(
        _mm512_srlv_epi64(word, _mm512_slli_epi64(
                                    _mm512_and_si512(v, _mm512_set1_epi64(31)),
                                    1)),
        _mm512_set1_epi64(3));
    const __mmask8 susceptible =
        _mm512_cmpeq_epi64_mask(compartment, _mm512_setzero_si512());
    const __mmask8 infected =
        _mm512_cmpeq_epi64_mask(compartment, _mm512_set1_epi64(1));
    // CounterRng(key): the first draw is splitmix64(key), the second
    // splitmix64(key + golden).
    const __m512i first = _mm512_srli_epi64(splitmix64(key), 11);
    __mmask8 keep =
        _mm512_mask_cmplt_epu64_mask(infected, first, threshold_block) |
        _mm512_mask_cmplt_epu64_mask(susceptible, first, threshold_immunize);
    const __mmask8 drawn = susceptible & static_cast<__mmask8>(~keep);
    const __m256i sources = _mm512_mask_i64gather_epi32(
        _mm256_setzero_si256(), drawn, v, in.exposure_count, 4);
    const __mmask8 exposed =
        _mm256_mask_test_epi32_mask(drawn, sources, sources);
    const __m512i sum = _mm512_mask_i64gather_epi64(
        _mm512_setzero_si512(), exposed, v, in.exposure_sum, 8);
    const __m256i group = _mm512_mask_i64gather_epi32(
        _mm256_setzero_si256(), exposed, v, in.group_of, 4);
    const __m512d lambda_over_k = _mm512_mask_i64gather_pd(
        V::zero(), exposed, _mm512_cvtepu32_epi64(group), in.lambda_over_k, 8);
    const __m512d bound = simd::rejection_bound<V>(
        _mm512_cvtepu32_pd(sources), _mm512_cvtepi64_pd(sum), lambda_over_k,
        in);
    const __m512d second =
        _mm512_cvtepi64_pd(_mm512_srli_epi64(
            splitmix64(_mm512_add_epi64(key, golden)), 11)) *
        V::set1(0x1.0p-53);
    keep |= _mm512_mask_cmp_pd_mask(exposed, second, bound, _CMP_NGE_UQ);
    // In place: kept <= i, so the full-width stores land on slots this
    // loop has already read.
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(ids + kept),
                        _mm256_maskz_compress_epi32(keep, ids32));
    _mm512_storeu_si512(keys + kept, _mm512_maskz_compress_epi64(keep, key));
    kept += static_cast<std::size_t>(__builtin_popcount(keep));
  }
  return scalar::screen_candidates(in, ids, keys, i, count, kept);
}

}  // namespace

const Ops& avx512_ops() {
  static constexpr Ops table = {
      Backend::kAvx512,
      simd::dot<V>,
      simd::sum<V>,
      simd::gather_sum<V>,
      simd::trapezoid<V>,
      simd::knot4<V>,
      sir_rhs,
      costate_rhs,
      sir_rk4_step,
      costate_rk4_step,
      simd::lerp<V>,
      simd::axpy_out<V>,
      simd::combine2<V>,
      simd::rk4_combine<V>,
      simd::accumulate<V>,
      simd::accumulate_sq<V>,
      census2,
      simd::varint_decode_deltas_avx2,
      draw_candidates,
      screen_candidates,
      simd::batch_dot<V>,
      simd::batch_trapezoid<V>,
      simd::batch_knot4<V>,
      simd::batch_sir_rhs<V>,
      simd::batch_costate_rhs<V>,
      simd::batch_sir_rk4_step<V>,
      simd::batch_costate_rk4_step<V>,
  };
  return table;
}

}  // namespace rumor::kern
