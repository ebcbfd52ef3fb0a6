// AVX2 backend: 4-lane double kernels (256-bit), compiled with -mavx2
// and -ffp-contract=off. The floating-point kernels are the shared
// bodies of simd_impl.hpp instantiated over the Avx2 traits below; this
// TU holds only what its instructions make its own: the traits, the
// nibble-lookup census, and the draw sweep and candidate screen, whose
// splitmix64 needs a 64-bit multiply AVX2 does not have and whose
// int64 → double conversion it emulates.
//
// Nothing in this TU runs before dispatch.cpp has confirmed AVX2 via
// CPUID, and the table below is plain data, so linking this TU into a
// binary that runs on a pre-AVX2 CPU is safe as long as the scalar
// backend is selected.
#include <immintrin.h>

#include "kern/kern.hpp"
#include "kern/scalar_impl.hpp"
#include "kern/simd_impl.hpp"
#include "kern/varint_simd.hpp"

namespace rumor::kern {

namespace {

struct Avx2 {
  using Vec = __m256d;
  static constexpr std::size_t kLanes = 4;

  static Vec load(const double* p) { return _mm256_loadu_pd(p); }
  static void store(double* p, Vec v) { _mm256_storeu_pd(p, v); }
  static Vec set1(double x) { return _mm256_set1_pd(x); }
  static Vec zero() { return _mm256_setzero_pd(); }

  static double reduce(Vec v) {
    const __m128d lo = _mm256_castpd256_pd128(v);
    const __m128d hi = _mm256_extractf128_pd(v, 1);
    const __m128d pair = _mm_add_pd(lo, hi);
    return _mm_cvtsd_f64(_mm_add_sd(pair, _mm_unpackhi_pd(pair, pair)));
  }

  static Vec gather(const double* w, const std::uint32_t* idx) {
    // The masked gather variant: GCC's unmasked _mm256_i32gather_pd
    // passes _mm256_undefined_pd() as the source and warns.
    return _mm256_mask_i32gather_pd(
        _mm256_setzero_pd(), w,
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx)),
        _mm256_castsi256_pd(_mm256_set1_epi64x(-1)), 8);
  }

  /// The last, partial vector: only the lanes whose `mask` element has
  /// its sign bit set, through vmaskmov loads and stores.
  struct Partial {
    explicit Partial(std::size_t count)
        : mask(_mm256_cmpgt_epi64(
              _mm256_set1_epi64x(static_cast<long long>(count)),
              _mm256_setr_epi64x(0, 1, 2, 3))) {}
    __m256i mask;
    Vec load(const double* p) const { return _mm256_maskload_pd(p, mask); }
    void store(double* p, Vec v) const { _mm256_maskstore_pd(p, mask, v); }
  };
};

using V = Avx2;
constexpr std::size_t kLanes = V::kLanes;

/// Per-64-bit-lane byte-sum popcount of 4 words via the SSSE3 nibble
/// lookup, widened to 256 bits.
inline __m256i popcount_epi64(__m256i v) {
  const __m256i lookup = _mm256_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi32(v, 4), low_mask);
  const __m256i counts = _mm256_add_epi8(_mm256_shuffle_epi8(lookup, lo),
                                         _mm256_shuffle_epi8(lookup, hi));
  return _mm256_sad_epu8(counts, _mm256_setzero_si256());
}

void census2(const std::uint64_t* words, std::size_t nnodes,
             std::uint64_t out[2]) {
  const std::size_t full = nnodes / scalar::kNodesPerWord;
  const std::size_t vec_words = full - full % kLanes;
  const __m256i even = _mm256_set1_epi64x(
      static_cast<long long>(scalar::kEvenBits));
  __m256i infected = _mm256_setzero_si256();
  __m256i recovered = _mm256_setzero_si256();
  for (std::size_t w = 0; w < vec_words; w += kLanes) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(words + w));
    infected = _mm256_add_epi64(infected,
                                popcount_epi64(_mm256_and_si256(v, even)));
    recovered = _mm256_add_epi64(
        recovered, popcount_epi64(_mm256_andnot_si256(even, v)));
  }
  alignas(32) std::uint64_t lanes[kLanes];
  std::uint64_t tail[2];
  scalar::census2(words + vec_words, nnodes - vec_words * 32, tail);
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), infected);
  out[0] = tail[0] + lanes[0] + lanes[1] + lanes[2] + lanes[3];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), recovered);
  out[1] = tail[1] + lanes[0] + lanes[1] + lanes[2] + lanes[3];
}

// splitmix64 on four u64 lanes. AVX2 has no 64-bit multiply, so each
// constant multiply is three 32x32->64 partial products (hi x hi falls
// off the top of the lane): integer-exact, like the scalar reference.
inline __m256i mul64_const(__m256i a, std::uint64_t c) {
  const __m256i c_lo =
      _mm256_set1_epi64x(static_cast<long long>(c & 0xFFFFFFFFu));
  const __m256i c_hi = _mm256_set1_epi64x(static_cast<long long>(c >> 32));
  const __m256i cross =
      _mm256_add_epi64(_mm256_mul_epu32(_mm256_srli_epi64(a, 32), c_lo),
                       _mm256_mul_epu32(a, c_hi));
  return _mm256_add_epi64(_mm256_mul_epu32(a, c_lo),
                          _mm256_slli_epi64(cross, 32));
}

inline __m256i splitmix64(__m256i x) {
  __m256i z = _mm256_add_epi64(
      x, _mm256_set1_epi64x(static_cast<long long>(0x9E3779B97F4A7C15ULL)));
  z = mul64_const(_mm256_xor_si256(z, _mm256_srli_epi64(z, 30)),
                  0xBF58476D1CE4E5B9ULL);
  z = mul64_const(_mm256_xor_si256(z, _mm256_srli_epi64(z, 27)),
                  0x94D049BB133111EBULL);
  return _mm256_xor_si256(z, _mm256_srli_epi64(z, 31));
}

std::size_t draw_candidates(std::uint64_t key, std::uint64_t threshold,
                            const std::uint32_t* exposure,
                            const std::uint64_t* premix, std::size_t lo,
                            std::size_t hi, std::uint32_t* out,
                            std::uint64_t* keys) {
  const __m256i step = _mm256_set1_epi64x(static_cast<long long>(key));
  // Draws are < 2^53 and thresholds <= 2^53, so a signed compare is exact.
  const __m256i limit = _mm256_set1_epi64x(static_cast<long long>(threshold));
  std::size_t count = 0;
  std::size_t v = lo;
  for (; v + kLanes <= hi; v += kLanes) {
    // hash_mix(key, v) = splitmix64(key ^ premix(v)) is the node's stream
    // key; its first draw is one more splitmix64 step.
    const __m256i mixed = splitmix64(_mm256_xor_si256(
        step,
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(premix + v))));
    const __m256i draw = _mm256_srli_epi64(splitmix64(mixed), 11);
    const __m256i unexposed = _mm256_cmpeq_epi64(
        _mm256_cvtepu32_epi64(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(exposure + v))),
        _mm256_setzero_si256());
    const auto hit = static_cast<unsigned>(_mm256_movemask_pd(
        _mm256_castsi256_pd(_mm256_cmpgt_epi64(limit, draw))));
    const auto idle = static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_castsi256_pd(unexposed)));
    const unsigned keep = hit | (~idle & 0xFu);
    alignas(32) std::uint64_t stream[kLanes];
    _mm256_store_si256(reinterpret_cast<__m256i*>(stream), mixed);
    // Branch-free append, as in the scalar reference.
    for (unsigned lane = 0; lane < kLanes; ++lane) {
      out[count] = static_cast<std::uint32_t>(v + lane);
      keys[count] = stream[lane];
      count += (keep >> lane) & 1u;
    }
  }
  return count + scalar::draw_candidates(key, threshold, exposure, premix, v,
                                         hi, out + count, keys + count);
}

/// u64 lanes below 2^53 to double, exactly: hi·2^32 − 2^52 (exact)
/// plus 2^52 + lo rounds once, and the sum is representable.
inline __m256d u64_to_double(__m256i x) {
  const __m256i hi = _mm256_or_si256(
      _mm256_srli_epi64(x, 32), _mm256_castpd_si256(_mm256_set1_pd(0x1p84)));
  const __m256i lo = _mm256_blend_epi32(
      x, _mm256_castpd_si256(_mm256_set1_pd(0x1p52)), 0xAA);
  return (_mm256_castsi256_pd(hi) - _mm256_set1_pd(0x1p84 + 0x1p52)) +
         _mm256_castsi256_pd(lo);
}

/// Gather of four u32 table entries at zero-extended 64-bit indices.
inline __m128i gather_u32(const std::uint32_t* table, __m256i index) {
  return _mm256_mask_i64gather_epi32(
      _mm_setzero_si128(), reinterpret_cast<const int*>(table), index,
      _mm_set1_epi32(-1), 4);
}

std::size_t screen_candidates(const ScreenInputs& in, std::uint32_t* ids,
                              std::uint64_t* keys, std::size_t count) {
  // Draws are < 2^53 and thresholds <= 2^53, so signed compares are exact.
  const __m256i threshold_immunize =
      _mm256_set1_epi64x(static_cast<long long>(in.threshold_immunize));
  const __m256i threshold_block =
      _mm256_set1_epi64x(static_cast<long long>(in.threshold_block));
  const __m256i golden =
      _mm256_set1_epi64x(static_cast<long long>(0x9E3779B97F4A7C15ULL));
  const __m256i all = _mm256_set1_epi64x(-1);
  std::size_t kept = 0;
  std::size_t i = 0;
  for (; i + kLanes <= count; i += kLanes) {
    // Node ids are u32: zero-extended 64-bit gather indices. Every id is
    // a node, so the gathers read every lane; the masks below pick the
    // lanes whose values matter.
    const __m256i v = _mm256_cvtepu32_epi64(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(ids + i)));
    const __m256i key =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i));
    const __m256i word = _mm256_mask_i64gather_epi64(
        _mm256_setzero_si256(), reinterpret_cast<const long long*>(in.words),
        _mm256_srli_epi64(v, 5), all, 8);
    const __m256i compartment = _mm256_and_si256(
        _mm256_srlv_epi64(word, _mm256_slli_epi64(
                                    _mm256_and_si256(
                                        v, _mm256_set1_epi64x(31)),
                                    1)),
        _mm256_set1_epi64x(3));
    const __m256i susceptible =
        _mm256_cmpeq_epi64(compartment, _mm256_setzero_si256());
    const __m256i infected =
        _mm256_cmpeq_epi64(compartment, _mm256_set1_epi64x(1));
    // CounterRng(key): the first draw is splitmix64(key), the second
    // splitmix64(key + golden).
    const __m256i first = _mm256_srli_epi64(splitmix64(key), 11);
    __m256i keep = _mm256_or_si256(
        _mm256_and_si256(infected,
                         _mm256_cmpgt_epi64(threshold_block, first)),
        _mm256_and_si256(susceptible,
                         _mm256_cmpgt_epi64(threshold_immunize, first)));
    const __m256i sources = _mm256_cvtepu32_epi64(
        gather_u32(in.exposure_count, v));
    const __m256i exposed = _mm256_andnot_si256(
        _mm256_or_si256(keep, _mm256_cmpeq_epi64(sources,
                                                 _mm256_setzero_si256())),
        susceptible);
    const __m256i sum = _mm256_mask_i64gather_epi64(
        _mm256_setzero_si256(),
        reinterpret_cast<const long long*>(in.exposure_sum), v, all, 8);
    const __m256d lambda_over_k = _mm256_mask_i64gather_pd(
        V::zero(), in.lambda_over_k,
        _mm256_cvtepu32_epi64(gather_u32(in.group_of, v)),
        _mm256_castsi256_pd(all), 8);
    const __m256d bound = simd::rejection_bound<V>(
        u64_to_double(sources), u64_to_double(sum), lambda_over_k, in);
    const __m256d second =
        u64_to_double(_mm256_srli_epi64(
            splitmix64(_mm256_add_epi64(key, golden)), 11)) *
        V::set1(0x1.0p-53);
    keep = _mm256_or_si256(
        keep, _mm256_and_si256(exposed,
                               _mm256_castpd_si256(_mm256_cmp_pd(
                                   second, bound, _CMP_NGE_UQ))));
    const auto mask = static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_castsi256_pd(keep)));
    alignas(32) std::uint64_t lane_ids[kLanes];
    alignas(32) std::uint64_t lane_keys[kLanes];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lane_ids), v);
    _mm256_store_si256(reinterpret_cast<__m256i*>(lane_keys), key);
    // Branch-free append, in place: kept <= i + lane, a slot already read.
    for (unsigned lane = 0; lane < kLanes; ++lane) {
      ids[kept] = static_cast<std::uint32_t>(lane_ids[lane]);
      keys[kept] = lane_keys[lane];
      kept += (mask >> lane) & 1u;
    }
  }
  return scalar::screen_candidates(in, ids, keys, i, count, kept);
}

}  // namespace

const Ops& avx2_ops() {
  static constexpr Ops table = {
      Backend::kAvx2,
      simd::dot<V>,
      simd::sum<V>,
      simd::gather_sum<V>,
      simd::trapezoid<V>,
      simd::knot4<V>,
      simd::sir_rhs<V>,
      simd::costate_rhs<V>,
      simd::sir_rk4_step<V>,
      simd::costate_rk4_step<V>,
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
