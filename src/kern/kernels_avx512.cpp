// AVX-512 backend: 8-lane double kernels (512-bit), compiled with
// -mavx512f -mavx512dq -mavx512bw -mavx512vl and -ffp-contract=off.
// Same contract as the AVX2 backend: elementwise kernels replay the
// scalar per-element IEEE sequence lane by lane (bit-identical),
// reductions keep 8 lane partials and fold at the end (tolerance).
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

#include "kern/batch_impl.hpp"
#include "kern/kern.hpp"
#include "kern/scalar_impl.hpp"
#include "kern/tables.hpp"
#include "kern/varint_simd.hpp"

namespace rumor::kern {

namespace {

constexpr std::size_t kLanes = 8;

// Below two full vectors of groups the 512-bit model kernels lose to
// the 256-bit ones — masked loads plus the deeper horizontal Θ /
// coupling reductions cost more than the halved lane count saves, and
// the paper-scale optimal-control solves run at n ≈ 10–20. The model
// kernels forward to the AVX2 table there (bitwise-consistently: the
// rhs and fused-step kernels forward at the same threshold, and the
// elementwise stage kernels are bit-identical across backends).
constexpr std::size_t kSmallN = 2 * kLanes;

inline __m512d negate(__m512d v) {
  return _mm512_xor_pd(v, _mm512_set1_pd(-0.0));
}

double dot(const double* a, const double* b, std::size_t n) {
  const std::size_t main = n - n % kLanes;
  __m512d acc = _mm512_setzero_pd();
  for (std::size_t i = 0; i < main; i += kLanes) {
    acc = _mm512_add_pd(
        acc, _mm512_mul_pd(_mm512_loadu_pd(a + i), _mm512_loadu_pd(b + i)));
  }
  return _mm512_reduce_add_pd(acc) + scalar::dot(a + main, b + main, n - main);
}

double sum(const double* a, std::size_t n) {
  const std::size_t main = n - n % kLanes;
  __m512d acc = _mm512_setzero_pd();
  for (std::size_t i = 0; i < main; i += kLanes) {
    acc = _mm512_add_pd(acc, _mm512_loadu_pd(a + i));
  }
  return _mm512_reduce_add_pd(acc) + scalar::sum(a + main, n - main);
}

double gather_sum(const double* w, const std::uint32_t* idx, std::size_t n) {
  if (n < 2 * kLanes) return scalar::gather_sum(w, idx, n);
  const std::size_t main = n - n % kLanes;
  __m512d acc = _mm512_setzero_pd();
  for (std::size_t i = 0; i < main; i += kLanes) {
    const __m256i lanes =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx + i));
    acc = _mm512_add_pd(acc, _mm512_i32gather_pd(lanes, w, 8));
  }
  return _mm512_reduce_add_pd(acc) +
         scalar::gather_sum(w, idx + main, n - main);
}

double trapezoid(const double* t, const double* y, std::size_t n) {
  if (n < 2) return 0.0;
  const std::size_t intervals = n - 1;
  const std::size_t main = intervals - intervals % kLanes;
  const __m512d half = _mm512_set1_pd(0.5);
  __m512d acc = _mm512_setzero_pd();
  for (std::size_t i = 0; i < main; i += kLanes) {
    const __m512d dt =
        _mm512_sub_pd(_mm512_loadu_pd(t + i + 1), _mm512_loadu_pd(t + i));
    const __m512d ys =
        _mm512_add_pd(_mm512_loadu_pd(y + i + 1), _mm512_loadu_pd(y + i));
    acc = _mm512_add_pd(acc, _mm512_mul_pd(_mm512_mul_pd(half, dt), ys));
  }
  return _mm512_reduce_add_pd(acc) +
         scalar::trapezoid(t + main, y + main, n - main);
}

void knot4(const double* s, const double* i, const double* psi,
           const double* phi, std::size_t n, double out[4]) {
  const std::size_t main = n - n % kLanes;
  __m512d psi_s = _mm512_setzero_pd(), s2 = _mm512_setzero_pd();
  __m512d phi_i = _mm512_setzero_pd(), i2 = _mm512_setzero_pd();
  for (std::size_t j = 0; j < main; j += kLanes) {
    const __m512d sv = _mm512_loadu_pd(s + j);
    const __m512d iv = _mm512_loadu_pd(i + j);
    psi_s =
        _mm512_add_pd(psi_s, _mm512_mul_pd(_mm512_loadu_pd(psi + j), sv));
    s2 = _mm512_add_pd(s2, _mm512_mul_pd(sv, sv));
    phi_i =
        _mm512_add_pd(phi_i, _mm512_mul_pd(_mm512_loadu_pd(phi + j), iv));
    i2 = _mm512_add_pd(i2, _mm512_mul_pd(iv, iv));
  }
  double tail[4];
  scalar::knot4(s + main, i + main, psi + main, phi + main, n - main, tail);
  out[0] = _mm512_reduce_add_pd(psi_s) + tail[0];
  out[1] = _mm512_reduce_add_pd(s2) + tail[1];
  out[2] = _mm512_reduce_add_pd(phi_i) + tail[2];
  out[3] = _mm512_reduce_add_pd(i2) + tail[3];
}

double sir_rhs(const double* s, const double* i, const double* lambda,
               const double* phi, std::size_t n, double mean_k, double alpha,
               double e1, double e2, double* ds, double* di) {
#ifdef RUMOR_KERN_HAVE_AVX2
  if (n < kSmallN) {
    return avx2_ops().sir_rhs(s, i, lambda, phi, n, mean_k, alpha, e1, e2,
                              ds, di);
  }
#endif
  const double theta = dot(phi, i, n) / mean_k;
  const std::size_t main = n - n % kLanes;
  const __m512d th = _mm512_set1_pd(theta);
  const __m512d al = _mm512_set1_pd(alpha);
  const __m512d e1v = _mm512_set1_pd(e1);
  const __m512d e2v = _mm512_set1_pd(e2);
  for (std::size_t j = 0; j < main; j += kLanes) {
    const __m512d sv = _mm512_loadu_pd(s + j);
    const __m512d iv = _mm512_loadu_pd(i + j);
    const __m512d infection =
        _mm512_mul_pd(_mm512_mul_pd(_mm512_loadu_pd(lambda + j), sv), th);
    _mm512_storeu_pd(ds + j, _mm512_sub_pd(_mm512_sub_pd(al, infection),
                                           _mm512_mul_pd(e1v, sv)));
    _mm512_storeu_pd(di + j,
                     _mm512_sub_pd(infection, _mm512_mul_pd(e2v, iv)));
  }
  scalar::sir_rhs_body(s, i, lambda, main, n, alpha, e1, e2, theta, ds, di);
  return theta;
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
  double coupling = 0.0;
  const std::size_t main = n - n % kLanes;
  if (!diagonal) {
    __m512d acc = _mm512_setzero_pd();
    for (std::size_t j = 0; j < main; j += kLanes) {
      const __m512d diff = _mm512_sub_pd(_mm512_loadu_pd(psi + j),
                                         _mm512_loadu_pd(phic + j));
      acc = _mm512_add_pd(
          acc,
          _mm512_mul_pd(_mm512_mul_pd(diff, _mm512_loadu_pd(lambda + j)),
                        _mm512_loadu_pd(s + j)));
    }
    coupling = _mm512_reduce_add_pd(acc);
    for (std::size_t j = main; j < n; ++j) {
      coupling += (psi[j] - phic[j]) * lambda[j] * s[j];
    }
  }
  const __m512d thv = _mm512_set1_pd(theta);
  const __m512d e1v = _mm512_set1_pd(e1);
  const __m512d e2v = _mm512_set1_pd(e2);
  const __m512d c1v = _mm512_set1_pd(c1e1);
  const __m512d c2v = _mm512_set1_pd(c2e2);
  const __m512d cpl = _mm512_set1_pd(coupling);
  for (std::size_t j = 0; j < main; j += kLanes) {
    const __m512d sv = _mm512_loadu_pd(s + j);
    const __m512d iv = _mm512_loadu_pd(i + j);
    const __m512d psiv = _mm512_loadu_pd(psi + j);
    const __m512d phv = _mm512_loadu_pd(phic + j);
    const __m512d lv = _mm512_loadu_pd(lambda + j);
    const __m512d dpsi_dt = _mm512_sub_pd(
        _mm512_add_pd(
            _mm512_mul_pd(c1v, sv),
            _mm512_mul_pd(psiv,
                          _mm512_add_pd(_mm512_mul_pd(lv, thv), e1v))),
        _mm512_mul_pd(_mm512_mul_pd(phv, lv), thv));
    const __m512d group_coupling =
        diagonal ? _mm512_mul_pd(
                       _mm512_mul_pd(_mm512_sub_pd(psiv, phv), lv), sv)
                 : cpl;
    const __m512d dphi_dt = _mm512_add_pd(
        _mm512_add_pd(
            _mm512_mul_pd(c2v, iv),
            _mm512_mul_pd(_mm512_loadu_pd(phi_over_k + j), group_coupling)),
        _mm512_mul_pd(phv, e2v));
    _mm512_storeu_pd(dpsi + j, negate(dpsi_dt));
    _mm512_storeu_pd(dphi + j, negate(dphi_dt));
  }
  scalar::costate_rhs_body(s, i, psi, phic, lambda, phi_over_k, main, n, c1e1,
                           c2e2, e1, e2, theta, diagonal, coupling, dpsi,
                           dphi);
}

void axpy_out(const double* y, const double* k, double a, double* out,
              std::size_t n);
void rk4_combine(const double* y, const double* k1, const double* k2,
                 const double* k3, const double* k4, double h6, double* out,
                 std::size_t n);

/// Split-half aligned partition of the fused-step scratch — see the
/// AVX2 TU for the store-to-load-forwarding rationale; the layout here
/// pads each half to 8-lane multiples.
inline double* fused_base(double* scratch) {
  return reinterpret_cast<double*>(
      (reinterpret_cast<std::uintptr_t>(scratch) + 63) &
      ~static_cast<std::uintptr_t>(63));
}

/// Whole RK4 step fused into one dispatch (see the AVX2 TU): stage RHS
/// and combines are direct, inlinable calls inside this TU, over
/// split-half aligned stage buffers.
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
  const std::size_t pad = (n + kLanes - 1) & ~(kLanes - 1);
  double* base = fused_base(scratch);
  double* k1s = base;
  double* k1i = base + pad;
  double* k2s = base + 2 * pad;
  double* k2i = base + 3 * pad;
  double* k3s = base + 4 * pad;
  double* k3i = base + 5 * pad;
  double* k4s = base + 6 * pad;
  double* k4i = base + 7 * pad;
  double* ts = base + 8 * pad;
  double* ti = base + 9 * pad;
  const double* S = y;
  const double* I = y + n;
  sir_rhs(S, I, lambda, phi, n, mean_k, alpha, e1[0], e2[0], k1s, k1i);
  axpy_out(S, k1s, 0.5 * h, ts, n);
  axpy_out(I, k1i, 0.5 * h, ti, n);
  sir_rhs(ts, ti, lambda, phi, n, mean_k, alpha, e1[1], e2[1], k2s, k2i);
  axpy_out(S, k2s, 0.5 * h, ts, n);
  axpy_out(I, k2i, 0.5 * h, ti, n);
  sir_rhs(ts, ti, lambda, phi, n, mean_k, alpha, e1[1], e2[1], k3s, k3i);
  axpy_out(S, k3s, h, ts, n);
  axpy_out(I, k3i, h, ti, n);
  sir_rhs(ts, ti, lambda, phi, n, mean_k, alpha, e1[2], e2[2], k4s, k4i);
  rk4_combine(S, k1s, k2s, k3s, k4s, h / 6.0, y_next, n);
  rk4_combine(I, k1i, k2i, k3i, k4i, h / 6.0, y_next + n, n);
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
  const std::size_t pad = (n + kLanes - 1) & ~(kLanes - 1);
  double* base = fused_base(scratch);
  double* k1p = base;
  double* k1f = base + pad;
  double* k2p = base + 2 * pad;
  double* k2f = base + 3 * pad;
  double* k3p = base + 4 * pad;
  double* k3f = base + 5 * pad;
  double* k4p = base + 6 * pad;
  double* k4f = base + 7 * pad;
  double* tp = base + 8 * pad;
  double* tf = base + 9 * pad;
  const auto stage = [&](const double* psi, const double* phic,
                         const double* y, std::size_t s, double* kp,
                         double* kf) {
    costate_rhs(y, y + n, psi, phic, lambda, phi_over_k, n,
                -2.0 * c1 * e1[s] * e1[s], -2.0 * c2 * e2[s] * e2[s], e1[s],
                e2[s], theta[s], diagonal, kp, kf);
  };
  stage(w, w + n, y0, 0, k1p, k1f);
  axpy_out(w, k1p, 0.5 * h, tp, n);
  axpy_out(w + n, k1f, 0.5 * h, tf, n);
  stage(tp, tf, ymid, 1, k2p, k2f);
  axpy_out(w, k2p, 0.5 * h, tp, n);
  axpy_out(w + n, k2f, 0.5 * h, tf, n);
  stage(tp, tf, ymid, 1, k3p, k3f);
  axpy_out(w, k3p, h, tp, n);
  axpy_out(w + n, k3f, h, tf, n);
  stage(tp, tf, y1, 2, k4p, k4f);
  rk4_combine(w, k1p, k2p, k3p, k4p, h / 6.0, w_next, n);
  rk4_combine(w + n, k1f, k2f, k3f, k4f, h / 6.0, w_next + n, n);
}

void lerp(const double* a, const double* b, double w, double* out,
          std::size_t n) {
  const std::size_t main = n - n % kLanes;
  const __m512d wv = _mm512_set1_pd(w);
  const __m512d uv = _mm512_set1_pd(1.0 - w);
  for (std::size_t i = 0; i < main; i += kLanes) {
    _mm512_storeu_pd(
        out + i, _mm512_add_pd(_mm512_mul_pd(uv, _mm512_loadu_pd(a + i)),
                               _mm512_mul_pd(wv, _mm512_loadu_pd(b + i))));
  }
  scalar::lerp(a, b, w, out, main, n);
}

void axpy_out(const double* y, const double* k, double a, double* out,
              std::size_t n) {
  const std::size_t main = n - n % kLanes;
  const __m512d av = _mm512_set1_pd(a);
  for (std::size_t i = 0; i < main; i += kLanes) {
    _mm512_storeu_pd(
        out + i, _mm512_add_pd(_mm512_loadu_pd(y + i),
                               _mm512_mul_pd(av, _mm512_loadu_pd(k + i))));
  }
  scalar::axpy_out(y, k, a, out, main, n);
}

void combine2(const double* y, const double* k1, const double* k2, double a,
              double* out, std::size_t n) {
  const std::size_t main = n - n % kLanes;
  const __m512d av = _mm512_set1_pd(a);
  for (std::size_t i = 0; i < main; i += kLanes) {
    const __m512d ks =
        _mm512_add_pd(_mm512_loadu_pd(k1 + i), _mm512_loadu_pd(k2 + i));
    _mm512_storeu_pd(out + i, _mm512_add_pd(_mm512_loadu_pd(y + i),
                                            _mm512_mul_pd(av, ks)));
  }
  scalar::combine2(y, k1, k2, a, out, main, n);
}

void rk4_combine(const double* y, const double* k1, const double* k2,
                 const double* k3, const double* k4, double h6, double* out,
                 std::size_t n) {
  const std::size_t main = n - n % kLanes;
  const __m512d h6v = _mm512_set1_pd(h6);
  const __m512d two = _mm512_set1_pd(2.0);
  for (std::size_t i = 0; i < main; i += kLanes) {
    // Same association as the scalar body: ((k1 + 2 k2) + 2 k3) + k4.
    __m512d t = _mm512_add_pd(
        _mm512_loadu_pd(k1 + i),
        _mm512_mul_pd(two, _mm512_loadu_pd(k2 + i)));
    t = _mm512_add_pd(t, _mm512_mul_pd(two, _mm512_loadu_pd(k3 + i)));
    t = _mm512_add_pd(t, _mm512_loadu_pd(k4 + i));
    _mm512_storeu_pd(out + i, _mm512_add_pd(_mm512_loadu_pd(y + i),
                                            _mm512_mul_pd(h6v, t)));
  }
  scalar::rk4_combine(y, k1, k2, k3, k4, h6, out, main, n);
}

void accumulate(const double* x, double* acc, std::size_t n) {
  const std::size_t main = n - n % kLanes;
  for (std::size_t i = 0; i < main; i += kLanes) {
    _mm512_storeu_pd(acc + i, _mm512_add_pd(_mm512_loadu_pd(acc + i),
                                            _mm512_loadu_pd(x + i)));
  }
  scalar::accumulate(x, acc, main, n);
}

void accumulate_sq(const double* x, double* acc, std::size_t n) {
  const std::size_t main = n - n % kLanes;
  for (std::size_t i = 0; i < main; i += kLanes) {
    const __m512d xv = _mm512_loadu_pd(x + i);
    _mm512_storeu_pd(acc + i, _mm512_add_pd(_mm512_loadu_pd(acc + i),
                                            _mm512_mul_pd(xv, xv)));
  }
  scalar::accumulate_sq(x, acc, main, n);
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

// --- batched lane-per-problem kernels -------------------------------
// One zmm holds the same component of 8 adjacent problems; the
// component loop runs sequentially, so every lane accumulates in the
// scalar left-to-right order — bit-identical to the scalar backend
// (kern.hpp policy). Unlike the one-problem model kernels above, there
// is NO kSmallN forwarding: the vectors are filled by lanes, not
// groups, so small n never strands vector width. Any lane count runs at
// full width: whole vectors use plain loads and stores, and the last
// partial vector (lanes % 8 problems) runs the same body through masked
// ones. Its masked-out lanes load as 0 (the only division, Θ / ⟨k⟩,
// cannot trap on them), are never stored, and their bytes are never
// touched, so no access leaves the caller's arrays.

/// Access to a whole 8-lane vector.
struct WholeVector {
  static __m512d load(const double* p) { return _mm512_loadu_pd(p); }
  static void store(double* p, __m512d v) { _mm512_storeu_pd(p, v); }
};

/// Access to the last, partial vector: only the lanes set in `mask`.
struct PartialVector {
  __mmask8 mask;
  __m512d load(const double* p) const {
    return _mm512_maskz_loadu_pd(mask, p);
  }
  void store(double* p, __m512d v) const {
    _mm512_mask_storeu_pd(p, mask, v);
  }
};

/// Calls body(access, l) for the vectors of lanes starting at
/// l = 0, 8, 16, …: whole vectors first, then the partial one.
/// It and every body are forced inline: out of line, a body reaches its
/// captures through the closure and, since the unaligned-store
/// intrinsics may alias anything, reloads each captured pointer after
/// every store (B = 8 solves ran ~15% slower that way).
template <typename Body>
[[gnu::always_inline]] inline void for_each_lane_vector(std::size_t lanes,
                                                        Body&& body) {
  std::size_t l = 0;
  for (; l + kLanes <= lanes; l += kLanes) body(WholeVector{}, l);
  if (l < lanes) {
    body(PartialVector{static_cast<__mmask8>((1u << (lanes - l)) - 1u)}, l);
  }
}

void batch_dot(const double* a, const double* b, std::size_t n,
               std::size_t lanes, double* out) {
  for_each_lane_vector(lanes, [&](const auto& v, std::size_t l)
                                  __attribute__((always_inline)) {
    __m512d acc = _mm512_setzero_pd();
    for (std::size_t j = 0; j < n; ++j) {
      acc = _mm512_add_pd(acc, _mm512_mul_pd(v.load(a + j * lanes + l),
                                             v.load(b + j * lanes + l)));
    }
    v.store(out + l, acc);
  });
}

void batch_trapezoid(const double* t, const double* y, std::size_t n,
                     std::size_t lanes, double* out) {
  for_each_lane_vector(lanes, [&](const auto& v, std::size_t l)
                                  __attribute__((always_inline)) {
    __m512d acc = _mm512_setzero_pd();
    for (std::size_t i = 1; i < n; ++i) {
      const double dt = t[i] - t[i - 1];
      const __m512d ys = _mm512_add_pd(v.load(y + i * lanes + l),
                                       v.load(y + (i - 1) * lanes + l));
      acc = _mm512_add_pd(acc, _mm512_mul_pd(_mm512_set1_pd(0.5 * dt), ys));
    }
    v.store(out + l, acc);
  });
}

void batch_knot4(const double* s, const double* i, const double* psi,
                 const double* phi, std::size_t n, std::size_t lanes,
                 double* out) {
  for_each_lane_vector(lanes, [&](const auto& v, std::size_t l)
                                  __attribute__((always_inline)) {
    __m512d psi_s = _mm512_setzero_pd(), s2 = _mm512_setzero_pd();
    __m512d phi_i = _mm512_setzero_pd(), i2 = _mm512_setzero_pd();
    for (std::size_t j = 0; j < n; ++j) {
      const __m512d sv = v.load(s + j * lanes + l);
      const __m512d iv = v.load(i + j * lanes + l);
      psi_s = _mm512_add_pd(psi_s,
                            _mm512_mul_pd(v.load(psi + j * lanes + l), sv));
      s2 = _mm512_add_pd(s2, _mm512_mul_pd(sv, sv));
      phi_i = _mm512_add_pd(phi_i,
                            _mm512_mul_pd(v.load(phi + j * lanes + l), iv));
      i2 = _mm512_add_pd(i2, _mm512_mul_pd(iv, iv));
    }
    v.store(out + 0 * lanes + l, psi_s);
    v.store(out + 1 * lanes + l, s2);
    v.store(out + 2 * lanes + l, phi_i);
    v.store(out + 3 * lanes + l, i2);
  });
}

void batch_sir_rhs(const double* s, const double* i, const double* lambda,
                   const double* phi, std::size_t n, std::size_t lanes,
                   double mean_k, const double* alpha, const double* e1,
                   const double* e2, double* ds, double* di,
                   double* theta_out) {
  const __m512d mk = _mm512_set1_pd(mean_k);
  for_each_lane_vector(lanes, [&](const auto& v, std::size_t l)
                                  __attribute__((always_inline)) {
    __m512d th = _mm512_setzero_pd();
    for (std::size_t j = 0; j < n; ++j) {
      th = _mm512_add_pd(th, _mm512_mul_pd(v.load(phi + j * lanes + l),
                                           v.load(i + j * lanes + l)));
    }
    th = _mm512_div_pd(th, mk);
    const __m512d al = v.load(alpha + l);
    const __m512d e1v = v.load(e1 + l);
    const __m512d e2v = v.load(e2 + l);
    for (std::size_t j = 0; j < n; ++j) {
      const __m512d sv = v.load(s + j * lanes + l);
      const __m512d iv = v.load(i + j * lanes + l);
      const __m512d infection =
          _mm512_mul_pd(_mm512_mul_pd(v.load(lambda + j * lanes + l), sv), th);
      v.store(ds + j * lanes + l, _mm512_sub_pd(_mm512_sub_pd(al, infection),
                                                _mm512_mul_pd(e1v, sv)));
      v.store(di + j * lanes + l,
              _mm512_sub_pd(infection, _mm512_mul_pd(e2v, iv)));
    }
    if (theta_out != nullptr) v.store(theta_out + l, th);
  });
}

void batch_costate_rhs(const double* s, const double* i, const double* psi,
                       const double* phic, const double* lambda,
                       const double* phi_over_k, std::size_t n,
                       std::size_t lanes, const double* c1e1,
                       const double* c2e2, const double* e1, const double* e2,
                       const double* theta, bool diagonal, double* dpsi,
                       double* dphi) {
  for_each_lane_vector(lanes, [&](const auto& v, std::size_t l)
                                  __attribute__((always_inline)) {
    __m512d cpl = _mm512_setzero_pd();
    if (!diagonal) {
      for (std::size_t j = 0; j < n; ++j) {
        const __m512d diff = _mm512_sub_pd(v.load(psi + j * lanes + l),
                                           v.load(phic + j * lanes + l));
        cpl = _mm512_add_pd(
            cpl, _mm512_mul_pd(
                     _mm512_mul_pd(diff, v.load(lambda + j * lanes + l)),
                     v.load(s + j * lanes + l)));
      }
    }
    const __m512d thv = v.load(theta + l);
    const __m512d e1v = v.load(e1 + l);
    const __m512d e2v = v.load(e2 + l);
    const __m512d c1v = v.load(c1e1 + l);
    const __m512d c2v = v.load(c2e2 + l);
    for (std::size_t j = 0; j < n; ++j) {
      const __m512d sv = v.load(s + j * lanes + l);
      const __m512d iv = v.load(i + j * lanes + l);
      const __m512d psiv = v.load(psi + j * lanes + l);
      const __m512d phv = v.load(phic + j * lanes + l);
      const __m512d lv = v.load(lambda + j * lanes + l);
      const __m512d dpsi_dt = _mm512_sub_pd(
          _mm512_add_pd(
              _mm512_mul_pd(c1v, sv),
              _mm512_mul_pd(psiv,
                            _mm512_add_pd(_mm512_mul_pd(lv, thv), e1v))),
          _mm512_mul_pd(_mm512_mul_pd(phv, lv), thv));
      const __m512d group_coupling =
          diagonal ? _mm512_mul_pd(
                         _mm512_mul_pd(_mm512_sub_pd(psiv, phv), lv), sv)
                   : cpl;
      const __m512d dphi_dt = _mm512_add_pd(
          _mm512_add_pd(
              _mm512_mul_pd(c2v, iv),
              _mm512_mul_pd(v.load(phi_over_k + j * lanes + l),
                            group_coupling)),
          _mm512_mul_pd(phv, e2v));
      v.store(dpsi + j * lanes + l, negate(dpsi_dt));
      v.store(dphi + j * lanes + l, negate(dphi_dt));
    }
  });
}

/// Batched fused RK4 step — same structure as the AVX2 TU: stage RHS
/// calls are the TU-local batched kernels, combines are the TU-local
/// elementwise kernels over the flattened 2n·lanes arrays.
void batch_sir_rk4_step(const double* y, std::size_t n, std::size_t lanes,
                        double mean_k, const double* alpha, const double* e1,
                        const double* e2, const double* lambda,
                        const double* phi, double h, double* y_next,
                        double* scratch) {
  const std::size_t dim = 2 * n * lanes;
  const std::size_t half = n * lanes;
  double* base = fused_base(scratch);
  double* k1 = base;
  double* k2 = base + dim;
  double* k3 = base + 2 * dim;
  double* k4 = base + 3 * dim;
  double* tmp = base + 4 * dim;
  batch_sir_rhs(y, y + half, lambda, phi, n, lanes, mean_k, alpha, e1, e2, k1,
                k1 + half, nullptr);
  axpy_out(y, k1, 0.5 * h, tmp, dim);
  batch_sir_rhs(tmp, tmp + half, lambda, phi, n, lanes, mean_k, alpha,
                e1 + lanes, e2 + lanes, k2, k2 + half, nullptr);
  axpy_out(y, k2, 0.5 * h, tmp, dim);
  batch_sir_rhs(tmp, tmp + half, lambda, phi, n, lanes, mean_k, alpha,
                e1 + lanes, e2 + lanes, k3, k3 + half, nullptr);
  axpy_out(y, k3, h, tmp, dim);
  batch_sir_rhs(tmp, tmp + half, lambda, phi, n, lanes, mean_k, alpha,
                e1 + 2 * lanes, e2 + 2 * lanes, k4, k4 + half, nullptr);
  rk4_combine(y, k1, k2, k3, k4, h / 6.0, y_next, dim);
}

void batch_costate_rk4_step(const double* w, std::size_t n, std::size_t lanes,
                            const double* y0, const double* ymid,
                            const double* y1, const double* lambda,
                            const double* phi_over_k, const double* theta,
                            const double* e1, const double* e2,
                            const double* c1, const double* c2, double h,
                            bool diagonal, double* w_next, double* scratch) {
  const std::size_t dim = 2 * n * lanes;
  const std::size_t half = n * lanes;
  double* base = fused_base(scratch);
  double* k1 = base;
  double* k2 = base + dim;
  double* k3 = base + 2 * dim;
  double* k4 = base + 3 * dim;
  double* tmp = base + 4 * dim;
  double* c1e1 = base + 5 * dim;
  double* c2e2 = c1e1 + lanes;
  const auto stage = [&](const double* ws, const double* y, std::size_t s,
                         double* k) {
    batchref::costate_stage_coeffs(c1, c2, e1, e2, lanes, s, c1e1, c2e2);
    batch_costate_rhs(y, y + half, ws, ws + half, lambda, phi_over_k, n,
                      lanes, c1e1, c2e2, e1 + s * lanes, e2 + s * lanes,
                      theta + s * lanes, diagonal, k, k + half);
  };
  stage(w, y0, 0, k1);
  axpy_out(w, k1, 0.5 * h, tmp, dim);
  stage(tmp, ymid, 1, k2);
  axpy_out(w, k2, 0.5 * h, tmp, dim);
  stage(tmp, ymid, 1, k3);
  axpy_out(w, k3, h, tmp, dim);
  stage(tmp, y1, 2, k4);
  rk4_combine(w, k1, k2, k3, k4, h / 6.0, w_next, dim);
}

// --- draw sweep -------------------------------------------------------
// Kept last in the file, after the kernels the ODE and control paths
// run, so adding it left their code where it was.
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
                            const std::uint32_t* exposure, std::size_t lo,
                            std::size_t hi, std::uint32_t* out) {
  const __m512i golden =
      _mm512_set1_epi64(static_cast<long long>(0x9E3779B97F4A7C15ULL));
  const __m512i keys = _mm512_set1_epi64(static_cast<long long>(key));
  const __m512i limit = _mm512_set1_epi64(static_cast<long long>(threshold));
  __m512i ids = _mm512_add_epi64(_mm512_set1_epi64(static_cast<long long>(lo)),
                                 _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7));
  // Node ids are u32; the 32-bit lanes wrap exactly as unsigned adds.
  __m256i ids32 = _mm256_add_epi32(
      _mm256_set1_epi32(static_cast<int>(static_cast<std::uint32_t>(lo))),
      _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  std::size_t count = 0;
  std::size_t v = lo;
  for (; v + kLanes <= hi; v += kLanes) {
    // hash_mix(key, v) = splitmix64(key ^ (splitmix64(v) + golden)); the
    // first draw is one more splitmix64 step of that key.
    const __m512i mixed = splitmix64(
        _mm512_xor_si512(keys, _mm512_add_epi64(splitmix64(ids), golden)));
    const __m512i draw = _mm512_srli_epi64(splitmix64(mixed), 11);
    const __m256i exposed =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(exposure + v));
    const __mmask8 keep = _mm512_cmplt_epu64_mask(draw, limit) |
                          _mm256_test_epi32_mask(exposed, exposed);
    // Compress in a register and store all eight lanes: the slots past
    // the kept ids lie inside this range's own output (count <= v - lo),
    // and the next store overwrites them. A memory-destination
    // compress would avoid the overhang but is microcoded on some cores.
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + count),
                        _mm256_maskz_compress_epi32(keep, ids32));
    count += static_cast<std::size_t>(__builtin_popcount(keep));
    ids = _mm512_add_epi64(ids, _mm512_set1_epi64(8));
    ids32 = _mm256_add_epi32(ids32, _mm256_set1_epi32(8));
  }
  return count + scalar::draw_candidates(key, threshold, exposure, v, hi,
                                         out + count);
}

}  // namespace

const Ops& avx512_ops() {
  static constexpr Ops table = {
      Backend::kAvx512,
      dot,
      sum,
      gather_sum,
      trapezoid,
      knot4,
      sir_rhs,
      costate_rhs,
      sir_rk4_step,
      costate_rk4_step,
      lerp,
      axpy_out,
      combine2,
      rk4_combine,
      accumulate,
      accumulate_sq,
      census2,
      simd::varint_decode_deltas_avx2,
      draw_candidates,
      batch_dot,
      batch_trapezoid,
      batch_knot4,
      batch_sir_rhs,
      batch_costate_rhs,
      batch_sir_rk4_step,
      batch_costate_rk4_step,
  };
  return table;
}

}  // namespace rumor::kern
