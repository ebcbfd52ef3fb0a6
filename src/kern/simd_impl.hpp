// Kernel bodies shared by the AVX2 and AVX-512 backends, written once
// as templates over a vector-traits struct V that each backend TU
// defines:
//
//   V::Vec, V::kLanes     register type and its count of doubles
//   V::load, V::store     unaligned whole-vector access
//   V::set1, V::zero      broadcast and all-zero registers
//   V::reduce             horizontal sum, in the backend's own fold order
//   V::gather             {w[idx[0]], …, w[idx[kLanes − 1]]}
//   V::Partial(count)     load/store of the first `count` lanes only
//                         (0 < count < kLanes), through the backend's mask
//
// Arithmetic uses the register types' vector operators (+ − * / and
// unary −). GCC's headers define _mm256_add_pd, _mm512_mul_pd, … as
// exactly these operators, so every lane performs the IEEE operation
// the intrinsic spelling would, and -ffp-contract=off fuses none of
// them. Elementwise kernels therefore replay the scalar per-element
// sequence lane by lane (bit-identical); reductions keep kLanes partial
// sums and fold them with V::reduce (tolerance-equivalent — see
// kern.hpp).
//
// Everything here has internal linkage: each ISA TU compiles its own
// copy under its own -m flags, so the linker can never hand one TU's
// code to the other backend.
//
// Internal header: include only from src/kern/kernels_avx*.cpp, after
// <immintrin.h>.
#pragma once

#include <cstddef>
#include <cstdint>

#include "kern/batch_impl.hpp"
#include "kern/scalar_impl.hpp"

namespace rumor::kern::simd {
namespace {

template <typename V>
double dot(const double* a, const double* b, std::size_t n) {
  const std::size_t main = n - n % V::kLanes;
  auto acc = V::zero();
  for (std::size_t i = 0; i < main; i += V::kLanes) {
    acc = acc + V::load(a + i) * V::load(b + i);
  }
  return V::reduce(acc) + scalar::dot(a + main, b + main, n - main);
}

template <typename V>
double sum(const double* a, std::size_t n) {
  const std::size_t main = n - n % V::kLanes;
  auto acc = V::zero();
  for (std::size_t i = 0; i < main; i += V::kLanes) {
    acc = acc + V::load(a + i);
  }
  return V::reduce(acc) + scalar::sum(a + main, n - main);
}

template <typename V>
double gather_sum(const double* w, const std::uint32_t* idx, std::size_t n) {
  // Typical agent-sim lists are a handful of neighbors; the vector
  // gather only pays for itself on hub-sized lists.
  if (n < 2 * V::kLanes) return scalar::gather_sum(w, idx, n);
  const std::size_t main = n - n % V::kLanes;
  auto acc = V::zero();
  for (std::size_t i = 0; i < main; i += V::kLanes) {
    acc = acc + V::gather(w, idx + i);
  }
  return V::reduce(acc) + scalar::gather_sum(w, idx + main, n - main);
}

template <typename V>
double trapezoid(const double* t, const double* y, std::size_t n) {
  if (n < 2) return 0.0;
  const std::size_t intervals = n - 1;
  const std::size_t main = intervals - intervals % V::kLanes;
  const auto half = V::set1(0.5);
  auto acc = V::zero();
  for (std::size_t i = 0; i < main; i += V::kLanes) {
    const auto dt = V::load(t + i + 1) - V::load(t + i);
    const auto ys = V::load(y + i + 1) + V::load(y + i);
    acc = acc + half * dt * ys;
  }
  return V::reduce(acc) + scalar::trapezoid(t + main, y + main, n - main);
}

template <typename V>
void knot4(const double* s, const double* i, const double* psi,
           const double* phi, std::size_t n, double out[4]) {
  const std::size_t main = n - n % V::kLanes;
  auto psi_s = V::zero(), s2 = V::zero();
  auto phi_i = V::zero(), i2 = V::zero();
  for (std::size_t j = 0; j < main; j += V::kLanes) {
    const auto sv = V::load(s + j);
    const auto iv = V::load(i + j);
    psi_s = psi_s + V::load(psi + j) * sv;
    s2 = s2 + sv * sv;
    phi_i = phi_i + V::load(phi + j) * iv;
    i2 = i2 + iv * iv;
  }
  double tail[4];
  scalar::knot4(s + main, i + main, psi + main, phi + main, n - main, tail);
  out[0] = V::reduce(psi_s) + tail[0];
  out[1] = V::reduce(s2) + tail[1];
  out[2] = V::reduce(phi_i) + tail[2];
  out[3] = V::reduce(i2) + tail[3];
}

template <typename V>
double sir_rhs(const double* s, const double* i, const double* lambda,
               const double* phi, std::size_t n, double mean_k, double alpha,
               double e1, double e2, double* ds, double* di) {
  const double theta = dot<V>(phi, i, n) / mean_k;
  const std::size_t main = n - n % V::kLanes;
  const auto th = V::set1(theta);
  const auto al = V::set1(alpha);
  const auto e1v = V::set1(e1);
  const auto e2v = V::set1(e2);
  for (std::size_t j = 0; j < main; j += V::kLanes) {
    const auto sv = V::load(s + j);
    const auto iv = V::load(i + j);
    const auto infection = V::load(lambda + j) * sv * th;
    V::store(ds + j, al - infection - e1v * sv);
    V::store(di + j, infection - e2v * iv);
  }
  scalar::sir_rhs_body(s, i, lambda, main, n, alpha, e1, e2, theta, ds, di);
  return theta;
}

template <typename V>
void costate_rhs(const double* s, const double* i, const double* psi,
                 const double* phic, const double* lambda,
                 const double* phi_over_k, std::size_t n, double c1e1,
                 double c2e2, double e1, double e2, double theta,
                 bool diagonal, double* dpsi, double* dphi) {
  double coupling = 0.0;
  const std::size_t main = n - n % V::kLanes;
  if (!diagonal) {
    auto acc = V::zero();
    for (std::size_t j = 0; j < main; j += V::kLanes) {
      const auto diff = V::load(psi + j) - V::load(phic + j);
      acc = acc + diff * V::load(lambda + j) * V::load(s + j);
    }
    coupling = V::reduce(acc);
    for (std::size_t j = main; j < n; ++j) {
      coupling += (psi[j] - phic[j]) * lambda[j] * s[j];
    }
  }
  const auto thv = V::set1(theta);
  const auto e1v = V::set1(e1);
  const auto e2v = V::set1(e2);
  const auto c1v = V::set1(c1e1);
  const auto c2v = V::set1(c2e2);
  const auto cpl = V::set1(coupling);
  for (std::size_t j = 0; j < main; j += V::kLanes) {
    const auto sv = V::load(s + j);
    const auto iv = V::load(i + j);
    const auto psiv = V::load(psi + j);
    const auto phv = V::load(phic + j);
    const auto lv = V::load(lambda + j);
    const auto dpsi_dt = c1v * sv + psiv * (lv * thv + e1v) - phv * lv * thv;
    const auto group_coupling = diagonal ? (psiv - phv) * lv * sv : cpl;
    const auto dphi_dt =
        c2v * iv + V::load(phi_over_k + j) * group_coupling + phv * e2v;
    V::store(dpsi + j, -dpsi_dt);
    V::store(dphi + j, -dphi_dt);
  }
  scalar::costate_rhs_body(s, i, psi, phic, lambda, phi_over_k, main, n, c1e1,
                           c2e2, e1, e2, theta, diagonal, coupling, dpsi,
                           dphi);
}

template <typename V>
void lerp(const double* a, const double* b, double w, double* out,
          std::size_t n) {
  const std::size_t main = n - n % V::kLanes;
  const auto wv = V::set1(w);
  const auto uv = V::set1(1.0 - w);
  for (std::size_t i = 0; i < main; i += V::kLanes) {
    V::store(out + i, uv * V::load(a + i) + wv * V::load(b + i));
  }
  scalar::lerp(a, b, w, out, main, n);
}

template <typename V>
void axpy_out(const double* y, const double* k, double a, double* out,
              std::size_t n) {
  const std::size_t main = n - n % V::kLanes;
  const auto av = V::set1(a);
  for (std::size_t i = 0; i < main; i += V::kLanes) {
    V::store(out + i, V::load(y + i) + av * V::load(k + i));
  }
  scalar::axpy_out(y, k, a, out, main, n);
}

template <typename V>
void combine2(const double* y, const double* k1, const double* k2, double a,
              double* out, std::size_t n) {
  const std::size_t main = n - n % V::kLanes;
  const auto av = V::set1(a);
  for (std::size_t i = 0; i < main; i += V::kLanes) {
    const auto ks = V::load(k1 + i) + V::load(k2 + i);
    V::store(out + i, V::load(y + i) + av * ks);
  }
  scalar::combine2(y, k1, k2, a, out, main, n);
}

template <typename V>
void rk4_combine(const double* y, const double* k1, const double* k2,
                 const double* k3, const double* k4, double h6, double* out,
                 std::size_t n) {
  const std::size_t main = n - n % V::kLanes;
  const auto h6v = V::set1(h6);
  const auto two = V::set1(2.0);
  for (std::size_t i = 0; i < main; i += V::kLanes) {
    // Same association as the scalar body: ((k1 + 2 k2) + 2 k3) + k4.
    const auto t = V::load(k1 + i) + two * V::load(k2 + i) +
                   two * V::load(k3 + i) + V::load(k4 + i);
    V::store(out + i, V::load(y + i) + h6v * t);
  }
  scalar::rk4_combine(y, k1, k2, k3, k4, h6, out, main, n);
}

template <typename V>
void accumulate(const double* x, double* acc, std::size_t n) {
  const std::size_t main = n - n % V::kLanes;
  for (std::size_t i = 0; i < main; i += V::kLanes) {
    const auto xv = V::load(x + i);
    V::store(acc + i, V::load(acc + i) + xv);
  }
  scalar::accumulate(x, acc, main, n);
}

template <typename V>
void accumulate_sq(const double* x, double* acc, std::size_t n) {
  const std::size_t main = n - n % V::kLanes;
  for (std::size_t i = 0; i < main; i += V::kLanes) {
    const auto xv = V::load(x + i);
    V::store(acc + i, V::load(acc + i) + xv * xv);
  }
  scalar::accumulate_sq(x, acc, main, n);
}

/// Realign the caller's fused-step scratch to 64 bytes.
///
/// The one-problem fused steps split it into ten stage-buffer halves of
/// `pad` doubles each (pad = n rounded up to a lane multiple). The
/// split-half layout is the point of the fused kernels: with S and I
/// halves padded separately, every vector load of a stage buffer reads
/// exactly the bytes one vector store just wrote, so store-to-load
/// forwarding succeeds. The contiguous [S, I] layout puts the I half at
/// an odd lane offset, and the resulting forwarding stalls cost more
/// than the arithmetic at the n≈10 sizes the control solves run at.
inline double* fused_base(double* scratch) {
  return reinterpret_cast<double*>(
      (reinterpret_cast<std::uintptr_t>(scratch) + 63) &
      ~static_cast<std::uintptr_t>(63));
}

/// Whole RK4 step fused into one dispatch: the four stage RHS
/// evaluations and combines below are direct calls inside the backend
/// TU, which the compiler may inline, and the stage buffers use the
/// split-half layout described at fused_base(). Per-element arithmetic
/// is exactly the unfused kernel sequence (the elementwise kernels are
/// ranged, so running each half separately is the same IEEE operation
/// per entry).
template <typename V>
void sir_rk4_step(const double* y, std::size_t n, double mean_k, double alpha,
                  const double* e1, const double* e2, const double* lambda,
                  const double* phi, double h, double* y_next,
                  double* scratch) {
  const std::size_t pad = (n + V::kLanes - 1) & ~(V::kLanes - 1);
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
  sir_rhs<V>(S, I, lambda, phi, n, mean_k, alpha, e1[0], e2[0], k1s, k1i);
  axpy_out<V>(S, k1s, 0.5 * h, ts, n);
  axpy_out<V>(I, k1i, 0.5 * h, ti, n);
  sir_rhs<V>(ts, ti, lambda, phi, n, mean_k, alpha, e1[1], e2[1], k2s, k2i);
  axpy_out<V>(S, k2s, 0.5 * h, ts, n);
  axpy_out<V>(I, k2i, 0.5 * h, ti, n);
  sir_rhs<V>(ts, ti, lambda, phi, n, mean_k, alpha, e1[1], e2[1], k3s, k3i);
  axpy_out<V>(S, k3s, h, ts, n);
  axpy_out<V>(I, k3i, h, ti, n);
  sir_rhs<V>(ts, ti, lambda, phi, n, mean_k, alpha, e1[2], e2[2], k4s, k4i);
  rk4_combine<V>(S, k1s, k2s, k3s, k4s, h / 6.0, y_next, n);
  rk4_combine<V>(I, k1i, k2i, k3i, k4i, h / 6.0, y_next + n, n);
}

template <typename V>
void costate_rk4_step(const double* w, std::size_t n, const double* y0,
                      const double* ymid, const double* y1,
                      const double* lambda, const double* phi_over_k,
                      const double* theta, const double* e1, const double* e2,
                      double c1, double c2, double h, bool diagonal,
                      double* w_next, double* scratch) {
  const std::size_t pad = (n + V::kLanes - 1) & ~(V::kLanes - 1);
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
    costate_rhs<V>(y, y + n, psi, phic, lambda, phi_over_k, n,
                   -2.0 * c1 * e1[s] * e1[s], -2.0 * c2 * e2[s] * e2[s],
                   e1[s], e2[s], theta[s], diagonal, kp, kf);
  };
  stage(w, w + n, y0, 0, k1p, k1f);
  axpy_out<V>(w, k1p, 0.5 * h, tp, n);
  axpy_out<V>(w + n, k1f, 0.5 * h, tf, n);
  stage(tp, tf, ymid, 1, k2p, k2f);
  axpy_out<V>(w, k2p, 0.5 * h, tp, n);
  axpy_out<V>(w + n, k2f, 0.5 * h, tf, n);
  stage(tp, tf, ymid, 1, k3p, k3f);
  axpy_out<V>(w, k3p, h, tp, n);
  axpy_out<V>(w + n, k3f, h, tf, n);
  stage(tp, tf, y1, 2, k4p, k4f);
  rk4_combine<V>(w, k1p, k2p, k3p, k4p, h / 6.0, w_next, n);
  rk4_combine<V>(w + n, k1f, k2f, k3f, k4f, h / 6.0, w_next + n, n);
}

// --- batched lane-per-problem kernels -------------------------------
// Vectorization is across problems: each register holds the same
// component of kLanes adjacent problems, and the component loop runs
// sequentially, so every lane accumulates in the scalar left-to-right
// order — bit-identical to the scalar backend (kern.hpp policy). Any
// lane count runs at full width: whole vectors use plain loads and
// stores, and the last partial vector (lanes % kLanes problems) runs the
// same body through V::Partial's masked ones, which are slow enough on
// some cores to keep off the whole vectors. Masked-out lanes load as 0 (the only division,
// Θ / ⟨k⟩, cannot trap on them), are never stored, and their bytes are
// never touched, so no access leaves the caller's arrays.

/// Calls body(access, l) for the vectors of lanes starting at
/// l = 0, kLanes, 2 kLanes, …: whole vectors first (access = V), then
/// the partial one (access = V::Partial).
/// It and every body are forced inline: out of line, a body reaches its
/// captures through the closure and, since the unaligned-store
/// intrinsics may alias anything, reloads each captured pointer after
/// every store (B = 8 solves ran ~15% slower that way).
template <typename V, typename Body>
[[gnu::always_inline]] inline void for_each_lane_vector(std::size_t lanes,
                                                        Body&& body) {
  std::size_t l = 0;
  for (; l + V::kLanes <= lanes; l += V::kLanes) body(V{}, l);
  if (l < lanes) body(typename V::Partial(lanes - l), l);
}

template <typename V>
void batch_dot(const double* a, const double* b, std::size_t n,
               std::size_t lanes, double* out) {
  for_each_lane_vector<V>(lanes, [&](const auto& v, std::size_t l)
                                     __attribute__((always_inline)) {
    auto acc = V::zero();
    for (std::size_t j = 0; j < n; ++j) {
      acc = acc + v.load(a + j * lanes + l) * v.load(b + j * lanes + l);
    }
    v.store(out + l, acc);
  });
}

template <typename V>
void batch_trapezoid(const double* t, const double* y, std::size_t n,
                     std::size_t lanes, double* out) {
  for_each_lane_vector<V>(lanes, [&](const auto& v, std::size_t l)
                                     __attribute__((always_inline)) {
    auto acc = V::zero();
    for (std::size_t i = 1; i < n; ++i) {
      const double dt = t[i] - t[i - 1];
      // Loading row i − 1 first lets GCC reuse row i's masked load in
      // the next iteration instead of loading it again.
      const auto prev = v.load(y + (i - 1) * lanes + l);
      const auto ys = v.load(y + i * lanes + l) + prev;
      acc = acc + V::set1(0.5 * dt) * ys;
    }
    v.store(out + l, acc);
  });
}

template <typename V>
void batch_knot4(const double* s, const double* i, const double* psi,
                 const double* phi, std::size_t n, std::size_t lanes,
                 double* out) {
  for_each_lane_vector<V>(lanes, [&](const auto& v, std::size_t l)
                                     __attribute__((always_inline)) {
    auto psi_s = V::zero(), s2 = V::zero();
    auto phi_i = V::zero(), i2 = V::zero();
    for (std::size_t j = 0; j < n; ++j) {
      const auto sv = v.load(s + j * lanes + l);
      const auto iv = v.load(i + j * lanes + l);
      psi_s = psi_s + v.load(psi + j * lanes + l) * sv;
      s2 = s2 + sv * sv;
      phi_i = phi_i + v.load(phi + j * lanes + l) * iv;
      i2 = i2 + iv * iv;
    }
    v.store(out + 0 * lanes + l, psi_s);
    v.store(out + 1 * lanes + l, s2);
    v.store(out + 2 * lanes + l, phi_i);
    v.store(out + 3 * lanes + l, i2);
  });
}

template <typename V>
void batch_sir_rhs(const double* s, const double* i, const double* lambda,
                   const double* phi, std::size_t n, std::size_t lanes,
                   double mean_k, const double* alpha, const double* e1,
                   const double* e2, double* ds, double* di,
                   double* theta_out) {
  const auto mk = V::set1(mean_k);
  for_each_lane_vector<V>(lanes, [&](const auto& v, std::size_t l)
                                     __attribute__((always_inline)) {
    auto th = V::zero();
    for (std::size_t j = 0; j < n; ++j) {
      th = th + v.load(phi + j * lanes + l) * v.load(i + j * lanes + l);
    }
    th = th / mk;
    const auto al = v.load(alpha + l);
    const auto e1v = v.load(e1 + l);
    const auto e2v = v.load(e2 + l);
    for (std::size_t j = 0; j < n; ++j) {
      const auto sv = v.load(s + j * lanes + l);
      const auto iv = v.load(i + j * lanes + l);
      const auto infection = v.load(lambda + j * lanes + l) * sv * th;
      v.store(ds + j * lanes + l, al - infection - e1v * sv);
      v.store(di + j * lanes + l, infection - e2v * iv);
    }
    if (theta_out != nullptr) v.store(theta_out + l, th);
  });
}

template <typename V>
void batch_costate_rhs(const double* s, const double* i, const double* psi,
                       const double* phic, const double* lambda,
                       const double* phi_over_k, std::size_t n,
                       std::size_t lanes, const double* c1e1,
                       const double* c2e2, const double* e1, const double* e2,
                       const double* theta, bool diagonal, double* dpsi,
                       double* dphi) {
  for_each_lane_vector<V>(lanes, [&](const auto& v, std::size_t l)
                                     __attribute__((always_inline)) {
    auto cpl = V::zero();
    if (!diagonal) {
      for (std::size_t j = 0; j < n; ++j) {
        const auto diff =
            v.load(psi + j * lanes + l) - v.load(phic + j * lanes + l);
        cpl = cpl + diff * v.load(lambda + j * lanes + l) *
                        v.load(s + j * lanes + l);
      }
    }
    const auto thv = v.load(theta + l);
    const auto e1v = v.load(e1 + l);
    const auto e2v = v.load(e2 + l);
    const auto c1v = v.load(c1e1 + l);
    const auto c2v = v.load(c2e2 + l);
    for (std::size_t j = 0; j < n; ++j) {
      const auto sv = v.load(s + j * lanes + l);
      const auto iv = v.load(i + j * lanes + l);
      const auto psiv = v.load(psi + j * lanes + l);
      const auto phv = v.load(phic + j * lanes + l);
      const auto lv = v.load(lambda + j * lanes + l);
      const auto dpsi_dt =
          c1v * sv + psiv * (lv * thv + e1v) - phv * lv * thv;
      const auto group_coupling = diagonal ? (psiv - phv) * lv * sv : cpl;
      const auto dphi_dt = c2v * iv +
                           v.load(phi_over_k + j * lanes + l) *
                               group_coupling +
                           phv * e2v;
      v.store(dpsi + j * lanes + l, -dpsi_dt);
      v.store(dphi + j * lanes + l, -dphi_dt);
    }
  });
}

/// Batched fused RK4 step: the stage RHS calls are the batched kernels
/// above and the stage combines are the elementwise kernels over the
/// flattened 2n·lanes arrays — per element the exact scalar operation
/// sequence, so the whole step is bit-identical to the batchref
/// reference. No per-half padding: the lane-interleaved layout is
/// already contiguous per vector access.
template <typename V>
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
  batch_sir_rhs<V>(y, y + half, lambda, phi, n, lanes, mean_k, alpha, e1, e2,
                   k1, k1 + half, nullptr);
  axpy_out<V>(y, k1, 0.5 * h, tmp, dim);
  batch_sir_rhs<V>(tmp, tmp + half, lambda, phi, n, lanes, mean_k, alpha,
                   e1 + lanes, e2 + lanes, k2, k2 + half, nullptr);
  axpy_out<V>(y, k2, 0.5 * h, tmp, dim);
  batch_sir_rhs<V>(tmp, tmp + half, lambda, phi, n, lanes, mean_k, alpha,
                   e1 + lanes, e2 + lanes, k3, k3 + half, nullptr);
  axpy_out<V>(y, k3, h, tmp, dim);
  batch_sir_rhs<V>(tmp, tmp + half, lambda, phi, n, lanes, mean_k, alpha,
                   e1 + 2 * lanes, e2 + 2 * lanes, k4, k4 + half, nullptr);
  rk4_combine<V>(y, k1, k2, k3, k4, h / 6.0, y_next, dim);
}

template <typename V>
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
    batch_costate_rhs<V>(y, y + half, ws, ws + half, lambda, phi_over_k, n,
                         lanes, c1e1, c2e2, e1 + s * lanes, e2 + s * lanes,
                         theta + s * lanes, diagonal, k, k + half);
  };
  stage(w, y0, 0, k1);
  axpy_out<V>(w, k1, 0.5 * h, tmp, dim);
  stage(tmp, ymid, 1, k2);
  axpy_out<V>(w, k2, 0.5 * h, tmp, dim);
  stage(tmp, ymid, 1, k3);
  axpy_out<V>(w, k3, h, tmp, dim);
  stage(tmp, y1, 2, k4);
  rk4_combine<V>(w, k1, k2, k3, k4, h / 6.0, w_next, dim);
}

/// kern::rejection_bound(kern::infection_bound(...)) for a vector of
/// candidates, operation for operation, from their exposure counts and
/// sums as doubles and their λ_v/k_v: the candidate screens' bound.
template <typename V>
typename V::Vec rejection_bound(typename V::Vec count, typename V::Vec sum,
                                typename V::Vec lambda_over_k,
                                const ScreenInputs& in) {
  const auto unit = V::set1(in.unit);
  const auto dt = V::set1(in.dt);
  const auto hazard = sum * unit;
  const auto delta = count * V::set1(0.5 * in.unit) +
                     V::set1(in.gather_error) * (hazard + count * unit);
  const auto x = lambda_over_k * hazard * dt;
  const auto margin = lambda_over_k * dt * delta + V::set1(0x1p-45);
  return x + margin + V::set1(0x1p-48);
}

}  // namespace
}  // namespace rumor::kern::simd
