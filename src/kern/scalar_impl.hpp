// Reference scalar kernel bodies, shared by the scalar backend and by
// the SIMD backends' short-length and remainder paths.
//
// Every loop here is the exact per-element arithmetic the pre-kernel
// code performed, in the same order — the scalar backend IS the
// bit-compatibility contract (RUMOR_KERNEL=scalar reproduces historic
// results). The whole library is compiled with -ffp-contract=off so no
// backend's compiler silently fuses a multiply-add another backend
// performs as two roundings.
//
// Internal header: include only from src/kern/*.cpp. Everything here has
// internal linkage: the ISA TUs compile it under their own -m flags, and
// an inline function with external linkage would leave one weak copy per
// TU for the linker to pick from.
#pragma once

#include <cstddef>
#include <cstdint>

#include "kern/kern.hpp"
#include "util/random.hpp"

namespace rumor::kern::scalar {
namespace {

inline double dot(const double* a, const double* b, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

inline double sum(const double* a, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += a[i];
  return acc;
}

inline double gather_sum(const double* w, const std::uint32_t* idx,
                         std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += w[idx[i]];
  return acc;
}

inline double trapezoid(const double* t, const double* y, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 1; i < n; ++i) {
    const double dt = t[i] - t[i - 1];
    acc += 0.5 * dt * (y[i] + y[i - 1]);
  }
  return acc;
}

inline void knot4(const double* s, const double* i, const double* psi,
                  const double* phi, std::size_t n, double out[4]) {
  double psi_s = 0.0, s2 = 0.0, phi_i = 0.0, i2 = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    psi_s += psi[j] * s[j];
    s2 += s[j] * s[j];
    phi_i += phi[j] * i[j];
    i2 += i[j] * i[j];
  }
  out[0] = psi_s;
  out[1] = s2;
  out[2] = phi_i;
  out[3] = i2;
}

/// The elementwise body of the SIR RHS for a precomputed Θ; shared so
/// the SIMD backends reuse it for remainders.
inline void sir_rhs_body(const double* s, const double* i,
                         const double* lambda, std::size_t lo, std::size_t hi,
                         double alpha, double e1, double e2, double theta,
                         double* ds, double* di) {
  for (std::size_t j = lo; j < hi; ++j) {
    const double infection = lambda[j] * s[j] * theta;
    ds[j] = alpha - infection - e1 * s[j];
    di[j] = infection - e2 * i[j];
  }
}

inline double sir_rhs(const double* s, const double* i, const double* lambda,
                      const double* phi, std::size_t n, double mean_k,
                      double alpha, double e1, double e2, double* ds,
                      double* di) {
  double th = 0.0;
  for (std::size_t j = 0; j < n; ++j) th += phi[j] * i[j];
  th /= mean_k;
  sir_rhs_body(s, i, lambda, 0, n, alpha, e1, e2, th, ds, di);
  return th;
}

/// Elementwise body of the costate RHS for precomputed Θ and (in the
/// full-coupling case) the shared cross-group coupling sum.
inline void costate_rhs_body(const double* s, const double* i,
                             const double* psi, const double* phic,
                             const double* lambda, const double* phi_over_k,
                             std::size_t lo, std::size_t hi, double c1e1,
                             double c2e2, double e1, double e2, double theta,
                             bool diagonal, double coupling, double* dpsi,
                             double* dphi) {
  for (std::size_t j = lo; j < hi; ++j) {
    const double dpsi_dt = c1e1 * s[j] + psi[j] * (lambda[j] * theta + e1) -
                           phic[j] * lambda[j] * theta;
    const double group_coupling =
        diagonal ? (psi[j] - phic[j]) * lambda[j] * s[j] : coupling;
    const double dphi_dt =
        c2e2 * i[j] + phi_over_k[j] * group_coupling + phic[j] * e2;
    // Reversed clock: dw/ds = −dw/dt.
    dpsi[j] = -dpsi_dt;
    dphi[j] = -dphi_dt;
  }
}

inline void costate_rhs(const double* s, const double* i, const double* psi,
                        const double* phic, const double* lambda,
                        const double* phi_over_k, std::size_t n, double c1e1,
                        double c2e2, double e1, double e2, double theta,
                        bool diagonal, double* dpsi, double* dphi) {
  double coupling = 0.0;
  if (!diagonal) {
    for (std::size_t j = 0; j < n; ++j) {
      coupling += (psi[j] - phic[j]) * lambda[j] * s[j];
    }
  }
  costate_rhs_body(s, i, psi, phic, lambda, phi_over_k, 0, n, c1e1, c2e2, e1,
                   e2, theta, diagonal, coupling, dpsi, dphi);
}

inline void sir_rk4_step(const double* y, std::size_t n, double mean_k,
                         double alpha, const double* e1, const double* e2,
                         const double* lambda, const double* phi, double h,
                         double* y_next, double* scratch);

inline void costate_rk4_step(const double* w, std::size_t n, const double* y0,
                             const double* ymid, const double* y1,
                             const double* lambda, const double* phi_over_k,
                             const double* theta, const double* e1,
                             const double* e2, double c1, double c2, double h,
                             bool diagonal, double* w_next, double* scratch);

inline void lerp(const double* a, const double* b, double w, double* out,
                 std::size_t lo, std::size_t hi) {
  const double u = 1.0 - w;
  for (std::size_t i = lo; i < hi; ++i) out[i] = u * a[i] + w * b[i];
}

inline void axpy_out(const double* y, const double* k, double a, double* out,
                     std::size_t lo, std::size_t hi) {
  for (std::size_t i = lo; i < hi; ++i) out[i] = y[i] + a * k[i];
}

inline void combine2(const double* y, const double* k1, const double* k2,
                     double a, double* out, std::size_t lo, std::size_t hi) {
  for (std::size_t i = lo; i < hi; ++i) out[i] = y[i] + a * (k1[i] + k2[i]);
}

inline void rk4_combine(const double* y, const double* k1, const double* k2,
                        const double* k3, const double* k4, double h6,
                        double* out, std::size_t lo, std::size_t hi) {
  for (std::size_t i = lo; i < hi; ++i) {
    out[i] = y[i] + h6 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
  }
}

inline void accumulate(const double* x, double* acc, std::size_t lo,
                       std::size_t hi) {
  for (std::size_t i = lo; i < hi; ++i) acc[i] += x[i];
}

inline void accumulate_sq(const double* x, double* acc, std::size_t lo,
                          std::size_t hi) {
  for (std::size_t i = lo; i < hi; ++i) acc[i] += x[i] * x[i];
}

inline void sir_rk4_step(const double* y, std::size_t n, double mean_k,
                         double alpha, const double* e1, const double* e2,
                         const double* lambda, const double* phi, double h,
                         double* y_next, double* scratch) {
  const std::size_t dim = 2 * n;
  double* k1 = scratch;
  double* k2 = scratch + dim;
  double* k3 = scratch + 2 * dim;
  double* k4 = scratch + 3 * dim;
  double* tmp = scratch + 4 * dim;
  sir_rhs(y, y + n, lambda, phi, n, mean_k, alpha, e1[0], e2[0], k1, k1 + n);
  axpy_out(y, k1, 0.5 * h, tmp, 0, dim);
  sir_rhs(tmp, tmp + n, lambda, phi, n, mean_k, alpha, e1[1], e2[1], k2,
          k2 + n);
  axpy_out(y, k2, 0.5 * h, tmp, 0, dim);
  sir_rhs(tmp, tmp + n, lambda, phi, n, mean_k, alpha, e1[1], e2[1], k3,
          k3 + n);
  axpy_out(y, k3, h, tmp, 0, dim);
  sir_rhs(tmp, tmp + n, lambda, phi, n, mean_k, alpha, e1[2], e2[2], k4,
          k4 + n);
  rk4_combine(y, k1, k2, k3, k4, h / 6.0, y_next, 0, dim);
}

inline void costate_rk4_step(const double* w, std::size_t n, const double* y0,
                             const double* ymid, const double* y1,
                             const double* lambda, const double* phi_over_k,
                             const double* theta, const double* e1,
                             const double* e2, double c1, double c2, double h,
                             bool diagonal, double* w_next, double* scratch) {
  const std::size_t dim = 2 * n;
  double* k1 = scratch;
  double* k2 = scratch + dim;
  double* k3 = scratch + 2 * dim;
  double* k4 = scratch + 3 * dim;
  double* tmp = scratch + 4 * dim;
  const auto stage = [&](const double* ws, const double* y, std::size_t s,
                         double* k) {
    // The same c1e1/c2e2 precomputation the per-eval path performs.
    costate_rhs(y, y + n, ws, ws + n, lambda, phi_over_k, n,
                -2.0 * c1 * e1[s] * e1[s], -2.0 * c2 * e2[s] * e2[s], e1[s],
                e2[s], theta[s], diagonal, k, k + n);
  };
  stage(w, y0, 0, k1);
  axpy_out(w, k1, 0.5 * h, tmp, 0, dim);
  stage(tmp, ymid, 1, k2);
  axpy_out(w, k2, 0.5 * h, tmp, 0, dim);
  stage(tmp, ymid, 1, k3);
  axpy_out(w, k3, h, tmp, 0, dim);
  stage(tmp, y1, 2, k4);
  rk4_combine(w, k1, k2, k3, k4, h / 6.0, w_next, 0, dim);
}

// 2-bit census masks: even bits flag infected (value 01), odd bits flag
// recovered (value 10); value 11 never occurs by construction.
inline constexpr std::uint64_t kEvenBits = 0x5555555555555555ULL;
inline constexpr std::size_t kNodesPerWord = 32;

/// Mask keeping the first `nodes` 2-bit fields of a word (nodes in
/// [1, 32]; 32 keeps the whole word).
inline std::uint64_t tail_mask(std::size_t nodes) {
  return nodes >= kNodesPerWord
             ? ~0ULL
             : (1ULL << (2 * nodes)) - 1ULL;
}

inline void census2(const std::uint64_t* words, std::size_t nnodes,
                    std::uint64_t out[2]) {
  std::uint64_t infected = 0, recovered = 0;
  const std::size_t full = nnodes / kNodesPerWord;
  for (std::size_t w = 0; w < full; ++w) {
    infected +=
        static_cast<std::uint64_t>(__builtin_popcountll(words[w] & kEvenBits));
    recovered += static_cast<std::uint64_t>(
        __builtin_popcountll(words[w] & ~kEvenBits));
  }
  const std::size_t rem = nnodes % kNodesPerWord;
  if (rem != 0) {
    const std::uint64_t word = words[full] & tail_mask(rem);
    infected += static_cast<std::uint64_t>(
        __builtin_popcountll(word & kEvenBits));
    recovered += static_cast<std::uint64_t>(
        __builtin_popcountll(word & ~kEvenBits));
  }
  out[0] = infected;
  out[1] = recovered;
}

/// Reference decoder for zigzag-delta LEB128 varints — the contract
/// every SIMD backend must match bit for bit (integer kernel). See
/// Ops::varint_decode_deltas in kern.hpp for the semantics.
inline std::size_t varint_decode_deltas(const std::uint8_t* src,
                                        std::size_t avail, std::uint32_t base,
                                        std::uint32_t limit, std::uint32_t* out,
                                        std::size_t count) {
  constexpr std::size_t kMaxBytes = 5;  // 35 bits >= the 33-bit zigzag range
  std::size_t pos = 0;
  std::int64_t prev = base;
  for (std::size_t i = 0; i < count; ++i) {
    std::uint64_t z = 0;
    std::size_t len = 0;
    unsigned shift = 0;
    for (;;) {
      if (pos >= avail || len >= kMaxBytes) return 0;
      const std::uint8_t b = src[pos++];
      ++len;
      z |= static_cast<std::uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) break;
      shift += 7;
    }
    prev += (static_cast<std::int64_t>(z >> 1) ^
             -static_cast<std::int64_t>(z & 1));
    if (prev < 0 || prev >= static_cast<std::int64_t>(limit)) return 0;
    out[i] = static_cast<std::uint32_t>(prev);
  }
  return pos;
}

/// Reference draw sweep (Ops::draw_candidates). The draw is the 53-bit
/// mantissa CounterRng::uniform scales by 2^-53. Branch-free append:
/// every id and key is stored and the cursor advances only for hits,
/// so out[count] and keys[count] never run past the range's own length.
inline std::size_t draw_candidates(std::uint64_t key, std::uint64_t threshold,
                                   const std::uint32_t* exposure,
                                   const std::uint64_t* premix,
                                   std::size_t lo, std::size_t hi,
                                   std::uint32_t* out, std::uint64_t* keys) {
  std::size_t count = 0;
  for (std::size_t v = lo; v < hi; ++v) {
    const std::uint64_t stream = util::splitmix64(key ^ premix[v]);
    util::CounterRng draw(stream);
    out[count] = static_cast<std::uint32_t>(v);
    keys[count] = stream;
    count += static_cast<std::size_t>(((draw.next() >> 11) < threshold) |
                                      (exposure[v] != 0));
  }
  return count;
}

/// Reference keep rule of Ops::screen_candidates for node v with
/// stream key `key`.
inline bool screen_keeps(const ScreenInputs& in, std::uint32_t v,
                         std::uint64_t key) {
  // 0 = S, 1 = I, 2 = R (sim/compartments.hpp).
  const auto compartment =
      (in.words[v / kNodesPerWord] >> (v % kNodesPerWord * 2)) & 0x3u;
  util::CounterRng draw(key);
  const std::uint64_t first = draw.next() >> 11;
  if (compartment == 1) return first < in.threshold_block;
  if (compartment != 0) return false;
  if (first < in.threshold_immunize) return true;
  const std::uint32_t count = in.exposure_count[v];
  if (count == 0) return false;
  const InfectionBound bound =
      infection_bound(count, in.exposure_sum[v], in.unit, in.gather_error,
                      in.lambda_over_k[in.group_of[v]], in.dt);
  return !(draw.uniform() >= rejection_bound(bound));
}

/// Reference screen over candidates [begin, end), appending the kept
/// ones at `kept` (<= begin) with the branch-free append of
/// draw_candidates; returns the new kept count.
inline std::size_t screen_candidates(const ScreenInputs& in,
                                     std::uint32_t* ids, std::uint64_t* keys,
                                     std::size_t begin, std::size_t end,
                                     std::size_t kept) {
  for (std::size_t i = begin; i < end; ++i) {
    const std::uint32_t v = ids[i];
    const std::uint64_t key = keys[i];
    ids[kept] = v;
    keys[kept] = key;
    kept += static_cast<std::size_t>(screen_keeps(in, v, key));
  }
  return kept;
}

}  // namespace
}  // namespace rumor::kern::scalar
