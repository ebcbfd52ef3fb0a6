// Reference bodies for the lane-per-problem batched kernels: the scalar
// backend's table entries, and the reference tests/test_kern.cpp holds
// the SIMD backends to.
//
// Layout contract: every batched array is lane-interleaved SoA —
// a[j * lanes + l] is component j of problem l. Reductions iterate over
// components SEQUENTIALLY within each lane (SIMD vectorizes across
// lanes, never across components), so per lane the arithmetic is
// exactly the scalar backend's left-to-right order. That makes batched
// results bit-identical across ALL backends, and bit-identical to the
// scalar backend's sequential one-problem solve — see the determinism
// policy in kern.hpp.
//
// Internal header: include only from src/kern/*.cpp. Internal linkage,
// for the reason given in scalar_impl.hpp.
#pragma once

#include <cstddef>

#include "kern/scalar_impl.hpp"

namespace rumor::kern::batchref {
namespace {

inline void dot(const double* a, const double* b, std::size_t n,
                std::size_t lanes, double* out) {
  for (std::size_t l = 0; l < lanes; ++l) {
    double acc = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      acc += a[j * lanes + l] * b[j * lanes + l];
    }
    out[l] = acc;
  }
}

inline void trapezoid(const double* t, const double* y, std::size_t n,
                      std::size_t lanes, double* out) {
  for (std::size_t l = 0; l < lanes; ++l) {
    double acc = 0.0;
    for (std::size_t i = 1; i < n; ++i) {
      const double dt = t[i] - t[i - 1];
      acc += 0.5 * dt * (y[i * lanes + l] + y[(i - 1) * lanes + l]);
    }
    out[l] = acc;
  }
}

inline void knot4(const double* s, const double* i, const double* psi,
                  const double* phi, std::size_t n, std::size_t lanes,
                  double* out) {
  for (std::size_t l = 0; l < lanes; ++l) {
    double psi_s = 0.0, s2 = 0.0, phi_i = 0.0, i2 = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      psi_s += psi[j * lanes + l] * s[j * lanes + l];
      s2 += s[j * lanes + l] * s[j * lanes + l];
      phi_i += phi[j * lanes + l] * i[j * lanes + l];
      i2 += i[j * lanes + l] * i[j * lanes + l];
    }
    out[0 * lanes + l] = psi_s;
    out[1 * lanes + l] = s2;
    out[2 * lanes + l] = phi_i;
    out[3 * lanes + l] = i2;
  }
}

inline void sir_rhs(const double* s, const double* i, const double* lambda,
                    const double* phi, std::size_t n, std::size_t lanes,
                    double mean_k, const double* alpha, const double* e1,
                    const double* e2, double* ds, double* di,
                    double* theta_out) {
  for (std::size_t l = 0; l < lanes; ++l) {
    double th = 0.0;
    for (std::size_t j = 0; j < n; ++j) th += phi[j * lanes + l] * i[j * lanes + l];
    th /= mean_k;
    for (std::size_t j = 0; j < n; ++j) {
      const double infection = lambda[j * lanes + l] * s[j * lanes + l] * th;
      ds[j * lanes + l] = alpha[l] - infection - e1[l] * s[j * lanes + l];
      di[j * lanes + l] = infection - e2[l] * i[j * lanes + l];
    }
    if (theta_out != nullptr) theta_out[l] = th;
  }
}

inline void costate_rhs(const double* s, const double* i, const double* psi,
                        const double* phic, const double* lambda,
                        const double* phi_over_k, std::size_t n,
                        std::size_t lanes, const double* c1e1,
                        const double* c2e2, const double* e1, const double* e2,
                        const double* theta, bool diagonal, double* dpsi,
                        double* dphi) {
  for (std::size_t l = 0; l < lanes; ++l) {
    double coupling = 0.0;
    if (!diagonal) {
      for (std::size_t j = 0; j < n; ++j) {
        coupling += (psi[j * lanes + l] - phic[j * lanes + l]) *
                    lambda[j * lanes + l] * s[j * lanes + l];
      }
    }
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t jl = j * lanes + l;
      const double dpsi_dt = c1e1[l] * s[jl] +
                             psi[jl] * (lambda[jl] * theta[l] + e1[l]) -
                             phic[jl] * lambda[jl] * theta[l];
      const double group_coupling =
          diagonal ? (psi[jl] - phic[jl]) * lambda[jl] * s[jl] : coupling;
      const double dphi_dt =
          c2e2[l] * i[jl] + phi_over_k[jl] * group_coupling + phic[jl] * e2[l];
      // Reversed clock: dw/ds = −dw/dt.
      dpsi[jl] = -dpsi_dt;
      dphi[jl] = -dphi_dt;
    }
  }
}

/// Per-stage control coefficients of the batched costate step: the same
/// c1e1 = −2 c1 ε1², c2e2 = −2 c2 ε2² precomputation the one-problem
/// path performs, one value per lane. e1/e2 are stage-major 3×lanes.
inline void costate_stage_coeffs(const double* c1, const double* c2,
                                 const double* e1, const double* e2,
                                 std::size_t lanes, std::size_t stage,
                                 double* c1e1, double* c2e2) {
  const double* e1s = e1 + stage * lanes;
  const double* e2s = e2 + stage * lanes;
  for (std::size_t l = 0; l < lanes; ++l) {
    c1e1[l] = -2.0 * c1[l] * e1s[l] * e1s[l];
    c2e2[l] = -2.0 * c2[l] * e2s[l] * e2s[l];
  }
}

inline void sir_rk4_step(const double* y, std::size_t n, std::size_t lanes,
                         double mean_k, const double* alpha, const double* e1,
                         const double* e2, const double* lambda,
                         const double* phi, double h, double* y_next,
                         double* scratch) {
  const std::size_t dim = 2 * n * lanes;
  double* k1 = scratch;
  double* k2 = scratch + dim;
  double* k3 = scratch + 2 * dim;
  double* k4 = scratch + 3 * dim;
  double* tmp = scratch + 4 * dim;
  const std::size_t half = n * lanes;
  sir_rhs(y, y + half, lambda, phi, n, lanes, mean_k, alpha, e1, e2, k1,
          k1 + half, nullptr);
  scalar::axpy_out(y, k1, 0.5 * h, tmp, 0, dim);
  sir_rhs(tmp, tmp + half, lambda, phi, n, lanes, mean_k, alpha, e1 + lanes,
          e2 + lanes, k2, k2 + half, nullptr);
  scalar::axpy_out(y, k2, 0.5 * h, tmp, 0, dim);
  sir_rhs(tmp, tmp + half, lambda, phi, n, lanes, mean_k, alpha, e1 + lanes,
          e2 + lanes, k3, k3 + half, nullptr);
  scalar::axpy_out(y, k3, h, tmp, 0, dim);
  sir_rhs(tmp, tmp + half, lambda, phi, n, lanes, mean_k, alpha,
          e1 + 2 * lanes, e2 + 2 * lanes, k4, k4 + half, nullptr);
  scalar::rk4_combine(y, k1, k2, k3, k4, h / 6.0, y_next, 0, dim);
}

inline void costate_rk4_step(const double* w, std::size_t n, std::size_t lanes,
                             const double* y0, const double* ymid,
                             const double* y1, const double* lambda,
                             const double* phi_over_k, const double* theta,
                             const double* e1, const double* e2,
                             const double* c1, const double* c2, double h,
                             bool diagonal, double* w_next, double* scratch) {
  const std::size_t dim = 2 * n * lanes;
  double* k1 = scratch;
  double* k2 = scratch + dim;
  double* k3 = scratch + 2 * dim;
  double* k4 = scratch + 3 * dim;
  double* tmp = scratch + 4 * dim;
  double* c1e1 = scratch + 5 * dim;
  double* c2e2 = c1e1 + lanes;
  const std::size_t half = n * lanes;
  const auto stage = [&](const double* ws, const double* y, std::size_t s,
                         double* k) {
    costate_stage_coeffs(c1, c2, e1, e2, lanes, s, c1e1, c2e2);
    costate_rhs(y, y + half, ws, ws + half, lambda, phi_over_k, n, lanes,
                c1e1, c2e2, e1 + s * lanes, e2 + s * lanes, theta + s * lanes,
                diagonal, k, k + half);
  };
  stage(w, y0, 0, k1);
  scalar::axpy_out(w, k1, 0.5 * h, tmp, 0, dim);
  stage(tmp, ymid, 1, k2);
  scalar::axpy_out(w, k2, 0.5 * h, tmp, 0, dim);
  stage(tmp, ymid, 1, k3);
  scalar::axpy_out(w, k3, h, tmp, 0, dim);
  stage(tmp, y1, 2, k4);
  scalar::rk4_combine(w, k1, k2, k3, k4, h / 6.0, w_next, 0, dim);
}

}  // namespace
}  // namespace rumor::kern::batchref
