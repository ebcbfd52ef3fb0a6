// The scalar backend: thin wrappers over the reference bodies in
// scalar_impl.hpp. This table is the portability floor (every build
// carries it) and the bit-compatibility reference every SIMD backend
// is tested against.
#include "kern/batch_impl.hpp"
#include "kern/kern.hpp"
#include "kern/scalar_impl.hpp"

namespace rumor::kern {

namespace {

void lerp(const double* a, const double* b, double w, double* out,
          std::size_t n) {
  scalar::lerp(a, b, w, out, 0, n);
}

void axpy_out(const double* y, const double* k, double a, double* out,
              std::size_t n) {
  scalar::axpy_out(y, k, a, out, 0, n);
}

void combine2(const double* y, const double* k1, const double* k2, double a,
              double* out, std::size_t n) {
  scalar::combine2(y, k1, k2, a, out, 0, n);
}

void rk4_combine(const double* y, const double* k1, const double* k2,
                 const double* k3, const double* k4, double h6, double* out,
                 std::size_t n) {
  scalar::rk4_combine(y, k1, k2, k3, k4, h6, out, 0, n);
}

void accumulate(const double* x, double* acc, std::size_t n) {
  scalar::accumulate(x, acc, 0, n);
}

void accumulate_sq(const double* x, double* acc, std::size_t n) {
  scalar::accumulate_sq(x, acc, 0, n);
}

void batch_dot(const double* a, const double* b, std::size_t n,
               std::size_t lanes, double* out) {
  batchref::dot(a, b, n, lanes, 0, lanes, out);
}

void batch_trapezoid(const double* t, const double* y, std::size_t n,
                     std::size_t lanes, double* out) {
  batchref::trapezoid(t, y, n, lanes, 0, lanes, out);
}

void batch_knot4(const double* s, const double* i, const double* psi,
                 const double* phi, std::size_t n, std::size_t lanes,
                 double* out) {
  batchref::knot4(s, i, psi, phi, n, lanes, 0, lanes, out);
}

void batch_sir_rhs(const double* s, const double* i, const double* lambda,
                   const double* phi, std::size_t n, std::size_t lanes,
                   double mean_k, const double* alpha, const double* e1,
                   const double* e2, double* ds, double* di,
                   double* theta_out) {
  batchref::sir_rhs(s, i, lambda, phi, n, lanes, 0, lanes, mean_k, alpha, e1,
                    e2, ds, di, theta_out);
}

void batch_costate_rhs(const double* s, const double* i, const double* psi,
                       const double* phic, const double* lambda,
                       const double* phi_over_k, std::size_t n,
                       std::size_t lanes, const double* c1e1,
                       const double* c2e2, const double* e1, const double* e2,
                       const double* theta, bool diagonal, double* dpsi,
                       double* dphi) {
  batchref::costate_rhs(s, i, psi, phic, lambda, phi_over_k, n, lanes, 0,
                        lanes, c1e1, c2e2, e1, e2, theta, diagonal, dpsi,
                        dphi);
}

}  // namespace

const Ops& scalar_ops() {
  static constexpr Ops table = {
      Backend::kScalar,
      scalar::dot,
      scalar::sum,
      scalar::gather_sum,
      scalar::trapezoid,
      scalar::knot4,
      scalar::sir_rhs,
      scalar::costate_rhs,
      scalar::sir_rk4_step,
      scalar::costate_rk4_step,
      lerp,
      axpy_out,
      combine2,
      rk4_combine,
      accumulate,
      accumulate_sq,
      scalar::census2,
      scalar::varint_decode_deltas,
      scalar::draw_candidates,
      batch_dot,
      batch_trapezoid,
      batch_knot4,
      batch_sir_rhs,
      batch_costate_rhs,
      batchref::sir_rk4_step,
      batchref::costate_rk4_step,
  };
  return table;
}

}  // namespace rumor::kern
