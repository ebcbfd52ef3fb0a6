// Property tests for the runtime-dispatched SIMD kernel library.
//
// Every kernel is swept over n = 0 … 3·(widest lane count)+1 at
// unaligned offsets, so each SIMD implementation exercises its empty,
// partial-vector, exactly-one-vector, and multi-vector-plus-tail paths
// against the scalar reference. The determinism policy of kern.hpp is
// enforced literally: elementwise kernels and the integer kernels must
// match the scalar backend bit for bit; reductions (which reassociate
// under SIMD) must match to ULP-scale tolerance; the fused RK4 step
// kernels must be bitwise equal to the unfused kernel sequence of the
// SAME backend.
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "kern/kern.hpp"
#include "util/error.hpp"
#include "util/random.hpp"

namespace {

using namespace rumor;

constexpr std::size_t kWidestLanes = 8;  // avx512: 8 doubles / vector
constexpr std::size_t kMaxN = 3 * kWidestLanes + 1;
constexpr std::size_t kOffsets[] = {0, 1, 3};  // doubles, off 64B grid

// Backends to compare against scalar: whatever this binary carries AND
// this CPU can run. On a machine without AVX the list is empty and the
// cross-backend assertions vacuously pass (the scalar self-checks and
// the dispatch tests still run).
std::vector<const kern::Ops*> simd_backends() {
  std::vector<const kern::Ops*> out;
  for (kern::Backend b : {kern::Backend::kAvx2, kern::Backend::kAvx512}) {
    if (kern::compiled(b) && kern::cpu_supports(b)) {
      out.push_back(&kern::ops(b));
    }
  }
  return out;
}

// A buffer whose data pointer can be bumped off the allocation's
// natural alignment, so the sweeps cover loads the SIMD kernels must
// not assume aligned.
struct Buf {
  explicit Buf(std::size_t n, std::size_t offset, util::Xoshiro256& rng,
               double lo = 0.05, double hi = 0.95)
      : storage(n + 8) {
    for (auto& x : storage) x = lo + (hi - lo) * rng.uniform();
    ptr = storage.data() + offset;
  }
  std::vector<double> storage;
  double* ptr;
};

void expect_bitwise(const double* got, const double* want, std::size_t n,
                    const char* what, const kern::Ops& ops) {
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(got[i], want[i])
        << what << " diverges from the reference at i=" << i << " n=" << n
        << " backend=" << kern::to_string(ops.backend);
  }
}

void expect_close(double got, double want, const char* what,
                  const kern::Ops& ops, std::size_t n) {
  const double tol = 1e-12 * std::max(1.0, std::abs(want));
  EXPECT_NEAR(got, want, tol)
      << what << " n=" << n << " backend=" << kern::to_string(ops.backend);
}

TEST(KernSweep, ElementwiseMapsBitIdentical) {
  const auto& scalar = kern::ops(kern::Backend::kScalar);
  for (const kern::Ops* simd : simd_backends()) {
    util::Xoshiro256 rng(1234);
    for (std::size_t n = 0; n <= kMaxN; ++n) {
      for (std::size_t off : kOffsets) {
        Buf y(n, off, rng), k1(n, off, rng), k2(n, off, rng),
            k3(n, off, rng), k4(n, off, rng);
        std::vector<double> want(n), got(n);

        scalar.lerp(y.ptr, k1.ptr, 0.37, want.data(), n);
        simd->lerp(y.ptr, k1.ptr, 0.37, got.data(), n);
        expect_bitwise(got.data(), want.data(), n, "lerp", *simd);

        scalar.axpy_out(y.ptr, k1.ptr, 0.013, want.data(), n);
        simd->axpy_out(y.ptr, k1.ptr, 0.013, got.data(), n);
        expect_bitwise(got.data(), want.data(), n, "axpy_out", *simd);

        scalar.combine2(y.ptr, k1.ptr, k2.ptr, 0.01, want.data(), n);
        simd->combine2(y.ptr, k1.ptr, k2.ptr, 0.01, got.data(), n);
        expect_bitwise(got.data(), want.data(), n, "combine2", *simd);

        scalar.rk4_combine(y.ptr, k1.ptr, k2.ptr, k3.ptr, k4.ptr, 0.003,
                           want.data(), n);
        simd->rk4_combine(y.ptr, k1.ptr, k2.ptr, k3.ptr, k4.ptr, 0.003,
                          got.data(), n);
        expect_bitwise(got.data(), want.data(), n, "rk4_combine", *simd);

        // The in-place accumulators: run both backends from the same
        // starting accumulator contents.
        Buf acc(n, off, rng);
        want.assign(acc.ptr, acc.ptr + n);
        got.assign(acc.ptr, acc.ptr + n);
        scalar.accumulate(y.ptr, want.data(), n);
        simd->accumulate(y.ptr, got.data(), n);
        expect_bitwise(got.data(), want.data(), n, "accumulate", *simd);

        want.assign(acc.ptr, acc.ptr + n);
        got.assign(acc.ptr, acc.ptr + n);
        scalar.accumulate_sq(y.ptr, want.data(), n);
        simd->accumulate_sq(y.ptr, got.data(), n);
        expect_bitwise(got.data(), want.data(), n, "accumulate_sq", *simd);
      }
    }
  }
}

TEST(KernSweep, ReductionsUlpClose) {
  const auto& scalar = kern::ops(kern::Backend::kScalar);
  for (const kern::Ops* simd : simd_backends()) {
    util::Xoshiro256 rng(5678);
    for (std::size_t n = 0; n <= kMaxN; ++n) {
      for (std::size_t off : kOffsets) {
        Buf a(n, off, rng), b(n, off, rng), c(n, off, rng), d(n, off, rng);

        expect_close(simd->dot(a.ptr, b.ptr, n), scalar.dot(a.ptr, b.ptr, n),
                     "dot", *simd, n);
        expect_close(simd->sum(a.ptr, n), scalar.sum(a.ptr, n), "sum", *simd,
                     n);

        // Gather over a small weight table with wrap-around indices.
        Buf table(64, off, rng);
        std::vector<std::uint32_t> idx(n);
        for (std::size_t i = 0; i < n; ++i) {
          idx[i] = static_cast<std::uint32_t>(rng() % 64);
        }
        expect_close(simd->gather_sum(table.ptr, idx.data(), n),
                     scalar.gather_sum(table.ptr, idx.data(), n),
                     "gather_sum", *simd, n);

        // Strictly increasing quadrature grid.
        Buf t(n, off, rng);
        for (std::size_t i = 0; i < n; ++i) {
          t.ptr[i] = 0.1 * static_cast<double>(i) + 0.05 * t.ptr[i];
        }
        expect_close(simd->trapezoid(t.ptr, a.ptr, n),
                     scalar.trapezoid(t.ptr, a.ptr, n), "trapezoid", *simd,
                     n);

        double want4[4], got4[4];
        scalar.knot4(a.ptr, b.ptr, c.ptr, d.ptr, n, want4);
        simd->knot4(a.ptr, b.ptr, c.ptr, d.ptr, n, got4);
        for (int j = 0; j < 4; ++j) {
          expect_close(got4[j], want4[j], "knot4", *simd, n);
        }
      }
    }
  }
}

TEST(KernSweep, RhsKernelsUlpClose) {
  const auto& scalar = kern::ops(kern::Backend::kScalar);
  for (const kern::Ops* simd : simd_backends()) {
    util::Xoshiro256 rng(9012);
    for (std::size_t n = 0; n <= kMaxN; ++n) {
      for (std::size_t off : kOffsets) {
        Buf s(n, off, rng), i(n, off, rng), lambda(n, off, rng),
            phi(n, off, rng), psi(n, off, rng), phic(n, off, rng),
            phi_over_k(n, off, rng);
        std::vector<double> want_a(n), want_b(n), got_a(n), got_b(n);

        // sir_rhs embeds the Θ reduction, so outputs are ULP-close, not
        // bitwise.
        const double theta_want =
            scalar.sir_rhs(s.ptr, i.ptr, lambda.ptr, phi.ptr, n, 6.0, 0.05,
                           0.1, 0.2, want_a.data(), want_b.data());
        const double theta_got =
            simd->sir_rhs(s.ptr, i.ptr, lambda.ptr, phi.ptr, n, 6.0, 0.05,
                          0.1, 0.2, got_a.data(), got_b.data());
        expect_close(theta_got, theta_want, "sir_rhs theta", *simd, n);
        for (std::size_t j = 0; j < n; ++j) {
          expect_close(got_a[j], want_a[j], "sir_rhs dS", *simd, n);
          expect_close(got_b[j], want_b[j], "sir_rhs dI", *simd, n);
        }

        for (bool diagonal : {false, true}) {
          scalar.costate_rhs(s.ptr, i.ptr, psi.ptr, phic.ptr, lambda.ptr,
                             phi_over_k.ptr, n, -0.1, -0.2, 0.05, 0.1, 0.21,
                             diagonal, want_a.data(), want_b.data());
          simd->costate_rhs(s.ptr, i.ptr, psi.ptr, phic.ptr, lambda.ptr,
                            phi_over_k.ptr, n, -0.1, -0.2, 0.05, 0.1, 0.21,
                            diagonal, got_a.data(), got_b.data());
          if (diagonal) {
            // Diagonal truncation drops the coupling reduction — the
            // kernel is purely elementwise and must match exactly.
            expect_bitwise(got_a.data(), want_a.data(), n,
                           "costate_rhs[diag] dpsi", *simd);
            expect_bitwise(got_b.data(), want_b.data(), n,
                           "costate_rhs[diag] dphi", *simd);
          } else {
            for (std::size_t j = 0; j < n; ++j) {
              expect_close(got_a[j], want_a[j], "costate_rhs dpsi", *simd,
                           n);
              expect_close(got_b[j], want_b[j], "costate_rhs dphi", *simd,
                           n);
            }
          }
        }
      }
    }
  }
}

// The fused whole-RK4-step kernels promise bitwise equality with the
// unfused kernel sequence of the SAME backend (kern.hpp). Compose that
// sequence out of the backend's own sir_rhs/axpy_out/rk4_combine and
// demand exact agreement — this pins the fused kernels' stage order,
// coefficients, and rounding, for every n and alignment.
TEST(KernSweep, FusedSirStepMatchesUnfusedSequence) {
  for (kern::Backend b :
       {kern::Backend::kScalar, kern::Backend::kAvx2,
        kern::Backend::kAvx512}) {
    if (!kern::compiled(b) || !kern::cpu_supports(b)) continue;
    const kern::Ops& ops = kern::ops(b);
    util::Xoshiro256 rng(3456);
    for (std::size_t n = 1; n <= kMaxN; ++n) {
      const std::size_t dim = 2 * n;
      for (std::size_t off : kOffsets) {
        Buf y(dim, off, rng), lambda(n, off, rng), phi(n, off, rng);
        const double e1[3] = {0.11, 0.12, 0.13};
        const double e2[3] = {0.21, 0.22, 0.23};
        const double h = 0.02, mean_k = 6.0, alpha = 0.05;

        std::vector<double> scratch(kern::fused_scratch_doubles(n));
        std::vector<double> fused(dim);
        ops.sir_rk4_step(y.ptr, n, mean_k, alpha, e1, e2, lambda.ptr,
                         phi.ptr, h, fused.data(), scratch.data());

        std::vector<double> k1(dim), k2(dim), k3(dim), k4(dim), tmp(dim),
            want(dim);
        const auto rhs = [&](const double* yy, std::size_t stage,
                             double* k) {
          ops.sir_rhs(yy, yy + n, lambda.ptr, phi.ptr, n, mean_k, alpha,
                      e1[stage], e2[stage], k, k + n);
        };
        rhs(y.ptr, 0, k1.data());
        ops.axpy_out(y.ptr, k1.data(), 0.5 * h, tmp.data(), dim);
        rhs(tmp.data(), 1, k2.data());
        ops.axpy_out(y.ptr, k2.data(), 0.5 * h, tmp.data(), dim);
        rhs(tmp.data(), 1, k3.data());
        ops.axpy_out(y.ptr, k3.data(), h, tmp.data(), dim);
        rhs(tmp.data(), 2, k4.data());
        ops.rk4_combine(y.ptr, k1.data(), k2.data(), k3.data(), k4.data(),
                        h / 6.0, want.data(), dim);
        expect_bitwise(fused.data(), want.data(), dim, "sir_rk4_step", ops);
      }
    }
  }
}

TEST(KernSweep, FusedCostateStepMatchesUnfusedSequence) {
  for (kern::Backend b :
       {kern::Backend::kScalar, kern::Backend::kAvx2,
        kern::Backend::kAvx512}) {
    if (!kern::compiled(b) || !kern::cpu_supports(b)) continue;
    const kern::Ops& ops = kern::ops(b);
    util::Xoshiro256 rng(7890);
    for (std::size_t n = 1; n <= kMaxN; ++n) {
      const std::size_t dim = 2 * n;
      for (std::size_t off : kOffsets) {
        for (bool diagonal : {false, true}) {
          Buf w(dim, off, rng), y0(dim, off, rng), ymid(dim, off, rng),
              y1(dim, off, rng), lambda(n, off, rng),
              phi_over_k(n, off, rng);
          const double theta[3] = {0.21, 0.22, 0.23};
          const double e1[3] = {0.11, 0.12, 0.13};
          const double e2[3] = {0.31, 0.32, 0.33};
          const double c1 = 5.0, c2 = 10.0, h = 0.02;

          std::vector<double> scratch(kern::fused_scratch_doubles(n));
          std::vector<double> fused(dim);
          ops.costate_rk4_step(w.ptr, n, y0.ptr, ymid.ptr, y1.ptr,
                               lambda.ptr, phi_over_k.ptr, theta, e1, e2,
                               c1, c2, h, diagonal, fused.data(),
                               scratch.data());

          std::vector<double> k1(dim), k2(dim), k3(dim), k4(dim), tmp(dim),
              want(dim);
          const auto rhs = [&](const double* ww, const double* yy,
                               std::size_t stage, double* k) {
            ops.costate_rhs(yy, yy + n, ww, ww + n, lambda.ptr,
                            phi_over_k.ptr, n,
                            -2.0 * c1 * e1[stage] * e1[stage],
                            -2.0 * c2 * e2[stage] * e2[stage], e1[stage],
                            e2[stage], theta[stage], diagonal, k, k + n);
          };
          rhs(w.ptr, y0.ptr, 0, k1.data());
          ops.axpy_out(w.ptr, k1.data(), 0.5 * h, tmp.data(), dim);
          rhs(tmp.data(), ymid.ptr, 1, k2.data());
          ops.axpy_out(w.ptr, k2.data(), 0.5 * h, tmp.data(), dim);
          rhs(tmp.data(), ymid.ptr, 1, k3.data());
          ops.axpy_out(w.ptr, k3.data(), h, tmp.data(), dim);
          rhs(tmp.data(), y1.ptr, 2, k4.data());
          ops.rk4_combine(w.ptr, k1.data(), k2.data(), k3.data(), k4.data(),
                          h / 6.0, want.data(), dim);
          expect_bitwise(fused.data(), want.data(), dim, "costate_rk4_step",
                         ops);
        }
      }
    }
  }
}

// Below 16 groups the AVX-512 model kernels forward to the AVX2 table
// (kernels_avx512.cpp), so paper-scale solves (n ≈ 10) get the same
// bits on either backend. The sweeps above cannot see a lost forward:
// they compare reductions to scalar within ULPs, and the per-backend
// solve digests run at 20 groups. Pin it bitwise.
TEST(KernSweep, Avx512ForwardsSmallModelKernelsToAvx2) {
  for (kern::Backend b : {kern::Backend::kAvx2, kern::Backend::kAvx512}) {
    if (!kern::compiled(b) || !kern::cpu_supports(b)) {
      GTEST_SKIP() << kern::to_string(b) << " backend unavailable";
    }
  }
  const kern::Ops& narrow = kern::ops(kern::Backend::kAvx2);
  const kern::Ops& wide = kern::ops(kern::Backend::kAvx512);
  util::Xoshiro256 rng(4321);
  for (std::size_t n = 1; n < 16; ++n) {
    const std::size_t dim = 2 * n;
    for (std::size_t off : kOffsets) {
      Buf s(n, off, rng), i(n, off, rng), lambda(n, off, rng),
          phi(n, off, rng), psi(n, off, rng), phic(n, off, rng),
          phi_over_k(n, off, rng), y(dim, off, rng), w(dim, off, rng),
          ymid(dim, off, rng), y1(dim, off, rng);
      std::vector<double> want_a(n), want_b(n), got_a(n), got_b(n);
      std::vector<double> want(dim), got(dim);
      std::vector<double> scratch(kern::fused_scratch_doubles(n));
      const double e1[3] = {0.11, 0.12, 0.13};
      const double e2[3] = {0.21, 0.22, 0.23};
      const double theta[3] = {0.31, 0.32, 0.33};

      const double theta_want =
          narrow.sir_rhs(s.ptr, i.ptr, lambda.ptr, phi.ptr, n, 6.0, 0.05,
                         0.1, 0.2, want_a.data(), want_b.data());
      const double theta_got =
          wide.sir_rhs(s.ptr, i.ptr, lambda.ptr, phi.ptr, n, 6.0, 0.05, 0.1,
                       0.2, got_a.data(), got_b.data());
      ASSERT_EQ(theta_got, theta_want) << "sir_rhs theta n=" << n;
      expect_bitwise(got_a.data(), want_a.data(), n, "sir_rhs dS", wide);
      expect_bitwise(got_b.data(), want_b.data(), n, "sir_rhs dI", wide);

      narrow.sir_rk4_step(y.ptr, n, 6.0, 0.05, e1, e2, lambda.ptr, phi.ptr,
                          0.02, want.data(), scratch.data());
      wide.sir_rk4_step(y.ptr, n, 6.0, 0.05, e1, e2, lambda.ptr, phi.ptr,
                        0.02, got.data(), scratch.data());
      expect_bitwise(got.data(), want.data(), dim, "sir_rk4_step", wide);

      for (bool diagonal : {false, true}) {
        narrow.costate_rhs(s.ptr, i.ptr, psi.ptr, phic.ptr, lambda.ptr,
                           phi_over_k.ptr, n, -0.1, -0.2, 0.05, 0.1, 0.21,
                           diagonal, want_a.data(), want_b.data());
        wide.costate_rhs(s.ptr, i.ptr, psi.ptr, phic.ptr, lambda.ptr,
                         phi_over_k.ptr, n, -0.1, -0.2, 0.05, 0.1, 0.21,
                         diagonal, got_a.data(), got_b.data());
        expect_bitwise(got_a.data(), want_a.data(), n, "costate_rhs dpsi",
                       wide);
        expect_bitwise(got_b.data(), want_b.data(), n, "costate_rhs dphi",
                       wide);

        narrow.costate_rk4_step(w.ptr, n, y.ptr, ymid.ptr, y1.ptr,
                                lambda.ptr, phi_over_k.ptr, theta, e1, e2,
                                5.0, 10.0, 0.02, diagonal, want.data(),
                                scratch.data());
        wide.costate_rk4_step(w.ptr, n, y.ptr, ymid.ptr, y1.ptr, lambda.ptr,
                              phi_over_k.ptr, theta, e1, e2, 5.0, 10.0, 0.02,
                              diagonal, got.data(), scratch.data());
        expect_bitwise(got.data(), want.data(), dim, "costate_rk4_step",
                       wide);
      }
    }
  }
}

TEST(KernSweep, Census2ExactInEveryBackend) {
  const auto& scalar = kern::ops(kern::Backend::kScalar);
  const auto backends = simd_backends();
  util::Xoshiro256 rng(2468);
  // 32 nodes per word; the avx512 path eats several words per vector,
  // so sweep well past three vectors' worth of nodes, crossing every
  // word and vector boundary.
  for (std::size_t nnodes = 0; nnodes <= 3 * 256 + 1; ++nnodes) {
    const std::size_t nwords = (nnodes + 31) / 32;
    std::vector<std::uint64_t> words(nwords + 1);
    std::uint64_t naive[2] = {0, 0};
    for (std::size_t w = 0; w < words.size(); ++w) {
      const std::uint64_t r = rng();
      // Legal 2-bit compartments only: no 11 fields.
      words[w] = r & ~((r & 0x5555555555555555ULL) << 1);
    }
    // Garbage beyond nnodes must be masked off — poison the tail.
    if (nnodes % 32 != 0 && nwords > 0) {
      words[nwords - 1] |= ~0ULL << (2 * (nnodes % 32));
      words[nwords - 1] &=
          ~((words[nwords - 1] & 0x5555555555555555ULL) << 1);
    }
    for (std::size_t node = 0; node < nnodes; ++node) {
      const unsigned field = (words[node / 32] >> (2 * (node % 32))) & 3u;
      if (field == 1) ++naive[0];
      if (field == 2) ++naive[1];
    }
    std::uint64_t got[2];
    scalar.census2(words.data(), nnodes, got);
    ASSERT_EQ(got[0], naive[0]) << "scalar census infected, n=" << nnodes;
    ASSERT_EQ(got[1], naive[1]) << "scalar census recovered, n=" << nnodes;
    for (const kern::Ops* simd : backends) {
      simd->census2(words.data(), nnodes, got);
      ASSERT_EQ(got[0], naive[0])
          << kern::to_string(simd->backend) << " census infected, n="
          << nnodes;
      ASSERT_EQ(got[1], naive[1])
          << kern::to_string(simd->backend) << " census recovered, n="
          << nnodes;
    }
  }
}

// `count` elements whose last one ends exactly where a PROT_NONE page
// begins, so any access past the array faults (SIGSEGV fails the test
// binary). A zero-length array points at the guard page itself.
template <typename T = double>
class GuardedArray {
 public:
  explicit GuardedArray(std::size_t count) {
    const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    const std::size_t bytes = count * sizeof(T);
    const std::size_t body = (bytes + page - 1) / page * page;
    mapped_ = body + page;
    void* base = mmap(nullptr, mapped_, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (base == MAP_FAILED) throw std::runtime_error("mmap failed");
    base_ = static_cast<char*>(base);
    if (mprotect(base_ + body, page, PROT_NONE) != 0) {
      munmap(base_, mapped_);
      throw std::runtime_error("mprotect failed");
    }
    data_ = reinterpret_cast<T*>(base_ + body - bytes);
  }
  ~GuardedArray() { munmap(base_, mapped_); }
  GuardedArray(const GuardedArray&) = delete;
  GuardedArray& operator=(const GuardedArray&) = delete;

  T* data() const { return data_; }

 private:
  char* base_ = nullptr;
  std::size_t mapped_ = 0;
  T* data_ = nullptr;
};

TEST(KernSweep, DrawCandidatesExactInEveryBackend) {
  // Every backend must return exactly the ids a scalar CounterRng loop
  // selects, in ascending order, with each id's stream key, and touch
  // nothing past its range: out and keys end, and exposure and premix
  // end at hi, against a PROT_NONE page.
  std::vector<const kern::Ops*> backends = simd_backends();
  backends.push_back(&kern::ops(kern::Backend::kScalar));
  util::Xoshiro256 rng(97531);
  for (std::size_t n = 0; n <= 70; ++n) {
    for (const std::size_t lo : {1UL, 3UL, 17UL, 1001UL}) {
      const std::uint64_t thresholds[] = {0, 1, rng() >> 11,
                                          kern::draw_threshold(0.05),
                                          std::uint64_t{1} << 53};
      for (const std::uint64_t threshold : thresholds) {
        const std::uint64_t key = rng();
        const GuardedArray<std::uint32_t> exposure(lo + n);
        const GuardedArray<std::uint64_t> premix(lo + n);
        for (std::size_t v = 0; v < lo + n; ++v) {
          exposure.data()[v] =
              rng.uniform_index(4) == 0
                  ? static_cast<std::uint32_t>(1 + rng.uniform_index(9))
                  : 0u;
          premix.data()[v] = util::premix(v);
        }
        std::vector<std::uint32_t> want;
        for (std::size_t v = lo; v < lo + n; ++v) {
          util::CounterRng draw(util::hash_mix(key, v));
          if ((draw.next() >> 11) < threshold || exposure.data()[v] != 0) {
            want.push_back(static_cast<std::uint32_t>(v));
          }
        }
        for (const kern::Ops* ops : backends) {
          const GuardedArray<std::uint32_t> got(n);
          const GuardedArray<std::uint64_t> keys(n);
          const std::size_t count = ops->draw_candidates(
              key, threshold, exposure.data(), premix.data(), lo, lo + n,
              got.data(), keys.data());
          ASSERT_EQ(count, want.size())
              << kern::to_string(ops->backend) << " n=" << n << " lo=" << lo
              << " threshold=" << threshold;
          for (std::size_t i = 0; i < count; ++i) {
            ASSERT_EQ(got.data()[i], want[i])
                << kern::to_string(ops->backend) << " i=" << i << " n=" << n;
            ASSERT_EQ(keys.data()[i], util::hash_mix(key, want[i]))
                << kern::to_string(ops->backend) << " key i=" << i
                << " n=" << n;
          }
        }
      }
    }
  }
}

TEST(KernSweep, ScreenCandidatesExactInEveryBackend) {
  // Every backend must keep exactly the candidates the scalar body
  // keeps, in order and with their keys: on all three compartments,
  // counts 0..D, sums up to the 2^53 cap, thresholds at the draw grid's
  // ends and middle and at a candidate's own first draw, and second
  // draws within four grid steps of the rejection bound. The candidate
  // arrays and every table end against a PROT_NONE page, and the last
  // node is always a candidate, so a read past any of them faults.
  std::vector<const kern::Ops*> backends = simd_backends();
  const kern::Ops& scalar = kern::ops(kern::Backend::kScalar);
  constexpr std::uint64_t kGrid = std::uint64_t{1} << 53;
  constexpr std::int64_t kSumCap = std::int64_t{1} << 53;
  util::Xoshiro256 rng(24680);
  const auto log_uniform = [&](double lo, double hi) {
    return lo * std::pow(hi / lo, rng.uniform());
  };
  std::size_t near_bound = 0;
  std::size_t kept_total = 0;
  std::size_t screened_total = 0;
  for (std::size_t count = 0; count <= 17; ++count) {
    for (int rep = 0; rep < 48; ++rep) {
      const std::size_t nodes = count + rng.uniform_index(24);
      const GuardedArray<std::uint64_t> words((nodes + 31) / 32);
      const GuardedArray<std::uint32_t> exposure_count(nodes);
      const GuardedArray<std::int64_t> exposure_sum(nodes);
      const GuardedArray<std::uint32_t> group_of(nodes);
      const GuardedArray<double> lambda_over_k(nodes);
      const auto max_sources = static_cast<std::uint32_t>(
          rep % 3 == 0 ? 1 : 1 + rng.uniform_index(1u << 20));
      kern::ScreenInputs in{};
      in.words = words.data();
      in.exposure_count = exposure_count.data();
      in.exposure_sum = exposure_sum.data();
      in.group_of = group_of.data();
      in.lambda_over_k = lambda_over_k.data();
      in.unit = std::ldexp(1.0, -static_cast<int>(rng.uniform_index(90)));
      in.gather_error = static_cast<double>(max_sources) * 0x1p-52;
      in.dt = log_uniform(1e-3, 1.0);
      for (std::size_t w = 0; w < (nodes + 31) / 32; ++w) {
        // Two random bits per node: S, I, R and the unused 3.
        words.data()[w] = rng();
      }
      for (std::size_t v = 0; v < nodes; ++v) {
        // Slot value 3 is never stored; turn it into S.
        const std::size_t shift = v % 32 * 2;
        if ((words.data()[v / 32] >> shift & 3u) == 3u) {
          words.data()[v / 32] &= ~(std::uint64_t{3} << shift);
        }
        exposure_count.data()[v] =
            rng.uniform_index(4) == 0
                ? 0u
                : static_cast<std::uint32_t>(
                      rng.uniform_index(std::uint64_t{max_sources} + 1));
        exposure_sum.data()[v] =
            v % 5 == 0 ? kSumCap - 1
                       : static_cast<std::int64_t>(
                             rng.uniform_index(
                                 static_cast<std::uint64_t>(kSumCap)) >>
                             rng.uniform_index(54));
        group_of.data()[v] = static_cast<std::uint32_t>(v);
        lambda_over_k.data()[v] = log_uniform(1e-6, 1e3);
      }
      // Candidates: ascending distinct nodes ending at the last node.
      std::vector<std::uint32_t> ids;
      for (std::size_t v = nodes - count; v < nodes; ++v) {
        ids.push_back(static_cast<std::uint32_t>(v));
      }
      std::vector<std::uint64_t> keys(count);
      for (std::size_t i = 0; i < count; ++i) {
        keys[i] = rng();
        const std::uint32_t v = ids[i];
        util::CounterRng draw(keys[i]);
        (void)draw.next();
        const double second = draw.uniform();
        const auto c = static_cast<double>(exposure_count.data()[v]);
        const double hazard =
            static_cast<double>(exposure_sum.data()[v]) * in.unit;
        const double delta =
            c * (0.5 * in.unit) + in.gather_error * (hazard + c * in.unit);
        const auto step = static_cast<double>(rng.uniform_index(9)) - 4.0;
        const double room = second + step * 0x1p-53 - 0x1p-45 - 0x1p-48;
        if (i % 2 == 0 && room > 0.0 && hazard + delta > 0.0) {
          // x + m = λ_v/k_v·dt·(H̃ + δ) + 2^-45: solve for the λ_v/k_v
          // that puts the bound within four grid steps of the draw.
          lambda_over_k.data()[v] = room / (in.dt * (hazard + delta));
        }
        const double bound = kern::rejection_bound(kern::infection_bound(
            exposure_count.data()[v], exposure_sum.data()[v], in.unit,
            in.gather_error, lambda_over_k.data()[v], in.dt));
        const bool susceptible =
            (words.data()[v / 32] >> (v % 32 * 2) & 3u) == 0;
        if (susceptible && exposure_count.data()[v] > 0 &&
            std::abs(bound - second) <= 4 * 0x1p-53) {
          ++near_bound;
        }
      }
      std::vector<std::uint64_t> thresholds = {0, 1, kGrid / 2, kGrid};
      if (count > 0) {
        util::CounterRng draw(keys[0]);
        const std::uint64_t first = draw.next() >> 11;
        thresholds.push_back(first);
        thresholds.push_back(first + 1);
      }
      in.threshold_immunize = thresholds[rng.uniform_index(thresholds.size())];
      in.threshold_block = thresholds[rng.uniform_index(thresholds.size())];

      std::vector<std::uint32_t> want_ids = ids;
      std::vector<std::uint64_t> want_keys = keys;
      const std::size_t want = scalar.screen_candidates(
          in, want_ids.data(), want_keys.data(), count);
      ASSERT_LE(want, count);
      kept_total += want;
      screened_total += count;
      for (const kern::Ops* ops : backends) {
        const GuardedArray<std::uint32_t> got_ids(count);
        const GuardedArray<std::uint64_t> got_keys(count);
        std::copy(ids.begin(), ids.end(), got_ids.data());
        std::copy(keys.begin(), keys.end(), got_keys.data());
        const std::size_t got = ops->screen_candidates(
            in, got_ids.data(), got_keys.data(), count);
        ASSERT_EQ(got, want) << kern::to_string(ops->backend)
                             << " count=" << count << " rep=" << rep;
        for (std::size_t i = 0; i < got; ++i) {
          ASSERT_EQ(got_ids.data()[i], want_ids[i])
              << kern::to_string(ops->backend) << " i=" << i
              << " count=" << count << " rep=" << rep;
          ASSERT_EQ(got_keys.data()[i], want_keys[i])
              << kern::to_string(ops->backend) << " key i=" << i
              << " count=" << count << " rep=" << rep;
        }
      }
    }
  }
  // The sweep reaches both verdicts and the bound's neighbourhood.
  EXPECT_GT(kept_total, screened_total / 10);
  EXPECT_LT(kept_total, screened_total * 9 / 10);
  EXPECT_GT(near_bound, 500u);
}

TEST(KernSweep, DrawThresholdMatchesBernoulli) {
  // x < draw_threshold(p) must be exactly CounterRng::bernoulli(p)'s
  // test on the same draw, including the degenerate probabilities.
  util::Xoshiro256 rng(8642);
  const double probabilities[] = {
      -1.0, 0.0, 0x1p-53, 1e-300, 0.3, 0.5, 1.0 - 0x1p-53, 1.0, 1.5,
      std::nan("")};
  for (const double p : probabilities) {
    for (int q = 0; q < 2000; ++q) {
      const std::uint64_t key = rng();
      util::CounterRng reference(key);
      util::CounterRng integer(key);
      const bool want = reference.bernoulli(p);
      const bool got = (integer.next() >> 11) < kern::draw_threshold(p);
      ASSERT_EQ(got, want) << "p=" << p;
    }
  }
  for (int q = 0; q < 2000; ++q) {
    const double p = rng.uniform();
    const std::uint64_t x = rng() >> 11;
    ASSERT_EQ(x < kern::draw_threshold(p),
              static_cast<double>(x) * 0x1.0p-53 < p)
        << "p=" << p << " x=" << x;
  }
  EXPECT_EQ(kern::draw_threshold(0.0), 0u);
  EXPECT_EQ(kern::draw_threshold(1.0), std::uint64_t{1} << 53);
}

TEST(KernDispatch, ParseBackendRoundTrips) {
  EXPECT_EQ(kern::parse_backend("scalar"), kern::Backend::kScalar);
  EXPECT_EQ(kern::parse_backend("avx2"), kern::Backend::kAvx2);
  EXPECT_EQ(kern::parse_backend("avx512"), kern::Backend::kAvx512);
  EXPECT_THROW(kern::parse_backend("neon"), util::InvalidArgument);
  EXPECT_THROW(kern::parse_backend(""), util::InvalidArgument);
  EXPECT_THROW(kern::parse_backend("AVX2"), util::InvalidArgument);
}

TEST(KernDispatch, ResolveHonorsOverrideAndFallsBack) {
  // No override: best compiled+supported backend, never a crash.
  const kern::Backend auto_pick = kern::resolve_backend(nullptr);
  EXPECT_TRUE(kern::compiled(auto_pick));
  EXPECT_TRUE(kern::cpu_supports(auto_pick));
  EXPECT_EQ(kern::resolve_backend(""), auto_pick);

  // Scalar is always compiled and supported, so forcing it must work.
  EXPECT_EQ(kern::resolve_backend("scalar"), kern::Backend::kScalar);

  // Any usable backend must be honored verbatim; an unusable one must
  // throw rather than silently fall back.
  for (kern::Backend b : {kern::Backend::kAvx2, kern::Backend::kAvx512}) {
    const char* token = kern::to_string(b);
    if (kern::compiled(b) && kern::cpu_supports(b)) {
      EXPECT_EQ(kern::resolve_backend(token), b);
    } else {
      EXPECT_THROW(kern::resolve_backend(token), util::InvalidArgument);
    }
  }
  EXPECT_THROW(kern::resolve_backend("sparc"), util::InvalidArgument);
}

TEST(KernDispatch, PublishedTablesAreComplete) {
  for (kern::Backend b :
       {kern::Backend::kScalar, kern::Backend::kAvx2,
        kern::Backend::kAvx512}) {
    if (!kern::compiled(b)) continue;
    const kern::Ops& ops = kern::ops(b);
    EXPECT_EQ(ops.backend, b);
    EXPECT_NE(ops.dot, nullptr);
    EXPECT_NE(ops.sum, nullptr);
    EXPECT_NE(ops.gather_sum, nullptr);
    EXPECT_NE(ops.trapezoid, nullptr);
    EXPECT_NE(ops.knot4, nullptr);
    EXPECT_NE(ops.sir_rhs, nullptr);
    EXPECT_NE(ops.costate_rhs, nullptr);
    EXPECT_NE(ops.sir_rk4_step, nullptr);
    EXPECT_NE(ops.costate_rk4_step, nullptr);
    EXPECT_NE(ops.lerp, nullptr);
    EXPECT_NE(ops.axpy_out, nullptr);
    EXPECT_NE(ops.combine2, nullptr);
    EXPECT_NE(ops.rk4_combine, nullptr);
    EXPECT_NE(ops.accumulate, nullptr);
    EXPECT_NE(ops.accumulate_sq, nullptr);
    EXPECT_NE(ops.census2, nullptr);
    EXPECT_NE(ops.varint_decode_deltas, nullptr);
    EXPECT_NE(ops.draw_candidates, nullptr);
    EXPECT_NE(ops.screen_candidates, nullptr);
  }
}

// ---- batched lane-per-problem kernels ------------------------------
//
// Two properties, checked literally from the determinism policy:
// (a) every batch_* kernel is bit-identical across ALL backends (SIMD
//     vectorizes across lanes; per lane the reduction order is the
//     scalar left-to-right order, so there is nothing to reassociate);
// (b) each lane of a batched call, deinterleaved, is bit-identical to
//     the SCALAR backend's sequential one-problem kernel on that
//     lane's data — the property the batched solver's "lane l equals
//     the sequential solve" guarantee rests on.
// A third check pins that no kernel reads or writes past the last lane
// of any array, whatever the lane count (the SIMD backends mask their
// last partial vector).

// Deterministic interleaved problem set: every per-group array is
// n×lanes SoA (a[j*lanes+l]), per-lane arrays length lanes, stage
// arrays 3×lanes stage-major.
struct BatchData {
  BatchData(std::size_t n, std::size_t lanes, util::Xoshiro256& rng)
      : s(n * lanes),
        i(n * lanes),
        psi(n * lanes),
        phic(n * lanes),
        lambda(n * lanes),
        phi(n * lanes),
        phi_over_k(n * lanes),
        t(n),
        alpha(lanes),
        e1(lanes),
        e2(lanes),
        c1(lanes),
        c2(lanes),
        c1e1(lanes),
        c2e2(lanes),
        theta(lanes),
        e1s(3 * lanes),
        e2s(3 * lanes),
        thetas(3 * lanes),
        y(2 * n * lanes),
        w(2 * n * lanes) {
    const auto fill = [&](std::vector<double>& v, double lo, double hi) {
      for (auto& x : v) x = lo + (hi - lo) * rng.uniform();
    };
    fill(s, 0.05, 0.95);
    fill(i, 0.01, 0.5);
    fill(psi, -1.0, 1.0);
    fill(phic, -1.0, 1.0);
    fill(lambda, 0.1, 2.0);
    fill(phi, 0.2, 1.0);
    fill(phi_over_k, 0.01, 0.2);
    for (std::size_t j = 0; j < n; ++j) t[j] = 0.3 * static_cast<double>(j);
    fill(alpha, 0.01, 0.1);
    fill(e1, 0.0, 0.7);
    fill(e2, 0.0, 0.7);
    fill(c1, 1.0, 8.0);
    fill(c2, 1.0, 12.0);
    fill(theta, 0.05, 0.6);
    fill(e1s, 0.0, 0.7);
    fill(e2s, 0.0, 0.7);
    fill(thetas, 0.05, 0.6);
    for (std::size_t l = 0; l < lanes; ++l) {
      c1e1[l] = -2.0 * c1[l] * e1[l] * e1[l];
      c2e2[l] = -2.0 * c2[l] * e2[l] * e2[l];
    }
    // [S | I] and [ψ | φ] lane-interleaved halves for the fused steps.
    std::copy(s.begin(), s.end(), y.begin());
    std::copy(i.begin(), i.end(), y.begin() + n * lanes);
    std::copy(psi.begin(), psi.end(), w.begin());
    std::copy(phic.begin(), phic.end(), w.begin() + n * lanes);
  }
  std::vector<double> s, i, psi, phic, lambda, phi, phi_over_k, t;
  std::vector<double> alpha, e1, e2, c1, c2, c1e1, c2e2, theta;
  std::vector<double> e1s, e2s, thetas;  // stage-major 3×lanes
  std::vector<double> y, w;              // 2n×lanes
};

// The arrays one run of every batched kernel reads and writes.
struct BatchIo {
  const double *s, *i, *psi, *phic, *lambda, *phi, *phi_over_k, *t, *alpha,
      *e1, *e2, *c1, *c2, *c1e1, *c2e2, *theta, *e1s, *e2s, *thetas, *y, *w;
  double *dot, *trap, *knot4, *ds, *di, *th, *dpsi, *dphi, *y_next, *w_next,
      *scratch;
};

// An input set of `d`: each array is place(vector) — the vector's own
// storage or a copy of it.
template <typename Place>
BatchIo batch_inputs(const BatchData& d, Place&& place) {
  BatchIo io{};
  io.s = place(d.s);
  io.i = place(d.i);
  io.psi = place(d.psi);
  io.phic = place(d.phic);
  io.lambda = place(d.lambda);
  io.phi = place(d.phi);
  io.phi_over_k = place(d.phi_over_k);
  io.t = place(d.t);
  io.alpha = place(d.alpha);
  io.e1 = place(d.e1);
  io.e2 = place(d.e2);
  io.c1 = place(d.c1);
  io.c2 = place(d.c2);
  io.c1e1 = place(d.c1e1);
  io.c2e2 = place(d.c2e2);
  io.theta = place(d.theta);
  io.e1s = place(d.e1s);
  io.e2s = place(d.e2s);
  io.thetas = place(d.thetas);
  io.y = place(d.y);
  io.w = place(d.w);
  return io;
}

// Every batched kernel once under `ops`, over the arrays of `io`.
void run_batch_kernels(const kern::Ops& ops, const BatchIo& io, std::size_t n,
                       std::size_t lanes, bool diagonal) {
  ops.batch_dot(io.s, io.i, n, lanes, io.dot);
  ops.batch_trapezoid(io.t, io.s, n, lanes, io.trap);
  ops.batch_knot4(io.s, io.i, io.psi, io.phic, n, lanes, io.knot4);
  ops.batch_sir_rhs(io.s, io.i, io.lambda, io.phi, n, lanes, 6.5, io.alpha,
                    io.e1, io.e2, io.ds, io.di, io.th);
  ops.batch_costate_rhs(io.s, io.i, io.psi, io.phic, io.lambda, io.phi_over_k,
                        n, lanes, io.c1e1, io.c2e2, io.e1, io.e2, io.theta,
                        diagonal, io.dpsi, io.dphi);
  ops.batch_sir_rk4_step(io.y, n, lanes, 6.5, io.alpha, io.e1s, io.e2s,
                         io.lambda, io.phi, 0.05, io.y_next, io.scratch);
  // Forward states at the three stage times: reuse y for all three
  // (the kernel treats them as independent inputs).
  ops.batch_costate_rk4_step(io.w, n, lanes, io.y, io.y, io.y, io.lambda,
                             io.phi_over_k, io.thetas, io.e1s, io.e2s, io.c1,
                             io.c2, 0.05, diagonal, io.w_next, io.scratch);
}

// Run every batched kernel once under `ops` and collect the outputs.
struct BatchOut {
  BatchOut(const kern::Ops& ops, const BatchData& d, std::size_t n,
           std::size_t lanes, bool diagonal)
      : dot(lanes),
        trap(lanes),
        knot4(4 * lanes),
        ds(n * lanes),
        di(n * lanes),
        th(lanes),
        dpsi(n * lanes),
        dphi(n * lanes),
        y_next(2 * n * lanes),
        w_next(2 * n * lanes) {
    std::vector<double> scratch(kern::batch_scratch_doubles(n, lanes));
    BatchIo io = batch_inputs(
        d, [](const std::vector<double>& v) { return v.data(); });
    io.dot = dot.data();
    io.trap = trap.data();
    io.knot4 = knot4.data();
    io.ds = ds.data();
    io.di = di.data();
    io.th = th.data();
    io.dpsi = dpsi.data();
    io.dphi = dphi.data();
    io.y_next = y_next.data();
    io.w_next = w_next.data();
    io.scratch = scratch.data();
    run_batch_kernels(ops, io, n, lanes, diagonal);
  }
  std::vector<double> dot, trap, knot4, ds, di, th, dpsi, dphi, y_next,
      w_next;
};

TEST(KernBatch, CrossBackendBitIdentical) {
  const auto& scalar = kern::ops(kern::Backend::kScalar);
  for (const kern::Ops* simd : simd_backends()) {
    for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                          std::size_t{10}, std::size_t{17}}) {
      for (std::size_t lanes :
           {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{5},
            std::size_t{7}, std::size_t{8}, std::size_t{9}, std::size_t{11}}) {
        for (bool diagonal : {false, true}) {
          util::Xoshiro256 rng(n * 131 + lanes * 7 + (diagonal ? 1 : 0));
          const BatchData d(n, lanes, rng);
          const BatchOut want(scalar, d, n, lanes, diagonal);
          const BatchOut got(*simd, d, n, lanes, diagonal);
          const auto check = [&](const std::vector<double>& g,
                                 const std::vector<double>& w,
                                 const char* what) {
            ASSERT_EQ(g.size(), w.size());
            for (std::size_t x = 0; x < g.size(); ++x) {
              ASSERT_EQ(g[x], w[x])
                  << what << " diverges from scalar at flat index " << x
                  << " n=" << n << " lanes=" << lanes
                  << " diagonal=" << diagonal
                  << " backend=" << kern::to_string(simd->backend);
            }
          };
          check(got.dot, want.dot, "batch_dot");
          check(got.trap, want.trap, "batch_trapezoid");
          check(got.knot4, want.knot4, "batch_knot4");
          check(got.ds, want.ds, "batch_sir_rhs.ds");
          check(got.di, want.di, "batch_sir_rhs.di");
          check(got.th, want.th, "batch_sir_rhs.theta");
          check(got.dpsi, want.dpsi, "batch_costate_rhs.dpsi");
          check(got.dphi, want.dphi, "batch_costate_rhs.dphi");
          check(got.y_next, want.y_next, "batch_sir_rk4_step");
          check(got.w_next, want.w_next, "batch_costate_rk4_step");
        }
      }
    }
  }
}

TEST(KernBatch, LaneMatchesSequentialScalarKernels) {
  const auto& scalar = kern::ops(kern::Backend::kScalar);
  std::vector<const kern::Ops*> backends = {&scalar};
  for (const kern::Ops* simd : simd_backends()) backends.push_back(simd);
  for (const kern::Ops* ops : backends) {
    for (std::size_t n : {std::size_t{1}, std::size_t{4}, std::size_t{10},
                          std::size_t{23}}) {
      for (std::size_t lanes :
           {std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
        for (bool diagonal : {false, true}) {
          util::Xoshiro256 rng(n * 977 + lanes * 13 + (diagonal ? 1 : 0));
          const BatchData d(n, lanes, rng);
          const BatchOut got(*ops, d, n, lanes, diagonal);

          // Deinterleave one lane of an n×lanes array.
          const auto lane = [&](const std::vector<double>& v, std::size_t l) {
            std::vector<double> out(n);
            for (std::size_t j = 0; j < n; ++j) out[j] = v[j * lanes + l];
            return out;
          };
          for (std::size_t l = 0; l < lanes; ++l) {
            const auto s = lane(d.s, l), i = lane(d.i, l),
                       psi = lane(d.psi, l), phic = lane(d.phic, l),
                       lam = lane(d.lambda, l), phi = lane(d.phi, l),
                       pok = lane(d.phi_over_k, l);
            const char* b = kern::to_string(ops->backend);

            ASSERT_EQ(got.dot[l], scalar.dot(s.data(), i.data(), n))
                << "batch_dot lane " << l << " n=" << n << " lanes=" << lanes
                << " backend=" << b;
            ASSERT_EQ(got.trap[l],
                      scalar.trapezoid(d.t.data(), s.data(), n))
                << "batch_trapezoid lane " << l << " backend=" << b;
            double k4[4];
            scalar.knot4(s.data(), i.data(), psi.data(), phic.data(), n, k4);
            for (std::size_t q = 0; q < 4; ++q) {
              ASSERT_EQ(got.knot4[q * lanes + l], k4[q])
                  << "batch_knot4 lane " << l << " component " << q
                  << " backend=" << b;
            }

            std::vector<double> ds(n), di(n);
            const double th =
                scalar.sir_rhs(s.data(), i.data(), lam.data(), phi.data(), n,
                               6.5, d.alpha[l], d.e1[l], d.e2[l], ds.data(),
                               di.data());
            ASSERT_EQ(got.th[l], th) << "theta lane " << l << " backend=" << b;
            for (std::size_t j = 0; j < n; ++j) {
              ASSERT_EQ(got.ds[j * lanes + l], ds[j])
                  << "batch_sir_rhs.ds lane " << l << " j=" << j
                  << " backend=" << b;
              ASSERT_EQ(got.di[j * lanes + l], di[j])
                  << "batch_sir_rhs.di lane " << l << " j=" << j
                  << " backend=" << b;
            }

            std::vector<double> dpsi(n), dphi(n);
            scalar.costate_rhs(s.data(), i.data(), psi.data(), phic.data(),
                               lam.data(), pok.data(), n, d.c1e1[l],
                               d.c2e2[l], d.e1[l], d.e2[l], d.theta[l],
                               diagonal, dpsi.data(), dphi.data());
            for (std::size_t j = 0; j < n; ++j) {
              ASSERT_EQ(got.dpsi[j * lanes + l], dpsi[j])
                  << "batch_costate_rhs.dpsi lane " << l << " j=" << j
                  << " diagonal=" << diagonal << " backend=" << b;
              ASSERT_EQ(got.dphi[j * lanes + l], dphi[j])
                  << "batch_costate_rhs.dphi lane " << l << " j=" << j
                  << " diagonal=" << diagonal << " backend=" << b;
            }

            // Fused steps: sequential layout is [S(n) | I(n)] /
            // [ψ(n) | φ(n)], stage controls are 3-vectors.
            std::vector<double> y(2 * n), w(2 * n), y_next(2 * n),
                w_next(2 * n),
                scratch(kern::fused_scratch_doubles(n));
            std::copy(s.begin(), s.end(), y.begin());
            std::copy(i.begin(), i.end(), y.begin() + n);
            std::copy(psi.begin(), psi.end(), w.begin());
            std::copy(phic.begin(), phic.end(), w.begin() + n);
            const double e1st[3] = {d.e1s[0 * lanes + l],
                                    d.e1s[1 * lanes + l],
                                    d.e1s[2 * lanes + l]};
            const double e2st[3] = {d.e2s[0 * lanes + l],
                                    d.e2s[1 * lanes + l],
                                    d.e2s[2 * lanes + l]};
            const double thst[3] = {d.thetas[0 * lanes + l],
                                    d.thetas[1 * lanes + l],
                                    d.thetas[2 * lanes + l]};
            scalar.sir_rk4_step(y.data(), n, 6.5, d.alpha[l], e1st, e2st,
                                lam.data(), phi.data(), 0.05, y_next.data(),
                                scratch.data());
            scalar.costate_rk4_step(w.data(), n, y.data(), y.data(),
                                    y.data(), lam.data(), pok.data(), thst,
                                    e1st, e2st, d.c1[l], d.c2[l], 0.05,
                                    diagonal, w_next.data(), scratch.data());
            for (std::size_t j = 0; j < 2 * n; ++j) {
              // Batch halves are n·lanes wide; sequential halves n wide.
              const std::size_t half = j < n ? 0 : 1;
              const std::size_t jj = j - half * n;
              const std::size_t flat = half * n * lanes + jj * lanes + l;
              ASSERT_EQ(got.y_next[flat], y_next[j])
                  << "batch_sir_rk4_step lane " << l << " j=" << j
                  << " backend=" << b;
              ASSERT_EQ(got.w_next[flat], w_next[j])
                  << "batch_costate_rk4_step lane " << l << " j=" << j
                  << " diagonal=" << diagonal << " backend=" << b;
            }
          }
        }
      }
    }
  }
}

TEST(KernBatch, NoAccessPastTheLastLane) {
  const auto& scalar = kern::ops(kern::Backend::kScalar);
  std::vector<const kern::Ops*> backends = {&scalar};
  for (const kern::Ops* simd : simd_backends()) backends.push_back(simd);
  for (const kern::Ops* ops : backends) {
    for (std::size_t lanes = 1; lanes <= 17; ++lanes) {
      for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{3}}) {
        for (bool diagonal : {false, true}) {
          util::Xoshiro256 rng(n * 59 + lanes * 3 + (diagonal ? 1 : 0));
          const BatchData d(n, lanes, rng);
          const BatchOut want(*ops, d, n, lanes, diagonal);

          std::vector<std::unique_ptr<GuardedArray<>>> arrays;
          const auto guarded = [&](std::size_t count) {
            arrays.push_back(std::make_unique<GuardedArray<>>(count));
            return arrays.back()->data();
          };
          BatchIo io = batch_inputs(d, [&](const std::vector<double>& v) {
            double* copy = guarded(v.size());
            std::copy(v.begin(), v.end(), copy);
            return static_cast<const double*>(copy);
          });
          io.dot = guarded(lanes);
          io.trap = guarded(lanes);
          io.knot4 = guarded(4 * lanes);
          io.ds = guarded(n * lanes);
          io.di = guarded(n * lanes);
          io.th = guarded(lanes);
          io.dpsi = guarded(n * lanes);
          io.dphi = guarded(n * lanes);
          io.y_next = guarded(2 * n * lanes);
          io.w_next = guarded(2 * n * lanes);
          io.scratch = guarded(kern::batch_scratch_doubles(n, lanes));
          run_batch_kernels(*ops, io, n, lanes, diagonal);

          // Same results as on ordinary vectors.
          const auto check = [&](const double* got,
                                 const std::vector<double>& w,
                                 const char* what) {
            for (std::size_t x = 0; x < w.size(); ++x) {
              ASSERT_EQ(got[x], w[x])
                  << what << " at flat index " << x << " n=" << n
                  << " lanes=" << lanes << " diagonal=" << diagonal
                  << " backend=" << kern::to_string(ops->backend);
            }
          };
          check(io.dot, want.dot, "batch_dot");
          check(io.trap, want.trap, "batch_trapezoid");
          check(io.knot4, want.knot4, "batch_knot4");
          check(io.ds, want.ds, "batch_sir_rhs.ds");
          check(io.di, want.di, "batch_sir_rhs.di");
          check(io.th, want.th, "batch_sir_rhs.theta");
          check(io.dpsi, want.dpsi, "batch_costate_rhs.dpsi");
          check(io.dphi, want.dphi, "batch_costate_rhs.dphi");
          check(io.y_next, want.y_next, "batch_sir_rk4_step");
          check(io.w_next, want.w_next, "batch_costate_rk4_step");
        }
      }
    }
  }
}

TEST(KernDispatch, ZeroLengthIsValidEverywhere) {
  for (kern::Backend b :
       {kern::Backend::kScalar, kern::Backend::kAvx2,
        kern::Backend::kAvx512}) {
    if (!kern::compiled(b) || !kern::cpu_supports(b)) continue;
    const kern::Ops& ops = kern::ops(b);
    EXPECT_EQ(ops.dot(nullptr, nullptr, 0), 0.0);
    EXPECT_EQ(ops.sum(nullptr, 0), 0.0);
    EXPECT_EQ(ops.gather_sum(nullptr, nullptr, 0), 0.0);
    EXPECT_EQ(ops.trapezoid(nullptr, nullptr, 0), 0.0);
    double out4[4] = {1, 1, 1, 1};
    ops.knot4(nullptr, nullptr, nullptr, nullptr, 0, out4);
    EXPECT_EQ(out4[0], 0.0);
    EXPECT_EQ(out4[3], 0.0);
    std::uint64_t c[2] = {9, 9};
    ops.census2(nullptr, 0, c);
    EXPECT_EQ(c[0], 0u);
    EXPECT_EQ(c[1], 0u);
    EXPECT_EQ(
        ops.draw_candidates(1, 0, nullptr, nullptr, 5, 5, nullptr, nullptr),
        0u);
    EXPECT_EQ(ops.screen_candidates(kern::ScreenInputs{}, nullptr, nullptr, 0),
              0u);
  }
}

}  // namespace
