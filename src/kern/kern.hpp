// Runtime-dispatched SIMD kernel library for the dense hot loops.
//
// Every engine's inner loops — the fused SIR/costate RHS kernels, the
// agent-sim hazard gather, the RK4 stage combines, trajectory
// interpolation, the objective/ensemble reductions, the packed 2-bit
// compartment census, and the agent step's per-node draw sweep and
// candidate screen — funnel through the function-pointer table returned
// by ops(). The table is resolved exactly once per process: the best
// backend the CPU supports (CPUID via __builtin_cpu_supports) unless the
// RUMOR_KERNEL environment variable forces one of scalar|avx2|avx512. A
// forced backend the binary was not compiled with, or the CPU cannot
// execute, raises util::InvalidArgument with a message naming the valid
// choices.
//
// Determinism policy (tested by tests/test_kern.cpp, documented in
// docs/performance.md):
//   * The scalar backend reproduces the pre-kernel per-element
//     arithmetic bit for bit — RUMOR_KERNEL=scalar is the reference.
//   * Elementwise kernels (lerp, axpy_out, combine2, rk4_combine,
//     accumulate, accumulate_sq, the elementwise half of sir_rhs /
//     costate_rhs), the integer kernels (census, varint decode, draw
//     sweep) and the candidate screen are bit-identical across ALL
//     backends: each output element is the same IEEE (or integer)
//     operation sequence per lane, compiled with -ffp-contract=off so
//     no backend fuses a multiply-add the others do not.
//   * Reductions (dot, sum, gather_sum, trapezoid, knot4, and the Θ /
//     coupling sums inside the fused RHS kernels) reassociate under
//     SIMD: lane-parallel partial sums differ from the scalar
//     left-to-right order by rounding only. Cross-backend equality is
//     therefore tolerance-based (ULP-scale), while any single backend
//     remains exactly deterministic run to run.
//   * Batched lane-per-problem kernels (batch_*) are the exception to
//     the reduction rule: they vectorize ACROSS problems (one SIMD
//     lane per problem) and iterate components sequentially within
//     each lane, so every per-lane reduction keeps the scalar
//     left-to-right order. Batched results are bit-identical across
//     ALL backends, and each lane is bit-identical to the scalar
//     backend's sequential one-problem solve.
//
// Backends. scalar_impl.hpp and batch_impl.hpp hold the scalar reference
// bodies (kernels_scalar.cpp publishes them). simd_impl.hpp writes every
// floating-point kernel once, as a template over a vector-traits struct;
// kernels_avx2.cpp and kernels_avx512.cpp each define their traits,
// instantiate the templates under their own -m flags, and keep as their
// own code only what their instructions differ in: census2's popcount,
// the draw_candidates sweep, the screen_candidates gathers and
// compaction, and AVX-512's forwarding of the small-n model kernels to
// the AVX2 table. Every body in those internal headers has internal
// linkage, so the linker can never substitute one ISA TU's compiled copy
// for another's.
//
// This seam is deliberately C-shaped (raw pointers + lengths, no
// templates in the ABI) so a future CUDA path can sit behind the same
// table — see ROADMAP item 2.
#pragma once

#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>

namespace rumor::kern {

enum class Backend { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// "scalar" | "avx2" | "avx512" — the tokens RUMOR_KERNEL accepts.
const char* to_string(Backend backend);

/// The agent simulator's certified infection bound (sim/agent_sim.hpp
/// header note) for a susceptible node with `count` infected exposure
/// sources and exact exposure sum sum·unit: x = (λ_v/k_v·H̃)·dt, rounded
/// as the infection probability's exponent, and the margin m around
/// p̃ = 1 − exp(−x). The one definition of both: sim::certify_infection
/// and the scalar screen_candidates call it, and simd_impl.hpp's
/// rejection_bound repeats its operations in this order for both SIMD
/// screens (kern and sim compile without floating-point contraction),
/// so every backend rounds them alike.
struct InfectionBound {
  double x;
  double margin;
};

inline InfectionBound infection_bound(std::uint32_t count, std::int64_t sum,
                                      double unit, double gather_error,
                                      double lambda_over_k, double dt) {
  // δ of the header note; H̃ and the grid terms are exact.
  const auto c = static_cast<double>(count);
  const double hazard = static_cast<double>(sum) * unit;
  const double delta = c * (0.5 * unit) + gather_error * (hazard + c * unit);
  return {lambda_over_k * hazard * dt, lambda_over_k * dt * delta + 0x1p-45};
}

/// fl(fl(x + m) + 2^-48): an infection draw u at or above it can record
/// no infection, so it is rejected before exp is called.
inline double rejection_bound(const InfectionBound& bound) {
  return bound.x + bound.margin + 0x1p-48;
}

/// Inputs of Ops::screen_candidates: the frontier engine's step-start
/// state (read only) and the step's constants.
struct ScreenInputs {
  const std::uint64_t* words;           ///< 2-bit compartments, 32 per word
  const std::uint32_t* exposure_count;  ///< infected exposure sources
  const std::int64_t* exposure_sum;     ///< fixed-point exposure sums
  const std::uint32_t* group_of;        ///< node → degree group
  const double* lambda_over_k;          ///< λ(k)/k per group
  double unit;                          ///< 2^-s of the fixed point
  double gather_error;                  ///< D·2^-52
  double dt;
  std::uint64_t threshold_immunize;  ///< draw_threshold(p_immunize)
  std::uint64_t threshold_block;     ///< draw_threshold(p_block)
};

/// Kernel function table. All pointers are non-null in every published
/// table; n = 0 is valid for every kernel (reductions return 0).
struct Ops {
  Backend backend;

  // --- reductions (tolerance-equivalent across backends) -----------
  /// Σ a_i b_i.
  double (*dot)(const double* a, const double* b, std::size_t n);
  /// Σ a_i.
  double (*sum)(const double* a, std::size_t n);
  /// Σ w[idx_i] — the agent-sim hazard gather over a weight table.
  double (*gather_sum)(const double* w, const std::uint32_t* idx,
                       std::size_t n);
  /// Trapezoidal quadrature Σ 0.5 (t_i − t_{i−1})(y_i + y_{i−1});
  /// the grid must be strictly increasing (validated by callers).
  double (*trapezoid)(const double* t, const double* y, std::size_t n);
  /// The four optimal-control contractions in one pass:
  /// out = {Σ ψ_i S_i, Σ S_i², Σ φ_i I_i, Σ I_i²}.
  void (*knot4)(const double* s, const double* i, const double* psi,
                const double* phi, std::size_t n, double out[4]);

  // --- fused model kernels ------------------------------------------
  /// System (1) RHS: Θ = (Σ φ_i I_i)/⟨k⟩ (reduction), then per group
  /// dS_i = α − λ_i S_i Θ − ε1 S_i, dI_i = λ_i S_i Θ − ε2 I_i
  /// (elementwise). Returns Θ.
  double (*sir_rhs)(const double* s, const double* i, const double* lambda,
                    const double* phi, std::size_t n, double mean_k,
                    double alpha, double e1, double e2, double* ds,
                    double* di);
  /// Costate RHS in the reversed clock (paper Eqs. (15)-(16), full or
  /// diagonal coupling). The cross-group coupling Σ (ψ−φ) λ S is a
  /// reduction (skipped when diagonal); the per-group body is
  /// elementwise. c1e1 = −2 c1 ε1², c2e2 = −2 c2 ε2² precomputed.
  void (*costate_rhs)(const double* s, const double* i, const double* psi,
                      const double* phic, const double* lambda,
                      const double* phi_over_k, std::size_t n, double c1e1,
                      double c2e2, double e1, double e2, double theta,
                      bool diagonal, double* dpsi, double* dphi);

  // --- fused whole-step kernels --------------------------------------
  // At the n≈10–60 group counts the optimal-control problems run at,
  // per-call dispatch overhead rivals the arithmetic, so the classical
  // RK4 step of each model is fused into ONE dispatched call: all four
  // stage RHS evaluations plus the stage combines run as direct
  // (inlinable) calls inside the backend TU. Exactly equivalent —
  // bitwise, per backend — to four rhs kernel calls interleaved with
  // axpy_out/rk4_combine; the generic stepper path remains as the
  // reference.
  /// y = [S, I] (2n entries); e1[3]/e2[3] are the controls at the stage
  /// times t, t+h/2, t+h. `scratch` must hold fused_scratch_doubles(n)
  /// entries. Writes y_next (2n), which must not alias y.
  void (*sir_rk4_step)(const double* y, std::size_t n, double mean_k,
                       double alpha, const double* e1, const double* e2,
                       const double* lambda, const double* phi, double h,
                       double* y_next, double* scratch);
  /// Reversed-clock costate step. w = [ψ, φ] (2n); y0/ymid/y1 are the
  /// interpolated forward states at the three stage times, with
  /// theta[3]/e1[3]/e2[3] sampled likewise. `scratch` must hold
  /// fused_scratch_doubles(n) entries. Writes w_next (2n), which must
  /// not alias w.
  void (*costate_rk4_step)(const double* w, std::size_t n, const double* y0,
                           const double* ymid, const double* y1,
                           const double* lambda, const double* phi_over_k,
                           const double* theta, const double* e1,
                           const double* e2, double c1, double c2, double h,
                           bool diagonal, double* w_next, double* scratch);

  // --- elementwise maps (bit-identical across backends) -------------
  /// out_i = (1 − w) a_i + w b_i (trajectory interpolation).
  void (*lerp)(const double* a, const double* b, double w, double* out,
               std::size_t n);
  /// out_i = y_i + a k_i (Euler / RK4 stage advance).
  void (*axpy_out)(const double* y, const double* k, double a, double* out,
                   std::size_t n);
  /// out_i = y_i + a (k1_i + k2_i) (Heun combine, a = h/2).
  void (*combine2)(const double* y, const double* k1, const double* k2,
                   double a, double* out, std::size_t n);
  /// out_i = y_i + h6 (k1_i + 2 k2_i + 2 k3_i + k4_i), h6 = h/6.
  void (*rk4_combine)(const double* y, const double* k1, const double* k2,
                      const double* k3, const double* k4, double h6,
                      double* out, std::size_t n);
  /// acc_i += x_i (ensemble series merge).
  void (*accumulate)(const double* x, double* acc, std::size_t n);
  /// acc_i += x_i² (ensemble variance accumulator).
  void (*accumulate_sq)(const double* x, double* acc, std::size_t n);

  // --- integer kernels (exact in every backend) ---------------------
  /// Census of a 2-bit-packed compartment array (32 nodes per 64-bit
  /// word, values 0=S 1=I 2=R, 3 unused): out = {infected, recovered}
  /// over the first nnodes fields. Tail slots of the last word are
  /// masked off.
  void (*census2)(const std::uint64_t* words, std::size_t nnodes,
                  std::uint64_t out[2]);
  /// Decode `count` zigzag-delta LEB128 varints (io/varint.hpp encodes
  /// them): out[i] = out[i-1] + unzigzag(varint_i), chained from `base`.
  /// Returns the bytes consumed from src, or 0 when the stream is
  /// malformed — truncated before `count` values, a varint longer than
  /// 5 bytes, or any decoded value outside [0, limit). The bounds are
  /// enforced before anything is trusted, so a corrupt blob can never
  /// index out of range. Bit-exact across backends (integer kernel);
  /// the AVX2 path batches runs of single-byte varints, the common case
  /// for degree-sorted adjacency.
  std::size_t (*varint_decode_deltas)(const std::uint8_t* src,
                                      std::size_t avail, std::uint32_t base,
                                      std::uint32_t limit, std::uint32_t* out,
                                      std::size_t count);
  /// The agent simulator's draw sweep. Node v's stream key is
  /// util::splitmix64(key ^ premix[v]), which is util::hash_mix(key, v)
  /// when the caller has tabulated premix[v] = util::premix(v), and its
  /// first draw is util::CounterRng(stream key).next() >> 11. Writes
  /// to out, in ascending order, every v in [lo, hi) whose first draw
  /// is below `threshold` (see draw_threshold), or whose exposure[v] is
  /// non-zero, and to keys[i] the stream key of out[i]. Returns the
  /// count written. out and keys each need room for hi − lo entries:
  /// entries past the count are scratch the backend may overwrite.
  /// exposure and premix are read in [lo, hi) only. Bit-exact across
  /// backends (integer kernel).
  std::size_t (*draw_candidates)(std::uint64_t key, std::uint64_t threshold,
                                 const std::uint32_t* exposure,
                                 const std::uint64_t* premix,
                                 std::size_t lo, std::size_t hi,
                                 std::uint32_t* out, std::uint64_t* keys);
  /// The ε1 > 0 step's candidate screen. Compacts the `count` candidates
  /// ids[i] with stream keys keys[i] in place, in order, down to those
  /// whose per-candidate decision can record a transition, and returns
  /// how many remain. With d1 the key's first CounterRng draw >> 11 and
  /// u2 its second draw as uniform(), a candidate is kept when it is
  ///   R: never;
  ///   I: d1 < threshold_block;
  ///   S: d1 < threshold_immunize, or its exposure count is non-zero
  ///      and !(u2 >= rejection_bound(infection_bound(...))) —
  ///      certify_infection's exp-free rejection, bit for bit.
  /// Thresholds 0 and 2^53 are bernoulli's p <= 0 and p >= 1; the S
  /// rule takes u2 as the infection draw, so it assumes
  /// threshold_immunize > 0, as on every ε1 > 0 step. Every id must be
  /// a node of the input tables, which are read at those ids only.
  /// Slots past the returned count hold scratch. Bit-exact across
  /// backends.
  std::size_t (*screen_candidates)(const ScreenInputs& in, std::uint32_t* ids,
                                   std::uint64_t* keys, std::size_t count);

  // --- batched lane-per-problem kernels ------------------------------
  // `lanes` independent problems interleaved SoA: a[j*lanes + l] is
  // component j of problem l. SIMD vectorizes across lanes, at full
  // width for any lane count (the last partial vector is masked, and
  // never reads or writes past lane `lanes` − 1); per lane every
  // reduction keeps the scalar left-to-right order, so batched results
  // are bit-identical across ALL backends (policy note above).
  // Shared-per-batch values (mean_k, h, the time grid) are plain
  // scalars; per-problem values are length-`lanes` arrays; stage
  // control arrays (e1/e2/theta of the RK4 steps) are stage-major
  // 3×lanes.
  /// out[l] = Σ_j a[j·lanes+l] b[j·lanes+l].
  void (*batch_dot)(const double* a, const double* b, std::size_t n,
                    std::size_t lanes, double* out);
  /// Per-lane trapezoid over a SHARED strictly-increasing grid t[0..n):
  /// out[l] = Σ_i 0.5 (t_i − t_{i−1})(y[i·lanes+l] + y[(i−1)·lanes+l]).
  void (*batch_trapezoid)(const double* t, const double* y, std::size_t n,
                          std::size_t lanes, double* out);
  /// The four optimal-control contractions per lane; out is 4×lanes,
  /// component-major: out[q·lanes+l] = {ΣψS, ΣS², ΣφI, ΣI²}[q] of lane l.
  void (*batch_knot4)(const double* s, const double* i, const double* psi,
                      const double* phi, std::size_t n, std::size_t lanes,
                      double* out);
  /// Batched System (1) RHS. theta_out (length lanes) receives Θ per
  /// lane; may be null.
  void (*batch_sir_rhs)(const double* s, const double* i, const double* lambda,
                        const double* phi, std::size_t n, std::size_t lanes,
                        double mean_k, const double* alpha, const double* e1,
                        const double* e2, double* ds, double* di,
                        double* theta_out);
  /// Batched costate RHS; c1e1/c2e2/e1/e2/theta are per-lane arrays.
  void (*batch_costate_rhs)(const double* s, const double* i,
                            const double* psi, const double* phic,
                            const double* lambda, const double* phi_over_k,
                            std::size_t n, std::size_t lanes,
                            const double* c1e1, const double* c2e2,
                            const double* e1, const double* e2,
                            const double* theta, bool diagonal, double* dpsi,
                            double* dphi);
  /// Batched fused RK4 step: y = [S, I] lane-interleaved (2n·lanes),
  /// e1/e2 stage-major 3×lanes, alpha per lane. `scratch` must hold
  /// batch_scratch_doubles(n, lanes) entries. Writes y_next (2n·lanes),
  /// which must not alias y.
  void (*batch_sir_rk4_step)(const double* y, std::size_t n, std::size_t lanes,
                             double mean_k, const double* alpha,
                             const double* e1, const double* e2,
                             const double* lambda, const double* phi, double h,
                             double* y_next, double* scratch);
  /// Batched reversed-clock costate step; c1/c2 per lane, theta/e1/e2
  /// stage-major 3×lanes. `scratch` must hold
  /// batch_scratch_doubles(n, lanes) entries. Writes w_next (2n·lanes),
  /// which must not alias w.
  void (*batch_costate_rk4_step)(const double* w, std::size_t n,
                                 std::size_t lanes, const double* y0,
                                 const double* ymid, const double* y1,
                                 const double* lambda,
                                 const double* phi_over_k, const double* theta,
                                 const double* e1, const double* e2,
                                 const double* c1, const double* c2, double h,
                                 bool diagonal, double* w_next,
                                 double* scratch);
};

/// Scratch requirement of the fused RK4 kernels: five 2n-double stage
/// buffers, plus slack for the SIMD backends to realign the buffers to
/// 64 bytes and pad each S/I half to a whole number of vector lanes
/// (splitting the halves keeps every stage-buffer vector load exactly
/// covering a prior vector store, so store-to-load forwarding never
/// stalls — the dominant cost at the n≈10 sizes the optimal-control
/// solves run at).
constexpr std::size_t fused_scratch_doubles(std::size_t n) {
  return 10 * n + 96;
}

/// Scratch requirement of the BATCHED fused RK4 kernels: five
/// 2n·lanes-double stage buffers, two length-`lanes` per-stage control
/// coefficient arrays (the costate step's c1e1/c2e2), plus slack for
/// the SIMD backends to realign the base to 64 bytes. With the base
/// 64-byte aligned and `lanes` a multiple of the vector width, every
/// stage-buffer vector access covers exactly one prior vector store —
/// the lane-interleaved layout needs no per-half padding.
constexpr std::size_t batch_scratch_doubles(std::size_t n,
                                            std::size_t lanes) {
  return (10 * n + 2) * lanes + 16;
}

/// draw_candidates' integer threshold for probability p: ceil(p·2^53),
/// 0 for p <= 0 and 2^53 for p >= 1. A 53-bit draw x then satisfies
/// x < draw_threshold(p) exactly when util::CounterRng::bernoulli(p)
/// on that draw returns true (x·2^-53 < p, and p·2^53 is exact).
inline std::uint64_t draw_threshold(double p) {
  if (!(p > 0.0)) return 0;
  if (p >= 1.0) return std::uint64_t{1} << 53;
  return static_cast<std::uint64_t>(std::ceil(std::ldexp(p, 53)));
}

/// The lane count the resolved backend fills one (or two) vector
/// registers with: 8 on every x86 backend (one zmm of doubles on
/// AVX-512, two ymm on AVX2, and a cache-friendly unroll for scalar).
/// Callers may batch at any lane count: the SIMD kernels run the last
/// partial vector masked, so B lanes cost about what the next multiple
/// of the vector width does, and multiples of this value waste none.
std::size_t preferred_batch_lanes();

/// True when the backend's code was compiled into this binary (CMake
/// probes the compiler for -mavx2 / -mavx512f; non-x86 builds carry
/// only the scalar table).
bool compiled(Backend backend);

/// True when the running CPU can execute the backend (CPUID). The
/// avx512 backend requires F+DQ+BW+VL (the Skylake-SP baseline its
/// kernels are compiled against).
bool cpu_supports(Backend backend);

/// The table of a specific backend. Throws util::InvalidArgument when
/// the backend is not compiled in — but does NOT check cpu_supports();
/// tests and the microbench guard that themselves.
const Ops& ops(Backend backend);

/// Parse a RUMOR_KERNEL token. Throws util::InvalidArgument on
/// anything but scalar|avx2|avx512.
Backend parse_backend(const std::string& name);

/// Resolution rule used by backend(): honor `override` (may be null or
/// empty = no override; otherwise must name a compiled AND supported
/// backend or this throws with a message saying which constraint
/// failed), else the best of avx512 > avx2 > scalar that is both
/// compiled and supported. Exposed separately so tests can exercise
/// the rule without mutating the process environment.
Backend resolve_backend(const char* override_token);

/// The process-wide backend, resolved once from RUMOR_KERNEL / CPUID
/// on first call. Throws on the first call if RUMOR_KERNEL names an
/// unusable backend (callers surface that as a startup error).
Backend backend();

namespace detail {
/// Published once by resolve_and_publish(); the tables are immutable
/// namespace-scope constants, so an acquire load fully synchronizes
/// with the release store that publishes the pointer.
inline std::atomic<const Ops*> g_resolved_ops{nullptr};
/// Out-of-line slow path: resolves backend() (throwing on an unusable
/// RUMOR_KERNEL override) and publishes the table pointer.
const Ops& resolve_and_publish();
}  // namespace detail

/// Dispatch table of backend(). Resolve once and cache the reference
/// in hot objects; the pointers never change after first call. The
/// fast path inlines to one load + branch — per-RHS-evaluation call
/// sites (trajectory interpolation, stage combines) go through here
/// hundreds of thousands of times per solve, so the function-call +
/// magic-static guard of an out-of-line definition is measurable.
inline const Ops& ops() {
  const Ops* table = detail::g_resolved_ops.load(std::memory_order_acquire);
  return table != nullptr ? *table : detail::resolve_and_publish();
}

/// Space-separated list of the SIMD features CPUID reports from the
/// set the kernels care about (e.g. "avx2 avx512f avx512dq avx512bw
/// avx512vl"), "(none)" when empty — recorded in bench reports so perf
/// trajectories are comparable across machines.
std::string cpu_features();

}  // namespace rumor::kern
