// Lane-per-problem batch containers for the SoA multi-solve path.
//
// A batch holds `lanes` independent problems interleaved lane-wise:
// every batched array stores component j of problem l at
// a[j * lanes + l], so one SIMD vector load reads the same component
// of `lanes` adjacent problems. The kern batch_* kernels (kern.hpp)
// consume exactly this layout and keep per-lane reductions in scalar
// left-to-right order, which makes batched results bit-identical
// across backends and, per lane, to the scalar sequential solve.
//
// All heap buffers here are 64-byte aligned so a batch base always
// starts on a cache line; with `lanes` a multiple of the vector width
// every vector access inside a sample is then naturally aligned too
// (the kernels use unaligned loads regardless, so odd lane counts
// merely lose a little speed, never correctness).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <vector>

namespace rumor::ode {

/// Minimal 64-byte-aligning allocator for the batch buffers.
template <typename T>
struct AlignedAllocator {
  using value_type = T;
  static constexpr std::size_t kAlignment = 64;

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    if (n == 0) return nullptr;
    void* p = ::operator new(n * sizeof(T), std::align_val_t(kAlignment));
    return static_cast<T*>(p);
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t(kAlignment));
  }
  template <typename U>
  bool operator==(const AlignedAllocator<U>&) const noexcept {
    return true;
  }
};

template <typename T>
using aligned_vector = std::vector<T, AlignedAllocator<T>>;

/// Scatter a contiguous per-problem vector into lane l of a batch
/// array: dst[j*lanes + l] = src[j] for j in [0, dim).
inline void scatter_lane(const double* src, std::size_t dim,
                         std::size_t lanes, std::size_t lane, double* dst) {
  for (std::size_t j = 0; j < dim; ++j) dst[j * lanes + lane] = src[j];
}

/// Gather lane l of a batch array into a contiguous per-problem
/// vector: dst[j] = src[j*lanes + l].
inline void gather_lane(const double* src, std::size_t dim, std::size_t lanes,
                        std::size_t lane, double* dst) {
  for (std::size_t j = 0; j < dim; ++j) dst[j] = src[j * lanes + lane];
}

/// Recorded solution of `lanes` problems integrated in lockstep over a
/// SHARED time grid: one strictly-increasing times() vector, and one
/// lane-interleaved flat sample of dim·lanes doubles per recorded time.
/// The batch analog of ode::Trajectory, including its locate() /
/// interpolation-segment semantics (shared across lanes because the
/// grid is shared).
class BatchTrajectory {
 public:
  void reset(std::size_t dim, std::size_t lanes) {
    dim_ = dim;
    lanes_ = lanes;
    times_.clear();
    flat_.clear();
  }

  /// Append a sample; `sample` must hold dim()·lanes() doubles and `t`
  /// must exceed back_time() (mirrors Trajectory's push_back contract;
  /// validated by callers, not here — this is a hot loop).
  void push_back(double t, const double* sample) {
    times_.push_back(t);
    flat_.insert(flat_.end(), sample, sample + dim_ * lanes_);
  }

  std::size_t dim() const { return dim_; }
  std::size_t lanes() const { return lanes_; }
  std::size_t size() const { return times_.size(); }
  bool empty() const { return times_.empty(); }
  const std::vector<double>& times() const { return times_; }
  double front_time() const { return times_.front(); }
  double back_time() const { return times_.back(); }

  const double* sample(std::size_t k) const {
    return flat_.data() + k * dim_ * lanes_;
  }
  const double* back_sample() const { return sample(size() - 1); }

  /// Copy lane l of sample k into `out` (dim doubles).
  void extract_lane(std::size_t k, std::size_t lane, double* out) const {
    gather_lane(sample(k), dim_, lanes_, lane, out);
  }

  /// Interpolation segment for time t, identical to
  /// ode::Trajectory::locate: the surrounding sample pair (lo == hi at
  /// the clamped ends), found by walking from `hint` — callers sweep
  /// monotonically, so the walk is O(1) amortized.
  struct Segment {
    std::size_t lo = 0;
    std::size_t hi = 0;
  };

  Segment locate(double t, std::size_t hint) const {
    const std::size_t count = times_.size();
    if (t <= times_.front()) return {0, 0};
    if (t >= times_.back()) return {count - 1, count - 1};
    std::size_t hi = hint;
    if (hi == 0) hi = 1;
    if (hi >= count) hi = count - 1;
    while (times_[hi] < t) ++hi;
    while (times_[hi - 1] > t) --hi;
    return {hi - 1, hi};
  }

  /// Interpolated flat sample at time t (dim·lanes doubles) — the
  /// batched Trajectory::segment_state: endpoint copy when clamped,
  /// else a kern lerp with the shared weight w = (t−t_lo)/(t_hi−t_lo).
  /// Implemented in batch.cpp to keep kern.hpp out of this header.
  void sample_at(const Segment& seg, double t, double* out) const;

 private:
  std::size_t dim_ = 0;
  std::size_t lanes_ = 0;
  std::vector<double> times_;
  aligned_vector<double> flat_;
};

/// Scratch buffers of one in-flight batch solve: current state,
/// next-state, and the kern batch-step scratch, all 64-byte aligned.
/// Sized by resize(); reused across every step of every pass so the
/// hot loop never allocates.
struct BatchWorkspace {
  aligned_vector<double> y;        // 2n·lanes current state
  aligned_vector<double> y_next;   // 2n·lanes
  aligned_vector<double> scratch;  // kern::batch_scratch_doubles(n, lanes)

  void resize(std::size_t dim_times_lanes, std::size_t scratch_doubles) {
    y.assign(dim_times_lanes, 0.0);
    y_next.assign(dim_times_lanes, 0.0);
    scratch.assign(scratch_doubles, 0.0);
  }
};

/// The integrate_fixed time loop over a lane-interleaved flat state —
/// same accumulation, same t_eps, same record rule — run once for all
/// lanes: from y0 (dim·lanes doubles) at t0 to t1 in steps of at most
/// dt, `step(t, h, y, y_next)` advancing ws.y into ws.y_next; `out`
/// records t0, every `record_every`-th step, and the last.
template <typename Step>
void integrate_batch_loop(const double* y0, std::size_t dim,
                          std::size_t lanes, double t0, double t1, double dt,
                          std::size_t record_every, Step&& step,
                          BatchWorkspace& ws, BatchTrajectory& out) {
  out.reset(dim, lanes);
  out.push_back(t0, y0);
  std::copy(y0, y0 + dim * lanes, ws.y.begin());

  double t = t0;
  std::size_t step_index = 0;
  const double t_eps = 1e-9 * dt;
  while (t < t1 - t_eps) {
    const double h = std::min(dt, t1 - t);
    step(t, h, ws.y.data(), ws.y_next.data());
    t += h;
    ws.y.swap(ws.y_next);
    ++step_index;
    const bool is_last = t >= t1 - t_eps;
    if (is_last || step_index % record_every == 0) {
      out.push_back(t, ws.y.data());
    }
  }
}

}  // namespace rumor::ode
