#include "core/batch_sim.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/parallel.hpp"

namespace rumor::core {

BatchSirModel::BatchSirModel(const NetworkProfile& profile,
                             std::span<const ModelParams> params)
    : profile_(&profile),
      n_(profile.num_groups()),
      lanes_(params.size()),
      mean_k_(profile.mean_degree()),
      ops_(&kern::ops()) {
  util::require(lanes_ > 0, "BatchSirModel: need at least one lane");
  lambda_.resize(n_ * lanes_);
  phi_.resize(n_ * lanes_);
  phi_over_k_.resize(n_ * lanes_);
  alpha_.resize(lanes_);
  for (std::size_t l = 0; l < lanes_; ++l) {
    params[l].validate();
    alpha_[l] = params[l].alpha;
    // The same per-group precomputation as the SirNetworkModel ctor,
    // scattered into lane l.
    for (std::size_t i = 0; i < n_; ++i) {
      const double k = profile.degree(i);
      lambda_[i * lanes_ + l] = params[l].lambda(k);
      const double phi = params[l].omega(k) * profile.probability(i);
      phi_[i * lanes_ + l] = phi;
      phi_over_k_[i * lanes_ + l] = phi / mean_k_;
    }
  }
}

void BatchSirModel::theta_into(const double* y, double* out) const {
  ops_->batch_dot(phi_.data(), y + n_ * lanes_, n_, lanes_, out);
  for (std::size_t l = 0; l < lanes_; ++l) out[l] /= mean_k_;
}

namespace {

/// Derived per-lane series in the scalar backend's reduction order
/// (lane-inner loops run left to right over groups), matching the
/// sequential run_simulation under RUMOR_KERNEL=scalar bit for bit.
void derive_lane_series(const ode::BatchTrajectory& traj,
                        const NetworkProfile& profile, const double* phi,
                        std::size_t lane, const SimulationOptions& options,
                        SimulationResult& result) {
  const std::size_t n = profile.num_groups();
  const std::size_t lanes = traj.lanes();
  const double mean_k = profile.mean_degree();
  const auto pmf = profile.pmf();
  result.theta.reserve(traj.size());
  result.infected_density.reserve(traj.size());
  result.total_infected.reserve(traj.size());
  for (std::size_t k = 0; k < traj.size(); ++k) {
    const double* I = traj.sample(k) + n * lanes;
    double th = 0.0, density = 0.0, total = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      th += phi[j * lanes + lane] * I[j * lanes + lane];
    }
    th /= mean_k;
    for (std::size_t j = 0; j < n; ++j) density += pmf[j] * I[j * lanes + lane];
    for (std::size_t j = 0; j < n; ++j) total += I[j * lanes + lane];
    result.theta.push_back(th);
    result.infected_density.push_back(density);
    result.total_infected.push_back(total);
    if (options.extinction_threshold > 0.0 && !result.extinction_time &&
        total < options.extinction_threshold) {
      result.extinction_time = traj.times()[k];
    }
  }
}

}  // namespace

std::vector<SimulationResult> run_simulation_batch(
    const NetworkProfile& profile, std::span<const BatchLaneSpec> specs,
    const SimulationOptions& options) {
  util::require(!specs.empty(), "run_simulation_batch: no lanes");
  util::require(options.t1 > options.t0, "run_simulation_batch: need t1 > t0");
  util::require(options.dt > 0.0, "run_simulation_batch: dt must be positive");
  util::require(options.record_every >= 1,
                "run_simulation_batch: record_every must be >= 1");
  util::require(options.method == IntegrationMethod::kRk4,
                "run_simulation_batch: only fixed-step RK4 is batched");
  const std::size_t n = profile.num_groups();
  for (const auto& spec : specs) {
    util::require(spec.y0.size() == 2 * n,
                  "run_simulation_batch: initial state dimension mismatch");
  }

  const std::size_t total = specs.size();
  const std::size_t batch = kern::preferred_batch_lanes();
  const std::size_t num_chunks = (total + batch - 1) / batch;
  std::vector<SimulationResult> results(total);

  util::parallel_for(std::size_t{0}, num_chunks, /*grain=*/1,
                     [&](std::size_t c) {
    const std::size_t lo = c * batch;
    const std::size_t lanes = std::min(batch, total - lo);
    std::vector<ModelParams> params;
    params.reserve(lanes);
    for (std::size_t l = 0; l < lanes; ++l) params.push_back(specs[lo + l].params);
    const BatchSirModel model(profile, params);

    // Constant controls: the stage arrays never change across steps.
    ode::aligned_vector<double> e1(3 * lanes), e2(3 * lanes);
    for (std::size_t s = 0; s < 3; ++s) {
      for (std::size_t l = 0; l < lanes; ++l) {
        e1[s * lanes + l] = specs[lo + l].epsilon1;
        e2[s * lanes + l] = specs[lo + l].epsilon2;
      }
    }

    const std::size_t flat = 2 * n * lanes;
    ode::BatchWorkspace ws;
    ws.resize(flat, kern::batch_scratch_doubles(n, lanes));
    ode::aligned_vector<double> y0(flat);
    for (std::size_t l = 0; l < lanes; ++l) {
      ode::scatter_lane(specs[lo + l].y0.data(), 2 * n, lanes, l, y0.data());
    }

    ode::BatchTrajectory traj;
    integrate_batch_fixed(model, y0.data(), options.t0, options.t1,
                          options.dt, options.record_every,
                          [](double, double, double*, double*) {}, ws,
                          e1.data(), e2.data(), traj);

    ode::State lane_state(2 * n);
    for (std::size_t l = 0; l < lanes; ++l) {
      SimulationResult& result = results[lo + l];
      result.trajectory.reset(2 * n);
      for (std::size_t k = 0; k < traj.size(); ++k) {
        traj.extract_lane(k, l, lane_state.data());
        result.trajectory.push_back(traj.times()[k], lane_state);
      }
      derive_lane_series(traj, profile, model.phis(), l, options, result);
    }
  });
  return results;
}

}  // namespace rumor::core
