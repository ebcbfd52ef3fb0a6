#include "stream/engine.hpp"

#include <chrono>
#include <cmath>
#include <span>

#include "control/objective.hpp"
#include "core/profile.hpp"
#include "io/crc32.hpp"
#include "io/json.hpp"
#include "io/serde.hpp"
#include "sim/checkpoint.hpp"
#include "stream/metrics.hpp"
#include "util/error.hpp"

namespace rumor::stream {

namespace {

double elapsed_ms(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

void serialize_row(io::ByteWriter& writer, const DecisionRow& row) {
  writer.u64(row.tick);
  writer.f64(row.t);
  writer.f64(row.eps1);
  writer.f64(row.eps2);
  writer.u8(row.refit ? 1 : 0);
  writer.u8(row.replanned ? 1 : 0);
  writer.u8(row.deadline_miss ? 1 : 0);
  writer.f64(row.lambda_hat);
  writer.f64(row.lambda_stddev);
  writer.f64(row.prevalence);
  writer.f64(row.predicted_objective);
  writer.f64(row.realized_running);
  writer.f64(row.regret);
}

std::string format_double(double v) {
  io::JsonValue j(v);  // shortest round-trip formatting
  return j.dump();
}

}  // namespace

void StreamConfig::validate() const {
  util::require(num_nodes >= 1, "StreamConfig: num_nodes must be >= 1");
  util::require(dt > 0.0, "StreamConfig: dt must be positive");
  util::require(lambda_scale > 0.0,
                "StreamConfig: lambda_scale must be positive");
  util::require(alpha >= 0.0, "StreamConfig: alpha must be >= 0");
  util::require(replan_every >= 1,
                "StreamConfig: replan_every must be >= 1");
  util::require(refit_every >= 1, "StreamConfig: refit_every must be >= 1");
  estimator.validate();
  planner.validate();
}

std::string decision_csv_header() {
  return "tick,t,eps1,eps2,refit,replanned,deadline_miss,lambda_hat,"
         "lambda_stddev,prevalence,predicted_objective,realized_running,"
         "regret";
}

std::string decision_csv_row(const DecisionRow& row) {
  std::string out = std::to_string(row.tick);
  out += ',';
  out += format_double(row.t);
  out += ',';
  out += format_double(row.eps1);
  out += ',';
  out += format_double(row.eps2);
  out += ',';
  out += row.refit ? '1' : '0';
  out += ',';
  out += row.replanned ? '1' : '0';
  out += ',';
  out += row.deadline_miss ? '1' : '0';
  out += ',';
  out += format_double(row.lambda_hat);
  out += ',';
  out += format_double(row.lambda_stddev);
  out += ',';
  out += format_double(row.prevalence);
  out += ',';
  out += format_double(row.predicted_objective);
  out += ',';
  out += format_double(row.realized_running);
  out += ',';
  out += format_double(row.regret);
  return out;
}

StreamEngine::StreamEngine(const StreamConfig& config)
    : config_(config),
      live_(config.num_nodes, config.directed),
      lambda_scale_true_(config.lambda_scale),
      estimator_(config.estimator),
      planner_(config.planner) {
  config_.validate();
  csr_ = std::make_unique<graph::Graph>(live_.build_csr());
  sim_ = std::make_unique<sim::AgentSimulation>(*csr_, agent_params(),
                                                config_.seed);
}

sim::AgentParams StreamEngine::agent_params() const {
  sim::AgentParams params;
  params.lambda = core::Acceptance::linear(lambda_scale_true_);
  params.omega = core::Infectivity::saturating();
  params.epsilon1 = 0.0;  // the schedule, not constants, drives controls
  params.epsilon2 = 0.0;
  params.dt = config_.dt;
  params.engine = config_.engine;
  return params;
}

double StreamEngine::census_prevalence() const {
  return static_cast<double>(sim_->census().infected) /
         static_cast<double>(sim_->num_nodes());
}

void StreamEngine::apply(const Event& event) {
  StreamMetrics& metrics = stream_metrics();
  ++events_;
  metrics.events_ingested.add();
  switch (event.kind) {
    case EventKind::kEdgeAdd:
      if (live_.add_edge(event.u, event.v)) topo_dirty_ = true;
      metrics.edge_adds.add();
      ++pending_since_tick_;
      break;
    case EventKind::kEdgeDel:
      if (live_.remove_edge(event.u, event.v)) topo_dirty_ = true;
      metrics.edge_dels.add();
      ++pending_since_tick_;
      break;
    case EventKind::kSeedInfect:
      sim_->seed_infections(event.nodes);
      metrics.seeds.add(event.nodes.size());
      ++pending_since_tick_;
      break;
    case EventKind::kObservePrevalence: {
      const double t = event.has_t ? event.t : sim_->time();
      const double value =
          event.has_value ? event.value : census_prevalence();
      estimator_.observe(t, value);
      metrics.observations.add();
      ++pending_since_tick_;
      break;
    }
    case EventKind::kSetParams:
      if (event.lambda_scale != lambda_scale_true_) {
        lambda_scale_true_ = event.lambda_scale;
        params_dirty_ = true;
      }
      ++pending_since_tick_;
      break;
    case EventKind::kTick:
      for (std::uint32_t c = 0; c < event.count; ++c) on_tick();
      break;
  }
}

void StreamEngine::sync_sim() {
  if (!topo_dirty_ && !params_dirty_) return;
  // Capture → rebuild → restore. The checkpoint holds node states
  // only; the restore recomputes every exposure count and sum against
  // the *new* topology (sim/agent_sim.hpp).
  const sim::AgentCheckpoint checkpoint = sim_->checkpoint();
  csr_ = std::make_unique<graph::Graph>(live_.build_csr());
  sim_ = std::make_unique<sim::AgentSimulation>(*csr_, agent_params(),
                                                config_.seed);
  sim_->restore(checkpoint);
  sim_->set_control_schedule(planner_.schedule());
  topo_dirty_ = params_dirty_ = false;
  stream_metrics().rebuilds.add();
}

double StreamEngine::realized_integrand(double eps1, double eps2) const {
  const sim::AgentSimulation::GroupDensities gd = sim_->group_densities();
  const std::size_t n = gd.degrees.size();
  std::vector<double> y(2 * n);
  for (std::size_t k = 0; k < n; ++k) {
    y[k] = gd.susceptible[k];
    y[n + k] = gd.infected[k];
  }
  return control::running_cost(config_.planner.cost, y, n, eps1, eps2);
}

void StreamEngine::on_tick() {
  StreamMetrics& metrics = stream_metrics();
  ++tick_count_;
  metrics.ticks.add();
  metrics.ingest_lag_events.record(
      static_cast<double>(pending_since_tick_));
  pending_since_tick_ = 0;

  sync_sim();

  DecisionRow row;
  row.tick = tick_count_;
  row.t = sim_->time();
  row.prevalence = census_prevalence();

  const bool has_dynamics =
      live_.num_edges() > 0 && sim_->census().infected > 0;

  // --- recursive refit over the rolling prevalence window ------------
  if (tick_count_ % config_.refit_every == 0 && has_dynamics &&
      estimator_.ready()) {
    const auto start = std::chrono::steady_clock::now();
    const sim::AgentSimulation::GroupDensities gd = sim_->group_densities();
    const core::NetworkProfile profile =
        core::NetworkProfile::from_graph(*csr_);
    const CoarseState coarse =
        coarsen_state(profile, gd, config_.planner.groups);
    core::ModelParams guess;
    guess.alpha = config_.alpha;
    guess.lambda = core::Acceptance::linear(1.0);
    const core::Epsilons applied =
        planner_.schedule() != nullptr
            ? planner_.schedule()->epsilons(row.t)
            : core::Epsilons{};
    row.refit = estimator_.refit(coarse.profile, guess, applied.epsilon1,
                                 applied.epsilon2);
    const double ms = elapsed_ms(start);
    refit_ms_.push_back(ms);
    metrics.refit_ms.record(ms);
    if (row.refit) {
      metrics.refits.add();
      metrics.lambda_hat.set(estimator_.estimate().lambda_scale);
      metrics.lambda_hat_stddev.set(estimator_.estimate().stddev);
    } else {
      metrics.refit_failures.add();
    }
  }

  // --- rolling (or one-shot) MPC replan -------------------------------
  const bool plan_due = config_.open_loop
                            ? !planned_once_
                            : tick_count_ % config_.replan_every == 0;
  if (plan_due && has_dynamics && estimator_.estimate().valid) {
    const auto start = std::chrono::steady_clock::now();
    const sim::AgentSimulation::GroupDensities gd = sim_->group_densities();
    const core::NetworkProfile profile =
        core::NetworkProfile::from_graph(*csr_);
    core::ModelParams params;
    params.alpha = config_.alpha;
    params.lambda =
        core::Acceptance::linear(estimator_.estimate().lambda_scale);
    const double segment =
        config_.open_loop
            ? config_.planner.horizon
            : static_cast<double>(config_.replan_every) * config_.dt;
    const PlanOutcome outcome =
        planner_.replan(profile, gd, params, row.t, segment);
    const double ms = elapsed_ms(start);
    plan_ms_.push_back(ms);
    metrics.plan_ms.record(ms);
    row.replanned = outcome.replanned;
    row.deadline_miss = outcome.deadline_miss;
    if (outcome.deadline_miss) metrics.deadline_miss.add();
    if (outcome.replanned) {
      planned_once_ = true;
      last_predicted_objective_ = outcome.predicted_objective;
      sim_->set_control_schedule(planner_.schedule());
      metrics.replans.add();
      metrics.plan_objective.set(outcome.predicted_objective);
      // Close the previous segment's plan-vs-realized book.
      if (have_segment_) {
        last_regret_ = segment_realized_ - predicted_segment_;
        metrics.plan_regret.set(last_regret_);
      }
      predicted_segment_ = outcome.predicted_segment_cost;
      segment_realized_ = 0.0;
      have_segment_ = true;
    }
  }

  // --- advance one dt step under the active schedule ------------------
  const core::Epsilons before =
      planner_.schedule() != nullptr
          ? planner_.schedule()->epsilons(sim_->time())
          : core::Epsilons{};
  row.eps1 = before.epsilon1;
  row.eps2 = before.epsilon2;
  const double f0 = realized_integrand(before.epsilon1, before.epsilon2);
  sim_->step();
  const core::Epsilons after =
      planner_.schedule() != nullptr
          ? planner_.schedule()->epsilons(sim_->time())
          : core::Epsilons{};
  const double f1 = realized_integrand(after.epsilon1, after.epsilon2);
  const double increment = 0.5 * (f0 + f1) * config_.dt;
  realized_running_ += increment;
  segment_realized_ += increment;

  row.lambda_hat =
      estimator_.estimate().valid ? estimator_.estimate().lambda_scale : 0.0;
  row.lambda_stddev =
      estimator_.estimate().valid ? estimator_.estimate().stddev : 0.0;
  row.predicted_objective = last_predicted_objective_;
  row.realized_running = realized_running_;
  row.regret = last_regret_;

  io::ByteWriter bytes;
  serialize_row(bytes, row);
  crc_ = io::crc32(bytes.buffer(), crc_);
  decisions_.push_back(row);
}

std::uint32_t StreamEngine::state_crc() const {
  return sim::state_crc(*sim_);
}

double StreamEngine::realized_objective() const {
  const sim::AgentSimulation::GroupDensities gd = sim_->group_densities();
  double total_infected = 0.0;
  for (const double i : gd.infected) total_infected += i;
  return realized_running_ +
         config_.planner.cost.terminal_weight * total_infected;
}

}  // namespace rumor::stream
