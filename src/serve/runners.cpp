#include "serve/runners.hpp"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "control/fbsweep.hpp"
#include "graph/compressed.hpp"
#include "graph/degree.hpp"
#include "core/profile.hpp"
#include "core/schedule.hpp"
#include "core/sir_model.hpp"
#include "io/crc32.hpp"
#include "sim/agent_sim.hpp"
#include "sim/checkpoint.hpp"
#include "stream/engine.hpp"
#include "stream/event.hpp"
#include "util/error.hpp"
#include "util/file.hpp"

namespace rumor::serve {

namespace {

const io::JsonValue& require_spec(const Job& job) {
  util::require(job.spec.is_object(),
                "job spec must be a JSON object ('spec' field of submit)");
  return job.spec;
}

std::string require_graph_path(const io::JsonValue& spec) {
  const io::JsonValue* graph = spec.find("graph");
  util::require(graph != nullptr && graph->is_string(),
                "job spec: 'graph' (path string) is required");
  return graph->as_string();
}

sim::AgentEngine parse_engine(const io::JsonValue& spec) {
  const std::string name = spec.string_or("engine", "frontier");
  if (name == "frontier") return sim::AgentEngine::kFrontier;
  if (name == "dense") return sim::AgentEngine::kDense;
  throw util::InvalidArgument("job spec: engine must be 'frontier' or "
                              "'dense', got '" + name + "'");
}

// Count fields must be non-negative integers below 2^64: anything else
// throws util::IoError (answered bad_request) instead of wrapping around
// in a cast — "substeps": -1 would become 2^64 − 1 and never finish.
std::size_t count_or(const io::JsonValue& spec, std::string_view key,
                     std::size_t fallback) {
  return static_cast<std::size_t>(spec.u64_or(key, fallback));
}

// A plan solve polls keep_going between sweep iterations, and one
// forward pass runs (grid_points − 1) · substeps RK4 steps over `groups`
// groups, so a spec like "substeps": 1e9 would ignore cancel and
// deadlines for hours. 2^23 is ~2000× the largest default (plan:
// 100 · 4 · 10 = 4,000; stream: 40 · 2 · 8 = 640).
constexpr std::uint64_t kMaxStepWork = std::uint64_t{1} << 23;

void require_step_work(std::size_t grid_points, std::size_t substeps,
                       std::size_t groups) {
  const std::uint64_t intervals = grid_points > 0 ? grid_points - 1 : 0;
  std::uint64_t work = 0;
  const bool overflow =
      __builtin_mul_overflow(intervals, std::uint64_t{substeps}, &work) ||
      __builtin_mul_overflow(work, std::uint64_t{groups}, &work);
  util::require(!overflow && work <= kMaxStepWork,
                "job spec: (grid_points - 1) * substeps * groups = " +
                    std::to_string(intervals) + " * " +
                    std::to_string(substeps) + " * " +
                    std::to_string(groups) + " exceeds 2^23 = " +
                    std::to_string(kMaxStepWork));
}

sim::AgentParams parse_agent_params(const io::JsonValue& spec) {
  sim::AgentParams params;
  params.dt = spec.number_or("dt", 0.1);
  params.epsilon1 = spec.number_or("eps1", 0.0);
  params.epsilon2 = spec.number_or("eps2", 0.0);
  params.engine = parse_engine(spec);
  const double lambda_scale = spec.number_or("lambda_scale", 1.0);
  params.lambda = core::Acceptance::linear(lambda_scale);
  params.validate();
  return params;
}

/// Build a simulation on whichever representation the cache holds —
/// compressed entries are stepped in place, never decompressed.
sim::AgentSimulation make_simulation(const CachedGraph& cached,
                                     const sim::AgentParams& params,
                                     std::uint64_t seed) {
  if (cached.is_compressed()) {
    return sim::AgentSimulation(*cached.compressed, params, seed);
  }
  return sim::AgentSimulation(cached.graph(), params, seed);
}

/// Degree-group profile for the ODE planner. Compressed entries build
/// the histogram from per-node varint degree decodes (one pass, no
/// CSR materialization).
core::NetworkProfile profile_of(const CachedGraph& cached) {
  if (!cached.is_compressed()) {
    return core::NetworkProfile::from_graph(cached.graph());
  }
  const graph::CompressedGraph& zg = *cached.compressed;
  std::map<std::size_t, std::size_t> counts;
  for (std::size_t v = 0; v < zg.num_nodes(); ++v) {
    ++counts[zg.degree(static_cast<graph::NodeId>(v))];
  }
  std::vector<std::pair<std::size_t, std::size_t>> pairs(counts.begin(),
                                                         counts.end());
  return core::NetworkProfile::from_histogram(
      graph::DegreeHistogram::from_counts(std::move(pairs)));
}

// ---- simulate -------------------------------------------------------

RunOutcome run_simulate(Job& job, GraphCache& cache) {
  const io::JsonValue& spec = require_spec(job);
  const auto pin =
      cache.get(require_graph_path(spec), spec.bool_or("directed", false));
  const sim::AgentParams params = parse_agent_params(spec);
  const std::uint64_t seed = spec.u64_or("seed", 1);
  const double t_end = spec.number_or("t_end", 30.0);
  util::require(t_end > 0.0, "job spec: t_end must be positive");

  sim::AgentSimulation simulation = make_simulation(*pin, params, seed);
  const std::string checkpoint_path = job.dir + "/sim.agentsim";
  if (std::filesystem::exists(checkpoint_path)) {
    // Resuming after a preemption: the checkpoint restores step count,
    // time, RNG state, and every compartment, so the continued
    // trajectory is the uninterrupted one.
    sim::load_agent_checkpoint(simulation, checkpoint_path);
  } else {
    const auto infected = count_or(spec, "initial_infected", 10);
    simulation.seed_random_infections(infected);
  }

  bool interrupted = false;
  simulation.run_until(t_end, [&job] { return job.keep_going(); },
                       &interrupted);
  if (interrupted) {
    if (job.directive.load(std::memory_order_relaxed) == Directive::kYield) {
      sim::save_agent_checkpoint(simulation, checkpoint_path);
    }
    return {RunOutcome::kInterrupted, {}};
  }

  const sim::Census census = simulation.census();
  io::JsonValue result = io::JsonValue::make_object();
  result.set("nodes", static_cast<double>(simulation.num_nodes()));
  result.set("t", census.t);
  result.set("steps", static_cast<double>(simulation.step_count()));
  result.set("susceptible", static_cast<double>(census.susceptible));
  result.set("infected", static_cast<double>(census.infected));
  result.set("recovered", static_cast<double>(census.recovered));
  result.set("ever_infected",
             static_cast<double>(simulation.ever_infected()));
  result.set("state_crc", static_cast<double>(sim::state_crc(simulation)));
  return {RunOutcome::kCompleted, std::move(result)};
}

// ---- plan -----------------------------------------------------------

RunOutcome run_plan(Job& job, GraphCache& cache) {
  const io::JsonValue& spec = require_spec(job);
  const auto pin =
      cache.get(require_graph_path(spec), spec.bool_or("directed", false));
  const auto groups = count_or(spec, "groups", 10);
  const core::NetworkProfile profile = profile_of(*pin).coarsened(groups);

  core::ModelParams params;
  params.alpha = spec.number_or("alpha", 0.05);
  const core::SirNetworkModel model(profile, params,
                                    core::make_constant_control(0.0, 0.0));
  const double tf = spec.number_or("tf", 20.0);
  const auto y0 = model.initial_state(spec.number_or("i0", 0.1));

  control::CostParams cost;
  cost.c1 = spec.number_or("c1", 5.0);
  cost.c2 = spec.number_or("c2", 10.0);
  cost.terminal_weight = spec.number_or("terminal_weight", 1.0);

  control::SweepOptions sweep;
  const std::string algorithm = spec.string_or("algorithm", "fbsm");
  if (algorithm == "fbsm") {
    sweep.algorithm = control::SweepAlgorithm::kForwardBackward;
  } else if (algorithm == "pg") {
    sweep.algorithm = control::SweepAlgorithm::kProjectedGradient;
  } else {
    throw util::InvalidArgument(
        "job spec: algorithm must be 'fbsm' or 'pg', got '" + algorithm +
        "'");
  }
  sweep.grid_points = count_or(spec, "grid_points", 101);
  sweep.substeps = count_or(spec, "substeps", 4);
  require_step_work(sweep.grid_points, sweep.substeps, groups);
  sweep.max_iterations = count_or(spec, "max_iterations", 200);
  sweep.epsilon1_max = spec.number_or("eps_max", 0.7);
  sweep.epsilon2_max = sweep.epsilon1_max;
  sweep.checkpoint_path = job.dir + "/sweep.ckp";
  sweep.checkpoint_every = count_or(spec, "checkpoint_every", 10);
  sweep.resume = true;  // a preempted job resumes its own checkpoint
  sweep.keep_going = [&job] { return job.keep_going(); };

  const control::SweepResult plan =
      control::solve_optimal_control(model, y0, tf, cost, sweep);
  if (plan.interrupted) return {RunOutcome::kInterrupted, {}};

  std::uint32_t crc = io::crc32(
      std::as_bytes(std::span<const double>(plan.epsilon1)));
  crc = io::crc32(std::as_bytes(std::span<const double>(plan.epsilon2)),
                  crc);
  io::JsonValue result = io::JsonValue::make_object();
  result.set("iterations", static_cast<double>(plan.iterations));
  result.set("converged", plan.converged);
  result.set("objective", plan.cost.total());
  result.set("cost_running", plan.cost.running);
  result.set("cost_terminal", plan.cost.terminal);
  result.set("grid_points", static_cast<double>(plan.grid.size()));
  result.set("final_update", plan.final_update);
  result.set("control_crc", static_cast<double>(crc));
  return {RunOutcome::kCompleted, std::move(result)};
}

// ---- sweep ----------------------------------------------------------

struct SweepProgress {
  std::uint64_t next_seed_index = 0;
  double sum_ever_infected = 0.0;
  double sum_final_infected = 0.0;
  std::uint32_t crc = 0;
};

SweepProgress load_sweep_progress(const std::string& path) {
  SweepProgress progress;
  if (!std::filesystem::exists(path)) return progress;
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const io::JsonValue doc = io::JsonValue::parse(buffer.str());
  progress.next_seed_index = doc.u64_or("next_seed_index", 0);
  progress.sum_ever_infected = doc.number_or("sum_ever_infected", 0.0);
  progress.sum_final_infected = doc.number_or("sum_final_infected", 0.0);
  progress.crc = static_cast<std::uint32_t>(doc.u64_or("crc", 0));
  return progress;
}

void save_sweep_progress(const SweepProgress& progress,
                         const std::string& path) {
  io::JsonValue doc = io::JsonValue::make_object();
  doc.set("next_seed_index", static_cast<double>(progress.next_seed_index));
  doc.set("sum_ever_infected", progress.sum_ever_infected);
  doc.set("sum_final_infected", progress.sum_final_infected);
  doc.set("crc", static_cast<double>(progress.crc));
  util::write_file_atomic(path, doc.dump());
}

RunOutcome run_sweep(Job& job, GraphCache& cache) {
  const io::JsonValue& spec = require_spec(job);
  const auto pin =
      cache.get(require_graph_path(spec), spec.bool_or("directed", false));
  const sim::AgentParams params = parse_agent_params(spec);
  const std::uint64_t seeds = spec.u64_or("seeds", 8);
  util::require(seeds >= 1, "job spec: seeds must be >= 1");
  const std::uint64_t seed0 = spec.u64_or("seed0", 1);
  const double t_end = spec.number_or("t_end", 30.0);
  const auto infected = count_or(spec, "initial_infected", 10);

  // Whole completed ensemble members carry across preemptions; an
  // interrupted member restarts from scratch (its trajectory is a pure
  // function of the seed, so nothing observable changes).
  const std::string progress_path = job.dir + "/sweep_progress.json";
  SweepProgress progress = load_sweep_progress(progress_path);

  for (std::uint64_t s = progress.next_seed_index; s < seeds; ++s) {
    const auto yield_now = [&]() -> RunOutcome {
      if (job.directive.load(std::memory_order_relaxed) ==
          Directive::kYield) {
        progress.next_seed_index = s;
        save_sweep_progress(progress, progress_path);
      }
      return {RunOutcome::kInterrupted, {}};
    };
    if (!job.keep_going()) return yield_now();
    sim::AgentSimulation simulation =
        make_simulation(*pin, params, seed0 + s);
    simulation.seed_random_infections(infected);
    bool interrupted = false;
    simulation.run_until(t_end, [&job] { return job.keep_going(); },
                         &interrupted);
    if (interrupted) return yield_now();
    progress.sum_ever_infected +=
        static_cast<double>(simulation.ever_infected());
    progress.sum_final_infected +=
        static_cast<double>(simulation.census().infected);
    progress.crc = sim::state_crc(simulation, progress.crc);
  }

  io::JsonValue result = io::JsonValue::make_object();
  result.set("seeds", static_cast<double>(seeds));
  result.set("mean_ever_infected",
             progress.sum_ever_infected / static_cast<double>(seeds));
  result.set("mean_final_infected",
             progress.sum_final_infected / static_cast<double>(seeds));
  result.set("ensemble_crc", static_cast<double>(progress.crc));
  return {RunOutcome::kCompleted, std::move(result)};
}

// ---- stream ---------------------------------------------------------

stream::StreamConfig parse_stream_config(const io::JsonValue& spec) {
  stream::StreamConfig config;
  const io::JsonValue* nodes = spec.find("num_nodes");
  util::require(nodes != nullptr && nodes->is_number(),
                "job spec: 'num_nodes' (number) is required for stream");
  config.num_nodes = count_or(spec, "num_nodes", 0);
  config.directed = spec.bool_or("directed", false);
  config.dt = spec.number_or("dt", 0.1);
  config.seed = spec.u64_or("seed", 1);
  config.engine = parse_engine(spec);
  config.lambda_scale = spec.number_or("lambda_scale", 1.0);
  config.alpha = spec.number_or("alpha", 0.05);
  config.replan_every = count_or(spec, "replan_every", 5);
  config.refit_every = count_or(spec, "refit_every", 5);
  config.open_loop = spec.bool_or("open_loop", false);
  config.estimator.window = count_or(spec, "window", 48);
  config.estimator.min_observations = count_or(spec, "min_observations", 6);
  config.planner.groups = count_or(spec, "groups", 8);
  config.planner.horizon = spec.number_or("horizon", 10.0);
  config.planner.grid_points = count_or(spec, "grid_points", 41);
  config.planner.substeps = count_or(spec, "substeps", 2);
  require_step_work(config.planner.grid_points, config.planner.substeps,
                    config.planner.groups);
  config.planner.max_iterations = count_or(spec, "max_iterations", 80);
  config.planner.budget_iterations = spec.u64_or("budget_iterations", 0);
  config.planner.budget_ms = spec.number_or("budget_ms", 0.0);
  config.planner.cost.c1 = spec.number_or("c1", 5.0);
  config.planner.cost.c2 = spec.number_or("c2", 10.0);
  config.planner.cost.terminal_weight =
      spec.number_or("terminal_weight", 50.0);
  config.validate();
  return config;
}

RunOutcome run_stream(Job& job) {
  const io::JsonValue& spec = require_spec(job);
  const io::JsonValue* events_path = spec.find("events");
  util::require(events_path != nullptr && events_path->is_string(),
                "job spec: 'events' (event log path) is required");
  const std::vector<stream::Event> events =
      stream::load_event_log(events_path->as_string());

  stream::StreamEngine engine(parse_stream_config(spec));
  const std::string checkpoint_path = job.dir + "/stream.streamck";
  if (std::filesystem::exists(checkpoint_path)) {
    // Resuming after a preemption: the checkpoint carries the event
    // cursor (events_ingested), so the replay continues exactly where
    // the interrupted run stopped.
    engine.restore_checkpoint(checkpoint_path);
  }

  for (std::uint64_t e = engine.events_ingested(); e < events.size(); ++e) {
    if (!job.keep_going()) {
      if (job.directive.load(std::memory_order_relaxed) ==
          Directive::kYield) {
        engine.save_checkpoint(checkpoint_path);
      }
      return {RunOutcome::kInterrupted, {}};
    }
    engine.apply(events[e]);
  }

  // Persist the decision trace next to the job for later retrieval.
  std::string csv = stream::decision_csv_header() + "\n";
  for (const stream::DecisionRow& row : engine.decisions()) {
    csv += stream::decision_csv_row(row) + "\n";
  }
  util::write_file_atomic(job.dir + "/decisions.csv", csv);

  io::JsonValue result = io::JsonValue::make_object();
  result.set("events", static_cast<double>(engine.events_ingested()));
  result.set("ticks", static_cast<double>(engine.tick_count()));
  result.set("decision_crc", static_cast<double>(engine.decision_crc()));
  result.set("state_crc", static_cast<double>(engine.state_crc()));
  result.set("plans", static_cast<double>(engine.plans()));
  result.set("deadline_misses",
             static_cast<double>(engine.deadline_misses()));
  result.set("lambda_hat", engine.estimate().valid
                               ? engine.estimate().lambda_scale
                               : 0.0);
  result.set("realized_objective", engine.realized_objective());
  result.set("infected", static_cast<double>(engine.census().infected));
  return {RunOutcome::kCompleted, std::move(result)};
}

}  // namespace

RunOutcome run_job(Job& job, GraphCache& cache) {
  switch (job.type) {
    case JobType::kSimulate: return run_simulate(job, cache);
    case JobType::kPlan: return run_plan(job, cache);
    case JobType::kSweep: return run_sweep(job, cache);
    case JobType::kStream: return run_stream(job);
  }
  throw util::InvalidArgument("run_job: unknown job type");
}

}  // namespace rumor::serve
