// rumorctl — command-line front end to the rumor-dynamics library.
//
//   rumorctl stats                         dataset statistics
//   rumorctl threshold [opts]              r0 + regime + equilibria
//   rumorctl spectrum [opts]               eigenvalues at the equilibrium
//   rumorctl simulate [opts]               CSV time series to stdout
//   rumorctl plan [opts]                   optimized countermeasure CSV
//   rumorctl plan-sweep [opts]             budget frontier CSV: optimize
//     [--budget-min B] [--budget-max B]    once per budget cap on both
//     [--budgets N]                        rates ([0.1, 0.7] × 7), all
//     [--terminal-weight W]                caps as lanes of one batched
//                                          FBSM solve (W on Σ I(tf) [50];
//                                          see docs/performance.md)
//   rumorctl fit --cascade FILE [opts]     estimate parameters from data
//   rumorctl graph-pack --edges IN --out F convert a graph to binary CSR
//     --compress 1 [--shard-mb M] [--keep-order 1]  write a sharded
//                     delta-varint GRAPHCSZ container instead (node ids
//                     relabeled into degree-sorted order unless kept)
//   rumorctl graph-gen-ba --out F          stream a Barabási–Albert
//     [--nodes N] [--ba-m M]               graph straight to compressed
//     [--graph-seed S] [--shard-mb M]      shards (no in-memory CSR;
//                                          scales to 100M+ edges)
//   rumorctl --version                     git describe, build type,
//                                          compiler, kernel backend
//
// Streaming (docs/streaming.md):
//   rumorctl stream --nodes N              run the online control loop
//     [--events F]                         over an event log (stdin when
//                                          omitted; JSON lines or binary,
//                                          auto-detected); decision-trace
//                                          CSV to stdout or --trace F,
//                                          summary with decision/state
//                                          CRCs to stderr
//     [--replan-every K] [--refit-every K] cadences in ticks [5 / 5]
//     [--budget-iterations N]              deterministic per-replan
//                                          solver budget (0 = none)
//     [--budget-ms MS]                     wall-clock budget (live ops;
//                                          non-deterministic)
//     [--open-loop 1]                      plan once, never replan (the
//                                          baseline arm)
//     [--checkpoint F [--resume 1]]        save/resume a STREAMCK
//                                          checkpoint; a resumed run's
//                                          trace is bit-identical
//     [--max-events N]                     stop early after N events
//                                          (kill-and-resume stand-in)
//     [--horizon T] [--groups N] [--window N] estimator/planner sizing
//   rumorctl stream-gen --out F            write a scripted scenario log
//     [--format jsonl|binary] [--nodes N]  (growth + churn + mid-stream
//     [--ticks N] [--seed-tick K]          rumor seeding + λ drift; pure
//     [--drift-tick K] [--scenario-seed S] function of the spec)
//
// Serving (docs/serving.md):
//   rumorctl serve [opts]                  run the rumord daemon
//     --socket PATH | --host H --port P    listen address [127.0.0.1:7464]
//     --workers N --queue-depth N          scheduler sizing [2 / 64]
//     --cache-capacity N --job-root DIR    graph cache + job dirs
//     --cache-budget-mb M                  graph-cache resident-byte
//                                          budget (0 = entries only)
//     --cache-min-entries N                byte-budget eviction floor
//   rumorctl submit --type {simulate|plan|sweep} [--spec JSON]
//     [--spec-file F] [--priority N] [--timeout-ms T] [--wait 1]
//   rumorctl status --id N                 one job snapshot (JSON)
//   rumorctl cancel --id N
//   rumorctl shutdown                      stop the daemon cleanly
//   (submit/status/cancel/shutdown take the same --socket/--host/--port)
//
// Common options (defaults in brackets):
//   --edges FILE      load a graph (text edge list or packed binary CSR,
//                     auto-detected) instead of the surrogate
//   --threads N       worker threads for parallel sections [hardware]
//   --groups N        coarsen the degree profile to N groups [848]
//   --alpha A         arrival rate [0.01]
//   --lambda-scale S  λ(k) = S·k [1.0]
//   --eps1 E --eps2 E constant countermeasure rates [0.2 / 0.05]
//   --i0 F            initial infected fraction [0.01]
//   --tf T            horizon / deadline [100]
// Telemetry (any command):
//   --metrics-out F   write a JSON metrics snapshot on exit
//   --prom-out F      write a Prometheus text snapshot on exit
//   --trace-out F     record trace spans, write Chrome trace JSON on
//                     exit (load in chrome://tracing or Perfetto)
//   --heartbeat-every S  log a registry digest every S seconds (raises
//                     the log level to info unless --log-level is given)
//   --log-level L     debug|info|warn|error|off — pin the log level;
//                     takes precedence over the heartbeat escalation
//   --log-json 1      emit log lines as JSON objects on stderr
// plan-specific: --c1 [5] --c2 [10] --target [1e-3·n] --eps-max [0.7]
//                --checkpoint FILE --checkpoint-every N [10] --resume [1]
// fit-specific:  --cascade FILE (CSV with columns t,infected_density)
// simulate-specific: --agents 1 switches to the agent-based simulation
//   on a concrete graph (--edges, or a BA surrogate of --nodes [2000] ×
//   --ba-m [3], --graph-seed [7]); --seed [42] --dt [0.1] select the
//   run; --engine [frontier] picks the stepping engine (dense is the
//   O(N+E) reference sweep; both produce bit-identical trajectories);
//   --census-every K [1] records every K-th census row (plus the final
//   one) — pass the same K when resuming; --checkpoint FILE saves
//   resumable state every --checkpoint-every [50] steps; --resume [1]
//   continues from it; --max-steps N stops early after N further steps
//   (crash stand-in for the kill-and-resume test). A resumed run's CSV
//   is bit-identical to an uninterrupted one at any thread count and
//   under either engine.
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "control/batch_sweep.hpp"
#include "control/fbsweep.hpp"
#include "core/equilibrium.hpp"
#include "core/fitting.hpp"
#include "core/jacobian.hpp"
#include "core/simulation.hpp"
#include "core/threshold.hpp"
#include "data/digg.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "io/container.hpp"
#include "kern/kern.hpp"
#include "graph/reorder.hpp"
#include "io/graph_binary.hpp"
#include "io/graph_compressed.hpp"
#include "io/graph_stream.hpp"
#include "obs/export.hpp"
#include "obs/heartbeat.hpp"
#include "obs/trace.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "sim/agent_sim.hpp"
#include "sim/checkpoint.hpp"
#include "stream/engine.hpp"
#include "stream/event.hpp"
#include "stream/scenario.hpp"
#include "util/build_info.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/math.hpp"
#include "util/logging.hpp"
#include "util/parallel.hpp"
#include "util/random.hpp"
#include "util/table.hpp"

namespace {

using namespace rumor;

/// The value of --key: the whole text must read as a finite number, so
/// "abc", "5x" or "inf" are errors instead of a silent 0.
double parse_number(const std::string& key, const std::string& text) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || !std::isfinite(value)) {
    throw util::InvalidArgument("--" + key + " expects a finite number, got '" +
                                text + "'");
  }
  return value;
}

struct Args {
  std::string command;
  std::map<std::string, std::string> options;

  double number(const std::string& key, double fallback) const {
    const auto it = options.find(key);
    return it == options.end() ? fallback : parse_number(key, it->second);
  }
  std::optional<std::string> text(const std::string& key) const {
    const auto it = options.find(key);
    if (it == options.end()) return std::nullopt;
    return it->second;
  }
};

Args parse(int argc, char** argv) {
  Args args;
  if (argc >= 2) args.command = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    util::require(key.rfind("--", 0) == 0,
                  "expected --option value pairs after the command");
    args.options[key.substr(2)] = argv[i + 1];
  }
  return args;
}

core::NetworkProfile load_profile(const Args& args) {
  core::NetworkProfile profile = [&] {
    if (const auto edges = args.text("edges")) {
      const auto g = io::load_graph_any(*edges, /*directed=*/true);
      std::fprintf(stderr, "loaded %zu nodes / %zu links from %s\n",
                   g.num_nodes(), g.num_edges(), edges->c_str());
      return core::NetworkProfile::from_graph(g);
    }
    return core::NetworkProfile::from_histogram(
        data::digg_surrogate_histogram());
  }();
  const auto groups = static_cast<std::size_t>(
      args.number("groups", static_cast<double>(profile.num_groups())));
  return profile.coarsened(std::max<std::size_t>(groups, 1));
}

core::ModelParams load_params(const Args& args) {
  core::ModelParams params;
  params.alpha = args.number("alpha", 0.01);
  params.lambda =
      core::Acceptance::linear(args.number("lambda-scale", 1.0));
  params.omega = core::Infectivity::saturating(0.5, 0.5);
  return params;
}

int cmd_stats(const Args& args) {
  const auto profile = load_profile(args);
  util::TablePrinter table({"statistic", "value"});
  table.add_text_row({"degree groups",
                      std::to_string(profile.num_groups())});
  table.add_text_row({"mean degree",
                      util::format_significant(profile.mean_degree(), 6)});
  table.add_text_row(
      {"min degree", util::format_significant(profile.degree(0), 6)});
  table.add_text_row(
      {"max degree",
       util::format_significant(profile.degree(profile.num_groups() - 1),
                                6)});
  table.print(std::cout);
  return 0;
}

int cmd_threshold(const Args& args) {
  const auto profile = load_profile(args);
  const auto params = load_params(args);
  const double e1 = args.number("eps1", 0.2);
  const double e2 = args.number("eps2", 0.05);
  const double r0 =
      core::basic_reproduction_number(profile, params, e1, e2);
  std::printf("r0 = %.6f → %s\n", r0,
              r0 <= 1.0 ? "rumor becomes extinct (E0 stable)"
                        : "rumor persists (E+ stable)");
  if (r0 > 1.0) {
    const auto eq = core::positive_equilibrium(profile, params, e1, e2);
    if (eq) {
      double density = 0.0;
      const std::size_t n = profile.num_groups();
      for (std::size_t i = 0; i < n; ++i) {
        density += profile.probability(i) * eq->state[n + i];
      }
      std::printf("endemic infected density at E+: %.6f (theta+ = %.3g)\n",
                  density, eq->theta);
    }
  } else {
    std::printf("equilibrium S* = alpha/eps1 = %.6f per group\n",
                params.alpha / e1);
  }
  return 0;
}

int cmd_spectrum(const Args& args) {
  // Eigenvalues of the Jacobian at the relevant equilibrium (E+ when
  // r0 > 1, E0 otherwise), on a coarsened profile (dense QR is O(n³)).
  const auto profile = load_profile(args).coarsened(
      static_cast<std::size_t>(args.number("groups", 40.0)));
  const auto params = load_params(args);
  const double e1 = args.number("eps1", 0.2);
  const double e2 = args.number("eps2", 0.05);
  const double r0 =
      core::basic_reproduction_number(profile, params, e1, e2);
  core::SirNetworkModel model(profile, params,
                              core::make_constant_control(e1, e2));
  core::Equilibrium equilibrium =
      core::zero_equilibrium(profile, params, e1, e2);
  if (r0 > 1.0) {
    if (auto eq = core::positive_equilibrium(profile, params, e1, e2)) {
      equilibrium = std::move(*eq);
    }
  }
  const auto spectrum =
      core::stability_spectrum(model, 0.0, equilibrium.state);
  std::printf("r0 = %.4f → analyzing %s (%zu groups)\n", r0,
              equilibrium.positive ? "E+" : "E0", profile.num_groups());
  std::printf("stable: %s  |  spectral abscissa: %.6f\n",
              spectrum.stable ? "yes" : "no", spectrum.abscissa);
  util::TablePrinter table({"Re", "Im"});
  table.set_precision(5);
  auto sorted = spectrum.eigenvalues;
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.real() > b.real(); });
  const std::size_t shown = std::min<std::size_t>(sorted.size(), 12);
  for (std::size_t i = 0; i < shown; ++i) {
    table.add_row({sorted[i].real(), sorted[i].imag()});
  }
  table.print(std::cout);
  if (sorted.size() > shown) {
    std::printf("(%zu further eigenvalues omitted)\n",
                sorted.size() - shown);
  }
  return 0;
}

// ---- agent-based simulate (--agents 1): checkpointable run ----------

// The checkpoint container carries the simulation's own sections (see
// sim/checkpoint.hpp) plus the census history recorded so far, so a
// resumed run reprints the whole series from t = 0 and its CSV is
// byte-identical to an uninterrupted run's.
void save_agent_run(const std::string& path,
                    const sim::AgentSimulation& simulation,
                    const std::vector<sim::Census>& history) {
  io::ContainerWriter writer(sim::kAgentRunKind);
  sim::append_agent_checkpoint(writer, simulation);
  io::ByteWriter rows;
  rows.u64(history.size());
  for (const sim::Census& c : history) {
    rows.f64(c.t);
    rows.u64(c.susceptible);
    rows.u64(c.infected);
    rows.u64(c.recovered);
  }
  writer.add_section("ctl.history", std::move(rows));
  writer.write_file(path);
}

std::vector<sim::Census> load_agent_run(const std::string& path,
                                        sim::AgentSimulation& simulation) {
  const auto container = io::ContainerReader::open(path);
  container->require_kind(sim::kAgentRunKind);
  sim::restore_agent_checkpoint(*container, simulation);
  io::ByteReader rows = container->reader("ctl.history");
  const std::uint64_t count = rows.u64();
  std::vector<sim::Census> history;
  history.reserve(count);
  for (std::uint64_t k = 0; k < count; ++k) {
    sim::Census c;
    c.t = rows.f64();
    c.susceptible = rows.u64();
    c.infected = rows.u64();
    c.recovered = rows.u64();
    history.push_back(c);
  }
  rows.expect_end();
  return history;
}

int cmd_simulate_agents(const Args& args) {
  const graph::Graph g = [&] {
    if (const auto edges = args.text("edges")) {
      return io::load_graph_any(*edges, args.number("directed", 0.0) != 0.0);
    }
    util::Xoshiro256 rng(
        static_cast<std::uint64_t>(args.number("graph-seed", 7.0)));
    return graph::barabasi_albert(
        static_cast<std::size_t>(args.number("nodes", 2000.0)),
        static_cast<std::size_t>(args.number("ba-m", 3.0)), rng);
  }();

  sim::AgentParams params;
  params.lambda = core::Acceptance::linear(args.number("lambda-scale", 1.0));
  params.epsilon1 = args.number("eps1", 0.2);
  params.epsilon2 = args.number("eps2", 0.05);
  params.dt = args.number("dt", 0.1);
  const std::string engine = args.text("engine").value_or("frontier");
  if (engine == "dense") {
    params.engine = sim::AgentEngine::kDense;
  } else if (engine == "frontier") {
    params.engine = sim::AgentEngine::kFrontier;
  } else {
    throw util::InvalidArgument(
        "simulate: --engine must be dense or frontier");
  }
  const auto seed = static_cast<std::uint64_t>(args.number("seed", 42.0));
  const auto total_steps = static_cast<std::size_t>(
      std::ceil(args.number("tf", 100.0) / params.dt));
  const auto census_every = static_cast<std::size_t>(
      args.number("census-every", 1.0));
  util::require(census_every >= 1, "simulate: --census-every must be >= 1");

  sim::AgentSimulation simulation(g, params, seed);
  std::vector<sim::Census> history;

  const std::string checkpoint = args.text("checkpoint").value_or("");
  const auto checkpoint_every = static_cast<std::size_t>(
      args.number("checkpoint-every", 50.0));
  util::require(checkpoint.empty() || checkpoint_every >= 1,
                "simulate: --checkpoint-every must be >= 1");
  const bool resume = args.number("resume", 1.0) != 0.0;

  if (!checkpoint.empty() && resume &&
      std::filesystem::exists(checkpoint)) {
    history = load_agent_run(checkpoint, simulation);
    std::fprintf(stderr, "resumed from %s at step %zu / %zu\n",
                 checkpoint.c_str(),
                 static_cast<std::size_t>(simulation.step_count()),
                 total_steps);
  } else {
    const auto n = static_cast<double>(g.num_nodes());
    simulation.seed_random_infections(std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::llround(args.number("i0", 0.01) * n))));
    history.push_back(simulation.census());
  }

  auto start = static_cast<std::size_t>(simulation.step_count());
  std::size_t stop = total_steps;
  if (args.text("max-steps")) {
    stop = std::min(stop, start + static_cast<std::size_t>(
                              args.number("max-steps", 0.0)));
  }
  for (std::size_t step = start; step < stop; ++step) {
    simulation.step();
    // Cadence is keyed to the absolute step count so a resumed run
    // (with the same --census-every) appends rows on the same schedule
    // and its CSV stays byte-identical. The true final step is always
    // recorded so the series ends at tf.
    if ((step + 1) % census_every == 0 || step + 1 == total_steps) {
      history.push_back(simulation.census());
    }
    if (!checkpoint.empty() &&
        ((step + 1 - start) % checkpoint_every == 0 || step + 1 == stop)) {
      save_agent_run(checkpoint, simulation, history);
    }
  }
  if (stop < total_steps) {
    std::fprintf(stderr, "stopped at step %zu / %zu (--max-steps)\n", stop,
                 total_steps);
  }

  const auto n = static_cast<double>(g.num_nodes());
  util::CsvWriter csv({"t", "susceptible_fraction", "infected_fraction",
                       "recovered_fraction"});
  for (const sim::Census& c : history) {
    csv.add_row({c.t, static_cast<double>(c.susceptible) / n,
                 static_cast<double>(c.infected) / n,
                 static_cast<double>(c.recovered) / n});
  }
  csv.write(std::cout);
  return 0;
}

int cmd_graph_pack(const Args& args) {
  const auto input = args.text("edges");
  const auto output = args.text("out");
  util::require(input.has_value() && output.has_value(),
                "graph-pack: --edges IN and --out OUT are required");
  graph::Graph g =
      io::load_graph_any(*input, args.number("directed", 0.0) != 0.0);
  if (args.number("compress", 0.0) != 0.0) {
    // Delta-varint neighbor lists compress best over the degree-sorted
    // canonical order (hubs first => dense low ids where the fan-out
    // is); --keep-order 1 preserves the input labeling instead.
    const bool reorder = args.number("keep-order", 0.0) == 0.0;
    if (reorder) {
      g = graph::apply_node_order(g, graph::degree_sorted_order(g));
    }
    io::CompressOptions options;
    options.target_shard_bytes =
        static_cast<std::uint64_t>(
            std::max(1.0, args.number("shard-mb", 256.0))) << 20;
    io::save_graph_compressed(g, *output, options);
    std::fprintf(stderr,
                 "compressed %zu nodes / %zu arcs into %s (%s)\n",
                 g.num_nodes(), g.num_arcs(), output->c_str(),
                 reorder ? "degree-sorted node order"
                         : "input node order kept");
    return 0;
  }
  io::save_graph(g, *output);
  std::fprintf(stderr, "packed %zu nodes / %zu arcs into %s\n",
               g.num_nodes(), g.num_arcs(), output->c_str());
  return 0;
}

int cmd_graph_gen_ba(const Args& args) {
  const auto output = args.text("out");
  util::require(output.has_value(), "graph-gen-ba: --out OUT is required");
  io::StreamBaOptions options;
  options.num_nodes =
      static_cast<std::size_t>(args.number("nodes", 1000000.0));
  options.edges_per_node =
      static_cast<std::size_t>(args.number("ba-m", 3.0));
  options.seed = static_cast<std::uint64_t>(args.number("graph-seed", 7.0));
  options.target_shard_bytes =
      static_cast<std::uint64_t>(
          std::max(1.0, args.number("shard-mb", 256.0))) << 20;
  const io::StreamBaResult result =
      io::generate_ba_compressed(*output, options);
  std::fprintf(stderr,
               "generated BA(n=%zu, m=%zu) -> %s: %llu edges, "
               "%llu arcs, max degree %llu, %zu shards, %llu bytes "
               "(%.2f bytes/edge)\n",
               options.num_nodes, options.edges_per_node, output->c_str(),
               static_cast<unsigned long long>(result.num_edges),
               static_cast<unsigned long long>(result.num_arcs),
               static_cast<unsigned long long>(result.max_degree),
               static_cast<std::size_t>(result.shard_count),
               static_cast<unsigned long long>(result.file_bytes),
               static_cast<double>(result.file_bytes) /
                   static_cast<double>(result.num_edges));
  return 0;
}

int cmd_simulate(const Args& args) {
  if (args.number("agents", 0.0) != 0.0) return cmd_simulate_agents(args);
  const auto profile = load_profile(args);
  const auto params = load_params(args);
  const double e1 = args.number("eps1", 0.2);
  const double e2 = args.number("eps2", 0.05);
  core::SirNetworkModel model(profile, params,
                              core::make_constant_control(e1, e2));
  core::SimulationOptions options;
  options.t1 = args.number("tf", 100.0);
  options.dt = args.number("dt", 0.05);
  options.record_every =
      std::max<std::size_t>(1, static_cast<std::size_t>(args.number(
                                   "record-every", 20.0)));
  const auto result = core::run_simulation(
      model, model.initial_state(args.number("i0", 0.01)), options);

  util::CsvWriter csv({"t", "infected_density", "total_infected",
                       "theta"});
  for (std::size_t k = 0; k < result.trajectory.size(); ++k) {
    csv.add_row({result.trajectory.times()[k],
                 result.infected_density[k], result.total_infected[k],
                 result.theta[k]});
  }
  csv.write(std::cout);
  return 0;
}

int cmd_plan(const Args& args) {
  const auto profile = load_profile(args).coarsened(
      static_cast<std::size_t>(args.number("groups", 20.0)));
  auto params = load_params(args);
  params.alpha = args.number("alpha", 0.05);
  core::SirNetworkModel model(profile, params,
                              core::make_constant_control(0.0, 0.0));
  const double tf = args.number("tf", 60.0);
  const auto y0 = model.initial_state(args.number("i0", 0.2));

  control::CostParams cost;
  cost.c1 = args.number("c1", 5.0);
  cost.c2 = args.number("c2", 10.0);
  control::SweepOptions sweep;
  sweep.grid_points = static_cast<std::size_t>(tf * 5.0) + 1;
  sweep.substeps = 20;
  sweep.epsilon1_max = args.number("eps-max", 0.7);
  sweep.epsilon2_max = sweep.epsilon1_max;
  sweep.max_iterations = 800;
  sweep.j_tolerance = 1e-6;
  sweep.checkpoint_path = args.text("checkpoint").value_or("");
  sweep.checkpoint_every = std::max<std::size_t>(
      1, static_cast<std::size_t>(args.number("checkpoint-every", 10.0)));
  sweep.resume = args.number("resume", 1.0) != 0.0;

  const double target = args.number(
      "target", 1e-3 * static_cast<double>(profile.num_groups()));
  const auto plan = control::solve_with_terminal_target(
      model, y0, tf, cost, target, sweep);
  std::fprintf(stderr,
               "plan: %s after %zu iterations, running cost %.4f, "
               "terminal infected %.5f\n",
               plan.converged ? "converged" : "stopped", plan.iterations,
               plan.cost.running,
               model.total_infected(plan.state.back_state()));

  util::CsvWriter csv({"t", "eps1", "eps2"});
  for (std::size_t k = 0; k < plan.grid.size(); ++k) {
    csv.add_row({plan.grid[k], plan.epsilon1[k], plan.epsilon2[k]});
  }
  csv.write(std::cout);
  return 0;
}

// Budget frontier: optimize the schedule once per budget level (the
// box cap on both rates), all levels solved as lanes of ONE batched
// FBSM call. The CSV maps out how much outcome each extra unit of
// allowed countermeasure intensity buys.
int cmd_plan_sweep(const Args& args) {
  const auto profile = load_profile(args).coarsened(
      static_cast<std::size_t>(args.number("groups", 20.0)));
  auto params = load_params(args);
  params.alpha = args.number("alpha", 0.05);
  const core::SirNetworkModel model(profile, params,
                                    core::make_constant_control(0.0, 0.0));
  const double tf = args.number("tf", 60.0);
  const auto y0 = model.initial_state(args.number("i0", 0.2));

  control::CostParams cost;
  cost.c1 = args.number("c1", 5.0);
  cost.c2 = args.number("c2", 10.0);
  cost.terminal_weight = args.number("terminal-weight", 50.0);
  control::SweepOptions sweep;
  sweep.grid_points = static_cast<std::size_t>(tf * 5.0) + 1;
  sweep.substeps = 20;
  sweep.max_iterations =
      static_cast<std::size_t>(args.number("max-iterations", 800.0));
  sweep.j_tolerance = 1e-6;

  const double lo = args.number("budget-min", 0.1);
  const double hi = args.number("budget-max", 0.7);
  const auto count = std::max<std::size_t>(
      2, static_cast<std::size_t>(args.number("budgets", 7.0)));
  util::require(lo > 0.0 && hi >= lo,
                "plan-sweep: need 0 < --budget-min <= --budget-max");
  const std::vector<double> budgets = util::linspace(lo, hi, count);

  std::vector<control::BatchProblem> problems(count);
  for (std::size_t b = 0; b < count; ++b) {
    problems[b].params = params;
    problems[b].cost = cost;
    problems[b].y0 = y0;
    problems[b].epsilon1_max = budgets[b];
    problems[b].epsilon2_max = budgets[b];
  }
  const auto reports =
      control::solve_optimal_control_batch(profile, problems, tf, sweep);

  util::CsvWriter csv({"budget", "converged", "iterations", "cost_running",
                       "cost_total", "terminal_infected", "peak_eps1",
                       "peak_eps2"});
  for (std::size_t b = 0; b < count; ++b) {
    const auto& rep = reports[b];
    if (rep.failed) {
      std::fprintf(stderr, "plan-sweep: budget %.4f failed: %s\n",
                   budgets[b], rep.error.c_str());
      continue;
    }
    const control::SweepResult& r = rep.result;
    const auto peak = [](const std::vector<double>& v) {
      return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
    };
    csv.add_row({budgets[b], r.converged ? 1.0 : 0.0,
                 static_cast<double>(r.iterations), r.cost.running,
                 r.cost.total(), model.total_infected(r.state.back_state()),
                 peak(r.epsilon1), peak(r.epsilon2)});
  }
  csv.write(std::cout);
  return 0;
}

int cmd_fit(const Args& args) {
  const auto cascade_file = args.text("cascade");
  util::require(cascade_file.has_value(),
                "fit: --cascade FILE is required");
  const auto doc = util::read_csv_file(*cascade_file);
  core::CascadeObservations observations;
  observations.t = doc.numeric_column("t");
  observations.infected_density = doc.numeric_column("infected_density");

  const auto profile = load_profile(args).coarsened(
      static_cast<std::size_t>(args.number("groups", 30.0)));
  const auto guess = load_params(args);
  const auto fit = core::fit_to_cascade(
      profile, guess, args.number("eps1", 0.1), args.number("eps2", 0.1),
      observations);
  util::TablePrinter table({"parameter", "estimate"});
  table.add_text_row({"lambda scale",
                      util::format_significant(fit.params.lambda.scale(),
                                               5)});
  table.add_text_row({"eps1", util::format_significant(fit.epsilon1, 5)});
  table.add_text_row({"eps2", util::format_significant(fit.epsilon2, 5)});
  table.add_text_row({"rss", util::format_significant(fit.rss, 4)});
  table.print(std::cout);
  return 0;
}

// ---- serving: daemon + client ops (docs/serving.md) -----------------

serve::Server* g_server = nullptr;  // SIGINT/SIGTERM → clean shutdown

extern "C" void handle_serve_signal(int) {
  if (g_server != nullptr) g_server->stop();  // atomic flag + self-pipe
}

int cmd_serve(const Args& args) {
  serve::ServerOptions options;
  if (const auto socket = args.text("socket")) {
    options.unix_path = *socket;
  } else {
    options.host = args.text("host").value_or("127.0.0.1");
    options.port = static_cast<std::uint16_t>(args.number("port", 7464.0));
  }
  options.scheduler.workers = std::max<std::size_t>(
      1, static_cast<std::size_t>(args.number("workers", 2.0)));
  options.scheduler.max_queue_depth =
      static_cast<std::size_t>(args.number("queue-depth", 64.0));
  options.scheduler.cache_capacity = std::max<std::size_t>(
      1, static_cast<std::size_t>(args.number("cache-capacity", 4.0)));
  // --cache-budget-mb 0 keeps the entry-count bound alone.
  options.scheduler.cache_budget_bytes =
      static_cast<std::uint64_t>(
          std::max(0.0, args.number("cache-budget-mb", 0.0))) << 20;
  options.scheduler.cache_min_entries = std::max<std::size_t>(
      1, static_cast<std::size_t>(args.number("cache-min-entries", 1.0)));
  options.scheduler.job_root =
      args.text("job-root").value_or("rumord-jobs");

  serve::Server server(std::move(options));
  g_server = &server;
  std::signal(SIGINT, handle_serve_signal);
  std::signal(SIGTERM, handle_serve_signal);
  server.start();
  if (server.port() != 0) {
    // Scripts binding an ephemeral port read it from stdout.
    std::printf("port %u\n", server.port());
    std::fflush(stdout);
  }
  server.wait();
  g_server = nullptr;
  return 0;
}

serve::Client connect_client(const Args& args) {
  if (const auto socket = args.text("socket")) {
    return serve::Client::connect_unix(*socket);
  }
  return serve::Client::connect_tcp(
      args.text("host").value_or("127.0.0.1"),
      static_cast<std::uint16_t>(args.number("port", 7464.0)));
}

int cmd_submit(const Args& args) {
  const std::string type = args.text("type").value_or("simulate");
  io::JsonValue spec = io::JsonValue::make_object();
  if (const auto inline_spec = args.text("spec")) {
    spec = io::JsonValue::parse(*inline_spec);
  } else if (const auto file = args.text("spec-file")) {
    std::ifstream in(*file);
    util::require(in.good(), "submit: cannot open --spec-file " + *file);
    std::stringstream buffer;
    buffer << in.rdbuf();
    spec = io::JsonValue::parse(buffer.str());
  }
  auto client = connect_client(args);
  const std::uint64_t id = client.submit(
      type, std::move(spec), static_cast<int>(args.number("priority", 0.0)),
      static_cast<std::uint64_t>(args.number("timeout-ms", 0.0)));
  if (args.number("wait", 0.0) != 0.0) {
    const auto job = client.wait(
        id, std::chrono::milliseconds(static_cast<std::int64_t>(
                args.number("wait-timeout-ms", 600000.0))));
    std::printf("%s\n", job.dump().c_str());
  } else {
    std::printf("{\"id\":%llu}\n", static_cast<unsigned long long>(id));
  }
  return 0;
}

int cmd_status(const Args& args) {
  auto client = connect_client(args);
  const auto id = static_cast<std::uint64_t>(args.number("id", 0.0));
  util::require(id != 0, "status: --id N is required");
  std::printf("%s\n", client.status(id).dump().c_str());
  return 0;
}

int cmd_cancel(const Args& args) {
  auto client = connect_client(args);
  const auto id = static_cast<std::uint64_t>(args.number("id", 0.0));
  util::require(id != 0, "cancel: --id N is required");
  std::printf("{\"cancelled\":%s}\n",
              client.cancel(id) ? "true" : "false");
  return 0;
}

int cmd_shutdown(const Args& args) {
  auto client = connect_client(args);
  client.shutdown_server();
  std::printf("{\"stopping\":true}\n");
  return 0;
}

// ---- streaming (docs/streaming.md) -----------------------------------

stream::StreamConfig stream_config_from(const Args& args) {
  stream::StreamConfig config;
  config.num_nodes = static_cast<std::size_t>(args.number("nodes", 0.0));
  util::require(config.num_nodes >= 1, "stream: --nodes N is required");
  config.directed = args.number("directed", 0.0) != 0.0;
  config.dt = args.number("dt", 0.1);
  config.seed = static_cast<std::uint64_t>(args.number("seed", 1.0));
  const std::string engine = args.text("engine").value_or("frontier");
  util::require(engine == "frontier" || engine == "dense",
                "stream: --engine must be frontier or dense");
  config.engine = engine == "dense" ? sim::AgentEngine::kDense
                                    : sim::AgentEngine::kFrontier;
  config.lambda_scale = args.number("lambda-scale", 1.0);
  config.alpha = args.number("alpha", 0.05);
  config.replan_every =
      static_cast<std::size_t>(args.number("replan-every", 5.0));
  config.refit_every =
      static_cast<std::size_t>(args.number("refit-every", 5.0));
  config.open_loop = args.number("open-loop", 0.0) != 0.0;
  config.estimator.window =
      static_cast<std::size_t>(args.number("window", 48.0));
  config.estimator.min_observations = static_cast<std::size_t>(
      args.number("min-observations", 6.0));
  config.planner.groups =
      static_cast<std::size_t>(args.number("groups", 8.0));
  config.planner.horizon = args.number("horizon", 10.0);
  config.planner.grid_points =
      static_cast<std::size_t>(args.number("grid-points", 41.0));
  config.planner.max_iterations =
      static_cast<std::size_t>(args.number("max-iterations", 80.0));
  config.planner.budget_iterations = static_cast<std::uint64_t>(
      args.number("budget-iterations", 0.0));
  config.planner.budget_ms = args.number("budget-ms", 0.0);
  config.planner.cost.c1 = args.number("c1", 5.0);
  config.planner.cost.c2 = args.number("c2", 10.0);
  config.planner.cost.terminal_weight = args.number("terminal-weight", 50.0);
  return config;
}

int cmd_stream(const Args& args) {
  stream::StreamEngine engine(stream_config_from(args));

  const auto checkpoint = args.text("checkpoint");
  if (checkpoint && std::filesystem::exists(*checkpoint) &&
      args.number("resume", 1.0) != 0.0) {
    engine.restore_checkpoint(*checkpoint);
    std::fprintf(stderr, "resumed from %s at tick %llu (%llu events)\n",
                 checkpoint->c_str(),
                 static_cast<unsigned long long>(engine.tick_count()),
                 static_cast<unsigned long long>(engine.events_ingested()));
  }

  // Feed from --events FILE or stdin. A resumed run skips the events
  // the checkpoint already ingested — the cursor is events_ingested().
  std::ifstream file;
  std::istream* in = &std::cin;
  if (const auto events = args.text("events")) {
    file.open(*events, std::ios::binary);
    util::require(file.is_open(), "stream: cannot open " + *events);
    in = &file;
  }
  stream::EventLogReader reader(*in);
  const std::uint64_t skip = engine.events_ingested();
  const std::uint64_t max_events = static_cast<std::uint64_t>(
      args.number("max-events", 0.0));  // crash stand-in for resume tests
  stream::Event event;
  while (reader.next(event)) {
    if (reader.read() <= skip) continue;
    engine.apply(event);
    if (max_events != 0 && engine.events_ingested() >= max_events) break;
  }

  if (checkpoint) engine.save_checkpoint(*checkpoint);

  std::ofstream trace_file;
  std::ostream* trace = &std::cout;
  if (const auto path = args.text("trace")) {
    trace_file.open(*path);
    util::require(trace_file.is_open(), "stream: cannot open " + *path);
    trace = &trace_file;
  }
  *trace << stream::decision_csv_header() << "\n";
  for (const stream::DecisionRow& row : engine.decisions()) {
    *trace << stream::decision_csv_row(row) << "\n";
  }

  const stream::Estimate& estimate = engine.estimate();
  std::fprintf(stderr,
               "stream: events=%llu ticks=%llu decision_crc=%u "
               "state_crc=%u plans=%llu deadline_misses=%llu "
               "lambda_hat=%.6f realized_objective=%.6f\n",
               static_cast<unsigned long long>(engine.events_ingested()),
               static_cast<unsigned long long>(engine.tick_count()),
               engine.decision_crc(), engine.state_crc(),
               static_cast<unsigned long long>(engine.plans()),
               static_cast<unsigned long long>(engine.deadline_misses()),
               estimate.valid ? estimate.lambda_scale : 0.0,
               engine.realized_objective());
  return 0;
}

int cmd_stream_gen(const Args& args) {
  stream::ScenarioSpec spec;
  spec.num_nodes = static_cast<std::size_t>(args.number("nodes", 400.0));
  spec.seed = static_cast<std::uint64_t>(args.number("scenario-seed", 7.0));
  spec.attach_edges =
      static_cast<std::size_t>(args.number("attach-edges", 3.0));
  spec.initial_nodes =
      static_cast<std::size_t>(args.number("initial-nodes", 100.0));
  spec.ticks = static_cast<std::size_t>(args.number("ticks", 120.0));
  spec.grow_per_tick =
      static_cast<std::size_t>(args.number("grow-per-tick", 2.0));
  spec.churn_per_tick =
      static_cast<std::size_t>(args.number("churn-per-tick", 1.0));
  spec.seed_tick = static_cast<std::size_t>(args.number("seed-tick", 10.0));
  spec.seed_count = static_cast<std::size_t>(args.number("seed-count", 5.0));
  spec.observe_every =
      static_cast<std::size_t>(args.number("observe-every", 1.0));
  spec.drift_tick =
      static_cast<std::size_t>(args.number("drift-tick", 60.0));
  spec.drift_lambda_scale = args.number("drift-lambda-scale", 1.6);

  const std::vector<stream::Event> events = stream::make_scenario(spec);
  const std::string format = args.text("format").value_or("jsonl");
  util::require(format == "jsonl" || format == "binary",
                "stream-gen: --format must be jsonl or binary");
  const auto out = args.text("out");
  util::require(out.has_value(), "stream-gen: --out FILE is required");
  stream::save_event_log(events, *out,
                         format == "binary"
                             ? stream::EventLogWriter::Format::kBinary
                             : stream::EventLogWriter::Format::kJsonLines);
  std::fprintf(stderr, "stream-gen: wrote %zu events to %s (%s)\n",
               events.size(), out->c_str(), format.c_str());
  return 0;
}

int cmd_version() {
  std::printf("rumorctl %s\n", util::version_line().c_str());
  std::printf("kernel backend: %s\n", kern::to_string(kern::backend()));
  return 0;
}

int usage() {
  std::printf(
      "rumorctl — rumor propagation dynamics & optimized countermeasures\n"
      "usage: rumorctl {stats|threshold|spectrum|simulate|plan|plan-sweep|"
      "fit|graph-pack|graph-gen-ba|stream|stream-gen|serve|submit|status|"
      "cancel|shutdown|--version} [--opt value]\n"
      "see the header of examples/rumorctl.cpp for the full option list\n");
  return 0;
}

}  // namespace

namespace {

int dispatch(const Args& args) {
  if (args.command == "stats") return cmd_stats(args);
  if (args.command == "threshold") return cmd_threshold(args);
  if (args.command == "spectrum") return cmd_spectrum(args);
  if (args.command == "simulate") return cmd_simulate(args);
  if (args.command == "plan") return cmd_plan(args);
  if (args.command == "plan-sweep") return cmd_plan_sweep(args);
  if (args.command == "fit") return cmd_fit(args);
  if (args.command == "graph-pack") return cmd_graph_pack(args);
  if (args.command == "graph-gen-ba") return cmd_graph_gen_ba(args);
  if (args.command == "stream") return cmd_stream(args);
  if (args.command == "stream-gen") return cmd_stream_gen(args);
  if (args.command == "version" || args.command == "--version") {
    return cmd_version();
  }
  if (args.command == "serve") return cmd_serve(args);
  if (args.command == "submit") return cmd_submit(args);
  if (args.command == "status") return cmd_status(args);
  if (args.command == "cancel") return cmd_cancel(args);
  if (args.command == "shutdown") return cmd_shutdown(args);
  return usage();
}

// Write whichever telemetry files were requested. Runs on the error
// path too — a crashed multi-hour run's partial metrics/trace are
// exactly what one wants for the postmortem.
void flush_telemetry(const Args& args) {
  if (const auto path = args.text("metrics-out")) {
    rumor::obs::write_metrics_json(*path);
  }
  if (const auto path = args.text("prom-out")) {
    rumor::obs::write_prometheus(*path);
  }
  if (const auto path = args.text("trace-out")) {
    rumor::obs::write_trace_json(*path);
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse(argc, argv);
    if (args.number("log-json", 0.0) != 0.0) {
      rumor::util::set_log_json(true);
    }
    if (const auto level = args.text("log-level")) {
      using rumor::util::LogLevel;
      const std::map<std::string, LogLevel> levels{
          {"debug", LogLevel::kDebug}, {"info", LogLevel::kInfo},
          {"warn", LogLevel::kWarn},   {"error", LogLevel::kError},
          {"off", LogLevel::kOff}};
      const auto it = levels.find(*level);
      rumor::util::require(it != levels.end(),
                           "--log-level must be one of "
                           "debug|info|warn|error|off");
      rumor::util::set_log_level(it->second);
    }
    if (args.text("threads")) {
      rumor::util::set_num_threads(
          static_cast<std::size_t>(args.number("threads", 0.0)));
    }
    if (args.text("trace-out")) rumor::obs::set_trace_enabled(true);
    std::optional<rumor::obs::Heartbeat> heartbeat;
    const double beat_seconds = args.number("heartbeat-every", 0.0);
    if (beat_seconds > 0.0) {
      // The heartbeat reports through log_info; asking for one implies
      // wanting to see it, so raise the threshold if it would filter —
      // unless the user pinned a level with --log-level, which always
      // wins (a --log-level warn run keeps its heartbeat silent).
      if (!args.text("log-level") &&
          rumor::util::log_level() > rumor::util::LogLevel::kInfo) {
        rumor::util::set_log_level(rumor::util::LogLevel::kInfo);
      }
      heartbeat.emplace(beat_seconds);
    }
    // Resolve the SIMD kernel backend before any command runs: an
    // unusable RUMOR_KERNEL override fails here with its diagnostic
    // ("requests a backend that is not compiled" / "this CPU cannot
    // execute") instead of surfacing mid-computation.
    rumor::util::log_info() << "kernel backend: "
                            << rumor::kern::to_string(rumor::kern::backend());

    int status = 2;
    try {
      status = dispatch(args);
    } catch (...) {
      heartbeat.reset();  // stop the reporter before the files appear
      flush_telemetry(args);
      throw;
    }
    heartbeat.reset();
    flush_telemetry(args);
    return status;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "rumorctl: %s\n", error.what());
    return 1;
  }
}
