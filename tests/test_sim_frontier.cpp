// The frontier engine's contract: it is a bit-exact replica of the
// dense reference sweep — same per-(seed, step, node) draw streams,
// infection decisions certified equal to the fixed-order hazard gather
// — that merely skips nodes which provably cannot flip. These tests
// pin that equivalence across thread counts, graph directedness,
// control-schedule mode switches, and checkpoint/resume (including
// resuming a dense checkpoint under the frontier engine), pin end-state
// digests of the gather-based engine the certified one replaced, and
// stress-check the incremental exposure structures against fresh
// recomputation.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/compressed.hpp"
#include "graph/generators.hpp"
#include "graph/reorder.hpp"
#include "io/crc32.hpp"
#include "io/graph_compressed.hpp"
#include "sim/agent_sim.hpp"
#include "sim/checkpoint.hpp"
#include "util/parallel.hpp"
#include "util/random.hpp"

namespace rumor::sim {
namespace {

class ThreadCountGuard {
 public:
  explicit ThreadCountGuard(std::size_t threads) {
    util::set_num_threads(threads);
  }
  ~ThreadCountGuard() { util::set_num_threads(0); }
};

struct Trajectory {
  std::vector<Census> history;
  std::vector<Compartment> final_state;
  std::size_t ever_infected = 0;
};

Trajectory run_engine(const graph::Graph& g, AgentParams params,
                      AgentEngine engine, std::size_t threads,
                      int steps, std::uint64_t seed = 321) {
  ThreadCountGuard guard(threads);
  params.engine = engine;
  AgentSimulation simulation(g, params, seed);
  simulation.seed_random_infections(10);
  Trajectory out;
  out.history.push_back(simulation.census());
  for (int s = 0; s < steps; ++s) {
    simulation.step();
    out.history.push_back(simulation.census());
  }
  for (std::size_t v = 0; v < g.num_nodes(); ++v) {
    out.final_state.push_back(
        simulation.state(static_cast<graph::NodeId>(v)));
  }
  out.ever_infected = simulation.ever_infected();
  return out;
}

void expect_identical(const Trajectory& a, const Trajectory& b) {
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t s = 0; s < a.history.size(); ++s) {
    ASSERT_EQ(a.history[s].susceptible, b.history[s].susceptible)
        << "step " << s;
    ASSERT_EQ(a.history[s].infected, b.history[s].infected) << "step " << s;
    ASSERT_EQ(a.history[s].recovered, b.history[s].recovered)
        << "step " << s;
  }
  EXPECT_EQ(a.final_state, b.final_state);
  EXPECT_EQ(a.ever_infected, b.ever_infected);
}

graph::Graph test_graph() {
  util::Xoshiro256 rng(17);
  return graph::barabasi_albert(3000, 3, rng);
}

graph::Graph directed_test_graph() {
  graph::GraphBuilder builder(500, /*directed=*/true);
  util::Xoshiro256 rng(23);
  for (int e = 0; e < 3000; ++e) {
    const auto u = static_cast<graph::NodeId>(rng.uniform_index(500));
    const auto v = static_cast<graph::NodeId>(rng.uniform_index(500));
    if (u != v) builder.add_edge(u, v);
  }
  return std::move(builder).build(/*deduplicate=*/true);
}

AgentParams base_params(double eps1, double eps2) {
  AgentParams params;
  params.lambda = core::Acceptance::linear(1.0);
  params.omega = core::Infectivity::saturating(0.5, 0.5);
  params.epsilon1 = eps1;
  params.epsilon2 = eps2;
  params.dt = 0.1;
  return params;
}

TEST(SimFrontier, MatchesDenseWithImmunization) {
  // ε1 > 0 drives the frontier engine's full-sweep mode every step.
  const auto g = test_graph();
  const auto params = base_params(0.02, 0.15);
  const auto dense = run_engine(g, params, AgentEngine::kDense, 1, 80);
  for (const std::size_t threads : {1UL, 2UL, 8UL}) {
    expect_identical(dense, run_engine(g, params, AgentEngine::kFrontier,
                                       threads, 80));
  }
}

TEST(SimFrontier, MatchesDenseInSparseMode) {
  // ε1 = 0, ε2 > 0: the sparse path visits only the active and
  // infected sets.
  const auto g = test_graph();
  const auto params = base_params(0.0, 0.15);
  const auto dense = run_engine(g, params, AgentEngine::kDense, 1, 80);
  for (const std::size_t threads : {1UL, 2UL, 8UL}) {
    expect_identical(dense, run_engine(g, params, AgentEngine::kFrontier,
                                       threads, 80));
  }
}

TEST(SimFrontier, MatchesDenseWithPureSpreading) {
  // ε1 = ε2 = 0: the sparse path skips the infected loop entirely.
  const auto g = test_graph();
  const auto params = base_params(0.0, 0.0);
  const auto dense = run_engine(g, params, AgentEngine::kDense, 1, 60);
  expect_identical(dense,
                   run_engine(g, params, AgentEngine::kFrontier, 8, 60));
}

TEST(SimFrontier, MatchesDenseOnDirectedGraphs) {
  // Directed graphs split "who exposes me" (reverse CSR, gathers) from
  // "whom I expose" (forward CSR, scatters).
  const auto g = directed_test_graph();
  for (const double eps1 : {0.0, 0.05}) {
    const auto params = base_params(eps1, 0.1);
    const auto dense = run_engine(g, params, AgentEngine::kDense, 1, 80);
    expect_identical(dense,
                     run_engine(g, params, AgentEngine::kFrontier, 8, 80));
  }
}

TEST(SimFrontier, MatchesDenseAcrossControlScheduleModeSwitches) {
  // A schedule whose ε1 turns on mid-run flips the frontier engine
  // between its sparse and full-sweep modes; the trajectory must not
  // notice.
  const auto g = test_graph();
  const auto params = base_params(0.0, 0.0);
  const auto schedule = std::make_shared<const core::FunctionControl>(
      [](double t) { return t >= 2.0 && t < 5.0 ? 0.3 : 0.0; },
      [](double t) { return t >= 3.0 ? 0.2 : 0.0; });

  auto run = [&](AgentEngine engine, std::size_t threads) {
    ThreadCountGuard guard(threads);
    AgentParams p = params;
    p.engine = engine;
    AgentSimulation simulation(g, p, /*seed=*/99);
    simulation.seed_random_infections(10);
    simulation.set_control_schedule(schedule);
    Trajectory out;
    for (int s = 0; s < 80; ++s) {
      simulation.step();
      out.history.push_back(simulation.census());
    }
    for (std::size_t v = 0; v < g.num_nodes(); ++v) {
      out.final_state.push_back(
          simulation.state(static_cast<graph::NodeId>(v)));
    }
    out.ever_infected = simulation.ever_infected();
    return out;
  };

  const auto dense = run(AgentEngine::kDense, 1);
  expect_identical(dense, run(AgentEngine::kFrontier, 1));
  expect_identical(dense, run(AgentEngine::kFrontier, 8));
}

// ---- checkpoint / resume -------------------------------------------

struct TempFile {
  std::string path;
  explicit TempFile(const std::string& name) {
    path = (std::filesystem::temp_directory_path() / name).string();
  }
  ~TempFile() {
    std::error_code ec;
    std::filesystem::remove(path, ec);
  }
};

TEST(SimFrontier, CheckpointResumeIsBitIdentical) {
  const auto g = test_graph();
  auto params = base_params(0.02, 0.15);
  params.engine = AgentEngine::kFrontier;

  // Uninterrupted reference run.
  const auto reference =
      run_engine(g, params, AgentEngine::kFrontier, 1, 80);

  for (const std::size_t resume_threads : {1UL, 2UL, 8UL}) {
    TempFile file("frontier_resume_" + std::to_string(resume_threads) +
                  ".ckpt");
    {
      ThreadCountGuard guard(1);
      AgentSimulation simulation(g, params, /*seed=*/321);
      simulation.seed_random_infections(10);
      for (int s = 0; s < 40; ++s) simulation.step();
      save_agent_checkpoint(simulation, file.path);
    }
    ThreadCountGuard guard(resume_threads);
    AgentSimulation resumed(g, params, /*seed=*/0);
    load_agent_checkpoint(resumed, file.path);
    EXPECT_EQ(resumed.step_count(), 40u);
    for (int s = 40; s < 80; ++s) resumed.step();
    std::vector<Compartment> final_state;
    for (std::size_t v = 0; v < g.num_nodes(); ++v) {
      final_state.push_back(resumed.state(static_cast<graph::NodeId>(v)));
    }
    EXPECT_EQ(final_state, reference.final_state);
    EXPECT_EQ(resumed.ever_infected(), reference.ever_infected);
    const Census final_census = resumed.census();
    EXPECT_EQ(final_census.susceptible, reference.history.back().susceptible);
    EXPECT_EQ(final_census.infected, reference.history.back().infected);
  }
}

TEST(SimFrontier, FrontierCheckpointRoundTripsHazardBitwise) {
  // The exposure sums are exact integers, so the restore's recomputation
  // from the node states reproduces the uninterrupted run's bit for bit.
  const auto g = test_graph();
  auto params = base_params(0.0, 0.1);
  params.engine = AgentEngine::kFrontier;
  TempFile file("frontier_hazard.ckpt");

  AgentSimulation simulation(g, params, /*seed=*/7);
  simulation.seed_random_infections(15);
  for (int s = 0; s < 30; ++s) simulation.step();
  save_agent_checkpoint(simulation, file.path);

  AgentSimulation resumed(g, params, /*seed=*/0);
  load_agent_checkpoint(resumed, file.path);
  for (std::size_t v = 0; v < g.num_nodes(); ++v) {
    const auto id = static_cast<graph::NodeId>(v);
    EXPECT_EQ(simulation.hazard(id), resumed.hazard(id)) << "node " << v;
    EXPECT_EQ(simulation.exposure_count(id), resumed.exposure_count(id));
  }
  EXPECT_EQ(simulation.active_count(), resumed.active_count());
}

TEST(SimFrontier, DenseCheckpointResumesUnderFrontierEngine) {
  // Engine choice is not part of the trajectory: a checkpoint written
  // by the dense engine (no hazard section) must resume under the
  // frontier engine onto the same trajectory, and vice versa.
  const auto g = test_graph();
  const auto params = base_params(0.02, 0.15);
  const auto reference = run_engine(g, params, AgentEngine::kDense, 1, 80);

  TempFile file("cross_engine.ckpt");
  {
    AgentParams dense = params;
    dense.engine = AgentEngine::kDense;
    AgentSimulation simulation(g, dense, /*seed=*/321);
    simulation.seed_random_infections(10);
    for (int s = 0; s < 40; ++s) simulation.step();
    save_agent_checkpoint(simulation, file.path);
  }
  AgentParams frontier = params;
  frontier.engine = AgentEngine::kFrontier;
  AgentSimulation resumed(g, frontier, /*seed=*/0);
  load_agent_checkpoint(resumed, file.path);
  for (int s = 40; s < 80; ++s) resumed.step();
  std::vector<Compartment> final_state;
  for (std::size_t v = 0; v < g.num_nodes(); ++v) {
    final_state.push_back(resumed.state(static_cast<graph::NodeId>(v)));
  }
  EXPECT_EQ(final_state, reference.final_state);
  EXPECT_EQ(resumed.ever_infected(), reference.ever_infected);
}

// ---- pinned digests -------------------------------------------------
//
// End-state fingerprints of small runs, recorded from the gather-based
// frontier engine that the certified decisions replaced; that engine
// produced the same values under the scalar, AVX2 and AVX-512 kernels
// and at 1/2/8 threads. Both engines must keep reproducing them.

struct Digest {
  std::uint32_t state_crc = 0;    // CRC32 of the per-node compartments
  std::size_t ever_infected = 0;
  std::uint32_t history_crc = 0;  // CRC32 of the (S, I, R) census per step
  bool operator==(const Digest&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Digest& d) {
  return os << "{" << d.state_crc << "u, " << d.ever_infected << ", "
            << d.history_crc << "u}";
}

Digest run_digest(AgentSimulation& simulation, int steps) {
  std::vector<std::uint64_t> history;
  for (int s = 0; s < steps; ++s) {
    simulation.step();
    const Census c = simulation.census();
    history.insert(history.end(), {c.susceptible, c.infected, c.recovered});
  }
  std::vector<std::byte> states(simulation.num_nodes());
  for (std::size_t v = 0; v < states.size(); ++v) {
    states[v] =
        static_cast<std::byte>(simulation.state(static_cast<graph::NodeId>(v)));
  }
  Digest d;
  d.state_crc = io::crc32(states);
  d.ever_infected = simulation.ever_infected();
  d.history_crc =
      io::crc32(std::as_bytes(std::span<const std::uint64_t>(history)));
  return d;
}

/// Packed specs: {graph, params, optional schedule, seed, steps}.
Digest packed_digest(int spec, AgentEngine engine, std::size_t threads) {
  ThreadCountGuard guard(threads);
  const graph::Graph g = spec == 3 ? directed_test_graph() : test_graph();
  AgentParams params = spec == 0   ? base_params(0.02, 0.15)
                       : spec == 1 ? base_params(0.0, 0.15)
                       : spec == 2 ? base_params(0.0, 0.0)
                                   : base_params(0.05, 0.1);
  params.engine = engine;
  AgentSimulation simulation(g, params, spec == 2 ? 99 : 321);
  simulation.seed_random_infections(10);
  if (spec == 2) {
    // ε1 switches on mid-run and off again: sparse and sweep steps mix.
    simulation.set_control_schedule(
        std::make_shared<const core::FunctionControl>(
            [](double t) { return t >= 2.0 && t < 5.0 ? 0.3 : 0.0; },
            [](double t) { return t >= 3.0 ? 0.2 : 0.0; }));
  }
  return run_digest(simulation, 80);
}

/// GRAPHCSZ specs (ε1 > 0 and ε1 = 0) on a degree-sorted BA graph,
/// stepped on the compressed form or on the packed graph it encodes.
class CompressedDigests {
 public:
  CompressedDigests() : packed_(canonical_ba()) {
    // Per-process path: ctest runs test binaries in parallel.
    path_ = (std::filesystem::temp_directory_path() /
             ("rumor_pinned_" + std::to_string(::getpid()) + ".zg"))
                .string();
    io::save_graph_compressed(packed_, path_);
    compressed_ = io::load_compressed_graph(path_);
  }
  ~CompressedDigests() {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }

  Digest run(int spec, bool compressed, AgentEngine engine,
             std::size_t threads) const {
    ThreadCountGuard guard(threads);
    AgentParams params;
    params.lambda = core::Acceptance::linear(0.8);
    params.omega = core::Infectivity::saturating(0.6, 0.4);
    params.epsilon1 = spec == 0 ? 0.01 : 0.0;
    params.epsilon2 = 0.05;
    params.engine = engine;
    AgentSimulation simulation =
        compressed ? AgentSimulation(*compressed_, params, 1234)
                   : AgentSimulation(packed_, params, 1234);
    simulation.seed_infections({0, 5, 17});
    return run_digest(simulation, 60);
  }

 private:
  static graph::Graph canonical_ba() {
    util::Xoshiro256 rng(99);
    const graph::Graph g = graph::barabasi_albert(800, 3, rng);
    return graph::apply_node_order(g, graph::degree_sorted_order(g));
  }

  graph::Graph packed_;
  std::string path_;
  std::shared_ptr<graph::CompressedGraph> compressed_;
};

// {immunizing, sparse, ε1-switching schedule, directed}.
constexpr Digest kPackedPinned[] = {
    {180810390u, 201, 4147374467u},
    {270708945u, 327, 866690100u},
    {3873110608u, 136, 2355148511u},
    {2030768777u, 30, 2609387847u},
};
// {immunizing, sparse} on the GRAPHCSZ graph and its packed twin.
constexpr Digest kCompressedPinned[] = {
    {4000554185u, 74, 3563690348u},
    {639057120u, 92, 1818123596u},
};

TEST(SimFrontier, ReproducesPinnedDigestsOfTheGatherEngine) {
  for (int spec = 0; spec < 4; ++spec) {
    EXPECT_EQ(packed_digest(spec, AgentEngine::kDense, 1),
              kPackedPinned[spec])
        << "dense, packed spec " << spec;
    for (const std::size_t threads : {1UL, 2UL, 8UL}) {
      EXPECT_EQ(packed_digest(spec, AgentEngine::kFrontier, threads),
                kPackedPinned[spec])
          << "packed spec " << spec << ", " << threads << " threads";
    }
  }
  const CompressedDigests runs;
  for (int spec = 0; spec < 2; ++spec) {
    for (const bool compressed : {false, true}) {
      EXPECT_EQ(runs.run(spec, compressed, AgentEngine::kDense, 1),
                kCompressedPinned[spec])
          << "dense, compressed spec " << spec << " on "
          << (compressed ? "GRAPHCSZ" : "packed");
      for (const std::size_t threads : {1UL, 2UL, 8UL}) {
        EXPECT_EQ(runs.run(spec, compressed, AgentEngine::kFrontier, threads),
                  kCompressedPinned[spec])
            << "compressed spec " << spec << " on "
            << (compressed ? "GRAPHCSZ" : "packed") << ", " << threads
            << " threads";
      }
    }
  }
}

// ---- incremental-structure stress test -----------------------------

TEST(SimFrontier, IncrementalHazardTracksFreshGatherUnderStress) {
  // Randomized workload: spreading dynamics interleaved with external
  // seeding and blocking (the operations that scatter exposure deltas).
  // Every few steps, cross-check the incremental exposure counts
  // (exactly) and hazard sums (to fixed-point grid tolerance) against a
  // fresh recomputation from the node states, and verify the active set
  // is exactly {susceptible v : exposure_count(v) > 0}.
  util::Xoshiro256 graph_rng(29);
  const auto g = graph::barabasi_albert(1200, 4, graph_rng);
  auto params = base_params(0.0, 0.2);
  params.engine = AgentEngine::kFrontier;
  AgentSimulation simulation(g, params, /*seed=*/555);
  simulation.seed_random_infections(20);

  std::vector<double> omega_over_k(g.num_nodes(), 0.0);
  for (std::size_t v = 0; v < g.num_nodes(); ++v) {
    const auto k =
        static_cast<double>(g.degree(static_cast<graph::NodeId>(v)));
    omega_over_k[v] = k > 0.0 ? params.omega(k) / k : 0.0;
  }

  util::Xoshiro256 chaos(31337);
  for (int round = 0; round < 40; ++round) {
    for (int s = 0; s < 3; ++s) simulation.step();
    // Random external interventions, including re-seeding recovered
    // nodes (allowed: a rumor variant re-infecting a past spreader).
    std::vector<graph::NodeId> touched;
    for (int k = 0; k < 5; ++k) {
      touched.push_back(static_cast<graph::NodeId>(
          chaos.uniform_index(g.num_nodes())));
    }
    if (round % 2 == 0) {
      simulation.seed_infections(touched);
    } else {
      simulation.block_nodes(touched);
    }

    std::size_t expected_active = 0;
    for (std::size_t v = 0; v < g.num_nodes(); ++v) {
      const auto id = static_cast<graph::NodeId>(v);
      std::uint32_t count = 0;
      double fresh = 0.0;
      for (const graph::NodeId u : g.neighbors(id)) {
        if (simulation.state(u) == Compartment::kInfected) {
          ++count;
          fresh += omega_over_k[u];
        }
      }
      ASSERT_EQ(simulation.exposure_count(id), count) << "node " << v;
      ASSERT_NEAR(simulation.hazard(id), fresh, 1e-9) << "node " << v;
      if (count == 0) {
        // Integer sums return to exactly 0 with the last source.
        ASSERT_EQ(simulation.hazard(id), 0.0) << "node " << v;
      }
      if (simulation.state(id) == Compartment::kSusceptible && count > 0) {
        ++expected_active;
      }
    }
    ASSERT_EQ(simulation.active_count(), expected_active);
    if (simulation.census().infected == 0) break;
  }
}

TEST(SimFrontier, EdgesScannedStaysNearFrontierScale) {
  // The point of the engine: per-step edge work tracks the frontier,
  // not the graph. At ~1% prevalence on this graph the dense engine
  // touches every susceptible's full exposure list; the frontier
  // engine must touch at least 10x fewer CSR entries per step.
  util::Xoshiro256 rng(41);
  const auto g = graph::barabasi_albert(20000, 3, rng);
  auto params = base_params(0.0, 0.05);
  params.lambda = core::Acceptance::linear(0.2);  // slow growth

  auto edges_per_step = [&](AgentEngine engine) {
    AgentParams p = params;
    p.engine = engine;
    AgentSimulation simulation(g, p, /*seed=*/11);
    // Seed late (low-degree) nodes so the frontier starts small.
    simulation.seed_infections({19990, 19991, 19992, 19993, 19994});
    const std::uint64_t before = simulation.edges_scanned();
    for (int s = 0; s < 10; ++s) simulation.step();
    return (simulation.edges_scanned() - before) / 10;
  };

  const auto dense = edges_per_step(AgentEngine::kDense);
  const auto frontier = edges_per_step(AgentEngine::kFrontier);
  EXPECT_GT(dense, 10 * frontier)
      << "dense=" << dense << " frontier=" << frontier;
}

}  // namespace
}  // namespace rumor::sim
