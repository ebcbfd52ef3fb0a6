// Agent simulation on compressed graphs: the frontier/dense engines
// stepping a CompressedGraph must reproduce the packed-CSR run BIT for
// bit — same census at every step, same final per-node states — at any
// thread count, because decode restores the exact stored neighbor order
// the gather kernels sum over. Also pinned: checkpoints cross formats
// (write against packed, resume against compressed, and vice versa),
// and an armed resident budget changes paging behavior, never results.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "graph/compressed.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/reorder.hpp"
#include "io/container.hpp"
#include "io/graph_compressed.hpp"
#include "sim/agent_sim.hpp"
#include "sim/checkpoint.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/random.hpp"

namespace {

using namespace rumor;
namespace fs = std::filesystem;

class ThreadCountGuard {
 public:
  explicit ThreadCountGuard(std::size_t threads) {
    util::set_num_threads(threads);
  }
  ~ThreadCountGuard() { util::set_num_threads(0); }
};

// Per-process paths: ctest runs the tests of this binary as parallel
// processes, and each Fixture writes and removes its own graph file.
std::string temp_path(const std::string& name) {
  return (fs::temp_directory_path() /
          ("rumor_simz_" + std::to_string(::getpid()) + "_" + name))
      .string();
}

sim::AgentParams test_params(sim::AgentEngine engine) {
  sim::AgentParams params;
  params.lambda = core::Acceptance::linear(0.8);
  params.omega = core::Infectivity::saturating(0.6, 0.4);
  params.epsilon1 = 0.01;
  params.epsilon2 = 0.05;
  params.dt = 0.1;
  params.engine = engine;
  return params;
}

struct Fixture {
  graph::Graph packed;
  std::shared_ptr<graph::CompressedGraph> compressed;
  std::string path;

  static graph::Graph make_packed(std::uint64_t graph_seed, std::size_t n,
                                  std::size_t m) {
    util::Xoshiro256 rng(graph_seed);
    const graph::Graph g = graph::barabasi_albert(n, m, rng);
    return graph::apply_node_order(g, graph::degree_sorted_order(g));
  }

  explicit Fixture(std::uint64_t graph_seed = 99, std::size_t n = 800,
                   std::size_t m = 3)
      : packed(make_packed(graph_seed, n, m)) {
    path = temp_path("graph_" + std::to_string(graph_seed) + ".zg");
    io::CompressOptions options;
    options.target_shard_bytes = 4096;  // several shards even at n=800
    io::save_graph_compressed(packed, path, options);
    compressed = io::load_compressed_graph(path);
  }
  ~Fixture() { fs::remove(path); }
};

std::vector<sim::Census> run(sim::AgentSimulation& simulation,
                             std::size_t steps) {
  std::vector<sim::Census> history;
  for (std::size_t s = 0; s < steps; ++s) {
    simulation.step();
    history.push_back(simulation.census());
  }
  return history;
}

void expect_identical_runs(sim::AgentSimulation& a, sim::AgentSimulation& b,
                           std::size_t steps) {
  const auto ha = run(a, steps);
  const auto hb = run(b, steps);
  ASSERT_EQ(ha.size(), hb.size());
  for (std::size_t s = 0; s < ha.size(); ++s) {
    ASSERT_EQ(ha[s].susceptible, hb[s].susceptible) << "step " << s;
    ASSERT_EQ(ha[s].infected, hb[s].infected) << "step " << s;
    ASSERT_EQ(ha[s].recovered, hb[s].recovered) << "step " << s;
  }
  for (std::size_t v = 0; v < a.num_nodes(); ++v) {
    ASSERT_EQ(a.state(static_cast<graph::NodeId>(v)),
              b.state(static_cast<graph::NodeId>(v)))
        << "node " << v;
  }
  EXPECT_EQ(a.ever_infected(), b.ever_infected());
  EXPECT_EQ(a.edges_scanned(), b.edges_scanned());
}

TEST(SimCompressed, FrontierBitIdenticalToPackedAcrossThreadCounts) {
  const Fixture f;
  for (const std::size_t threads : {1UL, 2UL, 8UL}) {
    ThreadCountGuard guard(threads);
    sim::AgentSimulation on_packed(
        f.packed, test_params(sim::AgentEngine::kFrontier), 1234);
    sim::AgentSimulation on_compressed(
        *f.compressed, test_params(sim::AgentEngine::kFrontier), 1234);
    on_packed.seed_infections({0, 5, 17});
    on_compressed.seed_infections({0, 5, 17});
    expect_identical_runs(on_packed, on_compressed, 60);
  }
}

TEST(SimCompressed, DenseBitIdenticalToPackedAcrossThreadCounts) {
  const Fixture f;
  for (const std::size_t threads : {1UL, 2UL, 8UL}) {
    ThreadCountGuard guard(threads);
    sim::AgentSimulation on_packed(
        f.packed, test_params(sim::AgentEngine::kDense), 1234);
    sim::AgentSimulation on_compressed(
        *f.compressed, test_params(sim::AgentEngine::kDense), 1234);
    on_packed.seed_infections({0, 5, 17});
    on_compressed.seed_infections({0, 5, 17});
    expect_identical_runs(on_packed, on_compressed, 40);
  }
}

TEST(SimCompressed, ResidentBudgetDoesNotPerturbTrajectories) {
  const Fixture f;
  sim::AgentSimulation reference(
      *f.compressed, test_params(sim::AgentEngine::kFrontier), 77);
  reference.seed_infections({1, 2, 3});
  const auto expected = run(reference, 50);

  const auto budgeted = io::load_compressed_graph(f.path);
  budgeted->set_resident_budget(budgeted->total_bytes() / 4);
  sim::AgentSimulation under_pressure(
      *budgeted, test_params(sim::AgentEngine::kFrontier), 77);
  under_pressure.seed_infections({1, 2, 3});
  const auto got = run(under_pressure, 50);

  EXPECT_GT(budgeted->shards_dropped(), 0u)
      << "budget never engaged — the test graph needs more shards";
  ASSERT_EQ(expected.size(), got.size());
  for (std::size_t s = 0; s < expected.size(); ++s) {
    ASSERT_EQ(expected[s].infected, got[s].infected) << "step " << s;
    ASSERT_EQ(expected[s].recovered, got[s].recovered) << "step " << s;
  }
}

TEST(SimCompressed, CheckpointCrossesFormatsBothWays) {
  const Fixture f;
  const sim::AgentParams params = test_params(sim::AgentEngine::kFrontier);

  // Uninterrupted reference on the packed graph.
  sim::AgentSimulation reference(f.packed, params, 2024);
  reference.seed_infections({2, 4, 8});
  run(reference, 30);

  // Packed -> checkpoint at step 12 -> resume on compressed.
  sim::AgentSimulation first_leg(f.packed, params, 2024);
  first_leg.seed_infections({2, 4, 8});
  run(first_leg, 12);
  io::ContainerWriter writer("AGNTCKPT");
  sim::append_agent_checkpoint(writer, first_leg);
  const auto snapshot = io::ContainerReader::from_bytes(writer.serialize());

  sim::AgentSimulation second_leg(*f.compressed, params, 2024);
  sim::restore_agent_checkpoint(*snapshot, second_leg);
  run(second_leg, 18);
  for (std::size_t v = 0; v < reference.num_nodes(); ++v) {
    ASSERT_EQ(second_leg.state(static_cast<graph::NodeId>(v)),
              reference.state(static_cast<graph::NodeId>(v)))
        << "node " << v;
  }
  EXPECT_EQ(second_leg.ever_infected(), reference.ever_infected());

  // And back: checkpoint the compressed run, resume on packed.
  io::ContainerWriter writer2("AGNTCKPT");
  sim::append_agent_checkpoint(writer2, second_leg);
  const auto snapshot2 =
      io::ContainerReader::from_bytes(writer2.serialize());
  sim::AgentSimulation third_leg(f.packed, params, 2024);
  sim::restore_agent_checkpoint(*snapshot2, third_leg);
  EXPECT_EQ(third_leg.census().infected, reference.census().infected);
  EXPECT_EQ(third_leg.step_count(), reference.step_count());
}

TEST(SimCompressed, RejectsDirectedCompressedGraphs) {
  graph::GraphBuilder builder(4, /*directed=*/true);
  builder.add_edge(0, 1);
  builder.add_edge(1, 2);
  builder.add_edge(2, 3);
  const graph::Graph g = std::move(builder).build();
  const std::string path = temp_path("directed.zg");
  io::save_graph_compressed(g, path);
  const auto zg = io::load_compressed_graph(path);
  EXPECT_THROW(sim::AgentSimulation(*zg, test_params(
                                             sim::AgentEngine::kFrontier),
                                    1),
               util::InvalidArgument);
  fs::remove(path);
}

TEST(SimCompressed, GraphAccessorThrowsButMetadataWorks) {
  const Fixture f;
  sim::AgentSimulation simulation(
      *f.compressed, test_params(sim::AgentEngine::kFrontier), 5);
  EXPECT_THROW(simulation.graph(), util::InvalidArgument);
  EXPECT_EQ(simulation.num_arcs(), f.packed.num_arcs());
  EXPECT_FALSE(simulation.directed());
  EXPECT_EQ(simulation.compressed_graph(), f.compressed.get());
}

}  // namespace
