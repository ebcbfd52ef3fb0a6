// Zero-allocation guarantees of the optimal-control hot path.
//
// This binary links rumor_alloc_count, which replaces the global
// operator new/delete with counting wrappers, so these tests observe
// every heap allocation in the process. The contract under test: after
// construction (warm-up), the costate RHS, the trajectory cursor, and
// the fixed-step integration inner loop allocate nothing.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>

#include "control/costate.hpp"
#include "core/sir_model.hpp"
#include "graph/generators.hpp"
#include "io/graph_compressed.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "ode/integrate.hpp"
#include "ode/steppers.hpp"
#include "sim/agent_sim.hpp"
#include "util/alloc_count.hpp"
#include "util/parallel.hpp"
#include "util/random.hpp"

namespace rumor {
namespace {

core::SirNetworkModel make_model() {
  core::ModelParams params;
  params.alpha = 0.05;
  params.lambda = core::Acceptance::linear(0.05);
  params.omega = core::Infectivity::saturating(0.5, 0.5);
  return core::SirNetworkModel(
      core::NetworkProfile::from_pmf({1.0, 4.0, 12.0, 30.0},
                                     {0.5, 0.3, 0.15, 0.05}),
      params, core::make_constant_control(0.1, 0.2));
}

TEST(AllocCount, HookIsLinkedAndCounting) {
  const auto before = util::allocation_count();
  // Call the allocation function directly: a new-expression may be
  // elided entirely by the optimizer, a plain function call may not.
  void* p = ::operator new(64);
  ::operator delete(p);
  EXPECT_GE(util::allocation_count() - before, 1u);
}

TEST(AllocCount, CostateRhsIsAllocationFree) {
  const auto model = make_model();
  const auto schedule = core::make_constant_control(0.1, 0.2);
  const auto traj = ode::integrate_rk4(model, model.initial_state(0.02),
                                       0.0, 10.0, 0.01);
  control::CostParams cost;
  cost.c1 = 5.0;
  cost.c2 = 10.0;
  control::BackwardCostateSystem adjoint(model, traj, *schedule, cost, 10.0);
  ode::State w = adjoint.terminal_costate();
  ode::State dwds(w.size());

  adjoint.rhs(0.0, w, dwds);  // warm-up

  const auto before = util::allocation_count();
  for (int q = 0; q < 5000; ++q) {
    adjoint.rhs(10.0 * static_cast<double>(q) / 5000.0, w, dwds);
  }
  EXPECT_EQ(util::allocation_count() - before, 0u);
}

TEST(AllocCount, TrajectoryCursorIsAllocationFree) {
  const auto model = make_model();
  const auto traj = ode::integrate_rk4(model, model.initial_state(0.02),
                                       0.0, 10.0, 0.01);
  ode::Trajectory::Cursor cursor(traj);
  ode::State out(traj.dimension());
  cursor.at_into(0.0, out);

  const auto before = util::allocation_count();
  for (int q = 0; q < 5000; ++q) {
    cursor.at_into(10.0 * static_cast<double>(q) / 5000.0, out);
  }
  EXPECT_EQ(util::allocation_count() - before, 0u);
}

TEST(AllocCount, WarmIntegrationAllocationsIndependentOfStepCount) {
  // A warm integrate_fixed_into pays a small constant per-call setup
  // (the two step buffers); the inner loop itself — stepper stages, RHS
  // evaluations, trajectory recording into reserved capacity — must be
  // allocation-free. Pinned by comparing runs of 1000 and 4000 steps.
  const auto model = make_model();
  ode::Rk4Stepper stepper;
  ode::FixedStepOptions fixed;
  fixed.dt = 0.01;
  const auto y0 = model.initial_state(0.02);
  ode::Trajectory traj(model.dimension());
  ode::integrate_fixed_into(model, stepper, y0, 0.0, 40.0, fixed, traj);

  auto count = [&](double t1) {
    const auto before = util::allocation_count();
    ode::integrate_fixed_into(model, stepper, y0, 0.0, t1, fixed, traj);
    return util::allocation_count() - before;
  };
  const auto short_run = count(10.0);
  const auto long_run = count(40.0);
  EXPECT_EQ(long_run, short_run);
}

graph::Graph alloc_test_graph() {
  util::Xoshiro256 rng(51);
  return graph::barabasi_albert(10000, 3, rng);
}

/// `g` is a packed or a compressed graph.
template <typename AnyGraph>
void expect_warm_steps_allocation_free(const AnyGraph& g,
                                       sim::AgentEngine engine,
                                       std::size_t threads) {
  util::set_num_threads(threads);
  sim::AgentParams params;
  params.epsilon1 = 0.01;  // exercises the full-sweep frontier mode too
  params.epsilon2 = 0.05;
  params.engine = engine;
  sim::AgentSimulation simulation(g, params, /*seed=*/3);
  simulation.seed_random_infections(50);
  for (int s = 0; s < 5; ++s) simulation.step();  // warm-up

  const auto before = util::allocation_count();
  for (int s = 0; s < 50; ++s) simulation.step();
  EXPECT_EQ(util::allocation_count() - before, 0u)
      << "engine=" << static_cast<int>(engine) << " threads=" << threads;
  util::set_num_threads(0);
}

TEST(AllocCount, MetricRecordingIsAllocationFree) {
  // Registration allocates (named entries, shard arrays); recording
  // through the returned handles must not — this is what lets the
  // engine hot paths carry metrics without breaking the step-loop
  // 0-alloc guarantees below.
  obs::Counter& counter = obs::metrics().counter("alloctest.counter");
  obs::Gauge& gauge = obs::metrics().gauge("alloctest.gauge");
  obs::Histogram& histogram =
      obs::metrics().histogram("alloctest.hist", {1.0, 10.0, 100.0});
  counter.add();  // warm-up: assigns this thread's shard slot
  gauge.set(0.0);
  histogram.record(0.5);

  const auto before = util::allocation_count();
  for (int q = 0; q < 10000; ++q) {
    counter.add(2);
    gauge.set(static_cast<double>(q));
    histogram.record(static_cast<double>(q % 128));
  }
  EXPECT_EQ(util::allocation_count() - before, 0u);
}

TEST(AllocCount, DisabledTraceSpansAreAllocationFree) {
  obs::set_trace_enabled(false);
  const auto before = util::allocation_count();
  for (int q = 0; q < 10000; ++q) {
    const obs::TraceSpan span("alloctest.span");
  }
  EXPECT_EQ(util::allocation_count() - before, 0u);
}

TEST(AllocCount, DenseAgentStepsAreAllocationFree) {
  // Every per-step buffer (chunk deltas, double buffers) is sized at
  // construction; parallel dispatch itself is allocation-free since
  // ThreadPool::run takes a borrowed IndexFnRef, not a std::function.
  const auto g = alloc_test_graph();
  expect_warm_steps_allocation_free(g, sim::AgentEngine::kDense, 1);
  expect_warm_steps_allocation_free(g, sim::AgentEngine::kDense, 4);
}

TEST(AllocCount, FrontierAgentStepsAreAllocationFree) {
  // Transition buffers are reserved to the chunk grain and the
  // active/infected lists to n up front, so warm steps — including
  // scatter-driven list membership churn — never touch the allocator.
  const auto g = alloc_test_graph();
  expect_warm_steps_allocation_free(g, sim::AgentEngine::kFrontier, 1);
  expect_warm_steps_allocation_free(g, sim::AgentEngine::kFrontier, 4);
}

TEST(AllocCount, CompressedFrontierStepsAreAllocationFree) {
  // Frontier steps decode neighbor lists only in their serial phases,
  // into scratch the simulation sizes to the maximum degree up front,
  // so no worker thread grows a decode buffer of its own. The adverse
  // case runs first, while the pool workers have decoded nothing: a
  // sparse run warmed by one step whose active set fits one chunk, so
  // workers would meet their first list only once it outgrows a chunk.
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("rumor_alloc_" + std::to_string(::getpid()) + ".zg"))
          .string();
  io::save_graph_compressed(alloc_test_graph(), path);
  const auto zg = io::load_compressed_graph(path);
  {
    util::set_num_threads(4);
    // Start the pool's workers without letting them decode anything.
    util::parallel_for(std::size_t{0}, std::size_t{64}, 1, [](std::size_t) {});
    sim::AgentParams params;
    params.epsilon2 = 0.05;
    sim::AgentSimulation simulation(*zg, params, /*seed=*/3);
    simulation.seed_random_infections(5);
    simulation.step();  // warm-up
    const auto before = util::allocation_count();
    for (int s = 0; s < 100; ++s) simulation.step();
    EXPECT_EQ(util::allocation_count() - before, 0u);
    EXPECT_GT(simulation.active_count(), 2048u)
        << "the active set never outgrew one chunk";
    util::set_num_threads(0);
  }
  expect_warm_steps_allocation_free(*zg, sim::AgentEngine::kFrontier, 1);
  expect_warm_steps_allocation_free(*zg, sim::AgentEngine::kFrontier, 4);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace rumor
