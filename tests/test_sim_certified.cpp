// The frontier engine's certified infection decisions at their edges.
// A susceptible node's draw u is settled from its exact fixed-point
// exposure sum when u lies outside the margin m around p̃, and by the
// dense engine's fixed-order gather otherwise (agent_sim.hpp). Each
// case here steers u to a chosen side of that margin — by solving for
// the dt that puts p̃ where the case needs it — then checks the
// frontier engine's states against the dense engine's (the exact
// gather decision) and that the fallback was taken exactly when the
// case says it must be.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "obs/metrics.hpp"
#include "sim/agent_sim.hpp"
#include "util/random.hpp"

namespace rumor::sim {
namespace {

struct Outcome {
  std::vector<Compartment> state;
  std::size_t ever_infected = 0;
  std::uint64_t fallbacks = 0;
};

Outcome run(const graph::Graph& g, AgentParams params, AgentEngine engine,
            const std::vector<graph::NodeId>& infected, int steps,
            std::uint64_t seed) {
  params.engine = engine;
  AgentSimulation simulation(g, params, seed);
  simulation.seed_infections(infected);
  for (int s = 0; s < steps; ++s) simulation.step();
  Outcome out;
  for (std::size_t v = 0; v < g.num_nodes(); ++v) {
    out.state.push_back(simulation.state(static_cast<graph::NodeId>(v)));
  }
  out.ever_infected = simulation.ever_infected();
  if (engine == AgentEngine::kFrontier) {
    out.fallbacks = simulation.gather_fallbacks();
  }
  return out;
}

/// Runs both engines and returns the frontier engine's fallback count
/// after checking that its trajectory is the dense engine's.
std::uint64_t frontier_fallbacks_matching_dense(
    const graph::Graph& g, const AgentParams& params,
    const std::vector<graph::NodeId>& infected, int steps,
    std::uint64_t seed) {
  const Outcome dense =
      run(g, params, AgentEngine::kDense, infected, steps, seed);
  const Outcome frontier =
      run(g, params, AgentEngine::kFrontier, infected, steps, seed);
  EXPECT_EQ(frontier.state, dense.state);
  EXPECT_EQ(frontier.ever_infected, dense.ever_infected);
  return frontier.fallbacks;
}

/// Node v's first draw at step 0: its infection draw on sparse steps.
double first_draw(std::uint64_t seed, graph::NodeId v) {
  util::CounterRng draw(util::hash_mix(util::hash_mix(seed, 0), v));
  return draw.uniform();
}

/// A seed whose step-0 draw for v lies in [0.2, 0.8], so p̃ can be put
/// on either side of it.
std::uint64_t seed_with_mid_draw(graph::NodeId v) {
  std::uint64_t seed = 1;
  while (first_draw(seed, v) < 0.2 || first_draw(seed, v) > 0.8) ++seed;
  return seed;
}

graph::Graph path2() {
  graph::GraphBuilder builder(2);
  builder.add_edge(0, 1);
  return std::move(builder).build();
}

/// Spreading only (ε1 = ε2 = 0), λ(k)/k = 1, and ω(1)/1 = 1/2, which
/// lies on every fixed-point grid: on path2 with node 1 infected, node
/// 0's exposure sum is exactly 1/2 and p̃ = 1 − exp(−dt/2).
AgentParams spreading_params() {
  AgentParams params;
  params.lambda = core::Acceptance::linear(1.0);
  params.omega = core::Infectivity::saturating(0.5, 0.5);
  params.epsilon1 = 0.0;
  params.epsilon2 = 0.0;
  return params;
}

/// dt that puts p̃ = 1 − exp(−rate·dt) at `target`.
double dt_for(double target, double rate) {
  return -std::log1p(-target) / rate;
}

TEST(SimCertified, DrawInsideTheMarginFallsBackToTheGather) {
  const graph::Graph g = path2();
  const std::uint64_t seed = seed_with_mid_draw(0);
  const double u = first_draw(seed, 0);
  AgentParams params = spreading_params();
  // The margin is at least 2^-45; p̃ lands on u to within a few ulps,
  // and at half the floor on either side.
  for (const double offset : {0.0, 0x1p-46, -0x1p-46}) {
    params.dt = dt_for(u + offset, 0.5);
    EXPECT_EQ(frontier_fallbacks_matching_dense(g, params, {1}, 1, seed), 1u)
        << "offset " << offset;
  }
}

TEST(SimCertified, DrawJustOutsideTheMarginIsCertified) {
  const graph::Graph g = path2();
  const std::uint64_t seed = seed_with_mid_draw(0);
  const double u = first_draw(seed, 0);
  AgentParams params = spreading_params();
  // Here m = 2^-45 + dt·δ with δ a few 2^-52: four times the floor is
  // outside it. p̃ above u certifies an infection, below it certifies
  // none.
  for (const double offset : {0x1p-43, -0x1p-43}) {
    params.dt = dt_for(u + offset, 0.5);
    EXPECT_EQ(frontier_fallbacks_matching_dense(g, params, {1}, 1, seed), 0u)
        << "offset " << offset;
    AgentSimulation frontier(g, params, seed);
    frontier.seed_infections({1});
    frontier.step();
    EXPECT_EQ(frontier.state(0), offset > 0.0 ? Compartment::kInfected
                                              : Compartment::kSusceptible);
  }
}

/// A star: hub 0 with `leaves` leaves, ω(k) = √k/(1 + k^40). A leaf's
/// weight ω(1)/1 = 1/2 sets the fixed-point scale; the hub's weight,
/// ~5e-29 at k = 5, rounds to 0 on that grid but not in a double.
graph::Graph star(std::size_t leaves) {
  graph::GraphBuilder builder(leaves + 1);
  for (std::size_t leaf = 1; leaf <= leaves; ++leaf) {
    builder.add_edge(0, static_cast<graph::NodeId>(leaf));
  }
  return std::move(builder).build();
}

AgentParams vanishing_hub_params(double lambda) {
  AgentParams params;
  params.lambda = core::Acceptance::constant(lambda);
  params.omega = core::Infectivity::saturating(0.5, 40.0);
  params.epsilon1 = 0.0;
  params.epsilon2 = 0.0;
  params.dt = 0.1;
  return params;
}

TEST(SimCertified, WeightsBelowTheGridWithALargeRateFallBack) {
  // The leaves' exposure sums are exactly 0 while the gather is
  // positive, and λ ≈ 10^29 makes that gather matter: H̃ <= δ, the
  // margin spans every draw, and each leaf settles by the gather.
  const graph::Graph g = star(5);
  const double hub_weight =
      core::Infectivity::saturating(0.5, 40.0)(5.0) / 5.0;
  ASSERT_GT(hub_weight, 0.0);
  // λ·G·dt = 0.7: p ≈ 1/2 in the dense engine.
  const AgentParams params = vanishing_hub_params(0.7 / (hub_weight * 0.1));
  AgentSimulation probe(g, params, 3);
  probe.seed_infections({0});
  ASSERT_EQ(probe.hazard(1), 0.0) << "hub weight is on the grid";
  EXPECT_EQ(frontier_fallbacks_matching_dense(g, params, {0}, 1, 3), 5u);
}

TEST(SimCertified, WeightsBelowTheGridWithAnOrdinaryRateAreCertified) {
  // With λ = 1 the same tiny gather gives p = 0 in the dense engine, and
  // the margin is the 2^-45 floor: every leaf is certified to stay.
  const graph::Graph g = star(5);
  const AgentParams params = vanishing_hub_params(1.0);
  EXPECT_EQ(frontier_fallbacks_matching_dense(g, params, {0}, 5, 3), 0u);
  AgentSimulation frontier(g, params, 3);
  frontier.seed_infections({0});
  for (int s = 0; s < 5; ++s) frontier.step();
  EXPECT_EQ(frontier.census().infected, 1u);
}

TEST(SimCertified, ProbabilityRoundingToOneIsCertified) {
  // A hazard so large that p rounds to 1: the dense engine infects
  // without consuming a draw; u < p̃ − m holds for every draw below
  // 1 − m, so the frontier engine certifies the same infection.
  const graph::Graph g = star(6);
  AgentParams params = spreading_params();
  params.lambda = core::Acceptance::constant(1e4);
  params.dt = 0.1;
  EXPECT_EQ(frontier_fallbacks_matching_dense(g, params, {1, 2, 3}, 1, 11),
            0u);
  AgentSimulation frontier(g, params, 11);
  frontier.seed_infections({1, 2, 3});
  frontier.step();
  EXPECT_EQ(frontier.state(0), Compartment::kInfected);
}

TEST(SimCertified, MarginStraddlingOneStillCertifiesDrawsBelowIt) {
  // p̃ = 1 − 2^-46 lies within the margin (>= 2^-45) of 1, so p̃ + m
  // exceeds 1. A draw below p̃ − m is an infection in the dense engine
  // whether its p lands below 1 or at 1 (which infects without a draw),
  // so it is certified all the same.
  const graph::Graph g = path2();
  const std::uint64_t seed = seed_with_mid_draw(0);
  AgentParams params = spreading_params();
  params.dt = dt_for(1.0 - 0x1p-46, 0.5);
  EXPECT_EQ(frontier_fallbacks_matching_dense(g, params, {1}, 1, seed), 0u);
  AgentSimulation frontier(g, params, seed);
  frontier.seed_infections({1});
  frontier.step();
  EXPECT_EQ(frontier.state(0), Compartment::kInfected);
}

TEST(SimCertified, DirectedGraphsUseInNeighborSums) {
  // Node 0 is exposed along 1→0 and 2→0 only; its out-edge 0→3 does
  // not expose it. Put p̃ on its draw (a fallback), then just outside
  // (certified), and run a random directed graph with no fallbacks.
  graph::GraphBuilder builder(4, /*directed=*/true);
  builder.add_edge(1, 0);
  builder.add_edge(2, 0);
  builder.add_edge(0, 3);
  const graph::Graph g = std::move(builder).build();
  const std::uint64_t seed = seed_with_mid_draw(0);
  const double u = first_draw(seed, 0);
  AgentParams params = spreading_params();
  // Sources 1 and 2 have total degree 1: ω(1)/1 = 1/2 each, so the
  // exposure sum is 1; node 0 has total degree 3, λ(3)/3 = 1.
  AgentSimulation probe(g, params, seed);
  probe.seed_infections({1, 2});
  ASSERT_EQ(probe.hazard(0), 1.0);
  ASSERT_EQ(probe.exposure_count(3), 0u);
  params.dt = dt_for(u, 1.0);
  EXPECT_EQ(frontier_fallbacks_matching_dense(g, params, {1, 2}, 1, seed), 1u);
  params.dt = dt_for(u - 0x1p-43, 1.0);
  EXPECT_EQ(frontier_fallbacks_matching_dense(g, params, {1, 2}, 1, seed), 0u);

  graph::GraphBuilder random_builder(300, /*directed=*/true);
  util::Xoshiro256 rng(7);
  for (int e = 0; e < 1500; ++e) {
    const auto a = static_cast<graph::NodeId>(rng.uniform_index(300));
    const auto b = static_cast<graph::NodeId>(rng.uniform_index(300));
    if (a != b) random_builder.add_edge(a, b);
  }
  const graph::Graph random = std::move(random_builder).build(true);
  AgentParams spread = spreading_params();
  spread.epsilon1 = 0.03;
  spread.epsilon2 = 0.1;
  spread.dt = 0.1;
  EXPECT_EQ(
      frontier_fallbacks_matching_dense(random, spread, {0, 1, 2, 3}, 60, 5),
      0u);
}

TEST(SimCertified, FallbacksAreCountedPerStepInTheRegistry) {
  // sim.gather_fallbacks advances by each step's fallbacks.
  const graph::Graph g = path2();
  const std::uint64_t seed = seed_with_mid_draw(0);
  AgentParams params = spreading_params();
  params.dt = dt_for(first_draw(seed, 0), 0.5);
  AgentSimulation simulation(g, params, seed);
  simulation.seed_infections({1});
  const obs::Counter& counter = obs::metrics().counter("sim.gather_fallbacks");
  const std::uint64_t before = counter.value();
  simulation.step();
  EXPECT_EQ(simulation.gather_fallbacks(), 1u);
  EXPECT_EQ(counter.value() - before, 1u);
}

}  // namespace
}  // namespace rumor::sim
