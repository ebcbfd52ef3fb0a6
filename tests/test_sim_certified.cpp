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

#include <algorithm>
#include <array>
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

/// The exp-first decision certify_infection replaced, verbatim but for
/// member lookups turned into parameters: p̃ first, then the margin
/// tests.
InfectionVerdict exp_first_decision(double u, std::uint32_t exposure_count,
                                    std::int64_t exposure_sum,
                                    double exposure_unit, double gather_error,
                                    double lambda_over_k, double dt) {
  // δ and m of the header note; H̃ and the grid terms are exact.
  const auto count = static_cast<double>(exposure_count);
  const double sum = static_cast<double>(exposure_sum) * exposure_unit;
  const double delta = count * (0.5 * exposure_unit) +
                       gather_error * (sum + count * exposure_unit);
  const double margin = lambda_over_k * dt * delta + 0x1p-45;
  const double rate = lambda_over_k * sum;
  const double p = 1.0 - std::exp(-rate * dt);
  if (u < p - margin) {
    return InfectionVerdict::kInfect;
  } else if (u < p + margin) {
    return InfectionVerdict::kUndecided;
  }
  return InfectionVerdict::kNone;
}

/// One certified decision's inputs, as the frontier engine passes them.
struct DecisionInput {
  double u = 0.0;
  std::uint32_t count = 1;
  std::int64_t sum = 0;
  double unit = 1.0;
  double gather_error = 0.0;
  double lambda_over_k = 1.0;
  double dt = 0.1;
};

/// A draw on CounterRng::uniform's 2^-53 grid, clamped into [0, 1).
double grid_draw(std::int64_t k) {
  constexpr std::int64_t kTop = (std::int64_t{1} << 53) - 1;
  return static_cast<double>(std::clamp<std::int64_t>(k, 0, kTop)) * 0x1p-53;
}

/// The draws within four grid steps of x + m + 2^-48 (the exp-free
/// rejection bound) and of p̃ ∓ m (the exp-first bounds).
std::vector<double> boundary_draws(const DecisionInput& in) {
  const auto c = static_cast<double>(in.count);
  const double hazard = static_cast<double>(in.sum) * in.unit;
  const double delta =
      c * (0.5 * in.unit) + in.gather_error * (hazard + c * in.unit);
  const double margin = in.lambda_over_k * in.dt * delta + 0x1p-45;
  const double x = in.lambda_over_k * hazard * in.dt;
  const double p = 1.0 - std::exp(-x);
  std::vector<double> draws;
  for (const double edge : {x + margin + 0x1p-48, p - margin, p + margin}) {
    if (!(edge > -1.0 && edge < 2.0)) continue;
    const auto k = static_cast<std::int64_t>(std::floor(edge * 0x1p53));
    for (std::int64_t step = -4; step <= 4; ++step) {
      draws.push_back(grid_draw(k + step));
    }
  }
  return draws;
}

TEST(SimCertified, VerdictMatchesTheExpFirstDecision) {
  // certify_infection rejects most draws before calling exp; every
  // verdict must still be the exp-first one, on seeded random inputs
  // and at the boundaries where the two could part.
  std::uint64_t mismatches = 0;
  std::uint64_t checked = 0;
  std::array<std::uint64_t, 3> verdicts{};
  const auto check = [&](const DecisionInput& in) {
    const InfectionVerdict want =
        exp_first_decision(in.u, in.count, in.sum, in.unit, in.gather_error,
                           in.lambda_over_k, in.dt);
    const InfectionVerdict got =
        certify_infection(in.u, in.count, in.sum, in.unit, in.gather_error,
                          in.lambda_over_k, in.dt);
    ++checked;
    ++verdicts[static_cast<std::size_t>(want)];
    if (got != want && ++mismatches <= 5) {
      ADD_FAILURE() << "u=" << in.u << " count=" << in.count
                    << " sum=" << in.sum << " unit=" << in.unit
                    << " gather_error=" << in.gather_error
                    << " lambda_over_k=" << in.lambda_over_k
                    << " dt=" << in.dt << " want "
                    << static_cast<int>(want) << " got "
                    << static_cast<int>(got);
    }
  };
  constexpr std::int64_t kSumCap = std::int64_t{1} << 53;
  util::Xoshiro256 rng(20260418);
  const auto log_uniform = [&](double lo, double hi) {
    return lo * std::pow(hi / lo, rng.uniform());
  };
  // Random engine states: a fixed-point scale, a largest source count D
  // and a count up to it, a sum up to the cap, and λ_v/k_v and dt put x
  // anywhere from far below to far above the draws. Each state is
  // checked at a uniform draw and at its boundary draws.
  for (int q = 0; q < 200000; ++q) {
    DecisionInput in;
    in.unit = std::ldexp(1.0, -static_cast<int>(rng.uniform_index(90)));
    const auto max_sources =
        static_cast<std::uint32_t>(1 + rng.uniform_index(1u << 20));
    in.gather_error = static_cast<double>(max_sources) * 0x1p-52;
    in.count = static_cast<std::uint32_t>(1 + rng.uniform_index(max_sources));
    in.sum = static_cast<std::int64_t>(
        rng.uniform_index(static_cast<std::uint64_t>(kSumCap) + 1) >>
        rng.uniform_index(54));
    in.lambda_over_k = log_uniform(1e-6, 1e3);
    in.dt = log_uniform(1e-4, 10.0);
    const double hazard = static_cast<double>(in.sum) * in.unit;
    if (q % 2 == 0 && hazard > 0.0) {
      // Half the states aim x at (0, 3), where draws and p̃ meet.
      in.lambda_over_k = log_uniform(1e-3, 3.0) / (hazard * in.dt);
    }
    in.u = rng.uniform();
    check(in);
    for (const double u : boundary_draws(in)) {
      in.u = u;
      check(in);
    }
  }
  // The x values named in the header note's argument — 0, the tiny and
  // the large, ln 2 (p̃ = 1/2) and 1 − 2^-20 just below the bound's
  // limit — each reached at a sum on the grid, for counts 1 … D and
  // sums up to the cap.
  const double xs[] = {0.0,  0x1p-60,          0x1p-30,         1e-3,
                       0.5,  std::log(2.0),    1.0 - 0x1p-20,   2.0};
  for (const double x : xs) {
    for (int q = 0; q < 2000; ++q) {
      DecisionInput in;
      const std::uint32_t max_sources = q % 3 == 0 ? 1u : 1u << 20;
      in.gather_error = static_cast<double>(max_sources) * 0x1p-52;
      in.count = q % 2 == 0 ? max_sources
                            : static_cast<std::uint32_t>(
                                  1 + rng.uniform_index(max_sources));
      in.dt = log_uniform(1e-3, 1.0);
      if (q % 4 == 0) {
        // Sums at the cap: H̃ = (2^53 − 1)·unit, with λ_v/k_v solved
        // for x.
        in.sum = kSumCap - 1;
        in.unit = 0x1p-53;
        const double hazard = static_cast<double>(in.sum) * in.unit;
        in.lambda_over_k = x > 0.0 ? x / (hazard * in.dt) : 0.0;
      } else {
        in.unit =
            std::ldexp(1.0, -static_cast<int>(40 + rng.uniform_index(40)));
        in.lambda_over_k = log_uniform(1e-2, 1e2);
        // The grid sum nearest x, held below the cap before rounding.
        const double grid_sum = x / (in.lambda_over_k * in.dt) / in.unit;
        in.sum = std::llround(
            std::min(grid_sum, static_cast<double>(kSumCap - 1)));
      }
      for (const double u : boundary_draws(in)) {
        in.u = u;
        check(in);
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << checked << " decisions";
  EXPECT_GE(checked, 1000000u);
  // Every verdict occurs, so the comparison covers all three.
  for (const std::uint64_t seen : verdicts) EXPECT_GT(seen, 1000u);
}

/// A transition the per-candidate switch records.
struct Recorded {
  graph::NodeId node;
  Compartment to;
};

/// certify_infection with x and m written out rather than taken from
/// kern::infection_bound, so the reference below shares no code with
/// the screen it checks.
InfectionVerdict reference_certify_infection(double u, std::uint32_t count,
                                             std::int64_t sum, double unit,
                                             double gather_error,
                                             double lambda_over_k, double dt) {
  // δ and m of the header note; H̃ and the grid terms are exact.
  const auto c = static_cast<double>(count);
  const double hazard = static_cast<double>(sum) * unit;
  const double delta = c * (0.5 * unit) + gather_error * (hazard + c * unit);
  const double margin = lambda_over_k * dt * delta + 0x1p-45;
  // x rounds as AgentSimulation::infection_probability's exponent does.
  const double x = lambda_over_k * hazard * dt;
  if (u >= x + margin + 0x1p-48) return InfectionVerdict::kNone;
  const double p = 1.0 - std::exp(-x);
  if (u < p - margin) return InfectionVerdict::kInfect;
  if (u < p + margin) return InfectionVerdict::kUndecided;
  return InfectionVerdict::kNone;
}

/// The frontier engine's step-start state as the ε1 > 0 switch reads it.
struct SwitchState {
  PackedCompartments state_;
  std::vector<std::uint32_t> exposure_count_;
  std::vector<std::int64_t> exposure_sum_;
  std::vector<std::uint32_t> group_of_;
  std::vector<double> group_lambda_over_k_;
  double exposure_unit_ = 1.0;
  double gather_error_ = 0.0;
  double dt = 0.1;

  double lambda_over_k(std::size_t v) const {
    return group_lambda_over_k_[group_of_[v]];
  }

  void decide_infection(graph::NodeId v, double u,
                        std::vector<Recorded>& out) const {
    switch (reference_certify_infection(
        u, exposure_count_[v], exposure_sum_[v], exposure_unit_,
        gather_error_, lambda_over_k(v), dt)) {
      case InfectionVerdict::kInfect:
        out.push_back({v, Compartment::kInfected});
        break;
      case InfectionVerdict::kUndecided:
        out.push_back({v, Compartment::kSusceptible});
        break;
      case InfectionVerdict::kNone:
        break;
    }
  }

  /// The ε1 > 0 step's per-candidate switch (agent_sim.cpp), verbatim
  /// but for the decision helpers above.
  std::vector<Recorded> run_switch(const std::uint32_t* candidates,
                                   const std::uint64_t* keys,
                                   std::size_t count, double p_immunize,
                                   double p_block) const {
    std::vector<Recorded> out;
    for (std::size_t i = 0; i < count; ++i) {
      const graph::NodeId v = candidates[i];
      switch (state_.get(v)) {
        case Compartment::kSusceptible: {
          util::CounterRng draw(keys[i]);
          // Truth wins ties: test immunization first.
          if (draw.bernoulli(p_immunize)) {
            out.push_back({v, Compartment::kRecovered});
          } else if (exposure_count_[v] > 0) {
            decide_infection(v, draw.uniform(), out);
          }
          break;
        }
        case Compartment::kInfected: {
          util::CounterRng draw(keys[i]);
          if (draw.bernoulli(p_block)) {
            out.push_back({v, Compartment::kRecovered});
          }
          break;
        }
        case Compartment::kRecovered:
          break;
      }
    }
    return out;
  }
};

TEST(SimCertified, ScreenDropsOnlyCandidatesThatRecordNothing) {
  // On random engine states, every backend's screen keeps the
  // candidates in order with their keys, and the switch records nothing
  // for any candidate it drops. Half the susceptibles' rates put the
  // rejection bound within four grid steps of the infection draw, and
  // some probabilities sit one grid step from a candidate's first draw.
  std::vector<const kern::Ops*> backends = {
      &kern::ops(kern::Backend::kScalar)};
  for (const kern::Backend b : {kern::Backend::kAvx2, kern::Backend::kAvx512}) {
    if (kern::compiled(b) && kern::cpu_supports(b)) {
      backends.push_back(&kern::ops(b));
    }
  }
  constexpr std::size_t kNodes = 17;
  constexpr std::int64_t kSumCap = std::int64_t{1} << 53;
  util::Xoshiro256 rng(20261020);
  const auto log_uniform = [&](double lo, double hi) {
    return lo * std::pow(hi / lo, rng.uniform());
  };
  std::uint64_t dropped = 0;
  std::uint64_t kept_recording = 0;
  std::uint64_t kept_silent = 0;
  std::uint64_t violations = 0;
  for (int q = 0; q < 100000; ++q) {
    SwitchState s;
    s.state_.assign(kNodes, Compartment::kSusceptible);
    s.exposure_unit_ =
        std::ldexp(1.0, -static_cast<int>(rng.uniform_index(90)));
    const auto max_sources =
        static_cast<std::uint32_t>(1 + rng.uniform_index(1u << 20));
    s.gather_error_ = static_cast<double>(max_sources) * 0x1p-52;
    s.dt = log_uniform(1e-3, 1.0);
    std::vector<std::uint32_t> candidates(kNodes);
    std::vector<std::uint64_t> keys(kNodes);
    for (std::size_t v = 0; v < kNodes; ++v) {
      const std::uint64_t pick = rng.uniform_index(6);
      s.state_.set(v, pick < 4 ? Compartment::kSusceptible
                      : pick == 4 ? Compartment::kInfected
                                  : Compartment::kRecovered);
      s.exposure_count_.push_back(
          rng.uniform_index(5) == 0
              ? 0u
              : static_cast<std::uint32_t>(1 + rng.uniform_index(max_sources)));
      s.exposure_sum_.push_back(static_cast<std::int64_t>(
          rng.uniform_index(static_cast<std::uint64_t>(kSumCap)) >>
          rng.uniform_index(54)));
      s.group_of_.push_back(static_cast<std::uint32_t>(v));
      s.group_lambda_over_k_.push_back(log_uniform(1e-6, 1e3));
      candidates[v] = static_cast<std::uint32_t>(v);
      keys[v] = rng();
      util::CounterRng draw(keys[v]);
      (void)draw.next();
      const double second = draw.uniform();
      const kern::InfectionBound unit_rate = kern::infection_bound(
          s.exposure_count_[v], s.exposure_sum_[v], s.exposure_unit_,
          s.gather_error_, 1.0, s.dt);
      const auto step = static_cast<double>(rng.uniform_index(9)) - 4.0;
      const double room = second + step * 0x1p-53 - 0x1p-45 - 0x1p-48;
      if (v % 2 == 0 && room > 0.0) {
        // x + m − 2^-45 is linear in λ_v/k_v: at rate 1 it reads
        // x + m − 2^-45 of the unit-rate bound.
        const double slope = unit_rate.x + unit_rate.margin - 0x1p-45;
        if (slope > 0.0) s.group_lambda_over_k_[v] = room / slope;
      }
    }
    const auto near_first = [&](std::size_t v) {
      util::CounterRng draw(keys[v]);
      const auto first = static_cast<double>(draw.next() >> 11);
      return (first + static_cast<double>(rng.uniform_index(3)) - 1.0) *
             0x1p-53;
    };
    const double p_immunize =
        q % 4 == 0 ? 1.0 : q % 4 == 1 ? near_first(0) : rng.uniform();
    const double p_block = q % 5 == 0 ? 0.0
                           : q % 5 == 1 ? 1.0
                           : q % 5 == 2 ? near_first(1)
                                        : rng.uniform();
    if (!(p_immunize > 0.0)) continue;  // the switch runs on ε1 > 0 steps
    const kern::ScreenInputs in{s.state_.words(),
                                s.exposure_count_.data(),
                                s.exposure_sum_.data(),
                                s.group_of_.data(),
                                s.group_lambda_over_k_.data(),
                                s.exposure_unit_,
                                s.gather_error_,
                                s.dt,
                                kern::draw_threshold(p_immunize),
                                kern::draw_threshold(p_block)};
    for (const kern::Ops* ops : backends) {
      std::vector<std::uint32_t> ids = candidates;
      std::vector<std::uint64_t> screened_keys = keys;
      const std::size_t kept =
          ops->screen_candidates(in, ids.data(), screened_keys.data(), kNodes);
      ASSERT_LE(kept, kNodes);
      std::size_t next = 0;
      for (std::size_t v = 0; v < kNodes; ++v) {
        const bool is_kept = next < kept && ids[next] == v;
        if (is_kept) {
          ASSERT_EQ(screened_keys[next], keys[v]);
          ++next;
        }
        const bool records =
            !s.run_switch(&candidates[v], &keys[v], 1, p_immunize, p_block)
                 .empty();
        if (is_kept) {
          ++(records ? kept_recording : kept_silent);
        } else {
          ++dropped;
          if (records && ++violations <= 5) {
            ADD_FAILURE() << kern::to_string(ops->backend)
                          << " dropped node " << v << " of state " << q
                          << ", which records a transition";
          }
        }
      }
      ASSERT_EQ(next, kept) << "kept ids out of order";
    }
  }
  EXPECT_EQ(violations, 0u);
  // Both verdicts occur often, and the kept candidates that record
  // nothing (rejected only after exp) are the bound's slack.
  EXPECT_GT(dropped, 500000u);
  EXPECT_GT(kept_recording, 500000u);
  EXPECT_GT(kept_silent, 50000u);
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
