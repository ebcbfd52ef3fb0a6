// Agent-based (microscopic) rumor simulation on a concrete graph.
//
// Cross-validates the mean-field ODE: on an uncorrelated network, the
// expected per-edge exposure of a susceptible v from an infected
// neighbor u is ω(k_u)/k_u, and summing over v's neighbors recovers the
// annealed coupling k_v·Θ. The microscopic infection hazard used here,
//
//   hazard(v) = (λ(k_v)/k_v) Σ_{u ∈ N(v), u infected} ω(k_u)/k_u,
//
// therefore has expectation λ(k_v)·Θ — exactly the ODE's group-i
// infection rate — so ensemble averages of the simulation should track
// System (1) whenever the mean-field assumptions (no degree
// correlations, no clustering) hold. The XVAL bench quantifies this.
//
// Per step of length dt (synchronous update):
//   S → I  with prob 1 − exp(−hazard(v)·dt)
//   S → R  with prob 1 − exp(−ε1·dt)      (truth immunization)
//   I → R  with prob 1 − exp(−ε2·dt)      (blocking)
// A node that would both become infected and be immunized in the same
// step is immunized (truth wins the tie, matching Fig. 1 where both
// arrows leave S).
//
// Determinism model: all per-step randomness comes from counter-based
// streams keyed by (seed, step, node) — one util::CounterRng per node
// per step, never a shared sequential generator — so a node's draws do
// not depend on visitation order, chunking, or the thread count, and a
// trajectory is a pure function of the constructor seed (see
// docs/parallelism.md).
//
// Two engines share that contract (AgentParams::engine):
//
//  * kDense — the reference O(N + E) sweep: every node is visited, and
//    each susceptible gathers the precomputed ω(k_u)/k_u weights of its
//    currently-infected exposure sources (in-neighbors on directed
//    graphs, neighbors otherwise, both flat CSR) in fixed CSR order.
//    Double-buffered, chunk-parallel, trivially auditable.
//
//  * kFrontier (default) — sparse stepping whose cost scales with the
//    infected frontier, not the graph. Per node it keeps the number c_v
//    of infected exposure sources and their exact exposure sum
//    A_v = Σ round(w_u·2^s), w_u = ω(k_u)/k_u, in 64-bit fixed point
//    (the scale s is fixed at construction so that no sum can reach
//    2^53). Both are maintained by integer scatter when a node enters
//    or leaves the infected compartment, and a step visits only the
//    infected set plus the active set of susceptibles with an infected
//    exposure source — O(|frontier|) work plus the scatters of the
//    nodes that flip; on a million-node graph at low prevalence that is
//    ~1000× less than the dense sweep (see docs/performance.md). When
//    ε1(t) > 0 every susceptible can flip, so those steps sweep all
//    nodes through kern::Ops::draw_candidates, a SIMD pass that keeps
//    only nodes whose first draw falls under max(p_immunize, p_block)
//    or that have an infected source; no other node can flip. The
//    engine reads util::premix(v) from a table (8 B per node of the
//    largest graph, one per process), so a stream key
//    hash_mix(step_key, v) = splitmix64(step_key ^ premix(v)) costs one
//    splitmix64 round, and the sweep hands each kept node's stream key
//    back with its id. kern::Ops::screen_candidates then drops, in
//    place, every candidate the per-candidate switch would record
//    nothing for — a recovered node, an infected one whose blocking draw
//    fails, a susceptible whose immunization draw fails and that has no
//    infected source or whose infection draw is at or above
//    certify_infection's exp-free rejection bound — by the switch's own
//    arithmetic (kern::infection_bound), so the switch runs only on the
//    few that can transition (~5% of the candidates of a Digg-scale
//    rumord job).
//
// Both engines draw from the same per-node streams, and the frontier
// engine decides infections without gathering. With H̃ = A_v·2^-s
// (exact as a double), c = c_v and D the largest source count of any
// node, the dense engine's gather G over v's sources satisfies, in any
// summation order,
//
//   |G − H̃| ≤ δ = c·2^-(s+1) + D·2^-52·(H̃ + c·2^-s),
//
// so its p = 1 − exp(−(λ_v/k_v)·G·dt) lies within
// m = (λ_v/k_v)·dt·δ + 2^-45 of p̃, the same expression at H̃ (the
// constant covers exp and rounding error). A draw u < p̃ − m is
// therefore an infection and u ≥ p̃ + m is not, exactly as the dense
// engine decides; only a draw inside the margin falls back to the
// fixed-order CSR gather itself, in the serial phase before the step's
// transitions apply. The two engines produce bit-identical
// trajectories; tests/test_sim_frontier.cpp pins this at 1/2/8 threads,
// across checkpoint/resume, and against digests of the gather-based
// engine this one replaced.
//
// Most draws are rejections (u ≥ p̃ + m), and those are decided before
// exp is called. With x = (λ_v/k_v·H̃)·dt rounded exactly as p̃'s
// exponent, p̃ = fl(1 − fl(exp(−x))): since 1 − e^{−x} ≤ x and glibc's
// exp is faithfully rounded (error below one ulp, ≤ 2^-53 on
// [1/e, 1]), and 1 − e is exact for e ≥ 1/2 and within 2^-54 below
// it, p̃ ≤ x + 2^-51 for every x < 1. Take a draw u ≥
// fl(fl(x + m) + 2^-48). Draws are below 1, so x + m < 1 and
// fl(x + m) ≥ x + m − 2^-53; hence fl(x + m) + 2^-48 > x + m + 2^-51
// ≥ p̃ + m, and by monotone rounding u ≥ fl(p̃ + m): the exp path
// rejects the draw too. For x ≥ 1 the bound exceeds every draw and
// the test never fires. certify_infection is that decision as a pure
// function; tests/test_sim_certified.cpp checks it against the
// exp-first form on random and boundary inputs, and checks that the
// candidate screen drops nothing the switch would record.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/params.hpp"
#include "core/schedule.hpp"
#include "graph/compressed.hpp"
#include "graph/graph.hpp"
#include "kern/kern.hpp"
#include "sim/compartments.hpp"
#include "util/random.hpp"

namespace rumor::sim {

/// Which stepping engine an AgentSimulation uses. Both are bit-exact
/// replicas of the same stochastic process; kFrontier is the fast one,
/// kDense the O(N + E) reference used by equivalence tests.
enum class AgentEngine : std::uint8_t {
  kDense = 0,
  kFrontier = 1,
};

/// A certified infection decision: the dense engine's outcome, or
/// kUndecided when the draw lies within the margin and only the
/// fixed-order gather can settle it.
enum class InfectionVerdict : std::uint8_t { kNone, kInfect, kUndecided };

/// The frontier engine's infection decision (header note) for a
/// susceptible node with infection draw u, `count` infected exposure
/// sources and exact exposure sum `sum`·`unit` (unit = 2^-s), given the
/// gather error factor D·2^-52, λ_v/k_v and dt. Pure: both frontier
/// step paths decide through it, and it decides exactly as the exp-first
/// comparison u < p̃ ∓ m does.
inline InfectionVerdict certify_infection(double u, std::uint32_t count,
                                          std::int64_t sum, double unit,
                                          double gather_error,
                                          double lambda_over_k, double dt) {
  // x rounds as AgentSimulation::infection_probability's exponent does.
  const kern::InfectionBound bound =
      kern::infection_bound(count, sum, unit, gather_error, lambda_over_k, dt);
  if (u >= kern::rejection_bound(bound)) return InfectionVerdict::kNone;
  const double p = 1.0 - std::exp(-bound.x);
  // The dense engine infects iff u < p_dense, or without a draw when
  // p_dense >= 1, and never when its gather is 0 or p_dense <= 0. With
  // p_dense within the margin of p, u < p − margin is an infection in
  // every case and u >= p + margin is none; the gather settles the rest.
  if (u < p - bound.margin) return InfectionVerdict::kInfect;
  if (u < p + bound.margin) return InfectionVerdict::kUndecided;
  return InfectionVerdict::kNone;
}

struct AgentParams {
  core::Acceptance lambda = core::Acceptance::linear();
  core::Infectivity omega = core::Infectivity::saturating();
  double epsilon1 = 0.0;  ///< immunization rate on susceptibles
  double epsilon2 = 0.0;  ///< blocking rate on infected
  double dt = 0.1;        ///< synchronous step length
  AgentEngine engine = AgentEngine::kFrontier;

  void validate() const;
};

/// Aggregate counts at one time point.
struct Census {
  double t = 0.0;
  std::size_t susceptible = 0;
  std::size_t infected = 0;
  std::size_t recovered = 0;
};

/// The complete dynamic state of an AgentSimulation — everything step()
/// reads besides the graph and AgentParams. Because per-step randomness
/// is a pure function of (seed, step, node), restoring this onto a
/// simulation built from the same graph/params continues the trajectory
/// bit-identically to an uninterrupted run, at any thread count and
/// under either engine (the engines themselves are bit-equivalent). The
/// on-disk form lives in sim/checkpoint.hpp.
struct AgentCheckpoint {
  std::uint64_t seed = 0;
  std::uint64_t step_count = 0;
  double time = 0.0;
  std::array<std::uint64_t, 4> rng_state{};  ///< seeding-draw generator
  std::size_t ever_infected = 0;
  std::vector<Compartment> state;  ///< one entry per node
};

class AgentSimulation {
 public:
  /// The graph must outlive the simulation.
  AgentSimulation(const graph::Graph& g, AgentParams params,
                  std::uint64_t seed);

  /// Run directly on a compressed, sharded graph: neighbor lists are
  /// decoded block-wise into scratch during hazard gathers and
  /// scatters, so the packed CSR is never materialized — the
  /// 100M+-edge out-of-core path. Undirected graphs only (the directed
  /// reverse-CSR build would defeat the point of not materializing).
  /// Trajectories are bit-identical to a simulation on the
  /// decompress()'d graph: decoding reproduces the stored CSR neighbor
  /// order exactly, so every gather sums the same weights in the same
  /// order. If the graph has a resident budget armed
  /// (set_resident_budget), step() calls enforce_budget() after each
  /// step's parallel work completes.
  AgentSimulation(const graph::CompressedGraph& zg, AgentParams params,
                  std::uint64_t seed);

  std::size_t num_nodes() const { return state_.size(); }
  double time() const { return time_; }
  Compartment state(graph::NodeId v) const { return state_.get(v); }
  /// The packed graph — throws unless this simulation was built from
  /// one. Representation-agnostic callers should prefer num_arcs() /
  /// directed() below.
  const graph::Graph& graph() const;
  /// Non-null when running on a compressed graph.
  const graph::CompressedGraph* compressed_graph() const { return zgraph_; }
  std::size_t num_arcs() const {
    return graph_ != nullptr ? graph_->num_arcs() : zgraph_->num_arcs();
  }
  bool directed() const {
    return graph_ != nullptr ? graph_->directed() : zgraph_->directed();
  }
  const AgentParams& params() const { return params_; }
  AgentEngine engine() const { return params_.engine; }
  std::uint64_t step_count() const { return step_count_; }

  /// Infect `count` uniformly random susceptible nodes.
  void seed_random_infections(std::size_t count);

  /// Infect the given nodes (any current state becomes infected).
  void seed_infections(const std::vector<graph::NodeId>& nodes);

  /// Immunize the given nodes up front (state := recovered) — the
  /// "blocking influential users" strategies from the paper's intro.
  void block_nodes(const std::vector<graph::NodeId>& nodes);

  /// Drive ε1/ε2 from a time-varying schedule (e.g. an optimized policy
  /// from control::solve_optimal_control) instead of the constant rates
  /// in AgentParams. Evaluated at the current simulation time each
  /// step. Pass nullptr to revert to the constants.
  void set_control_schedule(
      std::shared_ptr<const core::ControlSchedule> schedule);

  /// Advance one synchronous step of length dt.
  void step();

  /// Run until `t_end` (or until no infected remain, whichever first);
  /// returns the census after every step, starting with the current one.
  std::vector<Census> run_until(double t_end);

  /// As above, but `keep_going` is polled before each step; when it
  /// returns false the run stops after the last completed step. The
  /// simulation object is left in a valid mid-run state — RNG draws are
  /// keyed by (seed, step, node), so checkpointing here and resuming
  /// later continues the trajectory bit-for-bit (see docs/serving.md
  /// for how the daemon uses this to preempt jobs). An empty function
  /// behaves like the unconditional overload.
  std::vector<Census> run_until(double t_end,
                                const std::function<bool()>& keep_going,
                                bool* interrupted = nullptr);

  Census census() const;

  /// Infected density restricted to nodes of exact degree k.
  double infected_density_for_degree(std::size_t k) const;

  /// Microscopic estimate of Θ: (1/⟨k⟩) Σ_k ω(k) P̂(k) Î_k, computed from
  /// the current node states. Comparable to SirNetworkModel::theta.
  double theta_estimate() const;

  /// Per-degree-group densities, aligned with the graph's sorted
  /// distinct degrees — the microscopic counterpart of the ODE state,
  /// e.g. for evaluating the paper's group-quadratic cost J on an agent
  /// trajectory. O(n) per call.
  struct GroupDensities {
    std::vector<std::size_t> degrees;     ///< sorted distinct degrees
    std::vector<double> susceptible;      ///< Ŝ_k per group
    std::vector<double> infected;         ///< Î_k per group
  };
  GroupDensities group_densities() const;

  /// Nodes ever infected (cumulative attack count, including currently
  /// infected and those later blocked from I).
  std::size_t ever_infected() const { return ever_infected_; }

  // ---- frontier diagnostics (benches, stress tests) -----------------

  /// Cumulative CSR entries touched by hazard gathers and infection
  /// scatters since construction. Divide a delta by the step count for
  /// the edges-touched-per-step figure reported by the bench harness.
  std::uint64_t edges_scanned() const { return edges_scanned_; }

  /// Frontier engine only: infection draws that fell inside their
  /// certification margin and were settled by the CSR gather, since
  /// construction.
  std::uint64_t gather_fallbacks() const { return gather_fallbacks_; }

  /// Frontier engine only: the exact exposure sum A_v·2^-s — each
  /// infected source's ω(k_u)/k_u rounded to the fixed-point grid
  /// 2^-s, summed without rounding error.
  double hazard(graph::NodeId v) const;

  /// Frontier engine only: number of infected exposure sources of v.
  std::uint32_t exposure_count(graph::NodeId v) const;

  /// Frontier engine only: size of the active set (susceptible nodes
  /// with at least one infected exposure source).
  std::size_t active_count() const;

  /// Capture the dynamic state for checkpointing.
  AgentCheckpoint checkpoint() const;

  /// Restore a checkpoint captured from a simulation on the same graph
  /// with the same params (the engine may differ — trajectories are
  /// engine-invariant). Derived quantities (census counters, the
  /// infected-weight table, exposure counts and sums, active/infected
  /// sets) are recomputed from the node states — integer sums, so they
  /// equal an uninterrupted run's exactly; the control schedule is NOT
  /// part of the checkpoint — re-attach it before stepping if one was
  /// in use.
  void restore(const AgentCheckpoint& checkpoint);

 private:
  /// A state flip decided during a step, recorded in per-chunk buffers
  /// and applied in chunk order — the deterministic two-phase scatter
  /// that keeps the frontier engine's incremental structures
  /// thread-count invariant.
  struct Transition {
    graph::NodeId node;
    Compartment to;
  };

  /// Per-chunk census and edge deltas for the dense engine's reduction.
  struct StepDelta {
    std::int64_t susceptible = 0;
    std::int64_t infected = 0;
    std::int64_t ever = 0;
    std::uint64_t edges = 0;
  };

  /// Shared constructor body: everything derived from per-node degrees
  /// and the representation-independent buffers.
  void init_common(std::uint64_t seed);

  /// v's degree under either representation (compressed graphs here are
  /// always undirected, so out-degree is the degree).
  std::size_t node_degree(std::size_t v) const {
    return graph_ != nullptr
               ? graph_->degree(static_cast<graph::NodeId>(v))
               : zgraph_->out_degree(static_cast<graph::NodeId>(v));
  }

  /// v's out-neighbors. Packed: a CSR span. Compressed: decoded into
  /// `scratch` — the span stays valid until its next decode.
  std::span<const graph::NodeId> neighbors_of(
      graph::NodeId v, graph::NeighborScratch& scratch) const;

  /// Nodes whose infection exposes v: in-neighbors on a directed graph
  /// (infection flows along out-edges), plain neighbors otherwise.
  std::span<const graph::NodeId> exposure_sources(
      std::size_t v, graph::NeighborScratch& scratch) const {
    if (graph_ != nullptr && graph_->directed()) {
      return {exposure_sources_.data() + exposure_offsets_[v],
              exposure_offsets_[v + 1] - exposure_offsets_[v]};
    }
    return neighbors_of(static_cast<graph::NodeId>(v), scratch);
  }

  void step_dense(double p_immunize, double p_block, std::uint64_t step_key);
  void step_frontier(double p_immunize, double p_block,
                     std::uint64_t step_key);

  /// Fixed-CSR-order exposure sum over an already-fetched source list —
  /// the one definition of a node's infection hazard, shared verbatim
  /// by the dense engine and the frontier engine's fallback on both
  /// graph representations.
  double gather_over(std::span<const graph::NodeId> sources) const {
    return ops_->gather_sum(infected_weight_.data(), sources.data(),
                            sources.size());
  }

  /// p = 1 − exp(−(λ_v/k_v)·hazard·dt), the one expression that turns
  /// an exposure sum into an infection probability (certify_infection
  /// rounds its exponent the same way).
  double infection_probability(std::size_t v, double hazard) const {
    const double rate = lambda_over_k(v) * hazard;
    return 1.0 - std::exp(-rate * params_.dt);
  }

  /// Frontier engine: v's per-step stream key, util::hash_mix(step_key,
  /// v), finished from the premixed table.
  std::uint64_t stream_key(std::uint64_t step_key, graph::NodeId v) const {
    return util::splitmix64(step_key ^ premix_[v]);
  }

  /// Record certify_infection's verdict on susceptible v's infection
  /// draw u in a chunk buffer: an infection, nothing, or an undecided
  /// entry (a transition to kSusceptible) for the serial gather.
  void decide_infection(graph::NodeId v, double u,
                        std::vector<Transition>& out) const;

  /// The dense engine's decision for susceptible v, replayed from its
  /// stream: the fixed-order gather and the reference draw comparison.
  bool infected_by_gather(graph::NodeId v, double p_immunize,
                          std::uint64_t step_key);

  /// Per-node views of the per-group tables: λ(k_v)/k_v, ω(k_v)/k_v,
  /// and ω(k_v)/k_v on the fixed-point grid, round(w_v·2^s).
  double lambda_over_k(std::size_t v) const {
    return group_lambda_over_k_[group_of_[v]];
  }
  double omega_over_k(std::size_t v) const {
    return group_omega_over_k_[group_of_[v]];
  }
  std::int64_t fixed_weight(std::size_t v) const {
    return group_fixed_weight_[group_of_[v]];
  }

  /// Flip v to `to`, maintaining counters, the infected-weight table
  /// and (frontier engine) the exposure counts / sums / active and
  /// infected sets. No-op when v already is in `to`.
  void apply_transition(graph::NodeId v, Compartment to);

  /// Add/remove u's fixed-point weight to/from every node u exposes;
  /// returns the number of CSR entries touched.
  std::size_t scatter_infectiousness(graph::NodeId u, bool became_infectious);

  void active_add(graph::NodeId v);
  void active_remove_if_present(graph::NodeId v);
  void infected_add(graph::NodeId v);
  void infected_remove(graph::NodeId v);

  /// Rebuild exposure counts and sums and the active/infected sets from
  /// the compartment array (restore path).
  void rebuild_frontier();

  bool frontier() const { return params_.engine == AgentEngine::kFrontier; }

  // Exactly one of the two is set; every access goes through the
  // representation-agnostic helpers above.
  const graph::Graph* graph_ = nullptr;
  const graph::CompressedGraph* zgraph_ = nullptr;
  AgentParams params_;
  const kern::Ops* ops_;  // dispatched kernel table, resolved once
  std::shared_ptr<const core::ControlSchedule> control_;
  util::Xoshiro256 rng_;  // seeding only; step() uses counter streams
  std::uint64_t seed_ = 0;
  std::uint64_t step_count_ = 0;
  double time_ = 0.0;
  // Hot per-node state, SoA with 2-bit packed compartments.
  PackedCompartments state_;
  // infected_weight_[u] = ω(k_u)/k_u while u is infected, else 0 —
  // makes the hazard gather a branch-free sum.
  std::vector<double> infected_weight_;
  // Dense engine double buffers (empty under the frontier engine).
  PackedCompartments next_state_;
  std::vector<double> next_infected_weight_;
  std::vector<StepDelta> chunk_deltas_;  // dense engine reduction
  // Frontier engine incremental structures (empty under dense).
  std::vector<std::uint32_t> exposure_count_;  // infected exposure sources
  std::vector<std::int64_t> exposure_sum_;     // A_v, exact fixed point
  double exposure_unit_ = 1.0;                 // 2^-s
  double gather_error_ = 0.0;                  // D·2^-52 (header note)
  std::vector<graph::NodeId> active_list_;     // S nodes with count > 0
  std::vector<std::uint32_t> active_pos_;      // node → index, kNoPos if out
  std::vector<graph::NodeId> infected_list_;
  std::vector<std::uint32_t> infected_pos_;
  // util::premix(v) for every node, shared with every other frontier
  // simulation in the process (premix_table in agent_sim.cpp).
  std::shared_ptr<const std::uint64_t[]> premix_;
  // Per-chunk transition buffers (capacity reserved up front: at most
  // one transition per node, so warm steps never allocate).
  std::vector<std::vector<Transition>> chunk_transitions_;
  // Decode target of the frontier engine's serial scatters, rebuilds
  // and fallback gathers, sized to the maximum degree at construction.
  graph::NeighborScratch decode_scratch_;
  // Reverse (in-neighbor) CSR, built once for directed graphs only.
  std::vector<std::size_t> exposure_offsets_;
  std::vector<graph::NodeId> exposure_sources_;
  std::vector<std::uint32_t> group_of_;     // node → distinct-degree group
  std::vector<std::size_t> group_degrees_;  // sorted distinct degrees
  std::vector<std::size_t> group_sizes_;    // nodes per group
  std::vector<double> group_lambda_over_k_;  // λ(k)/k per group
  std::vector<double> group_omega_over_k_;   // ω(k)/k per group
  std::vector<std::int64_t> group_fixed_weight_;  // frontier: grid ω(k)/k
  std::size_t susceptible_count_ = 0;
  std::size_t infected_count_ = 0;
  std::size_t ever_infected_ = 0;
  std::uint64_t edges_scanned_ = 0;
  std::uint64_t gather_fallbacks_ = 0;
};

}  // namespace rumor::sim
