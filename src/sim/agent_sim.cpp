#include "sim/agent_sim.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <mutex>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace rumor::sim {

namespace {
// Registry handles, resolved once (registration locks; add() never
// does). Leaked so spans in static-duration objects stay valid.
struct SimMetrics {
  obs::Counter& steps;
  obs::Counter& edges_scanned;
  obs::Counter& gather_fallbacks;
  obs::Counter& infections;
  obs::Counter& recoveries;
  obs::Gauge& infected;
  obs::Gauge& frontier_active;
  obs::Gauge& frontier_infected;
};

SimMetrics& sim_metrics() {
  static SimMetrics* const m = [] {
    obs::Registry& r = obs::metrics();
    return new SimMetrics{r.counter("sim.steps"),
                          r.counter("sim.edges_scanned"),
                          r.counter("sim.gather_fallbacks"),
                          r.counter("sim.infections"),
                          r.counter("sim.recoveries"),
                          r.gauge("sim.infected"),
                          r.gauge("sim.frontier_active"),
                          r.gauge("sim.frontier_infected")};
  }();
  return *m;
}

// Nodes (or frontier-list entries) per parallel chunk. Fixed — never
// derived from the thread count — so chunk boundaries, and therefore
// the order transitions are applied in, are a pure function of the
// work size.
constexpr std::size_t kStepGrain = 2048;

// Chunks write the packed next-state array concurrently, so chunk
// boundaries must not split a 64-bit word between two writers.
static_assert(kStepGrain % PackedCompartments::kNodesPerWord == 0,
              "step grain must align to packed-compartment words");

// Sentinel for "node not in this list" in the position indices.
constexpr std::uint32_t kNoPos = 0xFFFFFFFFu;

// A frontier step's infection draw left for the serial gather: steps
// only ever move nodes out of S, so a transition *to* S cannot be a
// decision, and applying it to a susceptible node is a no-op.
constexpr Compartment kUndecided = Compartment::kSusceptible;

// util::premix(v) for every v below at least n. premix(v) depends on v
// alone, so one table serves every frontier simulation in the process:
// constructing one — once per tick in the stream engine — hashes no
// node ids unless its graph is the largest yet. A larger graph replaces
// the table; simulations holding the old one keep it alive. Leaked, as
// sim_metrics() is, so no construction during exit finds it destroyed.
std::shared_ptr<const std::uint64_t[]> premix_table(std::size_t n) {
  struct Cache {
    std::mutex mutex;
    std::shared_ptr<const std::uint64_t[]> table;
    std::size_t size = 0;
  };
  static Cache* const cache = new Cache;
  const std::lock_guard<std::mutex> lock(cache->mutex);
  if (cache->size < n) {
    const auto grown = std::make_shared<std::uint64_t[]>(n);
    for (std::size_t v = 0; v < n; ++v) grown[v] = util::premix(v);
    cache->table = grown;
    cache->size = n;
  }
  return cache->table;
}

// The dense engine's per-thread decode target for compressed-graph
// neighbor lists. One scratch per OS thread (not per simulation):
// decode_neighbors resizes it to whatever graph is being decoded, and
// the returned span is only used before the same thread's next decode.
// The frontier engine decodes only serially, into its own scratch.
thread_local graph::NeighborScratch t_decode_scratch;
}  // namespace

void AgentParams::validate() const {
  util::require(epsilon1 >= 0.0 && epsilon2 >= 0.0,
                "AgentParams: rates must be non-negative");
  util::require(dt > 0.0, "AgentParams: dt must be positive");
  util::require(engine == AgentEngine::kDense ||
                    engine == AgentEngine::kFrontier,
                "AgentParams: unknown engine");
}

AgentSimulation::AgentSimulation(const graph::Graph& g, AgentParams params,
                                 std::uint64_t seed)
    : graph_(&g), params_(params), ops_(&kern::ops()), rng_(seed) {
  init_common(seed);
  if (graph_->directed()) {
    // Reverse CSR: the hazard gather needs "who exposes v", i.e. the
    // in-neighbors, which the (out-)CSR graph does not list directly.
    const std::size_t n = num_nodes();
    exposure_offsets_.assign(n + 1, 0);
    for (std::size_t v = 0; v < n; ++v) {
      exposure_offsets_[v + 1] =
          exposure_offsets_[v] +
          graph_->in_degree(static_cast<graph::NodeId>(v));
    }
    exposure_sources_.resize(exposure_offsets_[n]);
    std::vector<std::size_t> cursor(exposure_offsets_.begin(),
                                    exposure_offsets_.end() - 1);
    for (std::size_t u = 0; u < n; ++u) {
      for (const graph::NodeId v :
           graph_->neighbors(static_cast<graph::NodeId>(u))) {
        exposure_sources_[cursor[v]++] = static_cast<graph::NodeId>(u);
      }
    }
  }
}

AgentSimulation::AgentSimulation(const graph::CompressedGraph& zg,
                                 AgentParams params, std::uint64_t seed)
    : zgraph_(&zg), params_(params), ops_(&kern::ops()), rng_(seed) {
  util::require(!zg.directed(),
                "AgentSimulation: compressed graphs must be undirected — "
                "the directed reverse-CSR build would materialize exactly "
                "the array this path exists to avoid");
  init_common(seed);
  if (frontier()) decode_scratch_.ids.resize(zg.max_degree());
}

const graph::Graph& AgentSimulation::graph() const {
  util::require(graph_ != nullptr,
                "AgentSimulation::graph: simulation runs on a compressed "
                "graph — use num_arcs()/directed()/compressed_graph()");
  return *graph_;
}

std::span<const graph::NodeId> AgentSimulation::neighbors_of(
    graph::NodeId v, graph::NeighborScratch& scratch) const {
  if (graph_ != nullptr) return graph_->neighbors(v);
  const std::size_t count = zgraph_->decode_neighbors(v, scratch);
  return {scratch.ids.data(), count};
}

void AgentSimulation::init_common(std::uint64_t seed) {
  seed_ = seed;
  params_.validate();
  const std::size_t n =
      graph_ != nullptr ? graph_->num_nodes() : zgraph_->num_nodes();
  util::require(n > 0, "AgentSimulation: empty graph");
  state_.assign(n, Compartment::kSusceptible);
  infected_weight_.assign(n, 0.0);
  susceptible_count_ = n;
  // Degree groups by counting sort; λ(k)/k and ω(k)/k are evaluated once
  // per distinct degree, and nodes look them up through their group.
  std::vector<std::uint32_t> degrees(n);
  std::size_t max_degree = 0;
  std::size_t max_sources = 0;  // longest exposure list
  for (std::size_t v = 0; v < n; ++v) {
    const std::size_t degree = node_degree(v);
    degrees[v] = static_cast<std::uint32_t>(degree);
    max_degree = std::max(max_degree, degree);
    max_sources = std::max(
        max_sources,
        directed() ? graph_->in_degree(static_cast<graph::NodeId>(v))
                   : degree);
  }
  std::vector<std::uint32_t> group_index(max_degree + 1, 0);
  for (const std::uint32_t degree : degrees) ++group_index[degree];
  for (std::size_t degree = 0; degree <= max_degree; ++degree) {
    if (group_index[degree] == 0) continue;
    group_sizes_.push_back(group_index[degree]);
    group_index[degree] = static_cast<std::uint32_t>(group_degrees_.size());
    group_degrees_.push_back(degree);
    const auto k = static_cast<double>(degree);
    // Isolated nodes cannot catch or spread.
    group_lambda_over_k_.push_back(k > 0.0 ? params_.lambda(k) / k : 0.0);
    group_omega_over_k_.push_back(k > 0.0 ? params_.omega(k) / k : 0.0);
  }
  group_of_.resize(n);
  for (std::size_t v = 0; v < n; ++v) group_of_[v] = group_index[degrees[v]];
  // Every per-step buffer is sized once here so warm steps never touch
  // the allocator (pinned by tests/test_perf_alloc.cpp). A full sweep
  // needs ceil(n / grain) chunks; the sparse path runs two back-to-back
  // regions over disjoint node sets, which can need one extra chunk per
  // region for the remainders.
  const std::size_t max_chunks = (n + kStepGrain - 1) / kStepGrain + 2;
  if (params_.engine == AgentEngine::kDense) {
    next_state_.assign(n, Compartment::kSusceptible);
    next_infected_weight_.assign(n, 0.0);
    chunk_deltas_.assign(max_chunks, StepDelta{});
  } else {
    // Fixed-point scale: with w < 2^(e+1) and D < 2^bits sources,
    // s = 51 − e − bits keeps every A_v below D·(w·2^s + 1/2) < 2^53,
    // so sums neither overflow nor round when read as doubles. Capped
    // so that 2^-(s+1) stays representable for vanishing weights.
    const double w_max = *std::max_element(group_omega_over_k_.begin(),
                                           group_omega_over_k_.end());
    util::require(std::isfinite(w_max),
                  "AgentSimulation: infectivity weights must be finite");
    const int bits = static_cast<int>(std::bit_width(max_sources));
    const int scale =
        w_max > 0.0 ? std::min(51 - std::ilogb(w_max) - bits, 1000) : 0;
    exposure_unit_ = std::ldexp(1.0, -scale);
    for (const double w : group_omega_over_k_) {
      group_fixed_weight_.push_back(std::llround(std::ldexp(w, scale)));
    }
    gather_error_ = static_cast<double>(max_sources) * 0x1p-52;
    exposure_count_.assign(n, 0);
    exposure_sum_.assign(n, 0);
    active_pos_.assign(n, kNoPos);
    infected_pos_.assign(n, kNoPos);
    premix_ = premix_table(n);
    active_list_.reserve(n);
    infected_list_.reserve(n);
    chunk_transitions_.resize(max_chunks);
    for (auto& buffer : chunk_transitions_) buffer.reserve(kStepGrain);
  }
}

AgentSimulation::GroupDensities AgentSimulation::group_densities() const {
  GroupDensities out;
  out.degrees = group_degrees_;
  out.susceptible.assign(group_degrees_.size(), 0.0);
  out.infected.assign(group_degrees_.size(), 0.0);
  for (std::size_t v = 0; v < num_nodes(); ++v) {
    if (state_.get(v) == Compartment::kSusceptible) {
      out.susceptible[group_of_[v]] += 1.0;
    } else if (state_.get(v) == Compartment::kInfected) {
      out.infected[group_of_[v]] += 1.0;
    }
  }
  for (std::size_t gi = 0; gi < group_degrees_.size(); ++gi) {
    const auto size = static_cast<double>(group_sizes_[gi]);
    out.susceptible[gi] /= size;
    out.infected[gi] /= size;
  }
  return out;
}

void AgentSimulation::seed_random_infections(std::size_t count) {
  util::require(count <= num_nodes(),
                "seed_infections: more seeds than nodes");
  std::vector<graph::NodeId> susceptible;
  susceptible.reserve(num_nodes());
  for (std::size_t v = 0; v < num_nodes(); ++v) {
    if (state_.get(v) == Compartment::kSusceptible) {
      susceptible.push_back(static_cast<graph::NodeId>(v));
    }
  }
  util::require(count <= susceptible.size(),
                "seed_infections: not enough susceptible nodes");
  const auto picks =
      util::sample_without_replacement(susceptible.size(), count, rng_);
  std::vector<graph::NodeId> nodes;
  nodes.reserve(picks.size());
  for (const std::size_t p : picks) nodes.push_back(susceptible[p]);
  seed_infections(nodes);
}

void AgentSimulation::seed_infections(
    const std::vector<graph::NodeId>& nodes) {
  for (const graph::NodeId v : nodes) {
    util::require(v < num_nodes(), "seed_infections: node out of range");
    apply_transition(v, Compartment::kInfected);
  }
}

void AgentSimulation::block_nodes(const std::vector<graph::NodeId>& nodes) {
  for (const graph::NodeId v : nodes) {
    util::require(v < num_nodes(), "block_nodes: node out of range");
    apply_transition(v, Compartment::kRecovered);
  }
}

void AgentSimulation::set_control_schedule(
    std::shared_ptr<const core::ControlSchedule> schedule) {
  control_ = std::move(schedule);
}

// gather_over (agent_sim.hpp) is the one definition of a node's
// exposure: a fixed summation scheme over the full CSR source list.
// The dense engine and the frontier engine's fallback call exactly
// this — the same kernel of the same backend: non-infected sources
// contribute a true 0.0, and adding 0.0 anywhere in a sum of
// non-negative IEEE doubles does not perturb it, so the result is a
// pure function of the infected weights in CSR order under whichever
// lane split the backend uses. Compressed graphs decode the identical
// stored order, so the same argument covers both representations. The
// frontier engine's certified decisions hold for every summation order
// (agent_sim.hpp), so they agree with the gather on any backend.

void AgentSimulation::step() {
  const obs::TraceSpan span("sim.step");
  const double dt = params_.dt;
  const double e1 =
      control_ ? control_->epsilon1(time_) : params_.epsilon1;
  const double e2 =
      control_ ? control_->epsilon2(time_) : params_.epsilon2;
  const double p_immunize = 1.0 - std::exp(-e1 * dt);
  const double p_block = 1.0 - std::exp(-e2 * dt);
  const std::uint64_t step_key = util::hash_mix(seed_, step_count_);
  // Telemetry from the census counters the step maintains anyway:
  // within one step nodes only move S->I, S->R, or I->R, so the
  // ever-infected and recovered counts are monotone and their deltas
  // are this step's infection / recovery totals.
  const std::size_t ever_before = ever_infected_;
  const std::size_t recovered_before =
      num_nodes() - susceptible_count_ - infected_count_;
  const std::uint64_t edges_before = edges_scanned_;
  const std::uint64_t fallbacks_before = gather_fallbacks_;
  if (frontier()) {
    step_frontier(p_immunize, p_block, step_key);
  } else {
    step_dense(p_immunize, p_block, step_key);
  }
  ++step_count_;
  time_ += dt;
  if (zgraph_ != nullptr) {
    // Out-of-core sweep: all of this step's parallel decodes are done,
    // so it is safe to advise the coldest shards' pages out. Touch
    // tracking during the step decided which shards are cold.
    zgraph_->enforce_budget();
  }
  SimMetrics& m = sim_metrics();
  m.steps.add();
  m.edges_scanned.add(edges_scanned_ - edges_before);
  m.gather_fallbacks.add(gather_fallbacks_ - fallbacks_before);
  m.infections.add(ever_infected_ - ever_before);
  m.recoveries.add(num_nodes() - susceptible_count_ - infected_count_ -
                   recovered_before);
  m.infected.set(static_cast<double>(infected_count_));
  if (frontier()) {
    m.frontier_active.set(static_cast<double>(active_list_.size()));
    m.frontier_infected.set(static_cast<double>(infected_list_.size()));
  }
}

void AgentSimulation::step_dense(double p_immunize, double p_block,
                                 std::uint64_t step_key) {
  const std::size_t n = num_nodes();

  // One fused pass per chunk: gather the hazard of each susceptible
  // node from the current (read-only) state/weight buffers, draw its
  // transitions from its per-node counter stream, and write the
  // double-buffered next_* arrays (chunks are word-aligned, race-free).
  util::parallel_for_chunks(
      std::size_t{0}, n, kStepGrain,
      [&](std::size_t chunk, std::size_t lo, std::size_t hi) {
        const obs::TraceSpan chunk_span("sim.chunk");
        StepDelta d;
        for (std::size_t v = lo; v < hi; ++v) {
          const Compartment cur = state_.get(v);
          Compartment next = cur;
          double weight = 0.0;
          switch (cur) {
            case Compartment::kSusceptible: {
              util::CounterRng draw(util::hash_mix(step_key, v));
              // Truth wins ties: test immunization first.
              if (draw.bernoulli(p_immunize)) {
                next = Compartment::kRecovered;
                --d.susceptible;
              } else {
                // One fetch serves both the gather and the edge count —
                // on compressed graphs a fetch is a varint decode, so
                // calling exposure_sources twice would double the work.
                const auto sources = exposure_sources(v, t_decode_scratch);
                d.edges += sources.size();
                const double hazard = gather_over(sources);
                if (hazard > 0.0) {
                  if (draw.bernoulli(infection_probability(v, hazard))) {
                    next = Compartment::kInfected;
                    weight = omega_over_k(v);
                    --d.susceptible;
                    ++d.infected;
                    ++d.ever;
                  }
                }
              }
              break;
            }
            case Compartment::kInfected: {
              util::CounterRng draw(util::hash_mix(step_key, v));
              if (draw.bernoulli(p_block)) {
                next = Compartment::kRecovered;
                --d.infected;
              } else {
                weight = omega_over_k(v);
              }
              break;
            }
            case Compartment::kRecovered:
              break;
          }
          next_state_.set(v, next);
          next_infected_weight_[v] = weight;
        }
        chunk_deltas_[chunk] = d;
      });

  state_.swap(next_state_);
  infected_weight_.swap(next_infected_weight_);
  const std::size_t chunks = (n + kStepGrain - 1) / kStepGrain;
  for (std::size_t c = 0; c < chunks; ++c) {
    susceptible_count_ = static_cast<std::size_t>(
        static_cast<std::int64_t>(susceptible_count_) +
        chunk_deltas_[c].susceptible);
    infected_count_ = static_cast<std::size_t>(
        static_cast<std::int64_t>(infected_count_) +
        chunk_deltas_[c].infected);
    ever_infected_ += static_cast<std::size_t>(chunk_deltas_[c].ever);
    edges_scanned_ += chunk_deltas_[c].edges;
  }
}

void AgentSimulation::step_frontier(double p_immunize, double p_block,
                                    std::uint64_t step_key) {
  std::size_t used_chunks = 0;

  if (p_immunize > 0.0) {
    // Immunization steps: every susceptible node needs a draw. The draw
    // sweep keeps the nodes whose first draw falls under the larger of
    // the two flip probabilities, and those with an infected exposure
    // source. Any other node fails its immunization or blocking draw
    // and has nothing to catch, so the switch below would record no
    // transition for it: the transitions, and their order, are those
    // of a sweep over every node. The sweep returns each kept node's
    // stream key with its id, so the screen and the loop below re-draw
    // from it.
    const std::size_t n = num_nodes();
    const std::uint64_t threshold =
        kern::draw_threshold(std::max(p_immunize, p_block));
    const kern::ScreenInputs screen{state_.words(),
                                    exposure_count_.data(),
                                    exposure_sum_.data(),
                                    group_of_.data(),
                                    group_lambda_over_k_.data(),
                                    exposure_unit_,
                                    gather_error_,
                                    params_.dt,
                                    kern::draw_threshold(p_immunize),
                                    kern::draw_threshold(p_block)};
    used_chunks = (n + kStepGrain - 1) / kStepGrain;
    util::parallel_for_chunks(
        std::size_t{0}, n, kStepGrain,
        [&](std::size_t chunk, std::size_t lo, std::size_t hi) {
          const obs::TraceSpan chunk_span("sim.chunk");
          auto& out = chunk_transitions_[chunk];
          out.clear();
          std::uint32_t candidates[kStepGrain];
          std::uint64_t keys[kStepGrain];
          const std::size_t drawn = ops_->draw_candidates(
              step_key, threshold, exposure_count_.data(), premix_.get(), lo,
              hi, candidates, keys);
          // The screen drops, in place, every candidate for which the
          // switch below would record nothing, by the switch's own
          // arithmetic (kern.hpp), so the switch sees the few that can
          // transition.
          const std::size_t count =
              ops_->screen_candidates(screen, candidates, keys, drawn);
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
        });
  } else {
    // Sparse steps: only the active set (susceptibles with an infected
    // exposure source) and the infected set can flip. Unvisited nodes
    // consume no draws in the dense engine either (p <= 0 Bernoulli
    // trials are free, zero-hazard nodes never reach their infection
    // draw), and every node owns its own stream, so skipping them
    // cannot shift anyone else's randomness.
    const std::size_t active = active_list_.size();
    const std::size_t active_chunks =
        (active + kStepGrain - 1) / kStepGrain;
    util::parallel_for_chunks(
        std::size_t{0}, active, kStepGrain,
        [&](std::size_t chunk, std::size_t lo, std::size_t hi) {
          const obs::TraceSpan chunk_span("sim.chunk");
          auto& out = chunk_transitions_[chunk];
          out.clear();
          for (std::size_t at = lo; at < hi; ++at) {
            const graph::NodeId v = active_list_[at];
            util::CounterRng draw(stream_key(step_key, v));
            decide_infection(v, draw.uniform(), out);
          }
        });
    used_chunks = active_chunks;
    if (p_block > 0.0) {
      const std::size_t infected = infected_list_.size();
      util::parallel_for_chunks(
          std::size_t{0}, infected, kStepGrain,
          [&](std::size_t chunk, std::size_t lo, std::size_t hi) {
            auto& out = chunk_transitions_[active_chunks + chunk];
            out.clear();
            for (std::size_t at = lo; at < hi; ++at) {
              const graph::NodeId v = infected_list_[at];
              util::CounterRng draw(stream_key(step_key, v));
              if (draw.bernoulli(p_block)) {
                out.push_back({v, Compartment::kRecovered});
              }
            }
          });
      used_chunks += (infected + kStepGrain - 1) / kStepGrain;
    }
  }

  // Settle the draws that fell inside their certification margin with
  // the reference gather: serially, so no parallel phase ever decodes a
  // neighbor list, and before any transition applies, so every gather
  // reads the step-start state.
  for (std::size_t c = 0; c < used_chunks; ++c) {
    for (Transition& t : chunk_transitions_[c]) {
      if (t.to != kUndecided) continue;
      ++gather_fallbacks_;
      if (infected_by_gather(t.node, p_immunize, step_key)) {
        t.to = Compartment::kInfected;
      }
    }
  }

  // Apply phase, serial and in chunk order: decisions were made against
  // the step-start state, each node appears at most once, and integer
  // exposure updates commute — so the trajectory is identical for any
  // thread count (and to the dense engine's double-buffered swap).
  for (std::size_t c = 0; c < used_chunks; ++c) {
    for (const Transition& t : chunk_transitions_[c]) {
      apply_transition(t.node, t.to);
    }
  }
}

void AgentSimulation::decide_infection(graph::NodeId v, double u,
                                       std::vector<Transition>& out) const {
  switch (certify_infection(u, exposure_count_[v], exposure_sum_[v],
                            exposure_unit_, gather_error_, lambda_over_k(v),
                            params_.dt)) {
    case InfectionVerdict::kInfect:
      out.push_back({v, Compartment::kInfected});
      break;
    case InfectionVerdict::kUndecided:
      out.push_back({v, kUndecided});
      break;
    case InfectionVerdict::kNone:
      break;
  }
}

bool AgentSimulation::infected_by_gather(graph::NodeId v, double p_immunize,
                                         std::uint64_t step_key) {
  util::CounterRng draw(stream_key(step_key, v));
  // Replays the immunization draw (which failed) so the infection draw
  // below is the one the dense engine compares.
  static_cast<void>(draw.bernoulli(p_immunize));
  const auto sources = exposure_sources(v, decode_scratch_);
  edges_scanned_ += sources.size();
  const double hazard = gather_over(sources);
  return hazard > 0.0 && draw.bernoulli(infection_probability(v, hazard));
}

void AgentSimulation::apply_transition(graph::NodeId v, Compartment to) {
  const Compartment from = state_.get(v);
  if (from == to) return;
  if (from == Compartment::kSusceptible) --susceptible_count_;
  if (from == Compartment::kInfected) --infected_count_;
  if (to == Compartment::kSusceptible) ++susceptible_count_;
  if (to == Compartment::kInfected) {
    ++infected_count_;
    ++ever_infected_;  // counts re-seeding of recovered nodes too
  }
  state_.set(v, to);
  if (frontier()) {
    if (from == Compartment::kSusceptible) active_remove_if_present(v);
    if (from == Compartment::kInfected) infected_remove(v);
    if (to == Compartment::kInfected) infected_add(v);
    if (to == Compartment::kSusceptible && exposure_count_[v] > 0) {
      active_add(v);
    }
  }
  if (to == Compartment::kInfected) {
    infected_weight_[v] = omega_over_k(v);
    if (frontier()) edges_scanned_ += scatter_infectiousness(v, true);
  } else if (from == Compartment::kInfected) {
    infected_weight_[v] = 0.0;
    if (frontier()) edges_scanned_ += scatter_infectiousness(v, false);
  }
}

std::size_t AgentSimulation::scatter_infectiousness(graph::NodeId u,
                                                    bool became_infectious) {
  // u's out-neighbors are exactly the nodes whose exposure list
  // contains u (for undirected graphs, neighbors == exposure sources).
  const std::int64_t weight = fixed_weight(u);
  const auto targets = neighbors_of(u, decode_scratch_);
  for (const graph::NodeId t : targets) {
    if (became_infectious) {
      exposure_sum_[t] += weight;
      if (++exposure_count_[t] == 1 &&
          state_.get(t) == Compartment::kSusceptible) {
        active_add(t);
      }
    } else {
      exposure_sum_[t] -= weight;
      if (--exposure_count_[t] == 0) active_remove_if_present(t);
    }
  }
  return targets.size();
}

void AgentSimulation::active_add(graph::NodeId v) {
  active_pos_[v] = static_cast<std::uint32_t>(active_list_.size());
  active_list_.push_back(v);
}

void AgentSimulation::active_remove_if_present(graph::NodeId v) {
  const std::uint32_t at = active_pos_[v];
  if (at == kNoPos) return;
  const graph::NodeId last = active_list_.back();
  active_list_[at] = last;
  active_pos_[last] = at;
  active_list_.pop_back();
  active_pos_[v] = kNoPos;
}

void AgentSimulation::infected_add(graph::NodeId v) {
  infected_pos_[v] = static_cast<std::uint32_t>(infected_list_.size());
  infected_list_.push_back(v);
}

void AgentSimulation::infected_remove(graph::NodeId v) {
  const std::uint32_t at = infected_pos_[v];
  const graph::NodeId last = infected_list_.back();
  infected_list_[at] = last;
  infected_pos_[last] = at;
  infected_list_.pop_back();
  infected_pos_[v] = kNoPos;
}

void AgentSimulation::rebuild_frontier() {
  std::fill(exposure_count_.begin(), exposure_count_.end(), 0);
  std::fill(exposure_sum_.begin(), exposure_sum_.end(), 0);
  std::fill(active_pos_.begin(), active_pos_.end(), kNoPos);
  std::fill(infected_pos_.begin(), infected_pos_.end(), kNoPos);
  active_list_.clear();
  infected_list_.clear();
  // One scatter per infected node: O(n + Σ infected degrees), and on a
  // compressed graph only the infected nodes' lists are decoded.
  for (std::size_t v = 0; v < num_nodes(); ++v) {
    if (state_.get(v) != Compartment::kInfected) continue;
    const auto id = static_cast<graph::NodeId>(v);
    infected_add(id);
    scatter_infectiousness(id, true);
  }
}

double AgentSimulation::hazard(graph::NodeId v) const {
  util::require(frontier(), "hazard: frontier engine only");
  util::require(v < num_nodes(), "hazard: node out of range");
  return static_cast<double>(exposure_sum_[v]) * exposure_unit_;
}

std::uint32_t AgentSimulation::exposure_count(graph::NodeId v) const {
  util::require(frontier(), "exposure_count: frontier engine only");
  util::require(v < num_nodes(), "exposure_count: node out of range");
  return exposure_count_[v];
}

std::size_t AgentSimulation::active_count() const {
  util::require(frontier(), "active_count: frontier engine only");
  return active_list_.size();
}

AgentCheckpoint AgentSimulation::checkpoint() const {
  AgentCheckpoint c;
  c.seed = seed_;
  c.step_count = step_count_;
  c.time = time_;
  c.rng_state = rng_.state();
  c.ever_infected = ever_infected_;
  c.state.resize(num_nodes());
  for (std::size_t v = 0; v < num_nodes(); ++v) c.state[v] = state_.get(v);
  return c;
}

void AgentSimulation::restore(const AgentCheckpoint& checkpoint) {
  util::require(checkpoint.state.size() == num_nodes(),
                "AgentSimulation::restore: checkpoint has " +
                    std::to_string(checkpoint.state.size()) +
                    " nodes, simulation has " +
                    std::to_string(num_nodes()));
  seed_ = checkpoint.seed;
  step_count_ = checkpoint.step_count;
  time_ = checkpoint.time;
  rng_.set_state(checkpoint.rng_state);
  ever_infected_ = checkpoint.ever_infected;
  // Recompute every derived quantity from the node states so the
  // restored object is exactly what an uninterrupted run would hold.
  for (std::size_t v = 0; v < num_nodes(); ++v) {
    const Compartment c = checkpoint.state[v];
    util::require(c <= Compartment::kRecovered,
                  "AgentSimulation::restore: invalid compartment");
    state_.set(v, c);
    infected_weight_[v] =
        c == Compartment::kInfected ? omega_over_k(v) : 0.0;
  }
  std::size_t infected = 0, recovered = 0;
  state_.census(infected, recovered);
  infected_count_ = infected;
  susceptible_count_ = num_nodes() - infected - recovered;
  util::require(ever_infected_ >= infected_count_,
                "AgentSimulation::restore: ever_infected below the current "
                "infected count — inconsistent checkpoint");
  if (frontier()) rebuild_frontier();
}

std::vector<Census> AgentSimulation::run_until(double t_end) {
  return run_until(t_end, {});
}

std::vector<Census> AgentSimulation::run_until(
    double t_end, const std::function<bool()>& keep_going,
    bool* interrupted) {
  util::require(t_end >= time_, "run_until: t_end is in the past");
  if (interrupted != nullptr) *interrupted = false;
  std::vector<Census> history;
  history.push_back(census());
  while (time_ < t_end && infected_count_ > 0) {
    if (keep_going && !keep_going()) {
      if (interrupted != nullptr) *interrupted = true;
      break;
    }
    step();
    history.push_back(census());
  }
  return history;
}

Census AgentSimulation::census() const {
  // O(1): the counters are maintained incrementally by step(),
  // seed_infections, and block_nodes.
  Census c;
  c.t = time_;
  c.susceptible = susceptible_count_;
  c.infected = infected_count_;
  c.recovered = num_nodes() - susceptible_count_ - infected_count_;
  return c;
}

double AgentSimulation::infected_density_for_degree(std::size_t k) const {
  std::size_t with_degree = 0;
  std::size_t infected = 0;
  for (std::size_t v = 0; v < num_nodes(); ++v) {
    if (group_degrees_[group_of_[v]] != k) continue;
    ++with_degree;
    if (state_.get(v) == Compartment::kInfected) ++infected;
  }
  if (with_degree == 0) return 0.0;
  return static_cast<double>(infected) / static_cast<double>(with_degree);
}

double AgentSimulation::theta_estimate() const {
  // Θ̂ = (1/⟨k⟩) Σ_k ω(k) P̂(k) Î_k = (1/(N⟨k⟩)) Σ_{v infected} ω(k_v).
  double sum = 0.0;
  double degree_total = 0.0;
  for (std::size_t v = 0; v < num_nodes(); ++v) {
    // Degrees come from the cached group table, not the graph — one
    // code path for both representations, no decode on the compressed
    // one.
    const auto k = static_cast<double>(group_degrees_[group_of_[v]]);
    degree_total += k;
    if (state_.get(v) == Compartment::kInfected && k > 0.0) {
      sum += params_.omega(k);
    }
  }
  const double mean_k = degree_total / static_cast<double>(num_nodes());
  if (mean_k == 0.0) return 0.0;
  return sum / (static_cast<double>(num_nodes()) * mean_k);
}

}  // namespace rumor::sim
