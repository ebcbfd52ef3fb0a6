// StreamEngine: the online streaming control loop (ROADMAP item 5).
//
// One engine owns the three cooperating pieces and wires them end to
// end over a live event feed:
//
//   events ──> LiveGraph (+ param drift)          [ingest, batched]
//                  │ tick: lazy rebuild via checkpoint/restore
//                  ▼
//              sim::AgentSimulation  ──census──> OnlineEstimator
//                  ▲                                   │ λ̂, σ
//                  └── control schedule ── RollingPlanner (budgeted MPC)
//
// Tick protocol (docs/streaming.md): edge/param events only mark state
// dirty; at the next `tick` the engine captures the simulation's
// checkpoint (node states only), freezes the LiveGraph into a fresh
// CSR, reconstructs the simulation, and restores the checkpoint, which
// recomputes the exposure structures against the new topology. Because
// per-step randomness is keyed by (seed, step, node) — independent of
// topology and thread count — the rebuilt run continues the same
// trajectory the uninterrupted graph would have produced under the new
// topology.
//
// Determinism contract: every field of every DecisionRow is a pure
// function of (config, event sequence). Wall-clock timings are recorded
// to stream.* metrics and the refit_ms()/plan_ms() diagnostic buffers
// only — never into a row — so replayed logs and checkpoint-resumed
// runs produce bitwise-identical decision traces and state CRCs at any
// thread count (pinned by tests/test_stream_engine.cpp). The one
// opt-in exception is PlannerOptions::budget_ms (see planner.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/agent_sim.hpp"
#include "stream/estimator.hpp"
#include "stream/event.hpp"
#include "stream/live_graph.hpp"
#include "stream/planner.hpp"

namespace rumor::stream {

/// Container kind of a streaming-run checkpoint.
inline constexpr char kStreamCheckpointKind[] = "STREAMCK";

struct StreamConfig {
  std::size_t num_nodes = 0;  ///< fixed node universe
  bool directed = false;
  double dt = 0.1;            ///< tick = one synchronous step of dt
  std::uint64_t seed = 1;
  sim::AgentEngine engine = sim::AgentEngine::kFrontier;
  double lambda_scale = 1.0;  ///< initial *true* acceptance scale
  double alpha = 0.05;        ///< model α for the estimator/planner
  std::size_t replan_every = 5;  ///< ticks between replan attempts
  std::size_t refit_every = 5;   ///< ticks between refit attempts
  /// Plan exactly once (the static day-0 baseline) instead of rolling —
  /// the open-loop arm of the closed-vs-open comparison.
  bool open_loop = false;
  EstimatorOptions estimator;
  PlannerOptions planner;

  void validate() const;
};

/// One row of the decision trace — deterministic fields only.
struct DecisionRow {
  std::uint64_t tick = 0;
  double t = 0.0;     ///< simulation time at the start of the tick
  double eps1 = 0.0;  ///< controls applied during the tick
  double eps2 = 0.0;
  bool refit = false;          ///< estimator produced a new estimate
  bool replanned = false;      ///< a new schedule was published
  bool deadline_miss = false;  ///< budget cutoff; previous tail kept
  double lambda_hat = 0.0;     ///< 0 until the first valid estimate
  double lambda_stddev = 0.0;
  double prevalence = 0.0;  ///< population infected density, pre-step
  double predicted_objective = 0.0;  ///< J of the active plan
  double realized_running = 0.0;     ///< cumulative realized running cost
  double regret = 0.0;  ///< realized − predicted, last completed segment
};

/// CSV encoding of the trace (rumorctl stream, CI validation).
std::string decision_csv_header();
std::string decision_csv_row(const DecisionRow& row);

class StreamEngine {
 public:
  explicit StreamEngine(const StreamConfig& config);

  /// Ingest one event (see event.hpp for semantics). Topology and
  /// parameter mutations are batched until the next tick.
  void apply(const Event& event);

  const StreamConfig& config() const { return config_; }
  std::uint64_t tick_count() const { return tick_count_; }
  std::uint64_t events_ingested() const { return events_; }
  double time() const { return sim_->time(); }
  sim::Census census() const { return sim_->census(); }

  const std::vector<DecisionRow>& decisions() const { return decisions_; }
  /// Rolling CRC32 over the serialized decision rows — the trace
  /// fingerprint the replay/resume tests pin.
  std::uint32_t decision_crc() const { return crc_; }
  /// CRC32 of the per-node compartment bytes (sim::state_crc).
  std::uint32_t state_crc() const;

  /// Realized objective so far: the running-cost integral accumulated
  /// over every tick plus the terminal term W·Σ_k Î_k at the current
  /// state — measured identically for open- and closed-loop runs.
  double realized_objective() const;
  double realized_running() const { return realized_running_; }

  const Estimate& estimate() const { return estimator_.estimate(); }
  std::uint64_t deadline_misses() const { return planner_.misses(); }
  std::uint64_t plans() const { return planner_.plans(); }

  /// Wall-clock diagnostics (milliseconds per refit / replan attempt).
  /// Deliberately NOT part of the decision trace.
  const std::vector<double>& refit_ms() const { return refit_ms_; }
  const std::vector<double>& plan_ms() const { return plan_ms_; }

  /// Persist the full streaming state (topology, simulation, estimator
  /// window, active plan, decision trace) as a kStreamCheckpointKind
  /// container. Syncs pending topology first, which is
  /// decision-invariant (see the tick protocol above).
  void save_checkpoint(const std::string& path);

  /// Restore a checkpoint written by save_checkpoint. The engine must
  /// have been constructed with the same config (guard fields are
  /// validated; mismatch throws util::IoError). Continues the run
  /// bit-identically to one that was never interrupted.
  void restore_checkpoint(const std::string& path);

 private:
  /// Rebuild CSR + simulation after batched topology/parameter deltas.
  void sync_sim();
  void on_tick();
  sim::AgentParams agent_params() const;
  /// Σ_k c1 ε1² Ŝ_k² + c2 ε2² Î_k² over the full distinct-degree
  /// census — the realized counterpart of the planner's running cost.
  double realized_integrand(double eps1, double eps2) const;
  double census_prevalence() const;

  StreamConfig config_;
  LiveGraph live_;
  std::unique_ptr<graph::Graph> csr_;
  std::unique_ptr<sim::AgentSimulation> sim_;
  bool topo_dirty_ = false;
  bool params_dirty_ = false;
  double lambda_scale_true_;

  OnlineEstimator estimator_;
  RollingPlanner planner_;
  bool planned_once_ = false;
  double last_predicted_objective_ = 0.0;

  std::uint64_t tick_count_ = 0;
  std::uint64_t events_ = 0;
  std::uint64_t pending_since_tick_ = 0;

  std::vector<DecisionRow> decisions_;
  std::uint32_t crc_ = 0;

  double realized_running_ = 0.0;
  double segment_realized_ = 0.0;
  double predicted_segment_ = 0.0;
  bool have_segment_ = false;
  double last_regret_ = 0.0;

  std::vector<double> refit_ms_;
  std::vector<double> plan_ms_;
};

}  // namespace rumor::stream
