// On-disk form of AgentSimulation checkpoints ("AGENTSIM" containers).
//
// Sections:
//   agent.meta    format guard: num_nodes · num_arcs · directed · dt ·
//                 seed · step_count · time · rng state · ever_infected
//   agent.state   one byte per node (compartment)
//
// Checkpoints from older frontier engines may also carry agent.hazard
// (one f64 per node, their floating-point exposure sums). It is no
// longer written; on load its size is validated and its values are
// ignored, since the restore recomputes the exact exposure sums from
// the states.
//
// The meta section pins the run configuration: restoring onto a
// simulation whose graph shape or dt differs fails with util::IoError
// rather than silently resuming a different experiment. The append/
// restore pair operates on an open container so callers (rumorctl) can
// ride extra sections — e.g. the recorded census history — in the same
// atomic file.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "io/container.hpp"
#include "sim/agent_sim.hpp"

namespace rumor::sim {

inline constexpr char kAgentRunKind[] = "AGENTSIM";

/// Append the simulation's checkpoint sections to an open container.
void append_agent_checkpoint(io::ContainerWriter& writer,
                             const AgentSimulation& simulation);

/// Parse and validate the checkpoint sections against `simulation`'s
/// graph and params, then restore. Throws util::IoError on corruption
/// or configuration mismatch.
void restore_agent_checkpoint(const io::ContainerReader& reader,
                              AgentSimulation& simulation);

/// Compartment bytes state_crc hashes per io::crc32 call.
inline constexpr std::size_t kStateCrcBlock = 4096;

/// CRC32 of the per-node compartment bytes (one byte per node, in node
/// order, as agent.state stores them), continuing from `seed`: a
/// resume-invariant fingerprint of the microscopic state. The bytes
/// pass through one kStateCrcBlock-byte stack block, so it does not
/// allocate.
std::uint32_t state_crc(const AgentSimulation& simulation,
                        std::uint32_t seed = 0);

/// One-call convenience wrappers around a kAgentRunKind container.
void save_agent_checkpoint(const AgentSimulation& simulation,
                           const std::string& path);
void load_agent_checkpoint(AgentSimulation& simulation,
                           const std::string& path);

}  // namespace rumor::sim
