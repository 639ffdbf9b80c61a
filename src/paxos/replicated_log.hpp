// A replicated log built from single-decree Paxos instances, one per slot
// (multi-Paxos without a distinguished leader: every append runs both
// phases; concurrent appends to the same slot are resolved by Paxos itself
// and the loser moves to the next slot).
//
// The log is the cooperative tier's configuration log (collab/): each region
// appends the cache configuration it installs, and the decided prefix is
// the config epoch every region agrees on.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "paxos/proposer.hpp"

namespace agar::paxos {

struct AppendOutcome {
  bool ok = false;
  std::size_t slot = 0;      ///< where the record landed
  SimTimeMs latency_ms = 0.0;
  std::uint32_t slots_tried = 0;
};

class ReplicatedLog {
 public:
  /// One acceptor per region (the log is replicated everywhere Agar runs).
  ReplicatedLog(std::size_t num_regions, sim::Network* network,
                double message_rtt_factor = 0.3);

  /// Append `record` from a proposer in `region`. Walks forward from the
  /// first locally unknown slot until the record is chosen in some slot.
  [[nodiscard]] AppendOutcome append(RegionId region,
                                     const std::string& record);

  /// Decided record in `slot`, if this node has learned it.
  [[nodiscard]] std::optional<std::string> learned(std::size_t slot) const;

  /// Number of contiguous decided slots from 0.
  [[nodiscard]] std::size_t decided_prefix() const;

 private:
  struct Slot {
    std::vector<Acceptor> acceptors;
    std::optional<std::string> chosen;
  };

  Slot& slot_at(std::size_t index);

  std::size_t num_regions_;
  sim::Network* network_;  // non-owning
  double message_rtt_factor_;
  std::uint32_t next_proposer_id_ = 1;
  std::vector<Slot> slots_;
};

}  // namespace agar::paxos
