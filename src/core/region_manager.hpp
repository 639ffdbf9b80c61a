// Region manager (paper §III-a): knows the storage system's topology and
// placement policy, probes per-region chunk-read latency, and answers "what
// will fetching each chunk of this object cost?". It keeps no timer: the
// Agar strategy that owns it starts one probe round per reconfiguration
// period, and warms it up with one synchronous round before measurement.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/slot_pool.hpp"
#include "common/types.hpp"
#include "core/option_generator.hpp"
#include "sim/network.hpp"
#include "stats/latency_estimator.hpp"
#include "store/backend.hpp"

namespace agar::core {

struct RegionManagerParams {
  RegionId local_region = 0;
  /// Probes per region in each probe round (the paper retrieves "several
  /// data blocks from each region in a warm-up phase"). Several samples
  /// with heavy smoothing keep the estimates stable under jitter: unstable
  /// estimates reorder the distance ranking of near-equidistant regions,
  /// which churns every option's chunk set at the next reconfiguration and
  /// needlessly evicts populated cache entries.
  std::size_t probes_per_region = 6;
  /// Representative chunk size used for probe transfers.
  std::size_t probe_chunk_bytes = 114_KB;
  /// EWMA weight for folding new probe samples into the estimate.
  double estimator_alpha = 0.2;
};

class RegionManager {
 public:
  RegionManager(const store::BackendCluster* backend, sim::Network* network,
                RegionManagerParams params);

  /// Measure chunk-read latency to every region and fold the samples into
  /// the estimator, synchronously and in issue order (the warm-up before
  /// measurement starts). Down regions are skipped (their estimate goes
  /// stale, which is what a real prober would observe as timeouts).
  void probe();

  /// Asynchronous probe round as background events on the network's loop:
  /// every probe is a real fetch whose observed latency (queueing included,
  /// exactly what a wall-clock prober would measure) lands in the estimator
  /// at completion. `done` fires once after the last probe of the round;
  /// pass {} for fire-and-forget warm-up.
  void start_probe(std::function<void()> done);

  /// Estimated chunk-fetch latency from the local region to `region`.
  [[nodiscard]] double estimate_ms(RegionId region) const;

  /// Chunk costs for every chunk of `object`, by index, into `out` — input
  /// to Agar's read planning.
  void chunk_costs(ObjectId object, std::vector<ChunkCost>& out) const {
    chunk_costs(backend_->object_info(object).locations, out);
  }
  /// Chunk costs of one stripe layout, by index, into `out` — input to the
  /// option generator, which values each layout once per reconfiguration.
  void chunk_costs(std::span<const store::ChunkLocation> locations,
                   std::vector<ChunkCost>& out) const;

  /// Region of one specific chunk under the placement policy.
  [[nodiscard]] RegionId region_of(ObjectId object, ChunkIndex index) const {
    return backend_->object_info(object).locations[index].region;
  }

  [[nodiscard]] RegionId local_region() const { return params_.local_region; }
  [[nodiscard]] const stats::LatencyEstimator& estimator() const {
    return estimator_;
  }
  [[nodiscard]] std::uint64_t probe_rounds() const { return probe_rounds_; }

 private:
  /// One asynchronous probe round: its observer, issue time and the
  /// probes still in flight. Rounds may overlap; their records live in a
  /// SlotPool, so a probe's callback captures 16 bytes.
  struct ProbeRound {
    std::function<void()> done;
    SimTimeMs issued_at = 0.0;
    std::size_t remaining = 0;
  };
  void probe_landed(std::uint32_t round, RegionId r, bool ok);
  void finish_round(std::uint32_t round);

  const store::BackendCluster* backend_;  // non-owning
  sim::Network* network_;                 // non-owning
  RegionManagerParams params_;
  stats::LatencyEstimator estimator_;
  std::uint64_t probe_rounds_ = 0;
  SlotPool<ProbeRound> rounds_;
};

}  // namespace agar::core
