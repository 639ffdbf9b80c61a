// Latency model: turns a (from, to, bytes) fetch into milliseconds.
//
// latency = base(from, to) * jitter + bytes / bandwidth
//
// * base comes from the Topology matrix and already includes the request
//   service overhead of an S3-like store;
// * jitter is multiplicative, uniform in [1-j, 1+j] (default ±10%), drawn
//   from a seeded RNG so runs are reproducible;
// * the bandwidth term makes larger transfers slower; chunk sizes in the
//   paper are ~114 KB so this term is small but non-zero.
//
// Cache fetches use a separate, much smaller constant (memcached on a LAN)
// with the same jitter treatment.
//
// A per-region multiplicative slowdown overlay models mid-run latency
// degradation (a congested or brown-out region): the scenario engine sets
// it on the fly, and both the sampled and the expected paths honour it —
// so planners that consult expectations (Agar's knapsack) see the
// degradation and can steer around it at the next reconfiguration.
//
// Gray failures extend the overlay idea beyond clean slowdowns: a region
// can *straggle* (a sampled fraction of its fetches takes mult× the
// nominal latency — the long-tail server) and *drop* (a response is lost
// with probability p; the loser discovers the loss only after
// drop_latency_mult× the sampled transfer time, modeling a timeout-priced
// failure instead of the free synchronous rejection of a down region).
// Gray RNG draws happen ONLY while a knob is active for the destination
// region, so runs without gray events consume the exact same jitter
// stream as before — byte-identical results are preserved. The expected
// path folds both knobs into a closed-form inflation factor so planners
// route around sick regions.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "sim/topology.hpp"

namespace agar::sim {

struct LatencyModelParams {
  double jitter_fraction = 0.10;        ///< ±10% multiplicative jitter
  double wan_bandwidth_mbps = 100.0;    ///< region-to-region throughput
  double cache_base_ms = 55.0;          ///< local memcached round-trip base
  double cache_bandwidth_mbps = 1000.0; ///< LAN throughput
};

/// Per-region gray-failure knobs (all off by default). `drop_p` is the
/// probability one backend fetch's response is lost; the requester learns
/// of the loss only after `drop_latency_mult` times the sampled transfer
/// latency. `straggle_frac` of fetches served by the region take
/// `straggle_mult` times their sampled latency (the slow-server tail).
struct GrayParams {
  double drop_p = 0.0;
  double drop_latency_mult = 3.0;
  double straggle_frac = 0.0;
  double straggle_mult = 1.0;

  [[nodiscard]] bool any() const {
    return drop_p > 0.0 || straggle_frac > 0.0;
  }
};

/// One sampled backend fetch under gray failures: how long until the
/// requester hears back, and whether what it hears is a loss.
struct FetchSample {
  SimTimeMs latency_ms = 0.0;
  bool dropped = false;
};

class LatencyModel {
 public:
  LatencyModel(const Topology* topology, LatencyModelParams params,
               std::uint64_t seed);

  /// Latency of fetching `bytes` from `to` as seen by a client in `from`.
  /// Straggler inflation applies here (probes measure it too); response
  /// drops do not — use `sample_backend_fetch` for the wire path.
  [[nodiscard]] SimTimeMs backend_fetch_ms(RegionId from, RegionId to,
                                           std::size_t bytes);

  /// Full gray-failure sample for one wire fetch: the straggle-inflated
  /// latency plus the drop decision (a dropped fetch resolves — as a
  /// failure — after latency_ms × drop_latency_mult).
  [[nodiscard]] FetchSample sample_backend_fetch(RegionId from, RegionId to,
                                                 std::size_t bytes);

  /// Same, but without jitter — used by planners that need expectations.
  [[nodiscard]] SimTimeMs expected_backend_fetch_ms(RegionId from, RegionId to,
                                                    std::size_t bytes) const;

  /// Latency of fetching `bytes` from the region-local cache.
  [[nodiscard]] SimTimeMs cache_fetch_ms(std::size_t bytes);

  [[nodiscard]] SimTimeMs expected_cache_fetch_ms(std::size_t bytes) const;

  [[nodiscard]] const Topology& topology() const { return *topology_; }
  [[nodiscard]] const LatencyModelParams& params() const { return params_; }

  /// Multiplicative slowdown overlay on fetches *served by* region `r`
  /// (scenario latency degradation). 1.0 is nominal; must be > 0. Applies
  /// to sampled and expected backend fetches alike.
  void set_region_slowdown(RegionId r, double factor);

  /// Gray-failure injection on fetches *served by* region `r`. p = 0
  /// clears the drop knob, frac = 0 (or mult = 1) clears the straggler
  /// knob. Both expectations and samples honour the knobs.
  void set_region_drop(RegionId r, double p, double latency_mult);
  void set_region_straggle(RegionId r, double frac, double mult);
  [[nodiscard]] const GrayParams& gray(RegionId r) const {
    return gray_.at(r);
  }

  /// Multiplier the gray knobs add to region `r`'s *expected* fetch cost:
  /// stragglers raise the mean by frac·(mult−1); drops turn one fetch
  /// into a geometric number of attempts, each failure costing
  /// drop_latency_mult× before the requester can try again.
  [[nodiscard]] double expected_gray_factor(RegionId r) const;

 private:
  [[nodiscard]] double jitter();
  [[nodiscard]] static double transfer_ms(std::size_t bytes, double mbps);

  const Topology* topology_;  // non-owning; outlives the model
  LatencyModelParams params_;
  Rng rng_;
  std::vector<double> slowdown_;  // per destination region, 1.0 = nominal
  std::vector<GrayParams> gray_;  // per destination region, all-off default
};

}  // namespace agar::sim
