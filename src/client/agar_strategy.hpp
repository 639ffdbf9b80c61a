// Agar strategy (paper §V-A "Agar"): one region-level Agar deployment
// (paper Fig. 3) behind the event-loop read path. `core/` holds its control
// plane — the region manager, the popularity estimator (the paper's request
// monitor) and the cache manager — and this class holds the cache they
// configure plus the read path that takes its hints from that
// configuration. Each read is recorded with the estimator and charged the
// monitor's processing time; resident chunks come from the Agar cache and
// the rest from the cheapest backend regions; after the read the client
// populates the cache with the chunks the installed configuration wants
// (asynchronously, off the latency path).
//
// The whole control plane is background events on the loop: latency
// probes are asynchronous fetches, each reconfiguration (30 s in the
// paper's experiments) waits for its probe round to land, and the a-priori
// population downloads go through the strategy's coalescing fetch table so
// they merge with concurrent reads.
//
// The paper's LFU-c baseline is this strategy too: the `lfu` registration
// builds it with the one candidate weight c under the greedy planner (see
// agar_strategy.cpp), so the Fig. 6 comparison differs only in the
// configuration policy.
#pragma once

#include <memory>
#include <string>

#include "api/param_map.hpp"
#include "cache/static_cache.hpp"
#include "client/strategy.hpp"
#include "core/cache_manager.hpp"
#include "core/popularity_estimator.hpp"
#include "core/region_manager.hpp"

namespace agar::client {

struct AgarParams {
  std::size_t cache_capacity_bytes = 10_MB;
  SimTimeMs reconfig_period_ms = 30'000.0;  ///< paper: 30 seconds
  double ewma_alpha = 0.8;    ///< paper's weighting coefficient
  double processing_ms = 0.5; ///< per-request monitor overhead (paper §VI)
  /// Popularity-estimator registry entry (the `monitor=` spec key).
  std::string estimator = "exact-ewma";
  /// Estimator-specific parameters (width, depth, ... — validated against
  /// the registered schema by the spec layer).
  api::ParamMap estimator_params;
  core::CacheManagerParams cache_manager;
  std::size_t probes_per_region = 6;
};

class AgarStrategy final : public ReadStrategy {
 public:
  AgarStrategy(ClientContext ctx, AgarParams params);

  /// Warm-up phase: probe per-region latencies synchronously (paper §IV:
  /// "the region manager computes this by retrieving several data blocks
  /// from each region in a warm-up phase").
  void warm_up() override;

  /// Schedule the periodic reconfiguration pipeline on the loop.
  void start_control_plane() override;

  /// One reconfiguration through the same pipeline the periodic timer
  /// runs: an asynchronous probe round, then — once its fetches land — the
  /// plan is installed and the a-priori population downloads for every
  /// configured-but-missing chunk start (paper §IV-A). All of it happens
  /// as events; run the loop to complete it.
  void start_reconfiguration();

  /// The "hint" protocol: records the access with the popularity
  /// estimator, charges the monitor's processing time, and resolves every
  /// chunk of the object to a source against the cache's installed
  /// configuration:
  ///   * resident chunks come from the cache (up to k);
  ///   * the remainder fills with the cheapest backend regions per the
  ///     region manager's live latency estimates;
  ///   * configured chunks fetched on-path are written back after the
  ///     read; configured chunks neither resident nor fetched are
  ///     downloaded asynchronously by the population pool;
  ///   * every chunk not planned is a fallback, cheapest first by the
  ///     network's expected latency.
  void plan(ObjectId object, ReadPlan& out) override;
  /// The same by key into a fresh plan (tests).
  [[nodiscard]] ReadPlan plan_read(const ObjectKey& key);

  [[nodiscard]] cache::StaticConfigCache& cache() { return cache_; }
  [[nodiscard]] core::RegionManager& region_manager() {
    return region_manager_;
  }
  [[nodiscard]] core::PopularityEstimator& popularity_estimator() {
    return *estimator_;
  }
  [[nodiscard]] core::CacheManager& cache_manager() { return cache_manager_; }

  [[nodiscard]] std::map<std::size_t, std::size_t> config_weight_histogram()
      const override {
    return cache_manager_.current().weight_histogram();
  }
  [[nodiscard]] core::ControlPlaneStats control_plane_stats() const override {
    return cache_manager_.control_plane_stats();
  }

  /// Broadcastable cache state for the cooperative tier: the configured
  /// chunk keys (the paper's §VI broadcast).
  [[nodiscard]] collab::PeerInfo collab_info() override;

  /// Cancel handle of the periodic reconfiguration (0 until started);
  /// pass to EventLoop::cancel to stop the control plane mid-run.
  [[nodiscard]] sim::EventLoop::TimerId reconfig_timer() const {
    return reconfig_timer_;
  }

 private:
  /// Install a new plan, start its population downloads, then notify the
  /// reconfigure observer (collab config log) with the plan current.
  void apply_reconfiguration();

  AgarParams params_;
  sim::EventLoop::TimerId reconfig_timer_ = 0;
  cache::StaticConfigCache cache_;
  core::RegionManager region_manager_;
  std::unique_ptr<core::PopularityEstimator> estimator_;
  core::CacheManager cache_manager_;

  /// plan's scratch: the object's chunk costs, cheapest first, and those
  /// not resident with whether the configuration wants them.
  struct NotResident {
    core::ChunkCost cost;
    bool configured;
  };
  std::vector<core::ChunkCost> costs_;
  std::vector<NotResident> not_resident_;
};

}  // namespace agar::client
