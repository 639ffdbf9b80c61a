// Cache manager (paper §III-c): periodically computes the ideal cache
// configuration from the popularity estimator's statistics (the paper's
// request monitor) and the region manager's latency estimates, then
// installs it into the Agar cache.
//
// One reconfiguration = one run of the configured core::Planner (§IV-B;
// `knapsack-dp` by default, any api::PlannerRegistry entry via the
// `planner=` spec key) over the caching options of every tracked object
// (§IV-A). Options are valued once per stripe layout and written per
// object into group buffers the manager keeps from period to period. The
// manager lists the chosen options' chunks once, from their layouts,
// installs that list into the cache, times every planner run and adds the
// install's churn (chunks installed/evicted) to its ControlPlaneStats.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/param_map.hpp"
#include "cache/static_cache.hpp"
#include "core/knapsack.hpp"
#include "core/option_generator.hpp"
#include "core/planner.hpp"
#include "core/popularity_estimator.hpp"
#include "core/region_manager.hpp"

namespace agar::core {

struct CacheManagerParams {
  /// Candidate option weights; empty = every weight in [1, k].
  /// The paper's experiments enumerate {1, 3, 5, 7, 9}.
  std::vector<std::size_t> candidate_weights;
  /// Expected local-cache fetch latency used in option values.
  double cache_latency_ms = 55.0;
  /// Planner registry entry solving each reconfiguration.
  std::string planner = "knapsack-dp";
  /// Planner-specific parameters (threshold, ... — validated against the
  /// registered schema by the spec layer).
  api::ParamMap planner_params;
};

/// The installed configuration, per object, for inspection (Fig. 10).
/// Key-ordered: population fetches, broadcast snapshots and the Fig. 10
/// histogram all iterate it, and each of those orders ends up in event
/// sequence numbers or output.
struct CacheConfiguration {
  /// The planner's chosen options, at most one per object, in the order of
  /// the objects' keys.
  std::vector<CachingOption> entries;
  /// The configured chunks, entry by entry: each entry's first `weight`
  /// needed chunks of its object's layout (LayoutOptions::chunks).
  std::vector<ChunkKey> chunks;
  double total_value = 0.0;
  std::size_t total_bytes = 0;

  /// The chosen option of `object`, or nullptr if it is not configured.
  [[nodiscard]] const CachingOption* find(ObjectId object) const;

  /// Histogram of "objects cached with w chunks" -> count (Fig. 10 data),
  /// sorted by weight.
  [[nodiscard]] std::map<std::size_t, std::size_t> weight_histogram() const;
};

class CacheManager {
 public:
  CacheManager(const store::BackendCluster* backend,
               RegionManager* region_manager, PopularityEstimator* estimator,
               cache::StaticConfigCache* cache, CacheManagerParams params);

  /// Run the full reconfiguration: roll the popularity period, regenerate
  /// caching options, run the planner, install the new configuration.
  /// Returns the installed configuration (also kept internally).
  const CacheConfiguration& reconfigure();

  [[nodiscard]] const CacheConfiguration& current() const { return config_; }

  /// Reconfigurations, planner timing and configuration churn, cumulative
  /// over this manager.
  [[nodiscard]] const ControlPlaneStats& control_plane_stats() const {
    return stats_;
  }

 private:
  /// Options for every key of `snapshot` with positive popularity and an
  /// id in ids_, into groups_ in the snapshot's key order, each option's
  /// footprint in `quantum`-byte units.
  void generate_options(
      const std::vector<std::pair<ObjectKey, double>>& snapshot,
      std::size_t quantum);

  const store::BackendCluster* backend_;  // non-owning
  RegionManager* region_manager_;         // non-owning
  PopularityEstimator* estimator_;        // non-owning
  cache::StaticConfigCache* cache_;       // non-owning
  CacheManagerParams params_;
  /// Built once, so a candidate weight outside [1, k] fails when the
  /// strategy is built rather than at the first reconfiguration.
  OptionGenerator generator_;
  std::unique_ptr<Planner> planner_;
  CacheConfiguration config_;
  ControlPlaneStats stats_;

  // reconfigure()'s buffers, kept for their capacity and sized at the
  // first reconfiguration.
  /// The snapshot's ids, kNoObject for a key the backend does not know.
  static constexpr ObjectId kNoObject = ~ObjectId{0};
  std::vector<ObjectId> ids_;
  /// The backend's stripe layouts, and which this reconfiguration valued.
  std::vector<LayoutOptions> layouts_;
  std::vector<bool> layout_valued_;
  std::vector<ChunkCost> costs_;
  /// The planner's input: one group per planned key, each reused by the
  /// key in its place next period.
  std::vector<std::vector<CachingOption>> groups_;
};

}  // namespace agar::core
