// Request monitor (paper §III-b): listens to client requests and maintains
// per-object popularity for the cache manager. Every read of an Agar or
// LFU-c client goes through `record_access` (AgarStrategy::plan_read),
// mirroring the prototype where the monitor is on the path of each
// operation (the paper measured ~0.5 ms of processing per request; the
// simulation charges that as `processing_ms`).
//
// Popularity tracking itself is a pluggable core::PopularityEstimator
// resolved from api::EstimatorRegistry — `exact-ewma` (the paper's exact
// per-key count and EWMA, default) or `count-min` (sketch-backed,
// sublinear memory). Selected per experiment with the `monitor=` spec key.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "api/param_map.hpp"
#include "common/types.hpp"
#include "core/popularity_estimator.hpp"

namespace agar::core {

struct RequestMonitorParams {
  double ewma_alpha = 0.8;   ///< paper's weighting coefficient
  double processing_ms = 0.5;///< per-request monitor overhead (paper §VI)
  /// Popularity-estimator registry entry backing this monitor.
  std::string estimator = "exact-ewma";
  /// Estimator-specific parameters (width, depth, ... — validated against
  /// the registered schema by the spec layer).
  api::ParamMap estimator_params;
};

class RequestMonitor {
 public:
  explicit RequestMonitor(RequestMonitorParams params = {});

  /// Record one client access. Returns the monitor's processing overhead in
  /// ms so the caller can charge it to the request's latency.
  double record_access(const ObjectKey& key);

  /// Close the current period (called by the cache manager at
  /// reconfiguration time): folds counts into smoothed popularities.
  void roll_period();

  [[nodiscard]] double popularity(const ObjectKey& key) const;

  /// (key, popularity) snapshot for the cache manager, sorted by key —
  /// planner input never depends on hash-map iteration order.
  [[nodiscard]] std::vector<std::pair<ObjectKey, double>> snapshot() const;

  [[nodiscard]] std::uint64_t accesses() const { return accesses_; }
  [[nodiscard]] std::size_t tracked_keys() const {
    return estimator_->tracked_keys();
  }
  [[nodiscard]] const RequestMonitorParams& params() const { return params_; }
  [[nodiscard]] const PopularityEstimator& estimator() const {
    return *estimator_;
  }

 private:
  RequestMonitorParams params_;
  std::unique_ptr<PopularityEstimator> estimator_;
  std::uint64_t accesses_ = 0;
};

}  // namespace agar::core
