// Planner — the open interface of the reconfiguration pipeline's solver
// step (paper §IV-B). A planner receives the per-key caching-option groups
// the option generator assembled (sorted by key — the determinism contract
// of PopularityEstimator::snapshot) plus the cache capacity in quantized
// units, and returns the configuration to install.
//
// Planners are registry entries (api::PlannerRegistry), selected per
// experiment with the `planner=` spec key:
//   * knapsack-dp  — the paper's exact MCKP dynamic program (default);
//   * greedy       — value-density baseline (§II-D ablation);
//   * brute-force  — exponential oracle, test-sized instances only;
//   * incremental  — warm-starts from the previous configuration and
//                    re-plans only keys whose inputs moved beyond a
//                    threshold (cheap steady-state reconfigurations).
//
// One planner instance serves one CacheManager for the lifetime of the
// node, so implementations may keep warm-start state across calls.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/knapsack.hpp"

namespace agar::core {

class Planner {
 public:
  virtual ~Planner() = default;

  /// Solve one reconfiguration: choose at most one option per group, never
  /// a non-positive-value option, within `capacity_units`. Each of the
  /// `options_per_key` groups holds one object's options, and the groups
  /// are sorted by the objects' keys; the chosen options come back in group
  /// order, which the cache manager installs as is.
  [[nodiscard]] virtual KnapsackResult plan(
      const std::vector<std::vector<CachingOption>>& options_per_key,
      std::size_t capacity_units) = 0;

  /// Registry name ("knapsack-dp", ...) for logs and reports.
  [[nodiscard]] virtual std::string name() const = 0;
};

/// Cumulative control-plane telemetry of one node: how often it re-planned,
/// how long the planner ran, and how much the installed configuration
/// churned. The runner merges every node's stats into RunResult.
struct ControlPlaneStats {
  std::uint64_t reconfigurations = 0;
  double planning_ms = 0.0;  ///< wall-clock spent inside Planner::plan
  /// Config churn: configured chunks added / dropped relative to the
  /// previous configuration (a stable plan installs and evicts nothing).
  std::uint64_t chunks_installed = 0;
  std::uint64_t chunks_evicted = 0;

  /// Add another node's stats.
  void merge(const ControlPlaneStats& other) {
    reconfigurations += other.reconfigurations;
    planning_ms += other.planning_ms;
    chunks_installed += other.chunks_installed;
    chunks_evicted += other.chunks_evicted;
  }
};

}  // namespace agar::core
