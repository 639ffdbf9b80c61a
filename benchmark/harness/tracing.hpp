// Traced control-plane entries for the traced benchmark run.
//
// `traced-knapsack-dp` and `traced-exact-ewma` are registered through the
// program's public planner and estimator registries (the out-of-tree path
// docs/api.md describes). Each builds the configured entry and times every
// call into it; a workload selects them with `planner=` and `monitor=`.
// Instances accumulate privately (one per lane, so shard threads never
// share one) and fold into a process-wide total when destroyed.
#pragma once

#include <cstddef>
#include <cstdint>

namespace bench {

struct PlanTrace {
  std::uint64_t empty_plans = 0;  ///< plan() calls with no option groups
  double plan_s = 0.0;
  double plan_max_s = 0.0;
  std::size_t units_max = 0;  ///< largest capacity_units handed to plan()
};

struct MonitorTrace {
  double record_s = 0.0;
  double roll_s = 0.0;
  double snapshot_s = 0.0;
  [[nodiscard]] double total_s() const { return record_s + roll_s + snapshot_s; }
};

/// Register the traced entries (idempotent; call before building specs).
void register_traced_entries();

/// Totals of every traced instance destroyed since the last call; resets.
[[nodiscard]] PlanTrace take_plan_trace();
[[nodiscard]] MonitorTrace take_monitor_trace();

}  // namespace bench
