// The cache-configuration solver (paper §IV-B, Figs. 4 and 5).
//
// Choosing at most one caching option per object to maximize total value
// within the cache capacity is the Multiple-Choice Knapsack Problem (MCKP).
// The paper solves it with a dynamic program over intermediate cache
// configurations (POPULATE) improved by RELAX steps; we implement the same
// program as an exact DP over capacities with per-key option groups, which
// is the textbook-equivalent formulation: a cell of the DP table is the
// paper's MaxV entry for one capacity, and one row's pass over a key's
// options performs both ADDTOCONFIG and RELAX (see solve_dp). Option values
// are absolute, not marginal: where the paper's §IV example adds 64,000 for
// two more chunks on top of the first chunk's 160,000, the weight-3 option
// here is worth the 224,000 total.
//
// A greedy value-density solver is included as a baseline: §II-D argues
// greedy can err badly on 0/1-style knapsacks, and `planner_test` checks
// that on realistic instances (`knapsack_test` on adversarial ones).
#pragma once

#include <vector>

#include "core/caching_option.hpp"

namespace agar::core {

/// A solved cache configuration.
struct KnapsackResult {
  /// Chosen options, at most one per group, in the order of their groups.
  /// A planner's groups are in key order, so its choice is too (see
  /// Planner::plan).
  std::vector<CachingOption> chosen;
  double total_value = 0.0;
  std::size_t total_weight_units = 0;

  /// The result that chooses `chosen`, with its totals.
  [[nodiscard]] static KnapsackResult of(std::vector<CachingOption> chosen);
};

/// Whether a solver may choose `o` within `capacity_units`: it consumes
/// capacity, contributes value and fits.
[[nodiscard]] inline bool usable(const CachingOption& o,
                                 std::size_t capacity_units) {
  return o.value > 0.0 && o.weight_units > 0 &&
         o.weight_units <= capacity_units;
}

/// Exact MCKP dynamic program (the paper's POPULATE/RELAX algorithm) that
/// keeps its buffers across solves, so a planner re-solving every period
/// sizes them once.
///
/// `options_per_key[i]` holds the candidate options for one key; options
/// that are not `usable` are ignored. Runtime O(total_options x
/// capacity_units), i.e. the O(C^2) the paper reports once the option
/// count is proportional to capacity.
/// Ties keep the earlier choice: at each capacity a key is skipped unless
/// one of its options is strictly better, and of the options that reach
/// the best value the first in group order is taken.
class KnapsackDp {
 public:
  [[nodiscard]] KnapsackResult solve(
      const std::vector<std::vector<CachingOption>>& options_per_key,
      std::size_t capacity_units);

 private:
  /// One usable option: its footprint and value, and where it came from.
  struct Item {
    std::size_t weight_units;
    double value;
    std::size_t group;
    std::size_t option;
  };
  std::vector<Item> items_;  ///< usable options, group by group
  /// rows_[r]: the first item of the r-th group that has any; the last
  /// entry is items_.size().
  std::vector<std::size_t> rows_;
  std::vector<double> table_;     ///< (rows + 1) x (capacity + 1) values
  std::vector<std::size_t> picks_;  ///< traceback's items, last key first
};

/// KnapsackDp used once.
[[nodiscard]] KnapsackResult solve_dp(
    const std::vector<std::vector<CachingOption>>& options_per_key,
    std::size_t capacity_units);

/// Greedy baseline: consider options by decreasing value density
/// (value / weight_units), equal densities by group then weight; take an
/// option if its group is still unused and it fits. Not optimal — kept for
/// the §II-D ablation. Its choice comes back in group order.
[[nodiscard]] KnapsackResult solve_greedy(
    const std::vector<std::vector<CachingOption>>& options_per_key,
    std::size_t capacity_units);

/// Exhaustive search over all per-key choices; exponential, test-only
/// oracle for small instances.
[[nodiscard]] KnapsackResult solve_brute_force(
    const std::vector<std::vector<CachingOption>>& options_per_key,
    std::size_t capacity_units);

}  // namespace agar::core
