#include "core/planner.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "api/registry.hpp"

namespace agar::core {

namespace {

/// Thin planner over one of the stateless knapsack solvers.
template <KnapsackResult (*Solver)(
    const std::vector<std::vector<CachingOption>>&, std::size_t)>
class SolverPlanner final : public Planner {
 public:
  explicit SolverPlanner(std::string name) : name_(std::move(name)) {}

  KnapsackResult plan(const std::vector<std::vector<CachingOption>>& groups,
                      std::size_t capacity_units) override {
    return Solver(groups, capacity_units);
  }

  [[nodiscard]] std::string name() const override { return name_; }

 private:
  std::string name_;
};

/// The paper's exact DP, keeping its buffers from one period to the next.
class DpPlanner final : public Planner {
 public:
  KnapsackResult plan(const std::vector<std::vector<CachingOption>>& groups,
                      std::size_t capacity_units) override {
    return dp_.solve(groups, capacity_units);
  }

  [[nodiscard]] std::string name() const override { return "knapsack-dp"; }

 private:
  KnapsackDp dp_;
};

/// Warm-start planner: keeps the previous configuration for every key whose
/// planning inputs (popularity x latency, i.e. option values) moved less
/// than `threshold` since that key was last planned, and runs the exact DP
/// only over the "dirty" keys with the leftover capacity. Steady-state
/// reconfigurations then cost O(dirty options x capacity) instead of
/// O(all options x capacity) — measurably cheaper on large key counts —
/// at the price of not re-balancing stable keys against each other.
class IncrementalPlanner final : public Planner {
 public:
  IncrementalPlanner(double threshold, std::size_t full_every)
      : threshold_(threshold), full_every_(full_every) {}

  KnapsackResult plan(const std::vector<std::vector<CachingOption>>& groups,
                      std::size_t capacity_units) override {
    ++rounds_;
    if (memo_.empty() || (full_every_ > 0 && rounds_ % full_every_ == 0)) {
      return full_plan(groups, capacity_units);
    }

    // Partition keys: a key is stable when it was planned before, its
    // signature (best usable option value) drifted less than the threshold
    // since that planning, and — if it was chosen — the same-footprint
    // option still exists. Drift is measured against the signature at the
    // last *planning* of the key, not the last call, so slow drift
    // accumulates until it crosses the threshold instead of creeping
    // through un-replanned forever.
    std::vector<std::size_t> dirty;
    std::vector<const CachingOption*> kept(groups.size(), nullptr);
    std::size_t kept_units = 0;
    for (std::size_t i = 0; i < groups.size(); ++i) {
      const auto& group = groups[i];
      if (group.empty()) continue;
      const auto it = memo_.find(group.front().object);
      const double sig = signature(group, capacity_units);
      bool stable =
          it != memo_.end() &&
          std::abs(sig - it->second.signature) <=
              threshold_ * std::max(it->second.signature, 1.0);
      const CachingOption* keep = nullptr;
      if (stable && it->second.chosen) {
        keep = option_with_units(group, it->second.weight_units,
                                 capacity_units);
        if (keep == nullptr) stable = false;
      }
      if (stable) {
        kept[i] = keep;
        if (keep != nullptr) kept_units += keep->weight_units;
      } else {
        dirty.push_back(i);
      }
    }
    // A shrunken cache can strand more kept weight than fits: start over.
    if (kept_units > capacity_units) return full_plan(groups, capacity_units);

    std::vector<std::vector<CachingOption>> dirty_groups;
    dirty_groups.reserve(dirty.size());
    for (const std::size_t i : dirty) dirty_groups.push_back(groups[i]);
    const KnapsackResult partial =
        dp_.solve(dirty_groups, capacity_units - kept_units);
    std::unordered_map<ObjectId, const CachingOption*> replanned;
    for (const auto& o : partial.chosen) replanned.emplace(o.object, &o);

    // Displacement check: the partial DP cannot shrink kept keys to make
    // room. If a dirty key could not realize its best option — left out
    // entirely OR squeezed into a lesser option by the leftover capacity —
    // and that unrealized best out-values the weakest kept choice (a flash
    // crowd hitting a full cache), only a full re-plan can trade kept
    // space for it. Checking realized value (not mere presence) also keeps
    // the memo honest: the stitch path below only runs when every dirty
    // key got its signature-value option, so a squeezed pick can never be
    // recorded as "stable" and locked in at a fraction of its worth.
    double min_kept_value = std::numeric_limits<double>::infinity();
    for (const auto* keep : kept) {
      if (keep != nullptr) min_kept_value = std::min(min_kept_value,
                                                     keep->value);
    }
    for (const std::size_t i : dirty) {
      const auto& group = groups[i];
      if (group.empty()) continue;
      const double sig = signature(group, capacity_units);
      const auto it = replanned.find(group.front().object);
      const double realized = it != replanned.end() ? it->second->value : 0.0;
      if (sig > realized + 1e-12 && sig > min_kept_value) {
        return full_plan(groups, capacity_units);
      }
    }

    // Stitch kept + re-planned choices back together in input key order and
    // refresh the memo: dirty keys record their new signature/choice,
    // stable keys carry their last-planned signature forward.
    std::vector<CachingOption> chosen;
    std::unordered_map<ObjectId, KeyMemo> next_memo;
    next_memo.reserve(groups.size());
    std::vector<bool> is_dirty(groups.size(), false);
    for (const std::size_t i : dirty) is_dirty[i] = true;
    for (std::size_t i = 0; i < groups.size(); ++i) {
      const auto& group = groups[i];
      if (group.empty()) continue;
      const ObjectId object = group.front().object;
      const CachingOption* pick = kept[i];
      if (pick == nullptr) {
        const auto chosen_it = replanned.find(object);
        if (chosen_it != replanned.end()) pick = chosen_it->second;
      }
      if (pick != nullptr) chosen.push_back(*pick);

      KeyMemo memo;
      const auto prev = memo_.find(object);
      memo.signature = is_dirty[i] || prev == memo_.end()
                           ? signature(group, capacity_units)
                           : prev->second.signature;
      memo.chosen = pick != nullptr;
      memo.weight_units = pick != nullptr ? pick->weight_units : 0;
      next_memo.emplace(object, memo);
    }
    memo_ = std::move(next_memo);
    return KnapsackResult::of(std::move(chosen));
  }

  [[nodiscard]] std::string name() const override { return "incremental"; }

 private:
  struct KeyMemo {
    double signature = 0.0;       ///< best usable value when last planned
    bool chosen = false;          ///< did the last planning pick an option?
    std::size_t weight_units = 0; ///< footprint of the picked option
  };

  static double signature(const std::vector<CachingOption>& group,
                          std::size_t capacity_units) {
    double best = 0.0;
    for (const auto& o : group) {
      if (usable(o, capacity_units)) best = std::max(best, o.value);
    }
    return best;
  }

  static const CachingOption* option_with_units(
      const std::vector<CachingOption>& group, std::size_t weight_units,
      std::size_t capacity_units) {
    for (const auto& o : group) {
      if (o.weight_units == weight_units && usable(o, capacity_units)) {
        return &o;
      }
    }
    return nullptr;
  }

  KnapsackResult full_plan(
      const std::vector<std::vector<CachingOption>>& groups,
      std::size_t capacity_units) {
    KnapsackResult result = dp_.solve(groups, capacity_units);
    memo_.clear();
    memo_.reserve(groups.size());
    std::unordered_map<ObjectId, const CachingOption*> chosen;
    for (const auto& o : result.chosen) chosen.emplace(o.object, &o);
    for (const auto& group : groups) {
      if (group.empty()) continue;
      const ObjectId object = group.front().object;
      KeyMemo memo;
      memo.signature = signature(group, capacity_units);
      const auto it = chosen.find(object);
      memo.chosen = it != chosen.end();
      memo.weight_units = memo.chosen ? it->second->weight_units : 0;
      memo_.emplace(object, memo);
    }
    return result;
  }

  double threshold_;
  std::size_t full_every_;
  KnapsackDp dp_;
  std::uint64_t rounds_ = 0;
  std::unordered_map<ObjectId, KeyMemo> memo_;
};

const api::PlannerRegistration kDp{{
    "knapsack-dp",
    "DP",
    "exact multiple-choice knapsack dynamic program (the paper's "
    "POPULATE/RELAX algorithm, §IV-B)",
    api::ParamSchema{},
    [](const api::PlannerContext&, const api::ParamMap&) {
      return std::make_unique<DpPlanner>();
    },
    {}}};

const api::PlannerRegistration kGreedy{{
    "greedy",
    "greedy",
    "value-density greedy baseline (not optimal; the paper's §II-D "
    "ablation)",
    api::ParamSchema{},
    [](const api::PlannerContext&, const api::ParamMap&) {
      return std::make_unique<SolverPlanner<solve_greedy>>("greedy");
    },
    {}}};

const api::PlannerRegistration kBruteForce{{
    "brute-force",
    "brute-force",
    "exhaustive search over all per-key choices; exponential — test-sized "
    "instances only",
    api::ParamSchema{},
    [](const api::PlannerContext&, const api::ParamMap&) {
      return std::make_unique<SolverPlanner<solve_brute_force>>("brute-force");
    },
    {}}};

const api::PlannerRegistration kIncremental{{
    "incremental",
    "incremental",
    "warm-starts from the previous configuration and re-plans only keys "
    "whose inputs moved beyond a threshold (cheap steady-state "
    "reconfigurations; first call is a full DP)",
    api::ParamSchema{{
        {"threshold", api::ParamType::kDouble, "0.1",
         "relative change in a key's best option value that marks it dirty"},
        {"full_every", api::ParamType::kSize, "0",
         "force a full re-plan every N reconfigurations (0 = never)"},
    }},
    [](const api::PlannerContext&, const api::ParamMap& params) {
      return std::make_unique<IncrementalPlanner>(
          params.get_double("threshold"), params.get_size("full_every"));
    },
    {}}};

}  // namespace

}  // namespace agar::core
