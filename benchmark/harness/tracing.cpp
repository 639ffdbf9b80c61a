#include "tracing.hpp"

#include <algorithm>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "api/registry.hpp"
#include "common.hpp"
#include "core/planner.hpp"
#include "core/popularity_estimator.hpp"

namespace bench {
namespace {

constexpr const char* kInnerPlanner = "knapsack-dp";
constexpr const char* kInnerEstimator = "exact-ewma";

struct Totals {
  std::mutex mutex;
  PlanTrace plan;
  MonitorTrace monitor;
};

Totals& totals() {
  static Totals t;
  return t;
}

class TracedPlanner final : public agar::core::Planner {
 public:
  explicit TracedPlanner(std::unique_ptr<agar::core::Planner> inner)
      : inner_(std::move(inner)) {}
  TracedPlanner(const TracedPlanner&) = delete;
  TracedPlanner& operator=(const TracedPlanner&) = delete;
  ~TracedPlanner() override {
    Totals& t = totals();
    const std::lock_guard<std::mutex> lock(t.mutex);
    t.plan.empty_plans += local_.empty_plans;
    t.plan.plan_s += local_.plan_s;
    t.plan.plan_max_s = std::max(t.plan.plan_max_s, local_.plan_max_s);
    t.plan.units_max = std::max(t.plan.units_max, local_.units_max);
  }

  agar::core::KnapsackResult plan(
      const std::vector<std::vector<agar::core::CachingOption>>& groups,
      std::size_t capacity_units) override {
    const double t0 = now_s();
    agar::core::KnapsackResult result = inner_->plan(groups, capacity_units);
    const double dt = now_s() - t0;
    if (groups.empty()) ++local_.empty_plans;
    local_.plan_s += dt;
    local_.plan_max_s = std::max(local_.plan_max_s, dt);
    local_.units_max = std::max(local_.units_max, capacity_units);
    return result;
  }

  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<agar::core::Planner> inner_;
  PlanTrace local_;
};

class TracedEstimator final : public agar::core::PopularityEstimator {
 public:
  explicit TracedEstimator(
      std::unique_ptr<agar::core::PopularityEstimator> inner)
      : inner_(std::move(inner)) {}
  TracedEstimator(const TracedEstimator&) = delete;
  TracedEstimator& operator=(const TracedEstimator&) = delete;
  ~TracedEstimator() override {
    Totals& t = totals();
    const std::lock_guard<std::mutex> lock(t.mutex);
    t.monitor.record_s += local_.record_s;
    t.monitor.roll_s += local_.roll_s;
    t.monitor.snapshot_s += local_.snapshot_s;
  }

  void record(const agar::ObjectKey& key) override {
    const double t0 = now_s();
    inner_->record(key);
    local_.record_s += now_s() - t0;
  }

  void roll_period() override {
    const double t0 = now_s();
    inner_->roll_period();
    local_.roll_s += now_s() - t0;
  }

  [[nodiscard]] double popularity(const agar::ObjectKey& key) const override {
    return inner_->popularity(key);
  }

  [[nodiscard]] std::vector<std::pair<agar::ObjectKey, double>> snapshot()
      const override {
    const double t0 = now_s();
    auto out = inner_->snapshot();
    local_.snapshot_s += now_s() - t0;
    return out;
  }

  [[nodiscard]] std::size_t tracked_keys() const override {
    return inner_->tracked_keys();
  }

  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<agar::core::PopularityEstimator> inner_;
  // snapshot() is const in the interface; its timing is bookkeeping only.
  mutable MonitorTrace local_;
};

}  // namespace

void register_traced_entries() {
  using agar::api::EstimatorRegistry;
  using agar::api::PlannerRegistry;
  auto& planners = PlannerRegistry::instance();
  if (!planners.contains(std::string("traced-") + kInnerPlanner)) {
    const auto& inner = planners.at(kInnerPlanner);
    planners.add({std::string("traced-") + kInnerPlanner, inner.display,
                  "benchmark: times every plan() of " + inner.name,
                  inner.schema,
                  [](const agar::api::PlannerContext& ctx,
                     const agar::api::ParamMap& params) {
                    return std::make_unique<TracedPlanner>(
                        PlannerRegistry::instance().create(kInnerPlanner, ctx,
                                                           params));
                  },
                  {}});
  }
  auto& estimators = EstimatorRegistry::instance();
  if (!estimators.contains(std::string("traced-") + kInnerEstimator)) {
    const auto& inner = estimators.at(kInnerEstimator);
    estimators.add({std::string("traced-") + kInnerEstimator, inner.display,
                    "benchmark: times every call into " + inner.name,
                    inner.schema,
                    [](const agar::api::EstimatorContext& ctx,
                       const agar::api::ParamMap& params) {
                      return std::make_unique<TracedEstimator>(
                          EstimatorRegistry::instance().create(kInnerEstimator,
                                                               ctx, params));
                    },
                    {}});
  }
}

PlanTrace take_plan_trace() {
  Totals& t = totals();
  const std::lock_guard<std::mutex> lock(t.mutex);
  return std::exchange(t.plan, PlanTrace{});
}

MonitorTrace take_monitor_trace() {
  Totals& t = totals();
  const std::lock_guard<std::mutex> lock(t.mutex);
  return std::exchange(t.monitor, MonitorTrace{});
}

}  // namespace bench
