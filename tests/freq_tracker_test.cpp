// Per-period frequency tracking with EWMA smoothing, as the exact-ewma
// popularity estimator keeps it: per-key counts within a period, their
// fold into the EWMA at each roll, and the decay of keys that go cold.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "api/registry.hpp"
#include "core/popularity_estimator.hpp"

namespace agar::core {
namespace {

std::unique_ptr<PopularityEstimator> make_estimator(const std::string& name) {
  api::EstimatorContext ctx;
  ctx.ewma_alpha = 0.8;
  return api::EstimatorRegistry::instance().create(name, ctx, {});
}

TEST(ExactEwmaEstimator, BlendsTheCurrentPeriodsCounts) {
  auto est = make_estimator("exact-ewma");
  est->record("a");
  est->record("a");
  est->record("b");
  EXPECT_DOUBLE_EQ(est->popularity("a"), 1.6);  // 0.8 * 2
  EXPECT_DOUBLE_EQ(est->popularity("b"), 0.8);
  EXPECT_DOUBLE_EQ(est->popularity("c"), 0.0);
}

TEST(ExactEwmaEstimator, RollResetsCounts) {
  auto est = make_estimator("exact-ewma");
  est->record("a");
  est->roll_period();
  // 0.8 folded into the EWMA, nothing left to blend.
  EXPECT_DOUBLE_EQ(est->popularity("a"), 0.8);
}

TEST(ExactEwmaEstimator, ColdKeysDecayAway) {
  auto est = make_estimator("exact-ewma");
  est->record("once");
  est->roll_period();  // popularity 0.8
  EXPECT_GT(est->popularity("once"), 0.0);
  // 0.8 * 0.2^n < 1e-3 (the default drop_below) after a handful of idle
  // periods.
  for (int i = 0; i < 6; ++i) est->roll_period();
  EXPECT_DOUBLE_EQ(est->popularity("once"), 0.0);
  EXPECT_EQ(est->tracked_keys(), 0u);
}

TEST(ExactEwmaEstimator, HotKeysStayTracked) {
  auto est = make_estimator("exact-ewma");
  for (int p = 0; p < 10; ++p) {
    for (int i = 0; i < 20; ++i) est->record("hot");
    est->roll_period();
  }
  EXPECT_NEAR(est->popularity("hot"), 20.0, 0.1);
  EXPECT_EQ(est->tracked_keys(), 1u);
}

TEST(ExactEwmaEstimator, SnapshotListsTrackedKeys) {
  auto est = make_estimator("exact-ewma");
  est->record("a");
  est->record("b");
  est->roll_period();
  EXPECT_EQ(est->tracked_keys(), 2u);
  const auto snap = est->snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].first, "a");
  EXPECT_DOUBLE_EQ(snap[0].second, 0.8);
}

TEST(ExactEwmaEstimator, DistinguishesManyKeys) {
  auto est = make_estimator("exact-ewma");
  for (int i = 0; i < 100; ++i) {
    const std::string key = 'k' + std::to_string(i);
    for (int j = 0; j <= i; ++j) est->record(key);
  }
  est->roll_period();
  // Popularity must be monotone in access count.
  EXPECT_LT(est->popularity("k10"), est->popularity("k50"));
  EXPECT_LT(est->popularity("k50"), est->popularity("k99"));
}

}  // namespace
}  // namespace agar::core
