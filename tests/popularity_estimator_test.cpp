// Popularity estimators — the paper's request monitor (§III-b): the
// exact-ewma entry reproduces the paper's monitor math (per-period counts
// blended into every reading and folded into the EWMA at each roll),
// count-min never under-estimates and stays within its memory bound, and
// both honor the sorted-snapshot determinism contract.
#include "core/popularity_estimator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "api/registry.hpp"
#include "common/rng.hpp"

namespace agar::core {
namespace {

std::unique_ptr<PopularityEstimator> make_estimator(
    const std::string& name, double alpha = 0.8,
    const api::ParamMap& params = {}) {
  api::EstimatorContext ctx;
  ctx.ewma_alpha = alpha;
  return api::EstimatorRegistry::instance().create(name, ctx, params);
}

class EstimatorContract : public ::testing::TestWithParam<std::string> {};

TEST_P(EstimatorContract, SnapshotIsSortedByKey) {
  auto est = make_estimator(GetParam());
  // Insertion order deliberately unsorted.
  for (const char* key : {"zebra", "apple", "mango", "kiwi", "apple"}) {
    est->record(key);
  }
  const auto snap = est->snapshot();
  ASSERT_GE(snap.size(), 4u);
  EXPECT_TRUE(std::is_sorted(
      snap.begin(), snap.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; }));
}

TEST_P(EstimatorContract, ColdStartStillRanksKeys) {
  auto est = make_estimator(GetParam());
  for (int i = 0; i < 100; ++i) est->record("hot");
  for (int i = 0; i < 3; ++i) est->record("cold");
  // Before the first roll, blending must already rank hot over cold
  // (paper: first iteration uses alpha * freq).
  EXPECT_GT(est->popularity("hot"), est->popularity("cold"));
  EXPECT_GT(est->popularity("cold"), 0.0);
}

TEST_P(EstimatorContract, IdlePeriodsDecayPopularity) {
  auto est = make_estimator(GetParam());
  for (int i = 0; i < 50; ++i) est->record("k");
  est->roll_period();
  const double p1 = est->popularity("k");
  est->roll_period();
  const double p2 = est->popularity("k");
  EXPECT_LT(p2, p1);
  EXPECT_GT(p1, 0.0);
}

TEST_P(EstimatorContract, DecayedKeysAreDropped) {
  auto est = make_estimator(GetParam());
  est->record("once");
  for (int i = 0; i < 40; ++i) est->roll_period();
  EXPECT_EQ(est->tracked_keys(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Registered, EstimatorContract,
    ::testing::ValuesIn(api::EstimatorRegistry::instance().names()),
    [](const ::testing::TestParamInfo<std::string>& param_info) {
      std::string name = param_info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(ExactEwmaEstimator, ReproducesThePapersMonitorMath) {
  auto est = make_estimator("exact-ewma");
  for (int i = 0; i < 100; ++i) est->record("key1");
  EXPECT_DOUBLE_EQ(est->popularity("key1"), 80.0);  // 0.8 * 100
  est->roll_period();
  EXPECT_DOUBLE_EQ(est->popularity("key1"), 80.0);
  for (int i = 0; i < 50; ++i) est->record("key1");
  est->roll_period();
  EXPECT_DOUBLE_EQ(est->popularity("key1"), 56.0);  // 0.8*50 + 0.2*80
  EXPECT_EQ(est->name(), "exact-ewma");
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

TEST(ExactEwmaEstimator, AlphaWeighsTheClosedPeriod) {
  auto est = make_estimator("exact-ewma", 0.5);
  for (int i = 0; i < 10; ++i) est->record("k");
  est->roll_period();
  EXPECT_DOUBLE_EQ(est->popularity("k"), 5.0);
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

TEST(CountMinEstimator, NeverUnderEstimatesTheExactCounts) {
  auto exact = make_estimator("exact-ewma");
  auto sketch = make_estimator("count-min");
  Rng rng(7);
  for (int period = 0; period < 5; ++period) {
    for (int i = 0; i < 2000; ++i) {
      const std::string key = "object" + std::to_string(rng.next_below(50));
      exact->record(key);
      sketch->record(key);
    }
    // The sketch can only over-count (collisions), never under-count, and
    // the EWMA preserves that ordering period over period.
    for (int k = 0; k < 50; ++k) {
      const std::string key = "object" + std::to_string(k);
      EXPECT_GE(sketch->popularity(key) + 1e-9, exact->popularity(key))
          << key << " period " << period;
    }
    exact->roll_period();
    sketch->roll_period();
  }
}

TEST(CountMinEstimator, HonorsTheCandidateKeyBound) {
  api::ParamMap params;
  params.set("max_keys", "16");
  auto est = make_estimator("count-min", 0.8, params);
  for (int i = 0; i < 500; ++i) est->record("key" + std::to_string(i));
  EXPECT_LE(est->tracked_keys(), 16u);
  EXPECT_LE(est->snapshot().size(), 16u);
}

TEST(CountMinEstimator, HotNewcomerDisplacesAWeakCandidate) {
  api::ParamMap params;
  params.set("max_keys", "4");
  auto est = make_estimator("count-min", 0.8, params);
  for (int k = 0; k < 4; ++k) est->record("filler" + std::to_string(k));
  // A key far hotter than the one-hit fillers must enter the candidate set
  // even though it is full.
  for (int i = 0; i < 100; ++i) est->record("surge");
  const auto snap = est->snapshot();
  const bool has_surge =
      std::any_of(snap.begin(), snap.end(),
                  [](const auto& kv) { return kv.first == "surge"; });
  EXPECT_TRUE(has_surge);
  EXPECT_LE(snap.size(), 4u);
}

TEST(CountMinEstimator, SketchParamsAreApplied) {
  api::ParamMap params;
  params.set("width", "32");
  params.set("depth", "2");
  auto est = make_estimator("count-min", 0.8, params);
  for (int i = 0; i < 10; ++i) est->record("k");
  EXPECT_GT(est->popularity("k"), 0.0);
  EXPECT_EQ(est->name(), "count-min");
}

TEST(EstimatorRegistry, UnknownNameThrowsWithKnownNames) {
  try {
    (void)make_estimator("hyperloglog");
    FAIL() << "expected UnknownNameError";
  } catch (const api::UnknownNameError& e) {
    const auto& known = e.known_names();
    EXPECT_NE(std::find(known.begin(), known.end(), "exact-ewma"),
              known.end());
    EXPECT_NE(std::find(known.begin(), known.end(), "count-min"),
              known.end());
  }
}

}  // namespace
}  // namespace agar::core
