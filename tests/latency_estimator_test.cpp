// Per-region latency estimation.
#include "stats/latency_estimator.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace agar::stats {
namespace {

TEST(LatencyEstimator, ZeroRegionsThrows) {
  EXPECT_THROW(LatencyEstimator(0), std::invalid_argument);
}

TEST(LatencyEstimator, UnsampledIsInfinite) {
  LatencyEstimator e(3);
  EXPECT_TRUE(std::isinf(e.estimate_ms(0)));
  EXPECT_FALSE(e.has_sample(0));
}

TEST(LatencyEstimator, FirstSampleSeedsEstimate) {
  LatencyEstimator e(3, 0.5);
  e.record(1, 200.0);
  EXPECT_DOUBLE_EQ(e.estimate_ms(1), 200.0);
  EXPECT_TRUE(e.has_sample(1));
  EXPECT_EQ(e.samples(1), 1u);
}

TEST(LatencyEstimator, SubsequentSamplesBlend) {
  LatencyEstimator e(2, 0.5);
  e.record(0, 100.0);
  e.record(0, 200.0);
  EXPECT_DOUBLE_EQ(e.estimate_ms(0), 150.0);  // 0.5*200 + 0.5*100
}

TEST(LatencyEstimator, TracksDrift) {
  LatencyEstimator e(1, 0.5);
  e.record(0, 100.0);
  for (int i = 0; i < 30; ++i) e.record(0, 500.0);
  EXPECT_NEAR(e.estimate_ms(0), 500.0, 1.0);
}

TEST(LatencyEstimator, OutOfRangeThrows) {
  // Named `est`, not `e`: EXPECT_THROW's internal catch clause binds
  // `std::exception& e` and -Wshadow objects to the collision.
  LatencyEstimator est(2);
  EXPECT_THROW(est.record(5, 1.0), std::out_of_range);
  EXPECT_THROW((void)est.estimate_ms(5), std::out_of_range);
}

TEST(LatencyEstimator, IndependentRegions) {
  LatencyEstimator e(3, 0.5);
  e.record(0, 10.0);
  e.record(2, 30.0);
  EXPECT_DOUBLE_EQ(e.estimate_ms(0), 10.0);
  EXPECT_TRUE(std::isinf(e.estimate_ms(1)));
  EXPECT_DOUBLE_EQ(e.estimate_ms(2), 30.0);
}

}  // namespace
}  // namespace agar::stats
