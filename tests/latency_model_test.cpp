// Latency model: jitter bounds, bandwidth term, determinism.
#include "sim/latency_model.hpp"

#include <gtest/gtest.h>

namespace agar::sim {
namespace {

class LatencyModelTest : public ::testing::Test {
 protected:
  Topology topology_ = aws_six_regions();
};

TEST_F(LatencyModelTest, NullTopologyThrows) {
  EXPECT_THROW(LatencyModel(nullptr, {}, 1), std::invalid_argument);
}

TEST_F(LatencyModelTest, BadJitterThrows) {
  LatencyModelParams p;
  p.jitter_fraction = 1.5;
  EXPECT_THROW(LatencyModel(&topology_, p, 1), std::invalid_argument);
  p.jitter_fraction = -0.1;
  EXPECT_THROW(LatencyModel(&topology_, p, 1), std::invalid_argument);
}

TEST_F(LatencyModelTest, ExpectedMatchesBasePlusTransfer) {
  LatencyModelParams p;
  p.wan_bandwidth_mbps = 100.0;
  LatencyModel model(&topology_, p, 7);
  // 100 Mbps = 12.5 KB/ms; 125000 bytes -> 10 ms.
  const double expected =
      topology_.base_latency_ms(0, 1) + 125000.0 * 8.0 / (100.0 * 1000.0);
  EXPECT_DOUBLE_EQ(model.expected_backend_fetch_ms(0, 1, 125000), expected);
}

TEST_F(LatencyModelTest, JitterStaysWithinBounds) {
  LatencyModelParams p;
  p.jitter_fraction = 0.10;
  p.wan_bandwidth_mbps = 1e9;  // neutralize transfer term
  LatencyModel model(&topology_, p, 11);
  const double base = topology_.base_latency_ms(0, 5);
  for (int i = 0; i < 5000; ++i) {
    const double v = model.backend_fetch_ms(0, 5, 0);
    EXPECT_GE(v, base * 0.9 - 1e-9);
    EXPECT_LE(v, base * 1.1 + 1e-9);
  }
}

TEST_F(LatencyModelTest, ZeroJitterIsExact) {
  LatencyModelParams p;
  p.jitter_fraction = 0.0;
  LatencyModel model(&topology_, p, 3);
  EXPECT_DOUBLE_EQ(model.backend_fetch_ms(2, 3, 0),
                   topology_.base_latency_ms(2, 3));
}

TEST_F(LatencyModelTest, SameSeedSameSequence) {
  LatencyModelParams p;
  LatencyModel a(&topology_, p, 99);
  LatencyModel b(&topology_, p, 99);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.backend_fetch_ms(0, 4, 1000),
                     b.backend_fetch_ms(0, 4, 1000));
  }
}

TEST_F(LatencyModelTest, DifferentSeedsDiffer) {
  LatencyModelParams p;
  LatencyModel a(&topology_, p, 1);
  LatencyModel b(&topology_, p, 2);
  bool any_diff = false;
  for (int i = 0; i < 50; ++i) {
    if (a.backend_fetch_ms(0, 4, 1000) != b.backend_fetch_ms(0, 4, 1000)) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST_F(LatencyModelTest, CacheFetchMuchCheaperThanWan) {
  LatencyModelParams p;
  p.jitter_fraction = 0.0;
  LatencyModel model(&topology_, p, 5);
  const double cache = model.cache_fetch_ms(114_KB);
  const double wan = model.expected_backend_fetch_ms(
      region::kFrankfurt, region::kSydney, 114_KB);
  EXPECT_LT(cache, wan / 5.0);
}

TEST_F(LatencyModelTest, LargerTransfersAreSlower) {
  LatencyModelParams p;
  p.jitter_fraction = 0.0;
  LatencyModel model(&topology_, p, 5);
  EXPECT_LT(model.backend_fetch_ms(0, 1, 1_KB),
            model.backend_fetch_ms(0, 1, 10_MB));
}

TEST_F(LatencyModelTest, MeanJitterIsRoughlyNeutral) {
  LatencyModelParams p;
  p.jitter_fraction = 0.10;
  p.wan_bandwidth_mbps = 1e9;
  LatencyModel model(&topology_, p, 123);
  const double base = topology_.base_latency_ms(0, 3);
  double acc = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) acc += model.backend_fetch_ms(0, 3, 0);
  const double mean = acc / n;
  EXPECT_NEAR(mean, base, base * 0.01);
}

// ------------------------------------------------------- gray failures

TEST_F(LatencyModelTest, StragglerInflatesExpectedLatencyExactly) {
  LatencyModel model(&topology_, {}, 5);
  const double before = model.expected_backend_fetch_ms(0, 1, 1000);
  model.set_region_straggle(1, /*frac=*/1.0, /*mult=*/10.0);
  EXPECT_DOUBLE_EQ(model.expected_backend_fetch_ms(0, 1, 1000), before * 10.0);
  // frac = 0.5 raises the mean by frac * (mult - 1).
  model.set_region_straggle(1, 0.5, 10.0);
  EXPECT_DOUBLE_EQ(model.expected_backend_fetch_ms(0, 1, 1000),
                   before * (1.0 + 0.5 * 9.0));
  model.set_region_straggle(1, 0.0, 10.0);  // clears
  EXPECT_DOUBLE_EQ(model.expected_backend_fetch_ms(0, 1, 1000), before);
  // Other regions are untouched throughout.
  EXPECT_DOUBLE_EQ(model.expected_gray_factor(2), 1.0);
}

TEST_F(LatencyModelTest, DropInflatesExpectedLatency) {
  LatencyModel model(&topology_, {}, 5);
  const double before = model.expected_backend_fetch_ms(0, 4, 1000);
  model.set_region_drop(4, /*p=*/0.3, /*latency_mult=*/3.0);
  EXPECT_GT(model.expected_gray_factor(4), 1.0);
  EXPECT_GT(model.expected_backend_fetch_ms(0, 4, 1000), before);
  model.set_region_drop(4, 0.0, 3.0);  // clears
  EXPECT_DOUBLE_EQ(model.expected_gray_factor(4), 1.0);
  EXPECT_DOUBLE_EQ(model.expected_backend_fetch_ms(0, 4, 1000), before);
}

TEST_F(LatencyModelTest, StragglersShowUpInSamples) {
  LatencyModelParams p;
  p.jitter_fraction = 0.0;
  LatencyModel model(&topology_, p, 5);
  const double nominal = model.expected_backend_fetch_ms(0, 1, 0);
  model.set_region_straggle(1, /*frac=*/1.0, /*mult=*/10.0);
  // With frac = 1 every sample straggles: exactly mult x nominal.
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(model.backend_fetch_ms(0, 1, 0), nominal * 10.0);
  }
}

TEST_F(LatencyModelTest, CertainDropMarksEverySample) {
  LatencyModel model(&topology_, {}, 5);
  model.set_region_drop(1, /*p=*/0.9999, /*latency_mult=*/3.0);
  const auto s = model.sample_backend_fetch(0, 1, 1000);
  EXPECT_TRUE(s.dropped);
  EXPECT_GT(s.latency_ms, 0.0);
}

// Gray RNG draws happen only while a knob is active: setting and clearing
// knobs without sampling in between must not perturb the jitter stream,
// so runs without gray events stay byte-identical.
TEST_F(LatencyModelTest, GrayDrawsAreGatedOnActiveKnobs) {
  LatencyModel plain(&topology_, {}, 77);
  LatencyModel toggled(&topology_, {}, 77);
  toggled.set_region_straggle(2, 0.5, 10.0);
  toggled.set_region_drop(3, 0.2, 3.0);
  toggled.set_region_straggle(2, 0.0, 10.0);
  toggled.set_region_drop(3, 0.0, 3.0);
  for (int i = 0; i < 200; ++i) {
    EXPECT_DOUBLE_EQ(plain.backend_fetch_ms(0, 2, 1000),
                     toggled.backend_fetch_ms(0, 2, 1000));
  }
}

}  // namespace
}  // namespace agar::sim
