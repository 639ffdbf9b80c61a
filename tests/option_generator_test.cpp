// Caching-option generation (§IV-A), including the paper's worked example
// from Table I.
#include "core/option_generator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <type_traits>

namespace agar::core {
namespace {

// An option is plain data: its chunks are its layout's.
static_assert(std::is_trivially_copyable_v<CachingOption>);

// The paper's Table I scenario: client in Frankfurt, RS(9, 3), two chunks
// per region, latencies 80/200/600/1400/3400/4600 ms. Chunk i lives in
// region i % 6 (Frankfurt=0 ... Sydney=5).
std::vector<ChunkCost> table1_costs() {
  const std::vector<double> latency = {80, 200, 600, 1400, 3400, 4600};
  std::vector<ChunkCost> costs;
  for (ChunkIndex i = 0; i < 12; ++i) {
    costs.push_back(ChunkCost{i, i % 6, latency[i % 6]});
  }
  return costs;
}

OptionGeneratorParams paper_params() {
  OptionGeneratorParams p;
  p.k = 9;
  p.m = 3;
  p.cache_latency_ms = 55.0;
  p.candidate_weights = {1, 3, 5, 7, 9};
  return p;
}

/// Table I's one stripe layout, valued.
LayoutOptions table1_layout() {
  auto costs = table1_costs();
  LayoutOptions layout;
  OptionGenerator(paper_params()).value_layout(costs, layout);
  return layout;
}

TEST(OptionGenerator, ValidatesParams) {
  OptionGeneratorParams p;
  p.k = 0;
  EXPECT_THROW(OptionGenerator{p}, std::invalid_argument);
  p = OptionGeneratorParams{};
  p.candidate_weights = {0};
  EXPECT_THROW(OptionGenerator{p}, std::invalid_argument);
  p.candidate_weights = {10};  // > k = 9
  EXPECT_THROW(OptionGenerator{p}, std::invalid_argument);
}

TEST(OptionGenerator, DefaultWeightsAreOneToK) {
  OptionGeneratorParams p;
  p.k = 4;
  p.m = 2;
  const OptionGenerator gen(p);
  EXPECT_EQ(gen.params().candidate_weights,
            (std::vector<std::size_t>{1, 2, 3, 4}));
}

TEST(OptionGenerator, WrongChunkCountThrows) {
  const OptionGenerator gen(paper_params());
  std::vector<ChunkCost> costs(5);
  EXPECT_THROW((void)gen.generate(costs, 1.0), std::invalid_argument);
}

TEST(OptionGenerator, PaperExampleWeightOne) {
  // §IV example: popularity 80. The m=3 furthest chunks (2x Sydney, 1x
  // Tokyo) are discarded. Weight 1 caches the remaining Tokyo chunk; the
  // improvement is Tokyo - Sao Paulo = 3400 - 1400 = 2000, value 160,000.
  const OptionGenerator gen(paper_params());
  const auto options = gen.generate(table1_costs(), 80.0);
  ASSERT_EQ(options.size(), 5u);

  const CachingOption& w1 = options[0];
  EXPECT_EQ(w1.weight, 1u);
  // The cached chunk, the layout's first, must be a Tokyo chunk (region 4
  // -> indices 4 or 10).
  const ChunkIndex first = table1_layout().chunks.front();
  EXPECT_TRUE(first == 4 || first == 10);
  EXPECT_DOUBLE_EQ(w1.value, 80.0 * 2000.0);
}

TEST(OptionGenerator, PaperExampleAbsoluteValueOfWeightThree) {
  // Caching 3 chunks (Tokyo + both Sao Paulo) leaves N. Virginia as the
  // furthest contacted region: improvement 3400 - 600 = 2800. The paper's
  // incremental phrasing (160,000 then 64,000 for the extra two chunks)
  // sums to the same total: 80 * 2800 = 224,000. Options carry absolute
  // values because the planner picks at most one option per key.
  const OptionGenerator gen(paper_params());
  const auto options = gen.generate(table1_costs(), 80.0);
  const CachingOption& w3 = options[1];
  EXPECT_EQ(w3.weight, 3u);
  EXPECT_DOUBLE_EQ(w3.value, 80.0 * 2800.0);
}

TEST(OptionGenerator, FullWeightUsesCacheLatencyFloor) {
  const OptionGenerator gen(paper_params());
  const auto options = gen.generate(table1_costs(), 1.0);
  const CachingOption& w9 = options.back();
  EXPECT_EQ(w9.weight, 9u);
  // Everything needed cached: improvement = 3400 - cache latency.
  EXPECT_DOUBLE_EQ(w9.value, 3400.0 - 55.0);
  EXPECT_DOUBLE_EQ(table1_layout().gain_ms.back(), 3400.0 - 55.0);
}

TEST(OptionGenerator, DiscardsTheMFurthestChunks) {
  // The layout's k needed chunks hold no Sydney chunk (5, 11) and at most
  // one Tokyo chunk (the other was discarded as one of the m furthest), so
  // no option caches either.
  const LayoutOptions layout = table1_layout();
  ASSERT_EQ(layout.chunks.size(), 9u);
  std::size_t tokyo = 0;
  for (const ChunkIndex c : layout.chunks) {
    EXPECT_NE(c % 6, 5u) << "cached a Sydney chunk";
    if (c % 6 == 4) ++tokyo;
  }
  EXPECT_LE(tokyo, 1u);
}

TEST(OptionGenerator, CachesMostDistantFirst) {
  // Weight 5 caches the layout's first five chunks: Tokyo x1, Sao Paulo
  // x2, N. Virginia x2.
  const LayoutOptions layout = table1_layout();
  std::vector<RegionId> regions;
  for (std::size_t i = 0; i < 5; ++i) regions.push_back(layout.chunks[i] % 6);
  std::sort(regions.begin(), regions.end());
  EXPECT_EQ(regions, (std::vector<RegionId>{2, 2, 3, 3, 4}));
}

TEST(OptionGenerator, ValueScalesWithPopularity) {
  const OptionGenerator gen(paper_params());
  const auto low = gen.generate(table1_costs(), 1.0);
  const auto high = gen.generate(table1_costs(), 10.0);
  for (std::size_t i = 0; i < low.size(); ++i) {
    EXPECT_DOUBLE_EQ(high[i].value, low[i].value * 10.0);
  }
}

TEST(OptionGenerator, ValuesAreMonotoneInWeight) {
  const OptionGenerator gen(paper_params());
  const auto options = gen.generate(table1_costs(), 5.0);
  for (std::size_t i = 1; i < options.size(); ++i) {
    EXPECT_GE(options[i].value, options[i - 1].value);
  }
}

TEST(OptionGenerator, GainMatchesResidualChunk) {
  const LayoutOptions layout = table1_layout();
  // After caching 1 chunk the furthest remaining is Sao Paulo.
  EXPECT_DOUBLE_EQ(layout.gain_ms[0], 3400.0 - 1400.0);
  // After caching 5 the furthest remaining is Dublin (200).
  EXPECT_DOUBLE_EQ(layout.gain_ms[2], 3400.0 - 200.0);
}

TEST(OptionGenerator, UniformLatencyYieldsLittleValue) {
  // All regions equidistant: caching fewer than k chunks cannot improve the
  // bottleneck, so only the full-weight option has value.
  OptionGeneratorParams p;
  p.k = 4;
  p.m = 2;
  p.cache_latency_ms = 10.0;
  const OptionGenerator gen(p);
  std::vector<ChunkCost> costs;
  for (ChunkIndex i = 0; i < 6; ++i) costs.push_back({i, i, 500.0});
  const auto options = gen.generate(costs, 1.0);
  for (const auto& opt : options) {
    if (opt.weight < 4) {
      EXPECT_DOUBLE_EQ(opt.value, 0.0) << opt.weight;
    } else {
      EXPECT_DOUBLE_EQ(opt.value, 490.0);
    }
  }
}

TEST(OptionGenerator, ZeroPopularityZeroValue) {
  const OptionGenerator gen(paper_params());
  for (const auto& opt : gen.generate(table1_costs(), 0.0)) {
    EXPECT_DOUBLE_EQ(opt.value, 0.0);
  }
}

TEST(OptionGenerator, WeightIsTheCandidateWeight) {
  const OptionGenerator gen(paper_params());
  const auto options = gen.generate(table1_costs(), 2.0);
  ASSERT_EQ(options.size(), 5u);
  for (std::size_t i = 0; i < options.size(); ++i) {
    EXPECT_EQ(options[i].weight, paper_params().candidate_weights[i]);
    EXPECT_EQ(options[i].weight_units, options[i].weight);
    EXPECT_EQ(options[i].object, 0u);
  }
}

}  // namespace
}  // namespace agar::core
