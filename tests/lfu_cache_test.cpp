// LFU cache engine: frequency semantics, LRU tie-breaking, O(1) structure
// invariants.
#include "cache/lfu_cache.hpp"

#include <gtest/gtest.h>

namespace agar::cache {
namespace {

Bytes val(std::size_t n) { return Bytes(n, 0x11); }

TEST(LfuCache, PutGetRoundTrip) {
  LfuCache c(100);
  EXPECT_TRUE(c.put("a", val(10)));
  EXPECT_TRUE(c.get("a").has_value());
}

TEST(LfuCache, EvictsLeastFrequentlyUsed) {
  LfuCache c(30);
  c.put("a", val(10));
  c.put("b", val(10));
  c.put("c", val(10));
  // Bump a and c.
  (void)c.get("a");
  (void)c.get("c");
  c.put("d", val(10));  // evicts b (freq 1, least)
  EXPECT_TRUE(c.contains("a"));
  EXPECT_FALSE(c.contains("b"));
  EXPECT_TRUE(c.contains("c"));
  EXPECT_TRUE(c.contains("d"));
}

TEST(LfuCache, FrequencyCountsGetsAndPuts) {
  LfuCache c(100);
  c.put("a", val(10));
  EXPECT_EQ(c.frequency("a"), 1u);
  (void)c.get("a");
  (void)c.get("a");
  EXPECT_EQ(c.frequency("a"), 3u);
  c.put("a", val(10));  // overwrite also promotes
  EXPECT_EQ(c.frequency("a"), 4u);
  EXPECT_EQ(c.frequency("missing"), 0u);
}

TEST(LfuCache, TieBreaksByRecency) {
  LfuCache c(30);
  c.put("a", val(10));
  c.put("b", val(10));
  c.put("c", val(10));
  // All freq 1; 'a' is least recently touched.
  c.put("d", val(10));
  EXPECT_FALSE(c.contains("a"));
  EXPECT_TRUE(c.contains("b"));
}

TEST(LfuCache, HeavyHitterSurvivesScan) {
  // The classic LFU advantage: a frequently accessed key survives a scan of
  // one-shot keys (where LRU would evict it).
  LfuCache c(50);
  c.put("hot", val(10));
  for (int i = 0; i < 20; ++i) (void)c.get("hot");
  for (int i = 0; i < 100; ++i) {
    c.put("scan" + std::to_string(i), val(10));
  }
  EXPECT_TRUE(c.contains("hot"));
}

TEST(LfuCache, NeverExceedsCapacity) {
  LfuCache c(75);
  for (int i = 0; i < 500; ++i) {
    c.put('k' + std::to_string(i % 31), val(1 + i % 19));
    ASSERT_LE(c.used_bytes(), 75u);
  }
}

TEST(LfuCache, OversizedRejected) {
  LfuCache c(10);
  EXPECT_FALSE(c.put("big", val(20)));
  EXPECT_EQ(c.stats().rejections, 1u);
}

TEST(LfuCache, EvictionCandidateIsLowestFreqLeastRecent) {
  LfuCache c(100);
  EXPECT_FALSE(c.eviction_candidate().has_value());
  c.put("a", val(10));
  c.put("b", val(10));
  (void)c.get("a");
  EXPECT_EQ(c.eviction_candidate(), "b");
  (void)c.get("b");
  (void)c.get("b");
  EXPECT_EQ(c.eviction_candidate(), "a");
}

TEST(LfuCache, OverwriteUpdatesByteAccounting) {
  LfuCache c(100);
  c.put("a", val(10));
  c.put("a", val(50));
  EXPECT_EQ(c.used_bytes(), 50u);
}

TEST(LfuCache, KeysListsAllResidents) {
  LfuCache c(100);
  c.put("a", val(10));
  c.put("b", val(10));
  (void)c.get("b");
  auto keys = c.keys();
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(keys, (std::vector<std::string>{"a", "b"}));
}

TEST(LfuCache, StatsHitRate) {
  LfuCache c(100);
  c.put("a", val(10));
  (void)c.get("a");
  (void)c.get("a");
  (void)c.get("x");
  EXPECT_EQ(c.stats().hits, 2u);
  EXPECT_EQ(c.stats().misses, 1u);
}

TEST(LfuCache, MixedSizesEvictUntilFit) {
  LfuCache c(100);
  c.put("small1", val(10));
  c.put("small2", val(10));
  c.put("big", val(90));  // must evict both smalls
  EXPECT_TRUE(c.contains("big"));
  EXPECT_LE(c.used_bytes(), 100u);
}

TEST(LfuCache, StressManyOperations) {
  LfuCache c(500);
  for (int i = 0; i < 20000; ++i) {
    const std::string k = 'k' + std::to_string(i % 53);
    if (i % 3 == 0) {
      c.put(k, val(1 + i % 29));
    } else {
      (void)c.get(k);
    }
    ASSERT_LE(c.used_bytes(), 500u);
  }
}

}  // namespace
}  // namespace agar::cache
