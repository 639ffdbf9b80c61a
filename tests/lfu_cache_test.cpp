// LFU cache engine: frequency semantics, LRU tie-breaking, O(1) structure
// invariants.
#include "cache/lfu_cache.hpp"

#include <gtest/gtest.h>

namespace agar::cache {
namespace {

/// A distinct chunk key per name, so the cases read by name.
ChunkKey key(const std::string& name) { return fnv1a(name); }

Bytes val(std::size_t n) { return Bytes(n, 0x11); }

TEST(LfuCache, PutGetRoundTrip) {
  LfuCache c(100);
  EXPECT_TRUE(c.put(key("a"), val(10)));
  EXPECT_TRUE(c.get(key("a")).has_value());
}

TEST(LfuCache, EvictsLeastFrequentlyUsed) {
  LfuCache c(30);
  c.put(key("a"), val(10));
  c.put(key("b"), val(10));
  c.put(key("c"), val(10));
  // Bump a and c.
  (void)c.get(key("a"));
  (void)c.get(key("c"));
  c.put(key("d"), val(10));  // evicts b (freq 1, least)
  EXPECT_TRUE(c.contains(key("a")));
  EXPECT_FALSE(c.contains(key("b")));
  EXPECT_TRUE(c.contains(key("c")));
  EXPECT_TRUE(c.contains(key("d")));
}

TEST(LfuCache, FrequencyCountsGetsAndPuts) {
  LfuCache c(100);
  c.put(key("a"), val(10));
  EXPECT_EQ(c.frequency(key("a")), 1u);
  (void)c.get(key("a"));
  (void)c.get(key("a"));
  EXPECT_EQ(c.frequency(key("a")), 3u);
  c.put(key("a"), val(10));  // overwrite also promotes
  EXPECT_EQ(c.frequency(key("a")), 4u);
  EXPECT_EQ(c.frequency(key("missing")), 0u);
}

TEST(LfuCache, TieBreaksByRecency) {
  LfuCache c(30);
  c.put(key("a"), val(10));
  c.put(key("b"), val(10));
  c.put(key("c"), val(10));
  // All freq 1; 'a' is least recently touched.
  c.put(key("d"), val(10));
  EXPECT_FALSE(c.contains(key("a")));
  EXPECT_TRUE(c.contains(key("b")));
}

TEST(LfuCache, HeavyHitterSurvivesScan) {
  // The classic LFU advantage: a frequently accessed key survives a scan of
  // one-shot keys (where LRU would evict it).
  LfuCache c(50);
  c.put(key("hot"), val(10));
  for (int i = 0; i < 20; ++i) (void)c.get(key("hot"));
  for (int i = 0; i < 100; ++i) {
    c.put(key("scan" + std::to_string(i)), val(10));
  }
  EXPECT_TRUE(c.contains(key("hot")));
}

TEST(LfuCache, NeverExceedsCapacity) {
  LfuCache c(75);
  for (int i = 0; i < 500; ++i) {
    c.put(key('k' + std::to_string(i % 31)), val(1 + i % 19));
    ASSERT_LE(c.used_bytes(), 75u);
  }
}

TEST(LfuCache, OversizedRejected) {
  LfuCache c(10);
  EXPECT_FALSE(c.put(key("big"), val(20)));
  EXPECT_EQ(c.stats().rejections, 1u);
}

TEST(LfuCache, EvictionCandidateIsLowestFreqLeastRecent) {
  LfuCache c(100);
  EXPECT_FALSE(c.eviction_candidate().has_value());
  c.put(key("a"), val(10));
  c.put(key("b"), val(10));
  (void)c.get(key("a"));
  EXPECT_EQ(c.eviction_candidate(), key("b"));
  (void)c.get(key("b"));
  (void)c.get(key("b"));
  EXPECT_EQ(c.eviction_candidate(), key("a"));
}

TEST(LfuCache, OverwriteUpdatesByteAccounting) {
  LfuCache c(100);
  c.put(key("a"), val(10));
  c.put(key("a"), val(50));
  EXPECT_EQ(c.used_bytes(), 50u);
}

TEST(LfuCache, GrownOverwriteEvictsOthersNotItself) {
  // After its promotion b is alone in the lowest bucket (a is more
  // frequent), so that bucket's LRU end is b itself: the overwrite must
  // evict a instead, and put's true must mean b is resident.
  LfuCache c(100);
  c.put(key("a"), val(40));
  (void)c.get(key("a"));
  (void)c.get(key("a"));
  c.put(key("b"), val(10));
  EXPECT_TRUE(c.put(key("b"), val(70)));
  EXPECT_TRUE(c.contains(key("b")));
  EXPECT_FALSE(c.contains(key("a")));
  EXPECT_EQ(c.used_bytes(), 70u);
  EXPECT_EQ(c.stats().evictions, 1u);
}

TEST(LfuCache, KeysListsAllResidents) {
  LfuCache c(100);
  c.put(key("a"), val(10));
  c.put(key("b"), val(10));
  (void)c.get(key("b"));
  auto keys = c.keys();
  std::sort(keys.begin(), keys.end());
  std::vector<ChunkKey> want{key("a"), key("b")};
  std::sort(want.begin(), want.end());
  EXPECT_EQ(keys, want);
}

TEST(LfuCache, StatsHitRate) {
  LfuCache c(100);
  c.put(key("a"), val(10));
  (void)c.get(key("a"));
  (void)c.get(key("a"));
  (void)c.get(key("x"));
  EXPECT_EQ(c.stats().hits, 2u);
  EXPECT_EQ(c.stats().misses, 1u);
}

TEST(LfuCache, MixedSizesEvictUntilFit) {
  LfuCache c(100);
  c.put(key("small1"), val(10));
  c.put(key("small2"), val(10));
  c.put(key("big"), val(90));  // must evict both smalls
  EXPECT_TRUE(c.contains(key("big")));
  EXPECT_LE(c.used_bytes(), 100u);
}

TEST(LfuCache, StressManyOperations) {
  LfuCache c(500);
  for (int i = 0; i < 20000; ++i) {
    const ChunkKey k = key('k' + std::to_string(i % 53));
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
