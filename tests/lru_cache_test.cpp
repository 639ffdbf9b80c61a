// LRU cache engine: recency semantics, capacity invariants, stats.
#include "cache/lru_cache.hpp"

#include <gtest/gtest.h>

namespace agar::cache {
namespace {

/// A distinct chunk key per name, so the cases read by name.
ChunkKey key(const std::string& name) { return fnv1a(name); }

Bytes val(std::size_t n, std::uint8_t fill = 0xAB) { return Bytes(n, fill); }

TEST(LruCache, PutGetRoundTrip) {
  LruCache c(100);
  EXPECT_TRUE(c.put(key("a"), val(10, 1)));
  const auto v = c.get(key("a"));
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ((*v)[0], 1);
}

TEST(LruCache, MissReturnsNullopt) {
  LruCache c(100);
  EXPECT_FALSE(c.get(key("nothing")).has_value());
  EXPECT_EQ(c.stats().misses, 1u);
}

TEST(LruCache, EvictsLeastRecentlyUsed) {
  LruCache c(30);
  c.put(key("a"), val(10));
  c.put(key("b"), val(10));
  c.put(key("c"), val(10));
  // Touch "a" so "b" is now least recent.
  (void)c.get(key("a"));
  c.put(key("d"), val(10));  // evicts "b"
  EXPECT_TRUE(c.contains(key("a")));
  EXPECT_FALSE(c.contains(key("b")));
  EXPECT_TRUE(c.contains(key("c")));
  EXPECT_TRUE(c.contains(key("d")));
}

TEST(LruCache, PutRefreshesRecency) {
  LruCache c(30);
  c.put(key("a"), val(10));
  c.put(key("b"), val(10));
  c.put(key("c"), val(10));
  c.put(key("a"), val(10));  // refresh
  c.put(key("d"), val(10));  // evicts "b"
  EXPECT_TRUE(c.contains(key("a")));
  EXPECT_FALSE(c.contains(key("b")));
}

TEST(LruCache, NeverExceedsCapacity) {
  LruCache c(55);
  for (int i = 0; i < 100; ++i) {
    c.put(key('k' + std::to_string(i)), val(10));
    EXPECT_LE(c.used_bytes(), c.capacity_bytes());
  }
}

TEST(LruCache, OversizedValueRejected) {
  LruCache c(10);
  EXPECT_FALSE(c.put(key("big"), val(11)));
  EXPECT_EQ(c.stats().rejections, 1u);
  EXPECT_EQ(c.used_bytes(), 0u);
}

TEST(LruCache, ExactCapacityFits) {
  LruCache c(10);
  EXPECT_TRUE(c.put(key("exact"), val(10)));
  EXPECT_EQ(c.used_bytes(), 10u);
}

TEST(LruCache, OverwriteChangesSizeAccounting) {
  LruCache c(100);
  c.put(key("a"), val(10));
  c.put(key("a"), val(60));
  EXPECT_EQ(c.used_bytes(), 60u);
  c.put(key("a"), val(5));
  EXPECT_EQ(c.used_bytes(), 5u);
}

TEST(LruCache, OverwriteLargerMayEvictOthers) {
  LruCache c(30);
  c.put(key("a"), val(10));
  c.put(key("b"), val(10));
  c.put(key("c"), val(10));
  c.put(key("a"), val(25));  // grows; must evict b (LRU among others)
  EXPECT_LE(c.used_bytes(), 30u);
  EXPECT_TRUE(c.contains(key("a")));
}

TEST(LruCache, EvictionCandidateIsOldest) {
  LruCache c(100);
  EXPECT_FALSE(c.eviction_candidate().has_value());
  c.put(key("a"), val(10));
  c.put(key("b"), val(10));
  EXPECT_EQ(c.eviction_candidate(), key("a"));
  (void)c.get(key("a"));
  EXPECT_EQ(c.eviction_candidate(), key("b"));
}

TEST(LruCache, StatsAccumulate) {
  LruCache c(20);
  c.put(key("a"), val(10));
  c.put(key("b"), val(10));
  (void)c.get(key("a"));   // hit
  (void)c.get(key("zz"));  // miss
  c.put(key("c"), val(10));  // evicts one
  const auto& s = c.stats();
  EXPECT_EQ(s.puts, 3u);
  EXPECT_EQ(s.admissions, 3u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_DOUBLE_EQ(s.hit_rate(), 0.5);
}

TEST(LruCache, KeysReflectsResidency) {
  LruCache c(100);
  c.put(key("a"), val(10));
  c.put(key("b"), val(10));
  auto keys = c.keys();
  std::sort(keys.begin(), keys.end());
  std::vector<ChunkKey> want{key("a"), key("b")};
  std::sort(want.begin(), want.end());
  EXPECT_EQ(keys, want);
}

TEST(LruCache, ContainsHasNoRecencyEffect) {
  LruCache c(20);
  c.put(key("a"), val(10));
  c.put(key("b"), val(10));
  // contains("a") must NOT refresh "a".
  EXPECT_TRUE(c.contains(key("a")));
  c.put(key("c"), val(10));  // evicts "a" (still LRU)
  EXPECT_FALSE(c.contains(key("a")));
}

TEST(LruCache, ManyInsertionsStressCapacity) {
  LruCache c(1000);
  for (int i = 0; i < 10000; ++i) {
    c.put(key('k' + std::to_string(i % 177)), val(1 + i % 97));
    ASSERT_LE(c.used_bytes(), 1000u);
  }
}

}  // namespace
}  // namespace agar::cache
