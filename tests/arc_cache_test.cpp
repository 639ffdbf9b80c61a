// ARC engine: recency/frequency promotion, ghost-driven adaptation of the
// T1 target, capacity and directory bounds, and engine-registry wiring.
// (The generic engine invariants in property_test cover ARC automatically
// through the registry; these tests pin the ARC-specific behaviour.)
#include "cache/arc_cache.hpp"

#include <gtest/gtest.h>

#include "api/registry.hpp"

namespace agar::cache {
namespace {

/// A distinct chunk key per name, so the cases read by name.
ChunkKey key(const std::string& name) { return fnv1a(name); }

Bytes value(std::size_t n, std::uint8_t fill = 0xAB) {
  return Bytes(n, fill);
}

TEST(ArcCache, BasicPutGet) {
  ArcCache cache(1024);
  EXPECT_TRUE(cache.put(key("a"), value(100)));
  EXPECT_TRUE(cache.contains(key("a")));
  const auto hit = cache.get(key("a"));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->size(), 100u);
  EXPECT_EQ(cache.used_bytes(), 100u);
}

TEST(ArcCache, RepeatAccessPromotesToFrequencySide) {
  ArcCache cache(1000);
  cache.put(key("once"), value(100));
  cache.put(key("twice"), value(100));
  (void)cache.get(key("twice"));  // promoted to T2
  EXPECT_EQ(cache.t1_bytes(), 100u);  // "once"
  EXPECT_EQ(cache.t2_bytes(), 100u);  // "twice"
}

TEST(ArcCache, OneHitWondersCannotFlushFrequentEntries) {
  // A hot entry re-accessed repeatedly must survive a stream of scan-like
  // one-time keys that exceeds the cache size many times over.
  ArcCache cache(1000);
  cache.put(key("hot"), value(100));
  (void)cache.get(key("hot"));
  for (int i = 0; i < 100; ++i) {
    cache.put(key("scan" + std::to_string(i)), value(100));
    (void)cache.get(key("hot"));  // keeps its frequency fresh
  }
  EXPECT_TRUE(cache.contains(key("hot")));
}

TEST(ArcCache, GhostHitGrowsRecencyTarget) {
  ArcCache cache(300);
  cache.put(key("a"), value(100));
  (void)cache.get(key("a"));  // a -> T2, so T1 stays below capacity
  cache.put(key("b"), value(100));
  cache.put(key("c"), value(100));
  cache.put(key("d"), value(100));  // evicts "b" (T1 LRU) to the B1 ghost list
  EXPECT_FALSE(cache.contains(key("b")));
  const std::size_t before = cache.target_t1_bytes();
  // Re-inserting the ghost is the signal "T1 was too small".
  cache.put(key("b"), value(100));
  EXPECT_GT(cache.target_t1_bytes(), before);
  EXPECT_TRUE(cache.contains(key("b")));
}

TEST(ArcCache, CapacityNeverExceededAndDirectoryBounded) {
  ArcCache cache(500);
  for (int i = 0; i < 300; ++i) {
    cache.put(key('k' + std::to_string(i % 60)), value(30 + (i % 5) * 10));
    (void)cache.get(key('k' + std::to_string((i * 7) % 60)));
    ASSERT_LE(cache.used_bytes(), cache.capacity_bytes());
    // Ghost directory bounded by ~2x capacity.
    ASSERT_LE(cache.used_bytes() + cache.ghost_bytes(),
              2 * cache.capacity_bytes() + 100);
  }
}

TEST(ArcCache, OversizedValueRejected) {
  ArcCache cache(100);
  EXPECT_FALSE(cache.put(key("big"), value(200)));
  EXPECT_EQ(cache.stats().rejections, 1u);
  EXPECT_EQ(cache.used_bytes(), 0u);
}

TEST(ArcCache, OverwriteUpdatesBytesAndValue) {
  ArcCache cache(1000);
  cache.put(key("k"), value(100, 1));
  cache.put(key("k"), value(300, 2));
  const auto hit = cache.get(key("k"));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->size(), 300u);
  EXPECT_EQ((*hit)[0], 2);
  EXPECT_EQ(cache.used_bytes(), 300u);
}

TEST(ArcCache, GrownOverwriteEvictsOthersNotItself) {
  // The last overwrite grows key 3 while it is alone in T2 and T1 is within
  // its target: T1's LRU end goes instead of the entry, and put's true
  // means key 3 is resident.
  ArcCache cache(100);
  const std::pair<const char*, std::size_t> puts[] = {
      {"4", 96}, {"2", 45}, {"4", 6},  {"4", 43}, {"3", 84},
      {"4", 41}, {"3", 16}, {"2", 14}, {"3", 94}};
  for (const auto& [name, size] : puts) {
    EXPECT_TRUE(cache.put(key(name), value(size))) << name << ":" << size;
    EXPECT_TRUE(cache.contains(key(name))) << name << ":" << size;
    EXPECT_LE(cache.used_bytes(), 100u);
  }
  EXPECT_EQ(cache.t2_bytes(), 94u);
}

TEST(ArcCache, RegisteredAsEngineOnly) {
  // The openness proof: ARC exists in the engine registry (its .cpp is its
  // ONLY wiring) and runs as a system via the fixed-chunks fallback — it
  // must NOT need a strategy registration of its own.
  EXPECT_TRUE(api::EngineRegistry::instance().contains("arc"));
  EXPECT_FALSE(api::StrategyRegistry::instance().contains("arc"));
  const auto engine = api::EngineRegistry::instance().create(
      "arc", api::EngineContext{2048}, api::ParamMap{});
  ASSERT_NE(engine, nullptr);
  EXPECT_EQ(engine->capacity_bytes(), 2048u);
  EXPECT_NE(dynamic_cast<ArcCache*>(engine.get()), nullptr);
}

}  // namespace
}  // namespace agar::cache
