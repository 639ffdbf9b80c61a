// TinyLFU admission extension: frequency duels and sketch behaviour.
#include "cache/tinylfu_cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "api/registry.hpp"

namespace agar::cache {
namespace {

Bytes val(std::size_t n) { return Bytes(n, 0x5A); }

/// Object keys by id, as a backend keeps them: key(name) is chunk 0 of the
/// named object, registered on first use. A cache built over them hashes
/// that chunk as "<name>#0".
struct Names {
  std::vector<ObjectKey> keys;

  ChunkKey key(const std::string& name) {
    const auto it = std::find(keys.begin(), keys.end(), name);
    const auto id = static_cast<ObjectId>(it - keys.begin());
    if (it == keys.end()) keys.push_back(name);
    return ChunkId{id, 0}.key();
  }
};

TEST(TinyLfuCache, BasicPutGet) {
  Names n;
  TinyLfuCache c(100, n.keys);
  EXPECT_TRUE(c.put(n.key("a"), val(10)));
  EXPECT_TRUE(c.get(n.key("a")).has_value());
  EXPECT_FALSE(c.get(n.key("b")).has_value());
}

TEST(TinyLfuCache, ColdCandidateCannotDisplacePopularVictim) {
  Names n;
  TinyLfuCache c(20, n.keys);
  c.put(n.key("hot"), val(20));
  for (int i = 0; i < 50; ++i) (void)c.get(n.key("hot"));
  // "cold" has sketch estimate 0 < hot's; admission declines.
  EXPECT_FALSE(c.put(n.key("cold"), val(20)));
  EXPECT_TRUE(c.contains(n.key("hot")));
}

TEST(TinyLfuCache, PopularCandidateWinsDuel) {
  Names n;
  TinyLfuCache c(20, n.keys);
  c.put(n.key("old"), val(20));
  // Make "new" popular through gets (misses still record in the sketch).
  for (int i = 0; i < 50; ++i) (void)c.get(n.key("new"));
  EXPECT_TRUE(c.put(n.key("new"), val(20)));
  EXPECT_TRUE(c.contains(n.key("new")));
  EXPECT_FALSE(c.contains(n.key("old")));
}

TEST(TinyLfuCache, ResidentKeyAlwaysUpdatable) {
  Names n;
  TinyLfuCache c(30, n.keys);
  c.put(n.key("a"), val(10));
  EXPECT_TRUE(c.put(n.key("a"), val(20)));  // no duel for residents
  EXPECT_EQ(c.used_bytes(), 20u);
}

TEST(TinyLfuCache, NoEvictionNeededNoDuel) {
  Names n;
  TinyLfuCache c(100, n.keys);
  c.put(n.key("a"), val(10));
  for (int i = 0; i < 50; ++i) (void)c.get(n.key("a"));
  // Plenty of space: "b" admitted without displacing anyone.
  EXPECT_TRUE(c.put(n.key("b"), val(10)));
}

TEST(TinyLfuCache, OversizedRejected) {
  Names n;
  TinyLfuCache c(10, n.keys);
  EXPECT_FALSE(c.put(n.key("big"), val(11)));
}

TEST(TinyLfuCache, CapacityInvariant) {
  Names n;
  TinyLfuCache c(100, n.keys);
  for (int i = 0; i < 1000; ++i) {
    const ChunkKey k = n.key('k' + std::to_string(i % 37));
    (void)c.get(k);
    c.put(k, val(1 + i % 23));
    ASSERT_LE(c.used_bytes(), 100u);
  }
}

TEST(TinyLfuCache, SketchRecordsAccesses) {
  Names n;
  TinyLfuCache c(100, n.keys);
  for (int i = 0; i < 10; ++i) (void)c.get(n.key("watched"));
  EXPECT_GE(c.sketch().estimate("watched#0"), 10u);
}

TEST(TinyLfuCache, AgingHalvesEstimates) {
  TinyLfuParams p;
  p.aging_window = 100;
  Names n;
  TinyLfuCache c(100, n.keys, p);
  for (int i = 0; i < 50; ++i) (void)c.get(n.key("a"));
  const auto before = c.sketch().estimate("a#0");
  // Trigger aging with other traffic.
  for (int i = 0; i < 100; ++i) {
    (void)c.get(n.key("filler" + std::to_string(i)));
  }
  EXPECT_LT(c.sketch().estimate("a#0"), before);
}

TEST(TinyLfuCache, RegistryBuildsItOverTheObjectKeys) {
  const auto& engines = api::EngineRegistry::instance();
  EXPECT_THROW((void)engines.create("tinylfu", api::EngineContext{100},
                                    api::ParamMap{}),
               std::invalid_argument);
  Names n;
  const auto c = engines.create(
      "tinylfu", api::EngineContext{100, &n.keys}, api::ParamMap{});
  for (int i = 0; i < 3; ++i) (void)c->get(n.key("x"));
  EXPECT_GE(dynamic_cast<const TinyLfuCache&>(*c).sketch().estimate("x#0"),
            3u);
}

}  // namespace
}  // namespace agar::cache
