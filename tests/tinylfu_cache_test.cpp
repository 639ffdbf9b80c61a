// TinyLFU admission extension: frequency duels and sketch behaviour.
#include "cache/tinylfu_cache.hpp"

#include <gtest/gtest.h>

namespace agar::cache {
namespace {

Bytes val(std::size_t n) { return Bytes(n, 0x5A); }

TEST(TinyLfuCache, BasicPutGet) {
  TinyLfuCache c(100);
  EXPECT_TRUE(c.put("a", val(10)));
  EXPECT_TRUE(c.get("a").has_value());
  EXPECT_FALSE(c.get("b").has_value());
}

TEST(TinyLfuCache, ColdCandidateCannotDisplacePopularVictim) {
  TinyLfuCache c(20);
  c.put("hot", val(20));
  for (int i = 0; i < 50; ++i) (void)c.get("hot");
  // "cold" has sketch estimate 0 < hot's; admission declines.
  EXPECT_FALSE(c.put("cold", val(20)));
  EXPECT_TRUE(c.contains("hot"));
}

TEST(TinyLfuCache, PopularCandidateWinsDuel) {
  TinyLfuCache c(20);
  c.put("old", val(20));
  // Make "new" popular through gets (misses still record in the sketch).
  for (int i = 0; i < 50; ++i) (void)c.get("new");
  EXPECT_TRUE(c.put("new", val(20)));
  EXPECT_TRUE(c.contains("new"));
  EXPECT_FALSE(c.contains("old"));
}

TEST(TinyLfuCache, ResidentKeyAlwaysUpdatable) {
  TinyLfuCache c(30);
  c.put("a", val(10));
  EXPECT_TRUE(c.put("a", val(20)));  // no duel for residents
  EXPECT_EQ(c.used_bytes(), 20u);
}

TEST(TinyLfuCache, NoEvictionNeededNoDuel) {
  TinyLfuCache c(100);
  c.put("a", val(10));
  for (int i = 0; i < 50; ++i) (void)c.get("a");
  // Plenty of space: "b" admitted without displacing anyone.
  EXPECT_TRUE(c.put("b", val(10)));
}

TEST(TinyLfuCache, OversizedRejected) {
  TinyLfuCache c(10);
  EXPECT_FALSE(c.put("big", val(11)));
}

TEST(TinyLfuCache, CapacityInvariant) {
  TinyLfuCache c(100);
  for (int i = 0; i < 1000; ++i) {
    const std::string k = 'k' + std::to_string(i % 37);
    (void)c.get(k);
    c.put(k, val(1 + i % 23));
    ASSERT_LE(c.used_bytes(), 100u);
  }
}

TEST(TinyLfuCache, SketchRecordsAccesses) {
  TinyLfuCache c(100);
  for (int i = 0; i < 10; ++i) (void)c.get("watched");
  EXPECT_GE(c.sketch().estimate("watched"), 10u);
}

TEST(TinyLfuCache, AgingHalvesEstimates) {
  TinyLfuParams p;
  p.aging_window = 100;
  TinyLfuCache c(100, p);
  for (int i = 0; i < 50; ++i) (void)c.get("a");
  const auto before = c.sketch().estimate("a");
  // Trigger aging with other traffic.
  for (int i = 0; i < 100; ++i) (void)c.get("filler" + std::to_string(i));
  EXPECT_LT(c.sketch().estimate("a"), before);
}

}  // namespace
}  // namespace agar::cache
