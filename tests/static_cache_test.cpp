// Agar's static-configuration cache: admission gating and reconfiguration.
#include "cache/static_cache.hpp"

#include <gtest/gtest.h>

namespace agar::cache {
namespace {

/// A distinct chunk key per name, so the cases read by name.
ChunkKey key(const std::string& name) { return fnv1a(name); }

Bytes val(std::size_t n) { return Bytes(n, 0x77); }

TEST(StaticCache, RejectsUnconfiguredKeys) {
  StaticConfigCache c(100);
  EXPECT_FALSE(c.put(key("a"), val(10)));
  EXPECT_EQ(c.stats().rejections, 1u);
  c.install_configuration({key("a")});
  EXPECT_TRUE(c.put(key("a"), val(10)));
}

TEST(StaticCache, GetServesOnlyPopulatedEntries) {
  StaticConfigCache c(100);
  c.install_configuration({key("a"), key("b")});
  c.put(key("a"), val(10));
  EXPECT_TRUE(c.get(key("a")).has_value());
  // "b" is configured but nobody populated it yet.
  EXPECT_FALSE(c.get(key("b")).has_value());
  EXPECT_EQ(c.stats().misses, 1u);
}

TEST(StaticCache, ReconfigurationEvictsDroppedKeys) {
  StaticConfigCache c(100);
  c.install_configuration({key("a"), key("b")});
  c.put(key("a"), val(10));
  c.put(key("b"), val(10));
  c.install_configuration({key("b"), key("c")});
  EXPECT_FALSE(c.contains(key("a")));
  EXPECT_TRUE(c.contains(key("b")));
  EXPECT_EQ(c.stats().evictions, 1u);
  EXPECT_EQ(c.used_bytes(), 10u);
}

TEST(StaticCache, ReconfigurationKeepsSurvivors) {
  StaticConfigCache c(100);
  c.install_configuration({key("x")});
  c.put(key("x"), val(42));
  c.install_configuration({key("x"), key("y")});
  const auto v = c.get(key("x"));
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->size(), 42u);
}

TEST(StaticCache, IsConfiguredReflectsCurrentSet) {
  StaticConfigCache c(100);
  c.install_configuration({key("a")});
  EXPECT_TRUE(c.is_configured(key("a")));
  EXPECT_FALSE(c.is_configured(key("b")));
  EXPECT_EQ(c.configured_size(), 1u);
}

TEST(StaticCache, CapacityIsRespected) {
  StaticConfigCache c(25);
  c.install_configuration({key("a"), key("b"), key("c")});
  EXPECT_TRUE(c.put(key("a"), val(10)));
  EXPECT_TRUE(c.put(key("b"), val(10)));
  // Would exceed capacity; declined rather than evicting a sibling.
  EXPECT_FALSE(c.put(key("c"), val(10)));
  EXPECT_EQ(c.used_bytes(), 20u);
}

TEST(StaticCache, OversizedValueRejected) {
  StaticConfigCache c(10);
  c.install_configuration({key("a")});
  EXPECT_FALSE(c.put(key("a"), val(11)));
}

TEST(StaticCache, OverwriteConfiguredKeyUpdatesBytes) {
  StaticConfigCache c(100);
  c.install_configuration({key("a")});
  c.put(key("a"), val(10));
  c.put(key("a"), val(30));
  EXPECT_EQ(c.used_bytes(), 30u);
}

TEST(StaticCache, InstallCountsAddedAndDroppedKeys) {
  StaticConfigCache c(100);
  auto churn = c.install_configuration({key("a"), key("b")});
  EXPECT_EQ(churn.added, 2u);
  EXPECT_EQ(churn.dropped, 0u);
  churn = c.install_configuration({key("b"), key("c"), key("d")});
  EXPECT_EQ(churn.added, 2u);    // c, d
  EXPECT_EQ(churn.dropped, 1u);  // a
  churn = c.install_configuration({key("d")});
  EXPECT_EQ(churn.added, 0u);
  EXPECT_EQ(churn.dropped, 2u);  // b, c
}

TEST(StaticCache, EmptyConfigurationEvictsEverything) {
  StaticConfigCache c(100);
  c.install_configuration({key("a"), key("b")});
  c.put(key("a"), val(10));
  c.put(key("b"), val(10));
  c.install_configuration({});
  EXPECT_EQ(c.used_bytes(), 0u);
  EXPECT_TRUE(c.keys().empty());
}

TEST(StaticCache, HitMissStats) {
  StaticConfigCache c(100);
  c.install_configuration({key("a")});
  c.put(key("a"), val(5));
  (void)c.get(key("a"));
  (void)c.get(key("a"));
  (void)c.get(key("zzz"));
  EXPECT_EQ(c.stats().hits, 2u);
  EXPECT_EQ(c.stats().misses, 1u);
}

}  // namespace
}  // namespace agar::cache
