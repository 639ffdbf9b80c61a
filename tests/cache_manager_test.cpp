// Cache manager: option generation over live stats, reconfiguration, and
// the installed configuration's invariants.
#include "core/cache_manager.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "api/registry.hpp"

namespace agar::core {
namespace {

std::unique_ptr<PopularityEstimator> make_estimator() {
  return api::EstimatorRegistry::instance().create(
      "exact-ewma", api::EstimatorContext{}, {});
}

class CacheManagerTest : public ::testing::Test {
 protected:
  CacheManagerTest()
      : topology_(sim::aws_six_regions()),
        network_(sim::LatencyModel(&topology_, {}, 99)),
        backend_(6, ec::CodecParams{9, 3}, ec::RoundRobinPlacement(false)) {
    for (int i = 0; i < 20; ++i) {
      backend_.register_object("object" + std::to_string(i), 1_MB);
    }
  }

  std::unique_ptr<CacheManager> make_manager(std::size_t cache_bytes) {
    RegionManagerParams rp;
    rp.local_region = sim::region::kFrankfurt;
    region_manager_ =
        std::make_unique<RegionManager>(&backend_, &network_, rp);
    region_manager_->probe();
    estimator_ = make_estimator();
    cache_ = std::make_unique<cache::StaticConfigCache>(cache_bytes);
    CacheManagerParams cp;
    cp.candidate_weights = {1, 3, 5, 7, 9};
    return std::make_unique<CacheManager>(&backend_, region_manager_.get(),
                                          estimator_.get(), cache_.get(), cp);
  }

  sim::Topology topology_;
  sim::Network network_;
  store::BackendCluster backend_;
  std::unique_ptr<RegionManager> region_manager_;
  std::unique_ptr<PopularityEstimator> estimator_;
  std::unique_ptr<cache::StaticConfigCache> cache_;
};

TEST_F(CacheManagerTest, NullDependenciesThrow) {
  RegionManagerParams rp;
  RegionManager rm(&backend_, &network_, rp);
  const auto est = make_estimator();
  cache::StaticConfigCache cache(1_MB);
  CacheManagerParams cp;
  EXPECT_THROW(CacheManager(nullptr, &rm, est.get(), &cache, cp),
               std::invalid_argument);
  EXPECT_THROW(CacheManager(&backend_, nullptr, est.get(), &cache, cp),
               std::invalid_argument);
  EXPECT_THROW(CacheManager(&backend_, &rm, nullptr, &cache, cp),
               std::invalid_argument);
  EXPECT_THROW(CacheManager(&backend_, &rm, est.get(), nullptr, cp),
               std::invalid_argument);
}

TEST_F(CacheManagerTest, EmptyStatsYieldEmptyConfiguration) {
  auto mgr = make_manager(10_MB);
  const auto& config = mgr->reconfigure();
  EXPECT_TRUE(config.entries.empty());
  EXPECT_EQ(cache_->configured_size(), 0u);
}

TEST_F(CacheManagerTest, HotKeysGetConfigured) {
  auto mgr = make_manager(10_MB);
  for (int i = 0; i < 50; ++i) estimator_->record("object0");
  for (int i = 0; i < 10; ++i) estimator_->record("object1");
  const auto& config = mgr->reconfigure();
  EXPECT_TRUE(config.entries.contains("object0"));
  EXPECT_GT(cache_->configured_size(), 0u);
}

TEST_F(CacheManagerTest, ConfigurationFitsCapacity) {
  auto mgr = make_manager(10_MB);
  for (int k = 0; k < 20; ++k) {
    for (int i = 0; i < 20 - k; ++i) {
      estimator_->record("object" + std::to_string(k));
    }
  }
  const auto& config = mgr->reconfigure();
  EXPECT_LE(config.total_bytes, 10_MB);
  EXPECT_GT(config.total_chunks, 0u);
}

TEST_F(CacheManagerTest, HotterKeysGetAtLeastAsManyChunks) {
  auto mgr = make_manager(5_MB);
  for (int i = 0; i < 100; ++i) estimator_->record("object0");
  for (int i = 0; i < 5; ++i) estimator_->record("object1");
  const auto& config = mgr->reconfigure();
  if (config.entries.contains("object0") &&
      config.entries.contains("object1")) {
    EXPECT_GE(config.entries.at("object0").weight,
              config.entries.at("object1").weight);
  } else {
    EXPECT_TRUE(config.entries.contains("object0"));
  }
}

TEST_F(CacheManagerTest, UnknownKeysAreIgnored) {
  auto mgr = make_manager(10_MB);
  for (int i = 0; i < 50; ++i) estimator_->record("not-in-backend");
  const auto& config = mgr->reconfigure();
  EXPECT_FALSE(config.entries.contains("not-in-backend"));
}

TEST_F(CacheManagerTest, WeightQuantumIsChunkSizeForUniformObjects) {
  // With one quantum per chunk, an option's footprint in units is its
  // chunk count.
  auto mgr = make_manager(10_MB);
  for (int i = 0; i < 50; ++i) estimator_->record("object0");
  estimator_->record("object1");
  const auto& config = mgr->reconfigure();
  ASSERT_FALSE(config.entries.empty());
  for (const auto& [key, opt] : config.entries) {
    EXPECT_EQ(opt.weight_units, opt.weight) << key;
  }
}

TEST_F(CacheManagerTest, InstalledKeysMatchConfiguration) {
  auto mgr = make_manager(10_MB);
  for (int i = 0; i < 30; ++i) estimator_->record("object0");
  for (int i = 0; i < 20; ++i) estimator_->record("object1");
  const auto& config = mgr->reconfigure();
  std::size_t chunk_keys = 0;
  for (const auto& [key, opt] : config.entries) {
    EXPECT_EQ(opt.object, backend_.id_of(key));
    chunk_keys += opt.chunks.size();
    for (const ChunkIndex c : opt.chunks) {
      EXPECT_TRUE(cache_->is_configured(ChunkId{opt.object, c}.key()));
    }
  }
  EXPECT_EQ(cache_->configured_size(), chunk_keys);
  EXPECT_FALSE(
      cache_->is_configured(ChunkId{backend_.id_of("object19"), 0}.key()));
}

TEST_F(CacheManagerTest, ReconfigureRollsThePeriod) {
  auto mgr = make_manager(10_MB);
  for (int i = 0; i < 100; ++i) estimator_->record("object0");
  mgr->reconfigure();
  EXPECT_DOUBLE_EQ(estimator_->popularity("object0"), 80.0);
  mgr->reconfigure();  // idle period decays popularity
  EXPECT_DOUBLE_EQ(estimator_->popularity("object0"), 16.0);
  EXPECT_EQ(mgr->control_plane_stats().reconfigurations, 2u);
}

TEST_F(CacheManagerTest, AdaptsWhenPopularityShifts) {
  auto mgr = make_manager(5_MB);
  for (int i = 0; i < 100; ++i) estimator_->record("object0");
  mgr->reconfigure();
  ASSERT_TRUE(mgr->current().entries.contains("object0"));

  // The workload moves to object5 for several periods; object0 decays.
  for (int period = 0; period < 8; ++period) {
    for (int i = 0; i < 100; ++i) estimator_->record("object5");
    mgr->reconfigure();
  }
  EXPECT_TRUE(mgr->current().entries.contains("object5"));
  const auto& entries = mgr->current().entries;
  if (entries.contains("object0")) {
    EXPECT_LE(entries.at("object0").weight, entries.at("object5").weight);
  }
}

TEST_F(CacheManagerTest, WeightHistogramCountsObjects) {
  auto mgr = make_manager(50_MB);
  for (int k = 0; k < 10; ++k) {
    for (int i = 0; i < 100 / (k + 1); ++i) {
      estimator_->record("object" + std::to_string(k));
    }
  }
  const auto& config = mgr->reconfigure();
  const auto hist = config.weight_histogram();
  std::size_t total = 0;
  for (const auto& [w, count] : hist) total += count;
  EXPECT_EQ(total, config.entries.size());
}

TEST_F(CacheManagerTest, LargerCacheNeverLowersValue) {
  // make_manager builds a fresh estimator, so each manager records its
  // own accesses.
  auto small = make_manager(5_MB);
  for (int k = 0; k < 10; ++k) {
    for (int i = 0; i < 100 - k * 10; ++i) {
      estimator_->record("object" + std::to_string(k));
    }
  }
  const double small_value = small->reconfigure().total_value;

  auto large = make_manager(20_MB);
  for (int k = 0; k < 10; ++k) {
    for (int i = 0; i < 100 - k * 10; ++i) {
      estimator_->record("object" + std::to_string(k));
    }
  }
  const double large_value = large->reconfigure().total_value;
  EXPECT_GE(large_value, small_value - 1e-9);
}

}  // namespace
}  // namespace agar::core
