// Cache manager: option generation over live stats, reconfiguration, and
// the installed configuration's invariants.
#include "core/cache_manager.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <set>

#include "api/registry.hpp"

namespace agar::core {
namespace {

std::unique_ptr<PopularityEstimator> make_estimator() {
  return api::EstimatorRegistry::instance().create(
      "exact-ewma", api::EstimatorContext{}, {});
}

/// What the `recording` planner was handed at its last call.
struct Recorded {
  std::vector<std::vector<CachingOption>> groups;
  std::size_t capacity_units = 0;
  std::size_t calls = 0;
};

Recorded& recorded() {
  static Recorded r;
  return r;
}

/// The exact DP, recording its input; `reverse` hands the choice back out
/// of group order.
class RecordingPlanner final : public Planner {
 public:
  explicit RecordingPlanner(bool reverse) : reverse_(reverse) {}

  KnapsackResult plan(const std::vector<std::vector<CachingOption>>& groups,
                      std::size_t capacity_units) override {
    recorded() = Recorded{groups, capacity_units, recorded().calls + 1};
    KnapsackResult result = solve_dp(groups, capacity_units);
    if (reverse_) std::reverse(result.chosen.begin(), result.chosen.end());
    return result;
  }

  [[nodiscard]] std::string name() const override {
    return reverse_ ? "reversing" : "recording";
  }

 private:
  bool reverse_;
};

const api::PlannerRegistration kRecording{{
    "recording", "recording", "test: the exact DP, recording its input",
    api::ParamSchema{},
    [](const api::PlannerContext&, const api::ParamMap&) {
      return std::make_unique<RecordingPlanner>(false);
    },
    {}}};

const api::PlannerRegistration kReversing{{
    "reversing", "reversing", "test: the exact DP, choice out of group order",
    api::ParamSchema{},
    [](const api::PlannerContext&, const api::ParamMap&) {
      return std::make_unique<RecordingPlanner>(true);
    },
    {}}};

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

  std::unique_ptr<CacheManager> make_manager(
      std::size_t cache_bytes, const std::string& planner = "knapsack-dp") {
    RegionManagerParams rp;
    rp.local_region = sim::region::kFrankfurt;
    region_manager_ =
        std::make_unique<RegionManager>(&backend_, &network_, rp);
    region_manager_->probe();
    estimator_ = make_estimator();
    cache_ = std::make_unique<cache::StaticConfigCache>(cache_bytes);
    CacheManagerParams cp;
    cp.candidate_weights = {1, 3, 5, 7, 9};
    cp.planner = planner;
    return std::make_unique<CacheManager>(&backend_, region_manager_.get(),
                                          estimator_.get(), cache_.get(), cp);
  }

  [[nodiscard]] ObjectId id(const ObjectKey& key) const {
    return backend_.id_of(key);
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

TEST_F(CacheManagerTest, NothingTrackedPlansTheEmptyInputAtZeroUnits) {
  // With no known key there is no chunk size to measure the cache in.
  auto mgr = make_manager(10_MB, "recording");
  const std::size_t calls = recorded().calls;
  (void)mgr->reconfigure();
  EXPECT_EQ(recorded().calls, calls + 1);
  EXPECT_TRUE(recorded().groups.empty());
  EXPECT_EQ(recorded().capacity_units, 0u);

  estimator_->record("not-in-backend");
  (void)mgr->reconfigure();
  EXPECT_TRUE(recorded().groups.empty());
  EXPECT_EQ(recorded().capacity_units, 0u);

  // One tracked object: the cache in units of its chunk.
  estimator_->record("object0");
  (void)mgr->reconfigure();
  EXPECT_EQ(recorded().groups.size(), 1u);
  EXPECT_EQ(recorded().capacity_units,
            10_MB / backend_.object_info(backend_.id_of("object0")).chunk_size);
}

TEST_F(CacheManagerTest, PlannerChoiceOutOfKeyOrderThrows) {
  auto mgr = make_manager(10_MB, "reversing");
  for (int i = 0; i < 50; ++i) estimator_->record("object0");
  for (int i = 0; i < 40; ++i) estimator_->record("object1");
  EXPECT_THROW((void)mgr->reconfigure(), std::logic_error);
}

TEST_F(CacheManagerTest, ConfigurationIsTheChoiceInKeyOrder) {
  auto mgr = make_manager(20_MB);
  for (int k = 0; k < 20; ++k) {
    for (int i = 0; i < 20 - k; ++i) {
      estimator_->record("object" + std::to_string(k));
    }
  }
  const auto& config = mgr->reconfigure();
  ASSERT_GT(config.entries.size(), 1u);
  for (std::size_t i = 1; i < config.entries.size(); ++i) {
    EXPECT_LT(backend_.key_of(config.entries[i - 1].object),
              backend_.key_of(config.entries[i].object));
  }
  for (const auto& opt : config.entries) {
    EXPECT_EQ(config.find(opt.object), &opt);
  }
  EXPECT_EQ(config.find(99), nullptr);
}

/// Options as the generator made them one object at a time, from the
/// object's own chunk costs (RegionManager::chunk_costs by id): sort the
/// k + m chunks most distant first, drop the m furthest, cache the w most
/// distant of the rest, and value the drop in the furthest latency left.
struct Reference {
  std::vector<std::vector<CachingOption>> groups;
  /// Each object's k needed chunks, most distant first.
  std::map<ObjectId, std::vector<ChunkIndex>> chunks;
};

Reference per_object_reference(
    const store::BackendCluster& backend, const RegionManager& rm,
    const std::vector<std::pair<ObjectKey, double>>& snapshot) {
  const std::vector<std::size_t> weights = {1, 3, 5, 7, 9};
  constexpr std::size_t kM = 3;
  constexpr double kCacheMs = 55.0;
  std::size_t quantum = std::numeric_limits<std::size_t>::max();
  for (const auto& [key, pop] : snapshot) {
    if (const auto id = backend.find_id(key)) {
      quantum = std::min(quantum, backend.object_info(*id).chunk_size);
    }
  }
  Reference ref;
  for (const auto& [key, popularity] : snapshot) {
    const auto id = backend.find_id(key);
    if (!id.has_value() || popularity <= 0.0) continue;
    std::vector<ChunkCost> costs;
    rm.chunk_costs(*id, costs);
    std::sort(costs.begin(), costs.end(),
              [](const ChunkCost& a, const ChunkCost& b) {
                if (a.latency_ms != b.latency_ms) {
                  return a.latency_ms > b.latency_ms;
                }
                if (a.region != b.region) return a.region > b.region;
                return a.index < b.index;
              });
    for (std::size_t i = kM; i < costs.size(); ++i) {
      ref.chunks[*id].push_back(costs[i].index);
    }
    const double uncached_ms = costs[kM].latency_ms;
    const std::size_t chunk_bytes = backend.object_info(*id).chunk_size;
    std::vector<CachingOption> group;
    for (const std::size_t w : weights) {
      CachingOption o;
      o.object = *id;
      o.weight = w;
      o.weight_units = static_cast<std::size_t>(
          std::ceil(static_cast<double>(w) * static_cast<double>(chunk_bytes) /
                    static_cast<double>(quantum)));
      const double after_ms =
          std::max(kM + w < costs.size() ? costs[kM + w].latency_ms : 0.0,
                   kCacheMs);
      o.value = popularity * std::max(0.0, uncached_ms - after_ms);
      group.push_back(o);
    }
    ref.groups.push_back(std::move(group));
  }
  return ref;
}

class PerLayoutOptions : public ::testing::TestWithParam<bool> {};

TEST_P(PerLayoutOptions, MatchThePerObjectReference) {
  // Per-key placement offsets give the objects all six stripe layouts;
  // without them every object shares one. Two object sizes make the
  // quantum (the smaller chunk) rescale the larger objects' footprints.
  const bool per_key_offset = GetParam();
  const sim::Topology topology = sim::aws_six_regions();
  sim::Network network(sim::LatencyModel(&topology, {}, 99));
  store::BackendCluster backend(6, ec::CodecParams{9, 3},
                                ec::RoundRobinPlacement(per_key_offset));
  for (int i = 0; i < 30; ++i) {
    backend.register_object("object" + std::to_string(i),
                            i % 3 == 0 ? 3_MB / 2 : 1_MB);
  }
  std::set<std::uint32_t> layouts;
  for (ObjectId id = 0; id < backend.num_objects(); ++id) {
    layouts.insert(backend.object_info(id).layout);
  }
  EXPECT_EQ(layouts.size(), per_key_offset ? 6u : 1u);

  RegionManagerParams rp;
  rp.local_region = sim::region::kFrankfurt;
  RegionManager rm(&backend, &network, rp);
  rm.probe();
  const auto estimator = make_estimator();
  cache::StaticConfigCache cache(10_MB);
  CacheManagerParams cp;
  cp.candidate_weights = {1, 3, 5, 7, 9};
  cp.planner = "recording";
  CacheManager mgr(&backend, &rm, estimator.get(), &cache, cp);

  // Two periods, so the second reuses the first's buffers over a changed
  // key set and changed popularities.
  for (int period = 0; period < 2; ++period) {
    for (int k = period; k < 30; k += 1 + period) {
      for (int i = 0; i < 30 - k; ++i) {
        estimator->record("object" + std::to_string(k));
      }
    }
    estimator->record("not-in-backend");
    const CacheConfiguration& config = mgr.reconfigure();

    const Reference want =
        per_object_reference(backend, rm, estimator->snapshot());
    const auto& got = recorded().groups;
    ASSERT_EQ(got.size(), want.groups.size()) << "period " << period;
    for (std::size_t g = 0; g < want.groups.size(); ++g) {
      const ObjectKey& key = backend.key_of(want.groups[g].front().object);
      ASSERT_EQ(got[g].size(), want.groups[g].size()) << key;
      for (std::size_t o = 0; o < want.groups[g].size(); ++o) {
        const CachingOption& a = got[g][o];
        const CachingOption& b = want.groups[g][o];
        const std::string where = key + " weight " + std::to_string(b.weight);
        EXPECT_EQ(a.object, b.object) << where;
        EXPECT_EQ(a.weight, b.weight) << where;
        EXPECT_EQ(a.weight_units, b.weight_units) << where;
        EXPECT_EQ(a.value, b.value) << where;  // bit-exact
      }
    }

    // Each installed entry's run of the configured chunks is the first
    // `weight` of its object's needed chunks.
    ASSERT_FALSE(config.entries.empty()) << "period " << period;
    std::size_t at = 0;
    for (const CachingOption& opt : config.entries) {
      const ObjectKey& key = backend.key_of(opt.object);
      const auto& needed = want.chunks.at(opt.object);
      ASSERT_LE(at + opt.weight, config.chunks.size()) << key;
      for (std::size_t i = 0; i < opt.weight; ++i) {
        EXPECT_EQ(config.chunks[at + i], (ChunkId{opt.object, needed[i]}.key()))
            << key << " chunk " << i;
      }
      at += opt.weight;
    }
    EXPECT_EQ(at, config.chunks.size()) << "period " << period;
  }
}

INSTANTIATE_TEST_SUITE_P(PlacementOffset, PerLayoutOptions, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& param) {
                           return param.param ? std::string("SixLayouts")
                                              : std::string("OneLayout");
                         });

TEST_F(CacheManagerTest, HotKeysGetConfigured) {
  auto mgr = make_manager(10_MB);
  for (int i = 0; i < 50; ++i) estimator_->record("object0");
  for (int i = 0; i < 10; ++i) estimator_->record("object1");
  const auto& config = mgr->reconfigure();
  EXPECT_NE(config.find(id("object0")), nullptr);
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
  EXPECT_FALSE(config.chunks.empty());
}

TEST_F(CacheManagerTest, HotterKeysGetAtLeastAsManyChunks) {
  auto mgr = make_manager(5_MB);
  for (int i = 0; i < 100; ++i) estimator_->record("object0");
  for (int i = 0; i < 5; ++i) estimator_->record("object1");
  const auto& config = mgr->reconfigure();
  const CachingOption* hot = config.find(id("object0"));
  ASSERT_NE(hot, nullptr);
  if (const CachingOption* cold = config.find(id("object1"))) {
    EXPECT_GE(hot->weight, cold->weight);
  }
}

TEST_F(CacheManagerTest, UnknownKeysAreIgnored) {
  auto mgr = make_manager(10_MB);
  for (int i = 0; i < 50; ++i) estimator_->record("not-in-backend");
  const auto& config = mgr->reconfigure();
  EXPECT_TRUE(config.entries.empty());
}

TEST_F(CacheManagerTest, WeightQuantumIsChunkSizeForUniformObjects) {
  // With one quantum per chunk, an option's footprint in units is its
  // chunk count.
  auto mgr = make_manager(10_MB);
  for (int i = 0; i < 50; ++i) estimator_->record("object0");
  estimator_->record("object1");
  const auto& config = mgr->reconfigure();
  ASSERT_FALSE(config.entries.empty());
  for (const auto& opt : config.entries) {
    EXPECT_EQ(opt.weight_units, opt.weight) << backend_.key_of(opt.object);
  }
}

TEST_F(CacheManagerTest, InstalledKeysMatchConfiguration) {
  auto mgr = make_manager(10_MB);
  for (int i = 0; i < 30; ++i) estimator_->record("object0");
  for (int i = 0; i < 20; ++i) estimator_->record("object1");
  const auto& config = mgr->reconfigure();
  std::size_t weight = 0;
  for (const auto& opt : config.entries) weight += opt.weight;
  EXPECT_GT(weight, 0u);
  EXPECT_EQ(config.chunks.size(), weight);
  for (const ChunkKey key : config.chunks) {
    EXPECT_TRUE(cache_->is_configured(key));
  }
  EXPECT_EQ(cache_->configured_size(), config.chunks.size());
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
  ASSERT_NE(mgr->current().find(id("object0")), nullptr);

  // The workload moves to object5 for several periods; object0 decays.
  for (int period = 0; period < 8; ++period) {
    for (int i = 0; i < 100; ++i) estimator_->record("object5");
    mgr->reconfigure();
  }
  const CachingOption* hot = mgr->current().find(id("object5"));
  ASSERT_NE(hot, nullptr);
  if (const CachingOption* cold = mgr->current().find(id("object0"))) {
    EXPECT_LE(cold->weight, hot->weight);
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
