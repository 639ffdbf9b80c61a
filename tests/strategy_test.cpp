// Read strategies: latency composition, hit accounting, verify-mode decode,
// failure fallback, and the event loop every strategy is built on.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "client/agar_strategy.hpp"
#include "client/backend_strategy.hpp"
#include "client/fixed_chunks_strategy.hpp"

#include "api/registry.hpp"
#include "api/run.hpp"

namespace agar::client {
namespace {

/// Build a fixed-chunks strategy with its engine from the api registry.
std::unique_ptr<FixedChunksStrategy> make_fixed(ClientContext ctx,
                                                FixedChunksParams p) {
  auto engine = api::EngineRegistry::instance().create(
      p.engine, api::EngineContext{p.cache_capacity_bytes}, api::ParamMap{});
  return std::make_unique<FixedChunksStrategy>(ctx, p, std::move(engine));
}

class StrategyTest : public ::testing::Test {
 protected:
  StrategyTest()
      : topology_(sim::aws_six_regions()),
        network_(sim::LatencyModel(&topology_, zero_jitter(), 3)),
        backend_(6, ec::CodecParams{9, 3}, ec::RoundRobinPlacement(false)) {
    store::populate_working_set(backend_, 5, 9000);
    network_.bind_loop(&loop_);
  }

  static sim::LatencyModelParams zero_jitter() {
    sim::LatencyModelParams p;
    p.jitter_fraction = 0.0;
    // Infinite bandwidth isolates base latencies so expectations are exact.
    p.wan_bandwidth_mbps = std::numeric_limits<double>::infinity();
    p.cache_bandwidth_mbps = std::numeric_limits<double>::infinity();
    p.cache_base_ms = 55.0;
    return p;
  }

  ClientContext ctx(RegionId region, bool verify = true) {
    ClientContext c;
    c.backend = &backend_;
    c.network = &network_;
    c.loop = &loop_;
    c.region = region;
    c.decode_ms_per_mb = 0.0;  // keep latency math exact in tests
    c.verify_data = verify;
    return c;
  }

  /// One reconfiguration through the periodic timer's pipeline (probe
  /// round, plan, population downloads), run to completion.
  void reconfigure(AgarStrategy& s) {
    s.start_reconfiguration();
    loop_.run();
  }

  /// LFU-c exactly as the `lfu` system builds it, from `pairs` of its
  /// registered params.
  std::unique_ptr<ReadStrategy> make_lfu(
      RegionId region, const std::vector<std::string>& pairs) {
    api::ParamMap params;
    for (const auto& pair : pairs) params.set_pair(pair);
    const ClientContext client = ctx(region);
    api::StrategyContext context;
    context.client = &client;
    context.experiment = &experiment_;
    return api::StrategyRegistry::instance().create("lfu", context, params);
  }

  /// Every chunk of `object`, cheapest first by the network's expected
  /// fetch latency from `from` (ties by region, then index).
  std::vector<std::pair<ChunkIndex, RegionId>> by_expected_latency(
      ObjectId object, RegionId from) {
    const store::ObjectInfo& info = backend_.object_info(object);
    const auto ms = [&](RegionId r) {
      return network_.model().expected_backend_fetch_ms(from, r,
                                                        info.chunk_size);
    };
    std::vector<std::pair<ChunkIndex, RegionId>> out;
    for (const auto& loc : info.locations) {
      out.emplace_back(loc.index, loc.region);
    }
    std::sort(out.begin(), out.end(), [&](const auto& a, const auto& b) {
      return std::tuple(ms(a.second), a.second, a.first) <
             std::tuple(ms(b.second), b.second, b.first);
    });
    return out;
  }

  sim::Topology topology_;
  sim::Network network_;
  store::BackendCluster backend_;
  sim::EventLoop loop_;
  ExperimentConfig experiment_;
};

TEST_F(StrategyTest, BackendPlansTheKCheapestChunks) {
  BackendStrategy s(ctx(sim::region::kSydney));
  const ObjectId object = backend_.id_of("object1");
  const auto cheapest = by_expected_latency(object, sim::region::kSydney);
  ReadPlan plan;
  s.plan(object, plan);
  EXPECT_EQ(plan.from_backend,
            std::vector(cheapest.begin(), cheapest.begin() + 9));
  // The other m, cheapest first, are the fallbacks.
  EXPECT_EQ(plan.fallbacks, std::vector(cheapest.begin() + 9, cheapest.end()));
  // And nothing else: no cache, no populations, no overhead.
  EXPECT_TRUE(plan.from_cache.empty());
  EXPECT_TRUE(plan.async_populate.empty());
  EXPECT_TRUE(plan.populate_after_read.empty());
  EXPECT_TRUE(plan.populate_resident);
  EXPECT_EQ(plan.monitor_overhead_ms, 0.0);
}

TEST_F(StrategyTest, FixedChunksPlansTheMostDistantOfTheKFromTheCache) {
  FixedChunksParams p;
  p.engine = "lru";
  p.chunks_per_object = 4;
  p.cache_capacity_bytes = 100_MB;
  p.proxy_overhead_ms = 0.5;
  auto strategy = make_fixed(ctx(sim::region::kFrankfurt), p);
  const ObjectId object = backend_.id_of("object2");
  const auto cheapest = by_expected_latency(object, sim::region::kFrankfurt);
  ReadPlan plan;
  strategy->plan(object, plan);
  // The k - c = 5 cheapest from the backend, the c = 4 most distant of the
  // k cheapest from the cache (hit or miss) and written back after the
  // read unless resident.
  EXPECT_EQ(plan.from_backend,
            std::vector(cheapest.begin(), cheapest.begin() + 5));
  std::vector<ChunkIndex> designated;
  for (std::size_t i = 5; i < 9; ++i) designated.push_back(cheapest[i].first);
  EXPECT_EQ(plan.from_cache, designated);
  EXPECT_EQ(plan.fallbacks, std::vector(cheapest.begin() + 9, cheapest.end()));
  EXPECT_EQ(plan.populate_after_read, plan.from_cache);
  EXPECT_FALSE(plan.populate_resident);
  EXPECT_TRUE(plan.async_populate.empty());
  EXPECT_EQ(plan.monitor_overhead_ms, 0.5);
}

TEST_F(StrategyTest, BackendLatencyIsSlowestNeededChunk) {
  BackendStrategy s(ctx(sim::region::kFrankfurt));
  const ReadResult r = s.read("object0");
  // From Frankfurt the 9th-cheapest chunk lives in Tokyo: base 1130 ms
  // (Table I ordering, scaled).
  EXPECT_DOUBLE_EQ(r.latency_ms, 1130.0);
  EXPECT_EQ(r.backend_chunks, 9u);
  EXPECT_EQ(r.cache_chunks, 0u);
  EXPECT_FALSE(r.partial_hit);
  EXPECT_TRUE(r.verified);
}

TEST_F(StrategyTest, BackendFromSydneyUsesItsOwnGeography) {
  BackendStrategy s(ctx(sim::region::kSydney));
  const ReadResult r = s.read("object0");
  // Sydney's 9th-cheapest is Frankfurt (1530): Dublin x2 and one Frankfurt
  // chunk are discarded as the m = 3 furthest.
  EXPECT_DOUBLE_EQ(r.latency_ms, 1530.0);
  EXPECT_TRUE(r.verified);
}

TEST_F(StrategyTest, BackendSurvivesRegionFailure) {
  network_.fail_region(sim::region::kTokyo);
  BackendStrategy s(ctx(sim::region::kFrankfurt));
  const ReadResult r = s.read("object0");
  // Tokyo's chunk is replaced by a fallback (Sydney, 1530 ms).
  EXPECT_EQ(r.backend_chunks, 9u);
  EXPECT_DOUBLE_EQ(r.latency_ms, 1530.0);
  EXPECT_TRUE(r.verified);
}

TEST_F(StrategyTest, BackendSurvivesMRegionFailures) {
  // RS(9,3) with 2 chunks/region tolerates one full region loss (2 chunks)
  // plus one more chunk; failing Tokyo loses 2 chunks, still decodable.
  network_.fail_region(sim::region::kTokyo);
  BackendStrategy s(ctx(sim::region::kFrankfurt));
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(s.read("object" + std::to_string(i)).verified);
  }
}

TEST_F(StrategyTest, LruFirstReadMissesThenHits) {
  FixedChunksParams p;
  p.engine = "lru";
  p.chunks_per_object = 9;
  p.cache_capacity_bytes = 100_MB;
  auto strategy = make_fixed(ctx(sim::region::kFrankfurt), p);
  FixedChunksStrategy& s = *strategy;

  const ReadResult miss = s.read("object0");
  EXPECT_FALSE(miss.partial_hit);
  EXPECT_DOUBLE_EQ(miss.latency_ms, 1130.0);

  const ReadResult hit = s.read("object0");
  EXPECT_TRUE(hit.full_hit);
  EXPECT_EQ(hit.cache_chunks, 9u);
  EXPECT_DOUBLE_EQ(hit.latency_ms, 55.0);
  EXPECT_TRUE(hit.verified);
}

TEST_F(StrategyTest, PartialCacheLatencyIsResidualBackend) {
  FixedChunksParams p;
  p.engine = "lru";
  p.chunks_per_object = 5;  // cache the 5 most distant needed chunks
  p.cache_capacity_bytes = 100_MB;
  auto strategy = make_fixed(ctx(sim::region::kFrankfurt), p);
  FixedChunksStrategy& s = *strategy;
  (void)s.read("object0");
  const ReadResult r = s.read("object0");
  EXPECT_TRUE(r.partial_hit);
  EXPECT_FALSE(r.full_hit);
  EXPECT_EQ(r.cache_chunks, 5u);
  EXPECT_EQ(r.backend_chunks, 4u);
  // Residual chunks: Dublin x2 + Frankfurt x2 -> 100 ms dominates cache 55.
  EXPECT_DOUBLE_EQ(r.latency_ms, 100.0);
  EXPECT_TRUE(r.verified);
}

TEST_F(StrategyTest, VerifyRejectsAnotherObjectsChunkFromTheCache) {
  // The check compares the decoded object with the store's data chunks, so
  // a wrong chunk under this object's key fails the read wherever it sits:
  // a data row the decode copies or a parity chunk it computes rows from.
  FixedChunksParams p;
  p.engine = "lru";
  p.chunks_per_object = 9;
  p.cache_capacity_bytes = 100_MB;
  auto engine = api::EngineRegistry::instance().create(
      p.engine, api::EngineContext{p.cache_capacity_bytes}, api::ParamMap{});
  cache::CacheEngine& cache = *engine;
  FixedChunksStrategy s(ctx(sim::region::kFrankfurt), p, std::move(engine));
  (void)s.read("object0");  // the miss caches the 9 chunks it read
  const std::vector<ChunkKey> keys = cache.keys();
  ASSERT_EQ(keys.size(), 9u);
  bool any_parity = false;
  for (const ChunkKey key : keys) {
    const ChunkId chunk = ChunkId::of(key);
    ASSERT_EQ(chunk.object, backend_.id_of("object0"));
    any_parity |= chunk.index >= 9;
    const SharedBytes own = *cache.get(key);
    cache.put(key, *backend_.get_chunk(
                       ChunkId{backend_.id_of("object1"), chunk.index}));
    const ReadResult r = s.read("object0");
    EXPECT_TRUE(r.full_hit) << key;
    EXPECT_FALSE(r.verified) << key;
    cache.put(key, own);
  }
  EXPECT_TRUE(any_parity);
  EXPECT_TRUE(s.read("object0").verified);
  // The read is a full hit, but with a data chunk gone from the store
  // there is nothing to check that row against.
  const ChunkId row0{backend_.id_of("object0"), 0};
  store::Bucket& bucket =
      backend_.bucket(backend_.object_info(row0.object).locations[0].region);
  const SharedBytes stored = *bucket.get(row0);
  bucket.erase(row0);
  EXPECT_FALSE(s.read("object0").verified);
  bucket.put(row0, stored);
  EXPECT_TRUE(s.read("object0").verified);
}

TEST_F(StrategyTest, CacheArmLandsWithItsSlowestChunk) {
  // Jittered cache fetches. A read with no chunk in the cache draws no
  // cache sample; a full hit draws one per cached chunk and lands with the
  // largest. A twin of the network's latency model predicts the draws:
  // every backend or cache sample is one jitter draw.
  sim::LatencyModelParams params = zero_jitter();
  params.jitter_fraction = 0.5;
  sim::Network network(sim::LatencyModel(&topology_, params, 11));
  sim::LatencyModel twin(&topology_, params, 11);
  network.bind_loop(&loop_);
  ClientContext c = ctx(sim::region::kFrankfurt);
  c.network = &network;
  FixedChunksParams p;
  p.engine = "lru";
  p.chunks_per_object = 9;
  p.cache_capacity_bytes = 100_MB;
  auto engine = api::EngineRegistry::instance().create(
      p.engine, api::EngineContext{p.cache_capacity_bytes}, api::ParamMap{});
  cache::CacheEngine& cache = *engine;
  FixedChunksStrategy s(c, p, std::move(engine));
  const std::size_t chunk_size = backend_.object_info("object0").chunk_size;

  // Nothing cached: nine backend samples, and the streams stay in step.
  const ReadResult cold = s.read("object1");
  EXPECT_EQ(cold.cache_chunks, 0u);
  EXPECT_EQ(cold.backend_chunks, 9u);
  for (int i = 0; i < 9; ++i) (void)twin.cache_fetch_ms(chunk_size);
  EXPECT_EQ(network.cache_fetch(chunk_size), twin.cache_fetch_ms(chunk_size));

  const ObjectId object = backend_.id_of("object0");
  for (ChunkIndex i = 0; i < 12; ++i) {
    cache.put(ChunkId{object, i}.key(), *backend_.get_chunk({object, i}));
  }
  std::vector<SimTimeMs> samples;
  for (int i = 0; i < 9; ++i) {
    samples.push_back(twin.cache_fetch_ms(chunk_size));
  }
  const SimTimeMs slowest = *std::max_element(samples.begin(), samples.end());
  // The draws tell the slowest apart from the first, the last and the
  // fastest.
  ASSERT_NE(slowest, samples.front());
  ASSERT_NE(slowest, samples.back());
  ASSERT_NE(slowest, *std::min_element(samples.begin(), samples.end()));
  const ReadResult hit = s.read("object0");
  EXPECT_TRUE(hit.full_hit);
  EXPECT_EQ(hit.cache_chunks, 9u);
  // The read starts after the cold one, so its latency is a difference of
  // loop times: equal up to rounding.
  EXPECT_NEAR(hit.latency_ms, slowest, 1e-9);
  EXPECT_TRUE(hit.verified);
}

TEST_F(StrategyTest, ChunksPerObjectOneBarelyHelps) {
  FixedChunksParams p;
  p.engine = "lru";
  p.chunks_per_object = 1;
  p.cache_capacity_bytes = 100_MB;
  auto strategy = make_fixed(ctx(sim::region::kFrankfurt), p);
  FixedChunksStrategy& s = *strategy;
  (void)s.read("object0");
  const ReadResult r = s.read("object0");
  // Tokyo chunk cached; Sao Paulo (470 ms) now dominates — the §IV
  // worked example's one-cached-chunk improvement (Tokyo - SaoPaulo).
  EXPECT_DOUBLE_EQ(r.latency_ms, 470.0);
}

TEST_F(StrategyTest, EvictionLfuChargesProxyOverhead) {
  FixedChunksParams p;
  p.engine = "lfu";
  p.chunks_per_object = 9;
  p.cache_capacity_bytes = 100_MB;
  p.proxy_overhead_ms = 0.5;
  auto strategy = make_fixed(ctx(sim::region::kFrankfurt), p);
  FixedChunksStrategy& s = *strategy;
  (void)s.read("object0");
  const ReadResult r = s.read("object0");
  EXPECT_DOUBLE_EQ(r.latency_ms, 55.5);
}

TEST_F(StrategyTest, PeriodicLfuHitsAfterReconfiguration) {
  auto strategy = make_lfu(sim::region::kFrankfurt,
                           {"chunks=9", "cache_bytes=100MB"});
  auto& s = dynamic_cast<AgarStrategy&>(*strategy);
  s.warm_up();
  // Before any reconfiguration nothing is configured: full backend read
  // plus the frequency proxy's 0.5 ms.
  const ReadResult cold = s.read("object0");
  EXPECT_DOUBLE_EQ(cold.latency_ms, 1130.5);
  // After the period rolls, object0 is the most frequent and gets its 9
  // designated chunks configured; the pipeline's population downloads land
  // before the next read.
  reconfigure(s);
  const ReadResult hit = s.read("object0");
  EXPECT_TRUE(hit.full_hit);
  EXPECT_DOUBLE_EQ(hit.latency_ms, 55.5);
  EXPECT_TRUE(hit.verified);
}

TEST_F(StrategyTest, PeriodicLfuRanksByFrequency) {
  // Room for exactly one 9-chunk object (1000-byte chunks).
  auto strategy = make_lfu(sim::region::kFrankfurt,
                           {"chunks=9", "cache_bytes=9100"});
  auto& s = dynamic_cast<AgarStrategy&>(*strategy);
  s.warm_up();
  for (int i = 0; i < 5; ++i) (void)s.read("object1");
  (void)s.read("object0");
  reconfigure(s);
  // Only the most frequent object (object1) fits the configuration.
  EXPECT_TRUE(s.read("object1").full_hit);
  EXPECT_FALSE(s.read("object0").partial_hit);
}

TEST_F(StrategyTest, PeriodicLfuPartialChunks) {
  auto strategy = make_lfu(sim::region::kFrankfurt,
                           {"chunks=5", "cache_bytes=100MB"});
  auto& s = dynamic_cast<AgarStrategy&>(*strategy);
  s.warm_up();
  (void)s.read("object0");
  reconfigure(s);
  const ReadResult r = s.read("object0");
  // 5 most distant needed chunks cached; residual is Dublin (100 ms).
  EXPECT_EQ(r.cache_chunks, 5u);
  EXPECT_FALSE(r.full_hit);
  EXPECT_TRUE(r.partial_hit);
  EXPECT_DOUBLE_EQ(r.latency_ms, 100.5);
  EXPECT_TRUE(r.verified);
}

TEST_F(StrategyTest, PeriodicLfuClampsChunksToK) {
  // c = 12 > k = 9 caches all 9 needed chunks, as c = 9 does.
  auto strategy = make_lfu(sim::region::kFrankfurt,
                           {"chunks=12", "cache_bytes=100MB"});
  auto& s = dynamic_cast<AgarStrategy&>(*strategy);
  s.warm_up();
  (void)s.read("object0");
  reconfigure(s);
  EXPECT_EQ(s.config_weight_histogram(),
            (std::map<std::size_t, std::size_t>{{9, 1}}));
  const ReadResult hit = s.read("object0");
  EXPECT_TRUE(hit.full_hit);
  EXPECT_EQ(hit.cache_chunks, 9u);
  EXPECT_DOUBLE_EQ(hit.latency_ms, 55.5);
}

TEST_F(StrategyTest, PeriodicLfuZeroChunksThrows) {
  EXPECT_THROW((void)make_lfu(0, {"chunks=0"}), std::invalid_argument);
}

TEST_F(StrategyTest, LruEvictsUnderPressure) {
  FixedChunksParams p;
  p.engine = "lru";
  p.chunks_per_object = 9;
  // Room for ~1 object's 9 chunks only (chunk = 1000 bytes for 9000-byte
  // objects).
  p.cache_capacity_bytes = 9 * 1000 + 500;
  auto strategy = make_fixed(ctx(sim::region::kFrankfurt), p);
  FixedChunksStrategy& s = *strategy;
  (void)s.read("object0");
  (void)s.read("object1");  // evicts object0's chunks
  const ReadResult r = s.read("object0");
  EXPECT_FALSE(r.full_hit);
}

TEST_F(StrategyTest, ZeroChunksPerObjectThrows) {
  FixedChunksParams p;
  p.chunks_per_object = 0;
  EXPECT_THROW(make_fixed(ctx(0), p), std::invalid_argument);
}

AgarParams agar_params(std::size_t cache_bytes) {
  AgarParams p;
  p.cache_capacity_bytes = cache_bytes;
  p.cache_manager.candidate_weights = {1, 3, 5, 7, 9};
  p.cache_manager.cache_latency_ms = 55.0;
  return p;
}

TEST_F(StrategyTest, AgarColdReadMatchesBackendPlusMonitor) {
  AgarStrategy s(ctx(sim::region::kFrankfurt), agar_params(10_MB));
  s.warm_up();
  const ReadResult r = s.read("object0");
  EXPECT_DOUBLE_EQ(r.latency_ms, 1130.5);  // backend + 0.5 ms monitor
  EXPECT_FALSE(r.partial_hit);
  EXPECT_TRUE(r.verified);
}

TEST_F(StrategyTest, AgarReadsFromCacheAfterReconfiguration) {
  AgarStrategy s(ctx(sim::region::kFrankfurt), agar_params(100_MB));
  s.warm_up();
  for (int i = 0; i < 50; ++i) (void)s.read("object0");
  reconfigure(s);
  const ReadResult r = s.read("object0");
  EXPECT_TRUE(r.full_hit);
  EXPECT_DOUBLE_EQ(r.latency_ms, 55.5);
  EXPECT_TRUE(r.verified);
}

TEST_F(StrategyTest, AgarPartialConfigurationsYieldPartialHits) {
  // Cache sized for ~2 full objects; make several objects warm so the
  // solver spreads weights.
  AgarStrategy s(ctx(sim::region::kFrankfurt),
                 agar_params(2 * 9 * 1000 + 100));
  s.warm_up();
  for (int round = 0; round < 30; ++round) {
    for (int k = 0; k < 5; ++k) {
      (void)s.read("object" + std::to_string(k));
    }
  }
  reconfigure(s);
  for (int round = 0; round < 3; ++round) {
    for (int k = 0; k < 5; ++k) {
      (void)s.read("object" + std::to_string(k));
    }
  }
  // At least one object must now be served with a partial hit, and all
  // reads still verify.
  bool any_hit = false;
  for (int k = 0; k < 5; ++k) {
    const ReadResult r = s.read("object" + std::to_string(k));
    any_hit |= r.partial_hit || r.full_hit;
    EXPECT_TRUE(r.verified);
  }
  EXPECT_TRUE(any_hit);
}

TEST_F(StrategyTest, AgarSurvivesRegionFailure) {
  AgarStrategy s(ctx(sim::region::kFrankfurt), agar_params(10_MB));
  s.warm_up();
  network_.fail_region(sim::region::kVirginia);
  const ReadResult r = s.read("object0");
  EXPECT_EQ(r.cache_chunks + r.backend_chunks, 9u);
  EXPECT_TRUE(r.verified);
}

TEST_F(StrategyTest, EveryRunnableSystemRequiresALoop) {
  api::ExperimentSpec spec;
  spec.experiment.deployment.num_objects = 5;
  spec.experiment.deployment.object_size_bytes = 9000;
  Deployment deployment(spec.experiment.deployment);
  deployment.network().bind_loop(&loop_);
  const RegionId region = spec.experiment.client_region;
  for (const std::string& system : api::runnable_systems()) {
    spec.system = system;
    const StrategyFactory factory = api::make_strategy_factory(spec);
    EXPECT_NO_THROW((void)factory(spec.experiment, deployment, region, &loop_))
        << system;
    EXPECT_THROW((void)factory(spec.experiment, deployment, region, nullptr),
                 std::invalid_argument)
        << system;
  }
}

}  // namespace
}  // namespace agar::client
