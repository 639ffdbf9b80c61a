// The Agar node (Fig. 3) as AgarStrategy runs it on the event loop: read
// planning against the region manager's costs, the popularity estimator
// and per-read charge of the paper's request monitor, the periodic probe ->
// plan -> populate pipeline, and eviction of stale residents. Planning
// against an installed configuration is read_planner_test.
#include <gtest/gtest.h>

#include <limits>
#include <memory>

#include "api/registry.hpp"
#include "client/agar_strategy.hpp"

namespace agar::client {
namespace {

class AgarStrategyNodeTest : public ::testing::Test {
 protected:
  AgarStrategyNodeTest()
      : topology_(sim::aws_six_regions()),
        network_(sim::LatencyModel(&topology_, zero_jitter(), 3)),
        backend_(6, ec::CodecParams{9, 3}, ec::RoundRobinPlacement(false)) {
    store::populate_working_set(backend_, 5, 9000);
    network_.bind_loop(&loop_);
  }

  /// Base latencies only, so the plan's region choices are exact.
  static sim::LatencyModelParams zero_jitter() {
    sim::LatencyModelParams p;
    p.jitter_fraction = 0.0;
    p.wan_bandwidth_mbps = std::numeric_limits<double>::infinity();
    p.cache_bandwidth_mbps = std::numeric_limits<double>::infinity();
    p.cache_base_ms = 55.0;
    return p;
  }

  ClientContext ctx() {
    ClientContext c;
    c.backend = &backend_;
    c.network = &network_;
    c.loop = &loop_;
    c.region = sim::region::kFrankfurt;
    c.decode_ms_per_mb = 0.0;
    c.verify_data = true;
    return c;
  }

  static AgarParams params(std::size_t cache_bytes) {
    AgarParams p;
    p.cache_capacity_bytes = cache_bytes;
    p.cache_manager.candidate_weights = {1, 3, 5, 7, 9};
    p.cache_manager.cache_latency_ms = 55.0;
    return p;
  }

  /// One reconfiguration through the periodic timer's pipeline (probe
  /// round, plan, population downloads), run to completion.
  void reconfigure(AgarStrategy& s) {
    s.start_reconfiguration();
    loop_.run();
  }

  sim::Topology topology_;
  sim::Network network_;
  store::BackendCluster backend_;
  sim::EventLoop loop_;
};

TEST_F(AgarStrategyNodeTest, PlanCoversExactlyKChunks) {
  AgarStrategy s(ctx(), params(10_MB));
  s.warm_up();
  const ReadPlan plan = s.plan_read("object0");
  EXPECT_EQ(plan.chunks_on_path(), 9u);
  EXPECT_TRUE(plan.from_cache.empty());  // nothing configured yet
  EXPECT_EQ(plan.from_backend.size(), 9u);
  EXPECT_TRUE(plan.async_populate.empty());
  EXPECT_TRUE(plan.populate_after_read.empty());
  EXPECT_DOUBLE_EQ(plan.monitor_overhead_ms, 0.5);
}

TEST_F(AgarStrategyNodeTest, PlanPrefersCheapRegions) {
  AgarStrategy s(ctx(), params(10_MB));
  s.warm_up();
  const ReadPlan plan = s.plan_read("object0");
  // The m = 3 most distant chunks (2x Sydney + 1x Tokyo from Frankfurt)
  // must not be on the plan.
  std::size_t sydney = 0, tokyo = 0;
  for (const auto& [idx, region] : plan.from_backend) {
    if (region == sim::region::kSydney) ++sydney;
    if (region == sim::region::kTokyo) ++tokyo;
  }
  EXPECT_EQ(sydney, 0u);
  EXPECT_EQ(tokyo, 1u);
}

TEST_F(AgarStrategyNodeTest, PlanRecordsAccessWithTheEstimator) {
  AgarParams p = params(10_MB);
  p.ewma_alpha = 0.5;
  AgarStrategy s(ctx(), p);
  s.warm_up();
  (void)s.plan_read("object3");
  (void)s.plan_read("object3");
  // Two accesses in the open period, weighted by ewma_alpha.
  EXPECT_DOUBLE_EQ(s.popularity_estimator().popularity("object3"), 1.0);
  EXPECT_EQ(s.popularity_estimator().name(), "exact-ewma");
}

TEST_F(AgarStrategyNodeTest, PlanChargesTheMonitorsProcessingTime) {
  AgarParams p = params(10_MB);
  p.processing_ms = 0.75;  // lfu's proxy_ms sets this
  AgarStrategy s(ctx(), p);
  s.warm_up();
  EXPECT_DOUBLE_EQ(s.plan_read("object0").monitor_overhead_ms, 0.75);
  EXPECT_DOUBLE_EQ(s.plan_read("object0").monitor_overhead_ms, 0.75);
}

TEST_F(AgarStrategyNodeTest, EstimatorComesFromTheRegistry) {
  AgarParams p = params(10_MB);
  p.estimator = "count-min";
  p.estimator_params.set("width", "256");
  AgarStrategy s(ctx(), p);
  EXPECT_EQ(s.popularity_estimator().name(), "count-min");

  p.estimator = "oracle";
  EXPECT_THROW(AgarStrategy(ctx(), p), api::UnknownNameError);
}

TEST_F(AgarStrategyNodeTest, ControlPlaneReconfiguresOncePerPeriod) {
  AgarParams p = params(10_MB);
  p.reconfig_period_ms = 1000.0;
  AgarStrategy s(ctx(), p);
  s.warm_up();
  s.start_control_plane();
  for (int i = 0; i < 20; ++i) (void)s.plan_read("object0");
  // By 3.5 s the timer has started three probe rounds after the warm-up.
  // Each reconfiguration lands when its round does — up to Sydney's
  // 1530 ms later — so stop the timer and drain the rounds in flight.
  loop_.run_until(3500.0);
  EXPECT_EQ(s.region_manager().probe_rounds(), 4u);
  loop_.cancel(s.reconfig_timer());
  loop_.run();
  EXPECT_EQ(s.control_plane_stats().reconfigurations, 3u);
}

TEST_F(AgarStrategyNodeTest, ReconfigurationEvictsStaleResidents) {
  AgarStrategy s(ctx(), params(3 * 9 * 1000));
  s.warm_up();
  for (int i = 0; i < 50; ++i) (void)s.plan_read("object0");
  reconfigure(s);
  const ObjectId object0 = backend_.id_of("object0");
  const auto& config = s.cache_manager().current();
  const core::CachingOption* opt0 = config.find(object0);
  ASSERT_NE(opt0, nullptr);
  std::vector<ChunkKey> chunks0;
  for (const ChunkKey key : config.chunks) {
    if (ChunkId::of(key).object == object0) chunks0.push_back(key);
  }
  ASSERT_EQ(chunks0.size(), opt0->weight);
  for (const ChunkKey key : chunks0) ASSERT_TRUE(s.cache().contains(key));
  // Shift the workload for enough periods that object0 decays away.
  for (int period = 0; period < 8; ++period) {
    for (int i = 0; i < 100; ++i) (void)s.plan_read("object3");
    reconfigure(s);
  }
  EXPECT_EQ(s.cache_manager().current().find(object0), nullptr);
  // Its chunks must be gone from the cache.
  for (const ChunkKey key : chunks0) EXPECT_FALSE(s.cache().contains(key));
}

}  // namespace
}  // namespace agar::client
