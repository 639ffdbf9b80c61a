// Cache collaboration helpers (§VI): the broadcast snapshot an Agar node
// publishes, configuration overlap between two regions, and peer-aware
// chunk costs.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "client/agar_strategy.hpp"
#include "collab/peer_info.hpp"

namespace agar {
namespace {

class PeerInfoTest : public ::testing::Test {
 protected:
  PeerInfoTest()
      : topology_(sim::aws_six_regions()),
        network_(sim::LatencyModel(&topology_, {}, 31)),
        backend_(6, ec::CodecParams{9, 3},
                 std::make_shared<ec::RoundRobinPlacement>(false)) {
    for (int i = 0; i < 6; ++i) {
      backend_.register_object("object" + std::to_string(i), 1_MB);
    }
    network_.bind_loop(&loop_);
  }

  std::unique_ptr<client::AgarStrategy> make_agar(RegionId region) {
    client::ClientContext ctx;
    ctx.backend = &backend_;
    ctx.network = &network_;
    ctx.loop = &loop_;
    ctx.region = region;
    client::AgarParams p;
    p.cache_capacity_bytes = 10_MB;
    p.cache_manager.candidate_weights = {1, 3, 5, 7, 9};
    auto agar = std::make_unique<client::AgarStrategy>(ctx, p);
    agar->warm_up();
    return agar;
  }

  /// Train `agar` on `hits` accesses of object0, then reconfigure through
  /// the periodic pipeline and run it to completion.
  void configure_hot_object(client::AgarStrategy& agar, int hits) {
    for (int i = 0; i < hits; ++i) (void)agar.plan_read("object0");
    agar.start_reconfiguration();
    loop_.run();
  }

  sim::Topology topology_;
  sim::Network network_;
  store::BackendCluster backend_;
  sim::EventLoop loop_;
};

TEST_F(PeerInfoTest, BroadcastContainsConfiguredChunks) {
  auto agar = make_agar(sim::region::kFrankfurt);
  configure_hot_object(*agar, 50);
  const collab::PeerInfo info = agar->collab_info();
  EXPECT_EQ(info.region, sim::region::kFrankfurt);
  std::size_t expected = 0;
  for (const auto& [key, opt] : agar->cache_manager().current().entries) {
    expected += opt.chunks.size();
  }
  EXPECT_GT(expected, 0u);
  EXPECT_EQ(info.configured_chunks.size(), expected);
  EXPECT_FALSE(info.popularity.empty());
}

TEST_F(PeerInfoTest, OverlapBetweenSimilarWorkloads) {
  // Same hot object in both regions -> overlapping configurations.
  auto fra = make_agar(sim::region::kFrankfurt);
  auto dub = make_agar(sim::region::kDublin);
  configure_hot_object(*fra, 50);
  configure_hot_object(*dub, 50);
  const collab::OverlapReport report =
      collab::overlap_of(fra->collab_info(), dub->collab_info());
  EXPECT_GT(report.chunks_a, 0u);
  EXPECT_GT(report.chunks_b, 0u);
  EXPECT_GT(report.shared, 0u);
  EXPECT_GT(report.shared_fraction(), 0.0);
  EXPECT_LE(report.shared_fraction(), 1.0);
}

TEST_F(PeerInfoTest, PeerAwareCostsDiscountNearbyPeerChunks) {
  // Dublin caches chunk "object0#4"; a Frankfurt planner should see that
  // chunk cheaper than its Tokyo home region.
  collab::PeerInfo dublin;
  dublin.region = sim::region::kDublin;
  dublin.configured_chunks.insert(ChunkId{"object0", 4}.cache_key());

  std::vector<core::ChunkCost> costs;
  for (ChunkIndex i = 0; i < 12; ++i) {
    const RegionId region = i % 6;
    costs.push_back(core::ChunkCost{
        i, region,
        topology_.base_latency_ms(sim::region::kFrankfurt, region)});
  }
  const auto adjusted =
      collab::peer_aware_costs(costs, "object0", {dublin}, topology_,
                               sim::region::kFrankfurt, 0.75, 400.0);
  // Chunk 4 (Tokyo, 1130 ms base) now costs the Dublin peer fetch:
  // 100 ms * 0.75 = 75 ms.
  EXPECT_DOUBLE_EQ(adjusted[4].latency_ms, 75.0);
  // Other chunks unchanged.
  EXPECT_DOUBLE_EQ(adjusted[5].latency_ms, costs[5].latency_ms);
}

TEST_F(PeerInfoTest, PeerAwareCostsIgnoreDistantPeers) {
  collab::PeerInfo sydney;
  sydney.region = sim::region::kSydney;
  sydney.configured_chunks.insert(ChunkId{"object0", 4}.cache_key());

  std::vector<core::ChunkCost> costs{{4, sim::region::kTokyo, 1100.0}};
  // Sydney is 1530 ms from Frankfurt > max_peer_ms 400: no discount.
  const auto adjusted = collab::peer_aware_costs(
      costs, "object0", {sydney}, topology_, sim::region::kFrankfurt);
  EXPECT_DOUBLE_EQ(adjusted[0].latency_ms, 1100.0);
}

TEST_F(PeerInfoTest, PeerAwareCostsNeverIncrease) {
  collab::PeerInfo dublin;
  dublin.region = sim::region::kDublin;
  dublin.configured_chunks.insert(ChunkId{"object0", 0}.cache_key());
  // Local chunk already cheaper than the peer fetch (100 ms * 0.75 = 75):
  // keep the original.
  std::vector<core::ChunkCost> costs{{0, sim::region::kFrankfurt, 70.0}};
  const auto adjusted = collab::peer_aware_costs(
      costs, "object0", {dublin}, topology_, sim::region::kFrankfurt);
  EXPECT_DOUBLE_EQ(adjusted[0].latency_ms, 70.0);
}

}  // namespace
}  // namespace agar
