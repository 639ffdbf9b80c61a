// Cache collaboration helpers (§VI): the broadcast snapshot an Agar node
// publishes and configuration overlap between two regions.
#include <gtest/gtest.h>

#include <algorithm>
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
        backend_(6, ec::CodecParams{9, 3}, ec::RoundRobinPlacement(false)) {
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
  std::vector<ChunkKey> expected = agar->cache_manager().current().chunks;
  EXPECT_FALSE(expected.empty());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(info.configured_chunks, expected);
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

}  // namespace
}  // namespace agar
