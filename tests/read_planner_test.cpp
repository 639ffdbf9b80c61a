// Agar's read planner (AgarStrategy::plan_read): source resolution
// invariants for whatever configuration is installed in the strategy's
// cache, whichever policy chose it (Agar's knapsack or LFU-c's greedy).
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "client/agar_strategy.hpp"

namespace agar::client {
namespace {

class ReadPlannerTest : public ::testing::Test {
 protected:
  ReadPlannerTest()
      : topology_(sim::aws_six_regions()),
        network_(sim::LatencyModel(&topology_, zero_jitter(), 4)),
        backend_(6, ec::CodecParams{9, 3}, ec::RoundRobinPlacement(false)) {
    backend_.register_object("obj", 90_KB);
    network_.bind_loop(&loop_);
    AgarParams p;
    p.cache_capacity_bytes = 1_MB;
    strategy_ = std::make_unique<AgarStrategy>(ctx(), p);
    strategy_->warm_up();
  }

  static sim::LatencyModelParams zero_jitter() {
    sim::LatencyModelParams p;
    p.jitter_fraction = 0.0;
    return p;
  }

  ClientContext ctx() {
    ClientContext c;
    c.backend = &backend_;
    c.network = &network_;
    c.loop = &loop_;
    c.region = sim::region::kFrankfurt;
    return c;
  }

  ReadPlan plan() { return strategy_->plan_read("obj"); }

  cache::StaticConfigCache& cache() { return strategy_->cache(); }

  ChunkKey chunk(ChunkIndex idx) const {
    return ChunkId{backend_.id_of("obj"), idx}.key();
  }

  sim::Topology topology_;
  sim::Network network_;
  store::BackendCluster backend_;
  sim::EventLoop loop_;
  std::unique_ptr<AgarStrategy> strategy_;
};

TEST_F(ReadPlannerTest, ColdPlanFetchesKCheapest) {
  const ReadPlan p = plan();
  EXPECT_TRUE(p.from_cache.empty());
  EXPECT_EQ(p.from_backend.size(), 9u);
  EXPECT_TRUE(p.async_populate.empty());
  EXPECT_TRUE(p.populate_after_read.empty());
  // No chunk from Sydney (the two most distant) and at most one from Tokyo.
  std::size_t tokyo = 0;
  for (const auto& [idx, region] : p.from_backend) {
    EXPECT_NE(region, sim::region::kSydney);
    tokyo += (region == sim::region::kTokyo);
  }
  EXPECT_LE(tokyo, 1u);
}

TEST_F(ReadPlannerTest, PlanNeverDuplicatesChunks) {
  // Configure + populate some chunks, leave others configured-but-absent.
  cache().install_configuration({chunk(4), chunk(3), chunk(9)});
  cache().put(chunk(4), Bytes(8, 1));
  const ReadPlan p = plan();
  std::set<ChunkIndex> seen;
  for (const ChunkIndex c : p.from_cache) {
    EXPECT_TRUE(seen.insert(c).second);
  }
  for (const auto& [c, r] : p.from_backend) {
    EXPECT_TRUE(seen.insert(c).second);
  }
  EXPECT_EQ(p.chunks_on_path(), 9u);
  // The fallbacks name every other chunk, once: the k + m together.
  for (const auto& [c, r] : p.fallbacks) {
    EXPECT_TRUE(seen.insert(c).second);
  }
  EXPECT_EQ(seen.size(), 12u);
}

TEST_F(ReadPlannerTest, ResidentChunksComeFromCache) {
  cache().install_configuration({chunk(4)});
  cache().put(chunk(4), Bytes(8, 1));
  const ReadPlan p = plan();
  ASSERT_EQ(p.from_cache.size(), 1u);
  EXPECT_EQ(p.from_cache[0], 4u);
  EXPECT_EQ(p.from_backend.size(), 8u);
}

TEST_F(ReadPlannerTest, ConfiguredOnPathChunksMarkedForWriteBack) {
  // Chunk 4 (Tokyo) is configured but not resident; it is the 9th-cheapest
  // so it is fetched on-path and should be written back.
  cache().install_configuration({chunk(4)});
  const ReadPlan p = plan();
  ASSERT_EQ(p.populate_after_read.size(), 1u);
  EXPECT_EQ(p.populate_after_read[0], 4u);
  EXPECT_TRUE(p.async_populate.empty());
}

TEST_F(ReadPlannerTest, ConfiguredOffPathChunksPopulateAsync) {
  // Chunk 5 (Sydney) is never fetched on-path from Frankfurt; configuring
  // it forces an asynchronous population fetch.
  cache().install_configuration({chunk(5)});
  const ReadPlan p = plan();
  ASSERT_EQ(p.async_populate.size(), 1u);
  EXPECT_EQ(p.async_populate[0], 5u);
  EXPECT_TRUE(p.populate_after_read.empty());
}

TEST_F(ReadPlannerTest, FullResidencyNeedsNoBackend) {
  // The nine needed chunks from Frankfurt: all but Sydney's {5, 11} and
  // Tokyo's second chunk {10}.
  const std::vector<ChunkIndex> needed{0, 1, 2, 3, 4, 6, 7, 8, 9};
  std::vector<ChunkKey> keys;
  for (const ChunkIndex idx : needed) keys.push_back(chunk(idx));
  cache().install_configuration(keys);
  for (const ChunkIndex idx : needed) cache().put(chunk(idx), Bytes(8, 1));
  const ReadPlan p = plan();
  EXPECT_EQ(p.from_cache.size(), 9u);
  EXPECT_TRUE(p.from_backend.empty());
}

}  // namespace
}  // namespace agar::client
