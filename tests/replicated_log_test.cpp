// Paxos-backed replicated log: ordering, slot occupation, failures.
#include <gtest/gtest.h>

#include "paxos/replicated_log.hpp"
#include "sim/topology.hpp"

namespace agar::paxos {
namespace {

class ReplicatedLogTest : public ::testing::Test {
 protected:
  ReplicatedLogTest()
      : topology_(sim::aws_six_regions()),
        network_(sim::LatencyModel(&topology_, {}, 13)),
        log_(6, &network_) {}

  sim::Topology topology_;
  sim::Network network_;
  ReplicatedLog log_;
};

TEST_F(ReplicatedLogTest, ValidatesConstruction) {
  EXPECT_THROW(ReplicatedLog(0, &network_), std::invalid_argument);
  EXPECT_THROW(ReplicatedLog(6, nullptr), std::invalid_argument);
}

TEST_F(ReplicatedLogTest, AppendsLandInOrder) {
  const auto a = log_.append(0, "first");
  const auto b = log_.append(0, "second");
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  EXPECT_EQ(a.slot, 0u);
  EXPECT_EQ(b.slot, 1u);
  EXPECT_EQ(log_.learned(0), "first");
  EXPECT_EQ(log_.learned(1), "second");
}

TEST_F(ReplicatedLogTest, DecidedPrefixGrows) {
  EXPECT_EQ(log_.decided_prefix(), 0u);
  (void)log_.append(0, "a");
  EXPECT_EQ(log_.decided_prefix(), 1u);
  (void)log_.append(3, "b");
  EXPECT_EQ(log_.decided_prefix(), 2u);
}

TEST_F(ReplicatedLogTest, UnknownSlotIsNullopt) {
  EXPECT_FALSE(log_.learned(42).has_value());
}

TEST_F(ReplicatedLogTest, AppendsFromDifferentRegionsSerialize) {
  const auto a = log_.append(sim::region::kFrankfurt, "fra");
  const auto b = log_.append(sim::region::kSydney, "syd");
  const auto c = log_.append(sim::region::kTokyo, "tyo");
  ASSERT_TRUE(a.ok && b.ok && c.ok);
  // All slots distinct, records retrievable in order.
  EXPECT_EQ(log_.learned(a.slot), "fra");
  EXPECT_EQ(log_.learned(b.slot), "syd");
  EXPECT_EQ(log_.learned(c.slot), "tyo");
  EXPECT_NE(a.slot, b.slot);
  EXPECT_NE(b.slot, c.slot);
}

TEST_F(ReplicatedLogTest, AppendChargesConsensusLatency) {
  const auto out = log_.append(sim::region::kFrankfurt, "x");
  ASSERT_TRUE(out.ok);
  // Two phases x quorum RTT; must be positive and bounded by a couple of
  // worst-case WAN round trips.
  EXPECT_GT(out.latency_ms, 0.0);
  EXPECT_LT(out.latency_ms, 4000.0);
}

TEST_F(ReplicatedLogTest, FailsWithoutQuorum) {
  network_.fail_region(1);
  network_.fail_region(2);
  network_.fail_region(3);
  const auto out = log_.append(0, "doomed");
  EXPECT_FALSE(out.ok);
}

TEST_F(ReplicatedLogTest, RecoversAfterRegionRestoration) {
  network_.fail_region(1);
  network_.fail_region(2);
  network_.fail_region(3);
  ASSERT_FALSE(log_.append(0, "lost").ok);
  network_.restore_region(1);
  network_.restore_region(2);
  network_.restore_region(3);
  const auto out = log_.append(0, "ok");
  ASSERT_TRUE(out.ok);
  EXPECT_EQ(log_.learned(out.slot), "ok");
}

TEST_F(ReplicatedLogTest, MinorityFailureToleratedWithLatencyCost) {
  network_.fail_region(sim::region::kDublin);
  network_.fail_region(sim::region::kVirginia);
  const auto out = log_.append(sim::region::kFrankfurt, "v");
  EXPECT_TRUE(out.ok);
}

TEST_F(ReplicatedLogTest, CleanAppendsTryExactlyOneSlot) {
  // Without contention the slot walk terminates immediately — the
  // latency accounting (and the collab tier's append p50/p99) would be
  // inflated by any silent extra round.
  for (int i = 0; i < 5; ++i) {
    const auto out =
        log_.append(static_cast<RegionId>(i % 6), 'r' + std::to_string(i));
    ASSERT_TRUE(out.ok);
    EXPECT_EQ(out.slots_tried, 1u) << i;
  }
}

TEST_F(ReplicatedLogTest, AppliesInSlotOrderRegardlessOfAppendOrigin) {
  // The consumer contract the collab config log and the coherence
  // coordinator both rely on: applying `learned(0..decided_prefix)` yields
  // every record exactly once, in the order consensus serialized them —
  // which is append order, independent of which region proposed what.
  const std::vector<std::pair<RegionId, std::string>> appends = {
      {sim::region::kSydney, "cfg-a"},   {sim::region::kFrankfurt, "cfg-b"},
      {sim::region::kTokyo, "cfg-c"},    {sim::region::kSaoPaulo, "cfg-d"},
      {sim::region::kVirginia, "cfg-e"},
  };
  for (const auto& [region, record] : appends) {
    ASSERT_TRUE(log_.append(region, record).ok);
  }
  std::vector<std::string> applied;
  for (std::size_t slot = 0; slot < log_.decided_prefix(); ++slot) {
    const auto record = log_.learned(slot);
    ASSERT_TRUE(record.has_value());
    applied.push_back(*record);
  }
  ASSERT_EQ(applied.size(), appends.size());
  for (std::size_t i = 0; i < appends.size(); ++i) {
    EXPECT_EQ(applied[i], appends[i].second) << "slot " << i;
  }
}

TEST_F(ReplicatedLogTest, ManyAppendsStayConsistent) {
  for (int i = 0; i < 50; ++i) {
    const auto out =
        log_.append(static_cast<RegionId>(i % 6), 'r' + std::to_string(i));
    ASSERT_TRUE(out.ok) << i;
    ASSERT_EQ(out.slot, static_cast<std::size_t>(i));
  }
  EXPECT_EQ(log_.decided_prefix(), 50u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(log_.learned(static_cast<std::size_t>(i)),
              'r' + std::to_string(i));
  }
}

}  // namespace
}  // namespace agar::paxos
