// Sharded engine: window protocol, cross-shard outboxes, and the core
// guarantee — byte-identical execution for any shard count.
#include "sim/sharded_engine.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <numeric>
#include <tuple>
#include <vector>

namespace agar::sim {
namespace {

using LaneId = ShardedEngine::LaneId;

TEST(ShardedEngine, ClampsShardCountToLaneCount) {
  ShardedEngine engine(8, 3);
  EXPECT_EQ(engine.num_shards(), 3u);
  EXPECT_EQ(engine.num_lanes(), 3u);
  ShardedEngine one(0, 4);
  EXPECT_EQ(one.num_shards(), 1u);
}

TEST(ShardedEngine, RunsWholeWindowsAndStopsAtTheBoundary) {
  ShardedEngine engine(1, 1);
  int fired = 0;
  engine.loop_of_lane(0).schedule_at(10.0, [&] { ++fired; });
  engine.loop_of_lane(0).schedule_at(1010.0, [&] { ++fired; });
  // The stop predicate turns true at the first boundary, so the second
  // window (and the t=1010 event) must never run.
  engine.run_windows(1000.0, [&] { return fired >= 1; });
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(engine.now(), 1000.0);
}

TEST(ShardedEngine, StopsWhenAllShardsIdle) {
  // Per-lane slots: each is written only by the owning shard's thread.
  ShardedEngine engine(2, 2);
  std::vector<int> per_lane(2, 0);
  for (LaneId lane = 0; lane < 2; ++lane) {
    EventLoop& loop = engine.loop_of_lane(lane);
    loop.set_scheduling_lane(lane);
    loop.schedule_at(40.0 + lane, [&per_lane, lane] { ++per_lane[lane]; });
  }
  engine.run_windows(50.0, nullptr);
  EXPECT_EQ(per_lane, (std::vector<int>{1, 1}));
  EXPECT_EQ(engine.now(), 50.0);  // one window was enough
}

/// One recorded hop: (virtual time, lane, chained value). The value chain
/// makes the trace sensitive to *order*, not just membership.
using Hop = std::tuple<SimTimeMs, LaneId, std::uint64_t>;

/// Lanes bounce messages at pseudo-random delays to pseudo-random lanes
/// through engine.post(). Returns per-lane traces.
std::vector<std::vector<Hop>> run_ping_pong(
    std::size_t shards, std::size_t lanes, std::uint64_t* crossings = nullptr) {
  ShardedEngine engine(shards, lanes);
  std::vector<std::vector<Hop>> traces(lanes);
  std::vector<std::uint64_t> counts(lanes, 0);

  auto hop = std::make_shared<std::function<void(LaneId, std::uint64_t)>>();
  // The continuation captures a weak_ptr: a strong self-capture would make
  // *hop own itself and leak (LeakSanitizer catches this). The local
  // strong ref outlives the engine, so lock() always succeeds during a run.
  std::weak_ptr<std::function<void(LaneId, std::uint64_t)>> weak_hop = hop;
  *hop = [&engine, &traces, &counts, weak_hop, lanes](LaneId lane,
                                                      std::uint64_t value) {
    EventLoop& loop = engine.loop_of_lane(lane);
    traces[lane].emplace_back(loop.now(), lane, value);
    ++counts[lane];
    const std::uint64_t next = value * 6364136223846793005ULL + lane + 1;
    const SimTimeMs delay = 5.0 + static_cast<SimTimeMs>(next % 120);
    const auto to = static_cast<LaneId>(next % lanes);
    engine.post(to, loop.now() + delay, [weak_hop, to, next] {
      if (auto h = weak_hop.lock()) (*h)(to, next);
    });
  };

  for (LaneId lane = 0; lane < lanes; ++lane) {
    EventLoop& loop = engine.loop_of_lane(lane);
    loop.set_scheduling_lane(lane);
    loop.schedule_at(static_cast<SimTimeMs>(lane),
                     [hop, lane] { (*hop)(lane, 1000 + lane); });
  }

  engine.run_windows(50.0, [&counts] {
    return std::accumulate(counts.begin(), counts.end(),
                           std::uint64_t{0}) >= 400;
  });
  if (crossings != nullptr) *crossings = engine.cross_shard_messages();
  return traces;
}

TEST(ShardedEngine, PingPongTraceIsIdenticalForAnyShardCount) {
  constexpr std::size_t kLanes = 8;
  const auto serial = run_ping_pong(1, kLanes);
  std::uint64_t cross2 = 0;
  const auto two = run_ping_pong(2, kLanes, &cross2);
  std::uint64_t cross4 = 0;
  const auto four = run_ping_pong(4, kLanes, &cross4);
  const auto eight = run_ping_pong(8, kLanes);

  std::size_t total = 0;
  for (const auto& t : serial) total += t.size();
  EXPECT_GE(total, 400u);

  EXPECT_EQ(serial, two);
  EXPECT_EQ(serial, four);
  EXPECT_EQ(serial, eight);

  // The parallel runs really did exercise the outboxes — this is not a
  // degenerate all-local run.
  EXPECT_GT(cross2, 0u);
  EXPECT_GT(cross4, 0u);
}

TEST(ShardedEngine, PostClampsToTheWindowBoundary) {
  // A message aimed *inside* the current window must not fire before the
  // next boundary — otherwise the destination shard could already be past
  // that time and results would depend on the lane-to-shard mapping.
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
    ShardedEngine engine(shards, 2);
    std::vector<SimTimeMs> fired_at(2, -1.0);
    EventLoop& sender = engine.loop_of_lane(0);
    sender.set_scheduling_lane(0);
    sender.schedule_at(10.0, [&engine, &fired_at] {
      engine.post(1, 15.0, [&engine, &fired_at] {
        fired_at[1] = engine.loop_of_lane(1).now();
      });
    });
    engine.run_windows(50.0, nullptr);
    EXPECT_EQ(fired_at[1], 50.0) << shards << " shard(s)";
  }
}

TEST(ShardedEngine, PropagatesWorkerExceptions) {
  ShardedEngine engine(2, 2);
  for (LaneId lane = 0; lane < 2; ++lane) {
    EventLoop& loop = engine.loop_of_lane(lane);
    loop.set_scheduling_lane(lane);
    loop.schedule_at(10.0, [lane] {
      if (lane == 1) throw std::runtime_error("boom");
    });
  }
  EXPECT_THROW(engine.run_windows(50.0, nullptr), std::runtime_error);
}

}  // namespace
}  // namespace agar::sim
