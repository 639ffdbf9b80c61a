// Network wrapper: failure injection and parallel-batch semantics.
#include "sim/network.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "sim/event_loop.hpp"

namespace agar::sim {
namespace {

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest()
      : topology_(aws_six_regions()),
        network_(LatencyModel(&topology_, {}, 42)) {}

  Topology topology_;
  Network network_;
};

TEST_F(NetworkTest, FetchFromLiveRegionReturnsLatency) {
  const auto l = network_.backend_fetch(0, 1, 1000);
  ASSERT_TRUE(l.has_value());
  EXPECT_GT(*l, 0.0);
}

TEST_F(NetworkTest, FetchFromDownRegionFails) {
  network_.fail_region(region::kTokyo);
  EXPECT_FALSE(network_.backend_fetch(0, region::kTokyo, 1000).has_value());
  EXPECT_TRUE(network_.backend_fetch(0, region::kDublin, 1000).has_value());
}

TEST_F(NetworkTest, RestoreBringsRegionBack) {
  network_.fail_region(2);
  EXPECT_TRUE(network_.is_down(2));
  network_.restore_region(2);
  EXPECT_FALSE(network_.is_down(2));
  EXPECT_TRUE(network_.backend_fetch(0, 2, 1000).has_value());
}

TEST_F(NetworkTest, DownCountTracksFailures) {
  EXPECT_EQ(network_.down_count(), 0u);
  network_.fail_region(1);
  network_.fail_region(3);
  network_.fail_region(1);  // duplicate
  EXPECT_EQ(network_.down_count(), 2u);
}

TEST_F(NetworkTest, CacheFetchAlwaysSucceeds) {
  network_.fail_region(0);
  EXPECT_GT(network_.cache_fetch(1000), 0.0);
}

// ------------------------------------------------- mid-run outage semantics
//
// Regression tests for the outage path: failing a region must abort the
// transfers already on the wire (observers hear nullopt at fail time, not a
// successful completion at the transfer's scheduled time) and must fail
// queued FIFO entries immediately (not strand them until an unrelated
// completion drains the queue).

class NetworkOutageTest : public NetworkTest {
 protected:
  NetworkOutageTest() { network_.bind_loop(&loop_); }

  EventLoop loop_;
};

TEST_F(NetworkOutageTest, BeginFetchToDownRegionIsRefused) {
  // The fail-fast contract of the raw wire path (fetch=none): a fetch to a
  // down region is refused synchronously and its callback never fires.
  network_.fail_region(region::kTokyo);
  bool fired = false;
  EXPECT_FALSE(network_.begin_fetch(region::kFrankfurt, region::kTokyo, 1000,
                                    [&](auto) { fired = true; }));
  loop_.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(network_.in_flight(), 0u);
}

TEST_F(NetworkOutageTest, FailRegionAbortsInFlightFetches) {
  const RegionId to = region::kTokyo;
  std::vector<std::optional<SimTimeMs>> outcomes;
  std::vector<SimTimeMs> at;
  ASSERT_TRUE(network_.begin_fetch(region::kFrankfurt, to, 1000, [&](auto l) {
    outcomes.push_back(l);
    at.push_back(loop_.now());
  }));
  ASSERT_EQ(network_.outstanding(to), 1u);

  // The region dies while the transfer is mid-flight.
  loop_.run_until(1.0);
  network_.fail_region(to);
  loop_.run();

  // The observer hears the failure exactly once, at fail time — the
  // transfer does not complete successfully later.
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_FALSE(outcomes[0].has_value());
  EXPECT_DOUBLE_EQ(at[0], 1.0);
  EXPECT_EQ(network_.in_flight(), 0u);
  EXPECT_EQ(network_.aborted_on_wire(), 1u);
}

TEST_F(NetworkOutageTest, FailRegionFailsQueuedFetchesImmediately) {
  network_.set_max_outstanding_per_region(1);
  const RegionId to = region::kDublin;
  std::vector<SimTimeMs> failure_times;
  std::size_t failures = 0;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        network_.begin_fetch(region::kFrankfurt, to, 1000, [&](auto l) {
          if (!l.has_value()) {
            ++failures;
            failure_times.push_back(loop_.now());
          }
        }));
  }
  ASSERT_EQ(network_.queue_depth(to), 2u);

  loop_.run_until(1.0);
  network_.fail_region(to);
  loop_.run();

  // All three fail at fail time: the wire fetch aborted, and the two queued
  // entries did not wait for a (never-coming) completion to drain them.
  EXPECT_EQ(failures, 3u);
  ASSERT_EQ(failure_times.size(), 3u);
  for (const SimTimeMs t : failure_times) EXPECT_DOUBLE_EQ(t, 1.0);
  EXPECT_EQ(network_.queue_depth(to), 0u);
  EXPECT_EQ(network_.in_flight(), 0u);
}

TEST_F(NetworkOutageTest, RestoreCannotResurrectAbortedFetches) {
  const RegionId to = region::kSydney;
  std::size_t calls = 0;
  std::optional<SimTimeMs> last = SimTimeMs{-1.0};
  ASSERT_TRUE(network_.begin_fetch(region::kFrankfurt, to, 1000, [&](auto l) {
    ++calls;
    last = l;
  }));
  // Fail and immediately restore, all before the transfer would have
  // landed: the aborted fetch must stay failed, and its stale completion
  // event must not fire a second callback (or touch the slot accounting).
  network_.fail_region(to);
  network_.restore_region(to);
  loop_.run();
  EXPECT_EQ(calls, 1u);
  EXPECT_FALSE(last.has_value());
  EXPECT_EQ(network_.in_flight(), 0u);
  // The restored region serves fresh fetches normally.
  bool ok = false;
  ASSERT_TRUE(network_.begin_fetch(region::kFrankfurt, to, 1000,
                                   [&](auto l) { ok = l.has_value(); }));
  loop_.run();
  EXPECT_TRUE(ok);
}

TEST_F(NetworkOutageTest, FailRegionIsIdempotent) {
  const RegionId to = region::kTokyo;
  std::size_t calls = 0;
  ASSERT_TRUE(network_.begin_fetch(region::kFrankfurt, to, 1000,
                                   [&](auto) { ++calls; }));
  network_.fail_region(to);
  network_.fail_region(to);  // duplicate must not double-deliver
  loop_.run();
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(network_.aborted_on_wire(), 1u);
}

// Fetch failures are counted by mode: outage aborts of transfers on the
// wire, kills of FIFO-queued entries, and gray-drop timeouts each land in
// their own counter.
TEST_F(NetworkOutageTest, FailureCountersSplitByMode) {
  network_.set_max_outstanding_per_region(1);
  const RegionId to = region::kDublin;
  std::size_t failures = 0;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(network_.begin_fetch(region::kFrankfurt, to, 1000,
                                     [&](auto l) {
                                       if (!l.has_value()) ++failures;
                                     }));
  }
  loop_.run_until(1.0);
  network_.fail_region(to);
  loop_.run();

  EXPECT_EQ(failures, 3u);
  EXPECT_EQ(network_.aborted_on_wire(), 1u);  // the one on the wire
  EXPECT_EQ(network_.failed_in_queue(), 2u);  // the two behind it
  EXPECT_EQ(network_.timed_out(), 0u);

  // A gray drop charges the third mode: the response is lost and the
  // requester hears nullopt only after the inflated discovery delay.
  network_.restore_region(to);
  network_.model().set_region_drop(to, /*p=*/0.9999, /*latency_mult=*/3.0);
  std::optional<SimTimeMs> out = SimTimeMs{-1.0};
  SimTimeMs at = -1.0;
  ASSERT_TRUE(network_.begin_fetch(region::kFrankfurt, to, 1000, [&](auto l) {
    out = l;
    at = loop_.now();
  }));
  loop_.run();
  EXPECT_FALSE(out.has_value());
  EXPECT_GT(at, 1.0);
  EXPECT_EQ(network_.timed_out(), 1u);
}

// Flap regression: fail -> restore cycles must leave no stranded wire or
// FIFO state behind — a restored region only hands out slots on
// completions, so anything stranded would wedge the region forever.
TEST_F(NetworkOutageTest, FlapCyclesLeaveNoStrandedState) {
  network_.set_max_outstanding_per_region(1);
  const RegionId to = region::kTokyo;
  std::size_t failures = 0;
  for (int cycle = 0; cycle < 3; ++cycle) {
    for (int i = 0; i < 2; ++i) {  // one on the wire, one queued
      ASSERT_TRUE(network_.begin_fetch(region::kFrankfurt, to, 1000,
                                       [&](auto l) {
                                         if (!l.has_value()) ++failures;
                                       }));
    }
    loop_.run_until(loop_.now() + 1.0);
    network_.fail_region(to);
    network_.restore_region(to);
    EXPECT_FALSE(network_.is_down(to));
    EXPECT_EQ(network_.outstanding(to), 0u);
    EXPECT_EQ(network_.queue_depth(to), 0u);
  }
  network_.restore_region(to);  // restoring an up region is a no-op
  loop_.run();

  EXPECT_EQ(failures, 6u);
  EXPECT_EQ(network_.aborted_on_wire(), 3u);
  EXPECT_EQ(network_.failed_in_queue(), 3u);
  EXPECT_EQ(network_.in_flight(), 0u);

  // After all that flapping the region still serves cleanly.
  bool ok = false;
  ASSERT_TRUE(network_.begin_fetch(region::kFrankfurt, to, 1000,
                                   [&](auto l) { ok = l.has_value(); }));
  loop_.run();
  EXPECT_TRUE(ok);
}

TEST(NetworkBatch, EmptyBatchIsZero) {
  EXPECT_EQ(Network::parallel_batch_ms({}), 0.0);
}

TEST(NetworkBatch, BatchIsMax) {
  EXPECT_EQ(Network::parallel_batch_ms({10.0, 50.0, 30.0}), 50.0);
  EXPECT_EQ(Network::parallel_batch_ms({42.0}), 42.0);
}

}  // namespace
}  // namespace agar::sim
