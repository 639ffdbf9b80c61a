// The event-driven read pipeline: asynchronous fetches, in-flight
// coalescing, per-region concurrency limits with FIFO queueing, open-loop
// Poisson clients in multiple regions, and end-to-end determinism.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <vector>

#include "api/api.hpp"
#include "client/backend_strategy.hpp"
#include "client/fixed_chunks_strategy.hpp"
#include "client/runner.hpp"
#include "core/fetch_coordinator.hpp"
#include "sim/event_loop.hpp"
#include "sim/network.hpp"

namespace agar::client {
namespace {

class AsyncPipelineTest : public ::testing::Test {
 protected:
  AsyncPipelineTest()
      : topology_(sim::aws_six_regions()),
        network_(sim::LatencyModel(&topology_, zero_jitter(), 3)),
        backend_(6, ec::CodecParams{9, 3}, ec::RoundRobinPlacement(false)) {
    store::populate_working_set(backend_, 5, 9000);
    network_.bind_loop(&loop_);
  }

  static sim::LatencyModelParams zero_jitter() {
    sim::LatencyModelParams p;
    p.jitter_fraction = 0.0;
    p.wan_bandwidth_mbps = std::numeric_limits<double>::infinity();
    p.cache_bandwidth_mbps = std::numeric_limits<double>::infinity();
    return p;
  }

  ClientContext ctx(RegionId region) {
    ClientContext c;
    c.backend = &backend_;
    c.network = &network_;
    c.loop = &loop_;
    c.region = region;
    c.decode_ms_per_mb = 0.0;
    return c;
  }

  /// A coordinator's transport straight onto the network.
  core::FetchCoordinator::Transport network_transport() {
    return [this](const ChunkId&, RegionId from, RegionId to,
                  std::size_t bytes, core::FetchCoordinator::Callback cb) {
      return network_.begin_fetch(from, to, bytes, std::move(cb));
    };
  }

  sim::Topology topology_;
  sim::EventLoop loop_;
  sim::Network network_;
  store::BackendCluster backend_;
};

TEST_F(AsyncPipelineTest, CoordinatorRejectsAnEmptyTransport) {
  EXPECT_THROW(core::FetchCoordinator{core::FetchCoordinator::Transport{}},
               std::invalid_argument);
}

TEST_F(AsyncPipelineTest, CoordinatorCoalescesDuplicateFetches) {
  core::FetchCoordinator coordinator(network_transport());
  std::vector<SimTimeMs> completions;
  const ChunkId chunk{backend_.id_of("object0"), 2};
  ASSERT_EQ(coordinator.fetch(chunk, 0, 1, 1000,
                              [&](auto l) { completions.push_back(*l); }),
            core::FetchStart::kStarted);
  ASSERT_EQ(coordinator.fetch(chunk, 0, 1, 1000,
                              [&](auto l) { completions.push_back(*l); }),
            core::FetchStart::kJoined);
  EXPECT_TRUE(coordinator.in_flight(chunk));
  loop_.run();
  // One wire fetch, both callbacks fired with the same transfer.
  ASSERT_EQ(completions.size(), 2u);
  EXPECT_DOUBLE_EQ(completions[0], completions[1]);
  EXPECT_EQ(coordinator.started(), 1u);
  EXPECT_EQ(coordinator.coalesced(), 1u);
  EXPECT_EQ(network_.stats().wire_fetches, 1u);
  EXPECT_FALSE(coordinator.in_flight(chunk));
}

TEST_F(AsyncPipelineTest, OverlappingReadsShareOneWireFetchPerChunk) {
  BackendStrategy s(ctx(sim::region::kFrankfurt));
  std::vector<ReadResult> results;
  // Two reads of the same object start at t=0 — before either completes.
  s.start_read("object0", [&](const ReadResult& r) { results.push_back(r); });
  s.start_read("object0", [&](const ReadResult& r) { results.push_back(r); });
  loop_.run();
  ASSERT_EQ(results.size(), 2u);
  // 9 chunks went on the wire once; the second read joined all of them.
  EXPECT_EQ(network_.stats().wire_fetches, 9u);
  EXPECT_EQ(s.fetch_coordinator().started(), 9u);
  EXPECT_EQ(s.fetch_coordinator().coalesced(), 9u);
  EXPECT_EQ(results[1].coalesced_chunks, 9u);
  // Both still assemble k chunks and finish together (zero jitter).
  EXPECT_EQ(results[0].backend_chunks, 9u);
  EXPECT_EQ(results[1].backend_chunks, 9u);
  EXPECT_DOUBLE_EQ(results[0].latency_ms, results[1].latency_ms);
}

TEST_F(AsyncPipelineTest, ReadPathCoalescesWithPopulationFetches) {
  // LRU-9: the first read of an object fetches its chunks AND (at
  // completion) wants them populated; a second overlapping read of the
  // same object must ride the same wire fetches instead of re-downloading.
  FixedChunksParams p;
  p.chunks_per_object = 9;
  p.cache_capacity_bytes = 100_MB;
  FixedChunksStrategy s(ctx(sim::region::kFrankfurt), p,
                        api::EngineRegistry::instance().create(
                            "lru", api::EngineContext{p.cache_capacity_bytes},
                            api::ParamMap{}));
  std::size_t done = 0;
  s.start_read("object0", [&](const ReadResult&) { ++done; });
  loop_.run_until(1.0);  // first read's fetches now in flight
  s.start_read("object0", [&](const ReadResult& r) {
    ++done;
    EXPECT_EQ(r.coalesced_chunks, 9u);
  });
  loop_.run();
  EXPECT_EQ(done, 2u);
  EXPECT_EQ(network_.stats().wire_fetches, 9u);
  // And once everything landed, the cache serves the object outright.
  const ReadResult warm = s.read("object0");
  EXPECT_TRUE(warm.full_hit);
}

TEST_F(AsyncPipelineTest, ConcurrencyLimitQueuesFetchesFifo) {
  network_.set_max_outstanding_per_region(1);
  const RegionId to = sim::region::kDublin;
  const SimTimeMs wire =
      *network_.backend_fetch(sim::region::kFrankfurt, to, 1000);
  std::vector<SimTimeMs> completion_times;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(network_.begin_fetch(
        sim::region::kFrankfurt, to, 1000,
        [&](auto) { completion_times.push_back(loop_.now()); }));
  }
  loop_.run();
  // One at a time: completions at L, 2L, 3L — queueing is visible latency.
  ASSERT_EQ(completion_times.size(), 3u);
  EXPECT_DOUBLE_EQ(completion_times[0], wire);
  EXPECT_DOUBLE_EQ(completion_times[1], 2 * wire);
  EXPECT_DOUBLE_EQ(completion_times[2], 3 * wire);
  EXPECT_EQ(network_.stats().queued_fetches, 2u);
  EXPECT_EQ(network_.stats().max_queue_depth, 2u);
  EXPECT_EQ(network_.stats().max_in_flight, 1u);
}

TEST_F(AsyncPipelineTest, UnlimitedRegionServesBatchInParallel) {
  network_.set_max_outstanding_per_region(0);
  const RegionId to = sim::region::kDublin;
  const SimTimeMs wire =
      *network_.backend_fetch(sim::region::kFrankfurt, to, 1000);
  std::vector<SimTimeMs> completion_times;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(network_.begin_fetch(
        sim::region::kFrankfurt, to, 1000,
        [&](auto) { completion_times.push_back(loop_.now()); }));
  }
  loop_.run();
  for (const SimTimeMs t : completion_times) EXPECT_DOUBLE_EQ(t, wire);
  EXPECT_EQ(network_.stats().queued_fetches, 0u);
  EXPECT_EQ(network_.stats().max_in_flight, 4u);
}

TEST_F(AsyncPipelineTest, ContendingReadsPayQueueingDelay) {
  // Two concurrent reads of different objects under a one-slot-per-region
  // cap: the second read's chunk at the slowest region (Tokyo, 1130 ms
  // from Frankfurt) waits for the first read's, so its completion lands at
  // ~2x the uncontended critical path — queueing is real timeline delay,
  // not hidden arithmetic.
  network_.set_max_outstanding_per_region(1);
  BackendStrategy s(ctx(sim::region::kFrankfurt));
  std::vector<SimTimeMs> latencies;
  s.start_read("object0",
               [&](const ReadResult& r) { latencies.push_back(r.latency_ms); });
  s.start_read("object1",
               [&](const ReadResult& r) { latencies.push_back(r.latency_ms); });
  loop_.run();
  ASSERT_EQ(latencies.size(), 2u);
  EXPECT_DOUBLE_EQ(latencies[0], 1130.0);      // first read: uncontended path
  EXPECT_DOUBLE_EQ(latencies[1], 2 * 1130.0);  // second: queued behind it
  EXPECT_GT(network_.stats().queued_fetches, 0u);
}

TEST_F(AsyncPipelineTest, CoalescedObserversSeeFailureExactlyOnce) {
  // Several requesters joined one wire fetch; the destination dies
  // mid-flight. Every observer must hear nullopt exactly once.
  core::FetchCoordinator coordinator(network_transport());
  const ChunkId chunk{backend_.id_of("object0"), 1};
  const RegionId to = sim::region::kTokyo;
  std::size_t failures = 0, successes = 0;
  auto observer = [&](std::optional<SimTimeMs> l) {
    l.has_value() ? ++successes : ++failures;
  };
  ASSERT_EQ(coordinator.fetch(chunk, 0, to, 1000, observer),
            core::FetchStart::kStarted);
  ASSERT_EQ(coordinator.fetch(chunk, 0, to, 1000, observer),
            core::FetchStart::kJoined);
  ASSERT_EQ(coordinator.fetch(chunk, 0, to, 1000, observer),
            core::FetchStart::kJoined);
  loop_.run_until(1.0);
  network_.fail_region(to);
  loop_.run();
  EXPECT_EQ(failures, 3u);
  EXPECT_EQ(successes, 0u);
  EXPECT_FALSE(coordinator.in_flight(chunk));
}

TEST_F(AsyncPipelineTest, ExhaustedFallbacksCompleteAsFailedRead) {
  // Every region dies while a read's fetches are on the wire: with all
  // fallbacks exhausted the read must complete as a counted failure, not
  // crash decoding fewer than k chunks from a completion event.
  ClientContext c = ctx(sim::region::kFrankfurt);
  c.verify_data = true;  // pre-fix: decode of < k chunks throws
  BackendStrategy s(c);
  ReadResult result;
  bool done = false;
  s.start_read("object0", [&](const ReadResult& r) {
    result = r;
    done = true;
  });
  loop_.run_until(1.0);
  for (RegionId r = 0; r < topology_.num_regions(); ++r) {
    network_.fail_region(r);
  }
  loop_.run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(result.failed);
  EXPECT_FALSE(result.verified);
  EXPECT_LT(result.backend_chunks, 9u);
}

TEST_F(AsyncPipelineTest, MidReadOutageFallsBackToSurvivingRegions) {
  // One region dies mid-read; its in-flight arms abort and the batch pulls
  // parity replacements from live regions — the read still decodes.
  ClientContext c = ctx(sim::region::kFrankfurt);
  c.verify_data = true;
  BackendStrategy s(c);
  ReadResult result;
  bool done = false;
  s.start_read("object0", [&](const ReadResult& r) {
    result = r;
    done = true;
  });
  loop_.run_until(1.0);
  network_.fail_region(sim::region::kTokyo);
  loop_.run();
  ASSERT_TRUE(done);
  EXPECT_FALSE(result.failed);
  EXPECT_TRUE(result.verified);
  EXPECT_EQ(result.backend_chunks, 9u);
}

TEST_F(AsyncPipelineTest, DownRegionFallsBackAsynchronously) {
  network_.fail_region(sim::region::kTokyo);
  BackendStrategy s(ctx(sim::region::kFrankfurt));
  ReadResult result;
  bool done = false;
  s.start_read("object0", [&](const ReadResult& r) {
    result = r;
    done = true;
  });
  loop_.run();
  ASSERT_TRUE(done);
  EXPECT_EQ(result.backend_chunks, 9u);  // parity substituted for Tokyo
}

// ----------------------------------------------------------- runner level

ExperimentConfig open_loop_config() {
  ExperimentConfig c;
  c.deployment.num_objects = 20;
  c.deployment.object_size_bytes = 9000;
  c.deployment.seed = 11;
  c.workload = WorkloadSpec::zipfian(1.1);
  c.client_regions = {sim::region::kFrankfurt, sim::region::kSydney};
  c.ops_per_run = 150;
  c.runs = 2;
  c.arrival_rate_per_s = 20.0;  // ~1 s reads => deep overlap
  c.reconfig_period_ms = 2000.0;
  return c;
}

ExperimentResult run_system(const ExperimentConfig& config,
                            const std::vector<std::string>& pairs) {
  api::ExperimentSpec spec;
  spec.experiment = config;
  for (const auto& pair : pairs) spec.set_pair(pair);
  return api::run(spec).result;
}

void expect_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.ops, b.ops);
  EXPECT_EQ(a.full_hits, b.full_hits);
  EXPECT_EQ(a.partial_hits, b.partial_hits);
  EXPECT_EQ(a.network.wire_fetches, b.network.wire_fetches);
  EXPECT_EQ(a.coalesced_fetches, b.coalesced_fetches);
  EXPECT_EQ(a.network.queued_fetches, b.network.queued_fetches);
  EXPECT_EQ(a.network.max_queue_depth, b.network.max_queue_depth);
  EXPECT_EQ(a.network.max_in_flight, b.network.max_in_flight);
  EXPECT_EQ(a.max_reads_in_flight, b.max_reads_in_flight);
  // Byte-identical latency samples, not merely equal summary stats.
  const auto& sa = a.latencies.sorted_samples();
  const auto& sb = b.latencies.sorted_samples();
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i], sb[i]) << "sample " << i;
  }
  EXPECT_EQ(a.duration_ms, b.duration_ms);
}

TEST(OpenLoopRunner, MultiRegionPoissonRunIsDeterministic) {
  const auto config = open_loop_config();
  const auto a = run_system(config, {"system=agar", "cache_bytes=10MB"});
  const auto b = run_system(config, {"system=agar", "cache_bytes=10MB"});
  ASSERT_EQ(a.runs.size(), b.runs.size());
  for (std::size_t r = 0; r < a.runs.size(); ++r) {
    expect_identical(a.runs[r], b.runs[r]);
  }
  // Zipfian + overlapping reads => the in-flight table must deduplicate.
  EXPECT_GT(a.total_coalesced_fetches(), 0u);
  EXPECT_EQ(a.total_ops(), 300u);
}

TEST(OpenLoopRunner, ArrivalsOverlapUnlikeClosedLoop) {
  auto config = open_loop_config();
  const auto open = run_system(config, {"system=backend"});
  // Closed-loop with the same budget: at most num_clients reads in flight.
  config.arrival_rate_per_s = 0.0;
  config.num_clients = 2;
  const auto closed = run_system(config, {"system=backend"});
  ASSERT_EQ(open.runs.size(), 2u);
  EXPECT_GT(open.runs[0].max_reads_in_flight, 4u);
  EXPECT_LE(closed.runs[0].max_reads_in_flight, 4u);  // 2 clients x 2 regions
  // Open loop finishes the same op budget in less virtual time.
  EXPECT_GT(open.runs[0].throughput_ops_per_s(),
            closed.runs[0].throughput_ops_per_s());
}

TEST(OpenLoopRunner, SeedChangesChangeOpenLoopResults) {
  auto config = open_loop_config();
  const auto a = run_system(config, {"system=lru", "chunks=9", "cache_bytes=10MB"});
  config.deployment.seed = 999;
  const auto b = run_system(config, {"system=lru", "chunks=9", "cache_bytes=10MB"});
  EXPECT_NE(a.mean_latency_ms(), b.mean_latency_ms());
}

TEST(ClosedLoopRunner, MultiRegionClientsShareTheDeployment) {
  ExperimentConfig config;
  config.deployment.num_objects = 20;
  config.deployment.object_size_bytes = 9000;
  config.deployment.seed = 5;
  config.client_regions = {sim::region::kFrankfurt, sim::region::kSydney,
                           sim::region::kTokyo};
  config.ops_per_run = 120;
  config.runs = 1;
  config.num_clients = 2;
  config.reconfig_period_ms = 2000.0;
  const auto result = run_system(config, {"system=agar", "cache_bytes=10MB"});
  EXPECT_EQ(result.total_ops(), 120u);
  EXPECT_GT(result.runs[0].throughput_ops_per_s(), 0.0);
  // Three regions' worth of closed-loop clients overlap on the timeline.
  EXPECT_GE(result.runs[0].max_reads_in_flight, 3u);
}

}  // namespace
}  // namespace agar::client
