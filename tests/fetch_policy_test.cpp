// The fault-tolerant fetch policy: timeout, retry/backoff, hedging, and the
// down-region-discovery-costs-a-timeout semantics, plus the spec surface
// (fetch= / fetch.* keys) and the end-to-end degraded-read flow.
#include "client/fetch_policy.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "sim/event_loop.hpp"
#include "sim/network.hpp"

namespace agar::client {
namespace {

class FetchPolicyTest : public ::testing::Test {
 protected:
  FetchPolicyTest()
      : topology_(sim::aws_six_regions()),
        network_(sim::LatencyModel(&topology_, {}, 42)) {
    network_.bind_loop(&loop_);
  }

  /// Deterministic params: no backoff jitter, hedging off unless asked.
  static FetchPolicyParams quick(std::size_t retries,
                                 double hedge_after_mult = 0.0) {
    FetchPolicyParams p;
    p.retries = retries;
    p.backoff_ms = 5.0;
    p.backoff_mult = 2.0;
    p.jitter = 0.0;
    p.hedge_after_mult = hedge_after_mult;
    return p;
  }

  sim::Topology topology_;
  sim::Network network_;
  sim::EventLoop loop_;
};

TEST_F(FetchPolicyTest, InvalidParamsThrow) {
  auto bad = quick(1);
  bad.timeout_mult = 0.0;
  EXPECT_THROW(FetchPolicy(&network_, 1, bad), std::invalid_argument);
  bad = quick(1);
  bad.backoff_mult = 0.5;
  EXPECT_THROW(FetchPolicy(&network_, 1, bad), std::invalid_argument);
  bad = quick(1);
  bad.jitter = 1.0;
  EXPECT_THROW(FetchPolicy(&network_, 1, bad), std::invalid_argument);
  EXPECT_THROW(FetchPolicy(nullptr, 1, quick(1)), std::invalid_argument);
}

// Where the raw network refuses a down region synchronously, the policy
// accepts the fetch and the caller learns about the dead region only when
// the timeout expires — failure discovery is priced.
TEST_F(FetchPolicyTest, DownRegionDiscoveryCostsTheTimeout) {
  const RegionId to = sim::region::kTokyo;
  network_.fail_region(to);
  FetchPolicy policy(&network_, 7, quick(/*retries=*/0));

  std::optional<SimTimeMs> out = SimTimeMs{-1.0};
  SimTimeMs delivered_at = -1.0;
  ASSERT_TRUE(policy.begin_fetch(sim::region::kFrankfurt, to, 1000,
                                 [&](auto l) {
                                   out = l;
                                   delivered_at = loop_.now();
                                 }));
  loop_.run();

  EXPECT_FALSE(out.has_value());
  const SimTimeMs expected_timeout =
      std::max(quick(0).timeout_min_ms,
               quick(0).timeout_mult *
                   network_.model().expected_backend_fetch_ms(
                       sim::region::kFrankfurt, to, 1000));
  EXPECT_DOUBLE_EQ(delivered_at, expected_timeout);
  EXPECT_EQ(policy.stats().attempts, 1u);
  EXPECT_EQ(policy.stats().timeouts, 1u);
  EXPECT_EQ(policy.stats().exhausted, 1u);
  EXPECT_EQ(policy.stats().retries, 0u);
}

// A region that comes back between attempts is rescued by the retry path:
// attempt 1 times out, the (jitter-free) backoff elapses, attempt 2 lands.
TEST_F(FetchPolicyTest, RetryAfterTimeoutSucceedsOnceRegionReturns) {
  const RegionId to = sim::region::kSydney;
  network_.fail_region(to);
  FetchPolicy policy(&network_, 7, quick(/*retries=*/2));

  const SimTimeMs timeout =
      std::max(quick(2).timeout_min_ms,
               quick(2).timeout_mult *
                   network_.model().expected_backend_fetch_ms(
                       sim::region::kFrankfurt, to, 1000));
  // Restore after the first timeout but before the retry goes out.
  loop_.schedule_in(timeout + 1.0, [&] { network_.restore_region(to); });

  std::optional<SimTimeMs> out;
  std::size_t calls = 0;
  ASSERT_TRUE(policy.begin_fetch(sim::region::kFrankfurt, to, 1000,
                                 [&](auto l) {
                                   out = l;
                                   ++calls;
                                 }));
  loop_.run();

  EXPECT_EQ(calls, 1u);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(policy.stats().attempts, 2u);
  EXPECT_EQ(policy.stats().timeouts, 1u);
  EXPECT_EQ(policy.stats().retries, 1u);
  EXPECT_EQ(policy.stats().exhausted, 0u);
  // One failure then one success observed against the region's EWMA.
  EXPECT_EQ(policy.region_samples(to), 2u);
  EXPECT_LT(policy.region_success_ewma(to), 1.0);
}

TEST_F(FetchPolicyTest, ExhaustionDeliversNulloptExactlyOnce) {
  const RegionId to = sim::region::kVirginia;
  network_.fail_region(to);
  FetchPolicy policy(&network_, 7, quick(/*retries=*/2));

  std::size_t calls = 0;
  std::optional<SimTimeMs> out = SimTimeMs{-1.0};
  ASSERT_TRUE(policy.begin_fetch(sim::region::kFrankfurt, to, 1000,
                                 [&](auto l) {
                                   out = l;
                                   ++calls;
                                 }));
  loop_.run();

  EXPECT_EQ(calls, 1u);
  EXPECT_FALSE(out.has_value());
  EXPECT_EQ(policy.stats().attempts, 3u);  // retries + 1
  EXPECT_EQ(policy.stats().timeouts, 3u);
  EXPECT_EQ(policy.stats().retries, 2u);
  EXPECT_EQ(policy.stats().exhausted, 1u);
  EXPECT_EQ(policy.region_samples(to), 3u);
}

// Under a heavy straggler tail, hedges go out for the slow primaries and a
// healthy share of them wins the race; the losing duplicates are counted
// as wasted work, never as a second completion.
TEST_F(FetchPolicyTest, HedgingCutsTheStragglerTail) {
  const RegionId to = sim::region::kDublin;
  network_.model().set_region_straggle(to, /*frac=*/0.5, /*mult=*/20.0);

  auto params = quick(/*retries=*/0, /*hedge_after_mult=*/0.5);
  params.timeout_mult = 100.0;  // the timeout never interferes here
  FetchPolicy policy(&network_, 7, params);

  std::size_t successes = 0;
  std::size_t calls = 0;
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(policy.begin_fetch(sim::region::kFrankfurt, to, 1000,
                                   [&](auto l) {
                                     ++calls;
                                     if (l.has_value()) ++successes;
                                   }));
    loop_.run();
  }

  EXPECT_EQ(calls, 200u);
  EXPECT_EQ(successes, 200u);  // every fetch completes exactly once
  const auto& s = policy.stats();
  EXPECT_EQ(s.timeouts, 0u);
  EXPECT_GT(s.hedges_issued, 0u);
  EXPECT_GT(s.hedges_won, 0u);     // a hedge really beat a straggler
  EXPECT_GT(s.hedges_wasted, 0u);  // and some primaries still won the race
  EXPECT_LE(s.hedges_won + s.hedges_wasted, s.hedges_issued);
  EXPECT_EQ(s.attempts, 200u + s.hedges_issued);
}

// ------------------------------------------------------------ spec surface

TEST(FetchPolicySpec, KeysRoundTripAndValidate) {
  api::ExperimentSpec spec;
  spec.set("fetch", "retry");
  spec.set("fetch.retries", "1");
  EXPECT_EQ(spec.experiment.fetch_policy, "retry");
  spec.validate();
  EXPECT_NE(spec.to_json().find("\"fetch\": \"retry\""), std::string::npos);
  EXPECT_NE(spec.label().find("+retry"), std::string::npos);

  // The default stays out of the JSON so existing goldens never change.
  EXPECT_EQ(api::ExperimentSpec{}.to_json().find("fetch"), std::string::npos);

  spec.set("fetch", "bogus");
  EXPECT_THROW(spec.validate(), std::exception);
  spec.set("fetch", "hedge");
  spec.set("fetch.no_such_param", "1");
  EXPECT_THROW(spec.validate(), std::exception);
}

TEST(FetchPolicySpec, LabelNamesThePolicy) {
  EXPECT_EQ(api::ExperimentSpec::from_pairs({"system=backend", "fetch=retry"})
                .label(),
            "Backend+retry");
  EXPECT_EQ(api::ExperimentSpec::from_pairs({"system=backend", "fetch=hedge"})
                .label(),
            "Backend+hedge");
}

// ----------------------------------------------------------- end to end

// A mid-run outage with a retry policy: reads that lose an arm to the dead
// region but still assemble enough chunks are counted degraded, and the
// policy's telemetry flows all the way into the merged RunResult.
TEST(FetchPolicyEndToEnd, OutageProducesDegradedReadsAndTelemetry) {
  api::ExperimentSpec spec;
  spec.system = "agar";
  spec.experiment.deployment.num_objects = 25;
  spec.experiment.deployment.object_size_bytes = 9000;
  spec.experiment.deployment.seed = 7;
  spec.experiment.ops_per_run = 300;
  spec.experiment.runs = 1;
  spec.set("regions", "frankfurt,dublin");
  // Virginia is on the cheapest-k path for both client regions, so the
  // outage forces reads onto their fallback arms (unlike a far region the
  // planner never picks).
  spec.set("scenario", "200 fail_region region=virginia");
  spec.set("fetch", "retry");
  spec.set("fetch.retries", "1");
  spec.set("fetch.timeout_min_ms", "5");
  spec.params.set("cache_bytes", "64KB");

  const auto result = api::run(spec).result;
  ASSERT_EQ(result.runs.size(), 1u);
  const auto& run = result.runs[0];
  EXPECT_GT(run.ops, 0u);
  EXPECT_GT(run.fetch.attempts, 0u);
  EXPECT_GT(run.degraded_reads, 0u);
  ASSERT_EQ(run.region_success_ewma.size(),
            sim::aws_six_regions().num_regions());
  for (const double ewma : run.region_success_ewma) {
    EXPECT_GE(ewma, 0.0);
    EXPECT_LE(ewma, 1.0);
  }
}

}  // namespace
}  // namespace agar::client
