// Planner registry: structural invariants every registered planner must
// satisfy (capacity, one option per key, no zero-value picks), optimality
// of knapsack-dp against the brute-force oracle, greedy's loss on the
// instances Agar plans over (paper §II-D), and the incremental planner's
// warm-start behavior.
#include "core/planner.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "api/registry.hpp"
#include "common/rng.hpp"
#include "core/option_generator.hpp"

namespace agar::core {
namespace {

/// Objects are named by id: a = 0, b = 1, c = 2.
constexpr ObjectId kA = 0, kB = 1, kC = 2;

CachingOption opt(ObjectId object, std::size_t weight, double value) {
  return CachingOption{object, weight, weight, value};
}

std::unique_ptr<Planner> make_planner(const std::string& name) {
  return api::PlannerRegistry::instance().create(name, api::PlannerContext{},
                                                 api::ParamMap{});
}

/// Small random instances every planner (including the exponential
/// brute-force oracle) can afford.
std::vector<std::vector<CachingOption>> random_instance(Rng& rng) {
  std::vector<std::vector<CachingOption>> groups;
  const std::size_t keys = 1 + rng.next_below(5);
  for (std::size_t key = 0; key < keys; ++key) {
    std::vector<CachingOption> group;
    const std::size_t options = 1 + rng.next_below(4);
    for (std::size_t i = 0; i < options; ++i) {
      // Values include 0 so the "never select zero value" invariant is
      // actually exercised.
      group.push_back(opt(static_cast<ObjectId>(key), 1 + rng.next_below(8),
                          static_cast<double>(rng.next_below(100))));
    }
    groups.push_back(std::move(group));
  }
  return groups;
}

/// The realistic instance: `objects` keys at Zipf 1.1 popularity
/// (100 / (i+1)^1.1), each with Table I's improvement profile
/// (2000/2800/3200/3320/3345 ms) at weights 1, 3, 5, 7 and 9.
std::vector<std::vector<CachingOption>> table1_profile(std::size_t objects) {
  const std::vector<double> improvement = {2000, 2800, 3200, 3320, 3345};
  const std::vector<std::size_t> weights = {1, 3, 5, 7, 9};
  std::vector<std::vector<CachingOption>> groups;
  for (std::size_t key = 0; key < objects; ++key) {
    const double popularity =
        100.0 / std::pow(static_cast<double>(key + 1), 1.1);
    std::vector<CachingOption> group;
    for (std::size_t i = 0; i < weights.size(); ++i) {
      group.push_back(opt(static_cast<ObjectId>(key), weights[i],
                          popularity * improvement[i]));
    }
    groups.push_back(std::move(group));
  }
  return groups;
}

class PlannerInvariants : public ::testing::TestWithParam<std::string> {};

TEST_P(PlannerInvariants, RespectsCapacityOneOptionPerKeyNoZeroValue) {
  Rng rng(4242);
  for (int trial = 0; trial < 80; ++trial) {
    // A fresh planner per trial: stateful planners (incremental) must hold
    // the invariants on their first call too.
    auto planner = make_planner(GetParam());
    const auto groups = random_instance(rng);
    const std::size_t cap = rng.next_below(20);
    const auto r = planner->plan(groups, cap);

    EXPECT_LE(r.total_weight_units, cap) << GetParam();
    std::set<ObjectId> objects;
    std::size_t units = 0;
    double value = 0.0;
    for (const auto& o : r.chosen) {
      // Group i holds object i, so the choice in group order is by object.
      EXPECT_TRUE(objects.empty() || *objects.rbegin() < o.object)
          << GetParam() << ": " << o.object << " out of group order";
      EXPECT_TRUE(objects.insert(o.object).second)
          << GetParam() << ": duplicate object " << o.object;
      EXPECT_GT(o.value, 0.0) << GetParam() << ": zero-value option chosen";
      EXPECT_GT(o.weight_units, 0u) << GetParam();
      units += o.weight_units;
      value += o.value;
    }
    EXPECT_EQ(units, r.total_weight_units) << GetParam();
    EXPECT_DOUBLE_EQ(value, r.total_value) << GetParam();
  }
}

TEST_P(PlannerInvariants, WarmPlannerHoldsInvariantsAcrossRounds) {
  // Stateful planners re-plan against remembered state; the invariants
  // must survive drifting inputs and shrinking capacity.
  auto planner = make_planner(GetParam());
  Rng rng(777);
  std::vector<std::vector<CachingOption>> groups = random_instance(rng);
  for (int round = 0; round < 12; ++round) {
    const std::size_t cap = 2 + rng.next_below(18);
    for (auto& group : groups) {
      for (auto& o : group) {
        // +-20% drift plus occasional collapse to zero.
        const double f = 0.8 + 0.4 * (static_cast<double>(rng.next_below(100)) /
                                      100.0);
        o.value = rng.next_below(10) == 0 ? 0.0 : o.value * f;
      }
    }
    const auto r = planner->plan(groups, cap);
    EXPECT_LE(r.total_weight_units, cap) << GetParam() << " round " << round;
    std::set<ObjectId> objects;
    for (const auto& o : r.chosen) {
      EXPECT_TRUE(objects.insert(o.object).second) << GetParam();
      EXPECT_GT(o.value, 0.0) << GetParam();
    }
  }
}

TEST_P(PlannerInvariants, NeverBeatsTheExactDp) {
  Rng rng(99);
  for (int trial = 0; trial < 60; ++trial) {
    auto planner = make_planner(GetParam());
    const auto groups = random_instance(rng);
    const std::size_t cap = 1 + rng.next_below(22);
    EXPECT_LE(planner->plan(groups, cap).total_value,
              solve_dp(groups, cap).total_value + 1e-9)
        << GetParam();
  }
}

TEST_P(PlannerInvariants, NothingUsableYieldsTheEmptyPlan) {
  // A 1 MB cache planned at a one-byte quantum, which is what the cache
  // manager passes when its monitor tracks no object.
  constexpr std::size_t kCap = 1_MB;
  const std::vector<std::vector<CachingOption>> unusable = {
      {opt(kA, 3, 0.0), opt(kA, 2, -1.0)},  // no value
      {opt(kB, 0, 5.0)},                    // no footprint
  };
  for (const auto& groups : {std::vector<std::vector<CachingOption>>{},
                             unusable}) {
    const auto r = make_planner(GetParam())->plan(groups, kCap);
    EXPECT_TRUE(r.chosen.empty()) << GetParam();
    EXPECT_EQ(r.total_value, 0.0) << GetParam();
    EXPECT_EQ(r.total_weight_units, 0u) << GetParam();
  }
  // Every option heavier than the whole cache.
  EXPECT_TRUE(make_planner(GetParam())
                  ->plan({{opt(kA, 8, 5.0)}, {opt(kB, 9, 1.0)}}, 7)
                  .chosen.empty())
      << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    Registered, PlannerInvariants,
    ::testing::ValuesIn(api::PlannerRegistry::instance().names()),
    [](const ::testing::TestParamInfo<std::string>& param_info) {
      std::string name = param_info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(PlannerRegistry, DpMatchesBruteForceOracle) {
  auto dp = make_planner("knapsack-dp");
  auto oracle = make_planner("brute-force");
  Rng rng(2026);
  for (int trial = 0; trial < 120; ++trial) {
    const auto groups = random_instance(rng);
    const std::size_t cap = 1 + rng.next_below(25);
    EXPECT_DOUBLE_EQ(dp->plan(groups, cap).total_value,
                     oracle->plan(groups, cap).total_value)
        << "trial " << trial;
  }
}

TEST(PlannerRegistry, DpMatchesBruteForceOnGeneratedOptions) {
  // The option sets Agar itself plans over: RS(9,3) over Table I's region
  // latencies, each key's placement rotated by one region, weights 1, 3,
  // 5, 7 and 9; 1-6 keys at every capacity from empty to every key fully
  // cached (195 cases).
  const std::vector<double> latency = {80, 200, 600, 1400, 3400, 4600};
  OptionGeneratorParams params;
  params.candidate_weights = {1, 3, 5, 7, 9};
  const OptionGenerator generator(params);
  auto dp = make_planner("knapsack-dp");
  auto oracle = make_planner("brute-force");
  for (std::size_t keys = 1; keys <= 6; ++keys) {
    std::vector<std::vector<CachingOption>> groups;
    for (std::size_t key = 0; key < keys; ++key) {
      std::vector<ChunkCost> costs;
      for (ChunkIndex i = 0; i < 12; ++i) {
        const auto region = static_cast<RegionId>((i + key) % 6);
        costs.push_back(ChunkCost{i, region, latency[region]});
      }
      groups.push_back(generator.generate(
          costs, 100.0 / std::pow(static_cast<double>(key + 1), 1.1)));
    }
    for (std::size_t cap = 0; cap <= 9 * keys; ++cap) {
      EXPECT_DOUBLE_EQ(dp->plan(groups, cap).total_value,
                       oracle->plan(groups, cap).total_value)
          << keys << " keys, capacity " << cap;
    }
  }
}

TEST(PlannerRegistry, DpMatchesBruteForceOnMixedObjectSizes) {
  // Mixed working sets: each key's options come from the generator as
  // above, and their footprints are in units of the smallest chunk, as the
  // cache manager sizes them (ceil(weight x chunk bytes / quantum)), so a
  // larger object's options cost more units than their chunk count. Two
  // and three object sizes; 1-5 keys at every capacity up to every key
  // fully cached.
  const std::vector<double> latency = {80, 200, 600, 1400, 3400, 4600};
  OptionGeneratorParams params;
  params.candidate_weights = {1, 3, 5, 7, 9};
  const OptionGenerator generator(params);
  auto dp = make_planner("knapsack-dp");
  auto oracle = make_planner("brute-force");
  const auto chunk_bytes = [](std::size_t object_bytes) {
    return (object_bytes + 8) / 9;  // RS(9, 3) data chunks, rounded up
  };
  const std::vector<std::vector<std::size_t>> size_sets = {
      {1_MB, 3_MB / 2}, {1_MB, 2_MB, 5_MB / 2}};
  for (const auto& sizes : size_sets) {
    const std::size_t quantum = chunk_bytes(sizes.front());
    for (std::size_t keys = 1; keys <= 5; ++keys) {
      std::vector<std::vector<CachingOption>> groups;
      std::size_t all_units = 0;
      for (std::size_t key = 0; key < keys; ++key) {
        std::vector<ChunkCost> costs;
        for (ChunkIndex i = 0; i < 12; ++i) {
          const auto region = static_cast<RegionId>((i + key) % 6);
          costs.push_back(ChunkCost{i, region, latency[region]});
        }
        auto group = generator.generate(
            costs, 100.0 / std::pow(static_cast<double>(key + 1), 1.1));
        const std::size_t chunk = chunk_bytes(sizes[key % sizes.size()]);
        for (auto& o : group) {
          o.weight_units = static_cast<std::size_t>(std::ceil(
              static_cast<double>(o.weight) * static_cast<double>(chunk) /
              static_cast<double>(quantum)));
        }
        all_units += group.back().weight_units;
        groups.push_back(std::move(group));
      }
      for (std::size_t cap = 0; cap <= all_units; ++cap) {
        const auto planned = dp->plan(groups, cap);
        EXPECT_DOUBLE_EQ(planned.total_value,
                         oracle->plan(groups, cap).total_value)
            << sizes.size() << " sizes, " << keys << " keys, capacity "
            << cap;
        EXPECT_LE(planned.total_weight_units, cap);
      }
    }
  }
}

TEST(PlannerRegistry, UnknownNameThrowsWithKnownNames) {
  try {
    (void)make_planner("simplex");
    FAIL() << "expected UnknownNameError";
  } catch (const api::UnknownNameError& e) {
    const auto& known = e.known_names();
    EXPECT_NE(std::find(known.begin(), known.end(), "knapsack-dp"),
              known.end());
    EXPECT_NE(std::find(known.begin(), known.end(), "incremental"),
              known.end());
  }
}

TEST(PlannerRegistry, EveryEntryIsDocumented) {
  const auto& planners = api::PlannerRegistry::instance();
  for (const auto& name : planners.names()) {
    const auto& entry = planners.at(name);
    EXPECT_FALSE(entry.description.empty()) << name;
    auto planner = planners.create(name, api::PlannerContext{},
                                   api::ParamMap{});
    EXPECT_EQ(planner->name(), name);
  }
}

TEST(IncrementalPlanner, FirstPlanMatchesTheExactDp) {
  Rng rng(11);
  for (int trial = 0; trial < 40; ++trial) {
    auto inc = make_planner("incremental");
    const auto groups = random_instance(rng);
    const std::size_t cap = 1 + rng.next_below(25);
    EXPECT_DOUBLE_EQ(inc->plan(groups, cap).total_value,
                     solve_dp(groups, cap).total_value)
        << "trial " << trial;
  }
}

TEST(IncrementalPlanner, StableInputsKeepTheConfiguration) {
  auto inc = make_planner("incremental");
  const std::vector<std::vector<CachingOption>> groups = {
      {opt(kA, 1, 10.0), opt(kA, 3, 18.0)},
      {opt(kB, 2, 14.0)},
      {opt(kC, 2, 1.0)},
  };
  const auto first = inc->plan(groups, 6);
  // Unchanged inputs: nothing is dirty, the previous choices carry over.
  const auto second = inc->plan(groups, 6);
  ASSERT_EQ(first.chosen.size(), second.chosen.size());
  for (std::size_t i = 0; i < first.chosen.size(); ++i) {
    EXPECT_EQ(first.chosen[i].object, second.chosen[i].object);
    EXPECT_EQ(first.chosen[i].weight_units, second.chosen[i].weight_units);
  }
  EXPECT_DOUBLE_EQ(first.total_value, second.total_value);
}

TEST(IncrementalPlanner, DirtyKeyIsReplanned) {
  auto inc = make_planner("incremental");
  std::vector<std::vector<CachingOption>> groups = {
      {opt(kA, 1, 10.0)},
      {opt(kB, 1, 1.0)},
  };
  const auto first = inc->plan(groups, 2);
  ASSERT_EQ(first.chosen.size(), 2u);

  // Key b collapses to zero value: it must be dropped at the next plan.
  groups[1][0].value = 0.0;
  const auto second = inc->plan(groups, 2);
  ASSERT_EQ(second.chosen.size(), 1u);
  EXPECT_EQ(second.chosen[0].object, kA);
}

TEST(IncrementalPlanner, SmallDriftDoesNotChurnLargeDriftDoes) {
  constexpr ObjectId kHot = 0, kWarm = 1, kCold = 2;
  auto inc = api::PlannerRegistry::instance().create(
      "incremental", api::PlannerContext{},
      api::ParamMap{});  // default threshold 0.1
  std::vector<std::vector<CachingOption>> groups = {
      {opt(kHot, 3, 100.0)},
      {opt(kWarm, 3, 50.0)},
      {opt(kCold, 3, 10.0)},
  };
  const auto first = inc->plan(groups, 6);  // hot + warm fit
  ASSERT_EQ(first.chosen.size(), 2u);

  // 5% drift: below the threshold, the kept options simply refresh values.
  for (auto& g : groups) g[0].value *= 1.05;
  const auto drifted = inc->plan(groups, 6);
  ASSERT_EQ(drifted.chosen.size(), 2u);
  EXPECT_EQ(drifted.chosen[0].object, kHot);
  EXPECT_EQ(drifted.chosen[1].object, kWarm);
  // Values track the fresh inputs even for kept keys.
  EXPECT_DOUBLE_EQ(drifted.chosen[0].value, 105.0);

  // The cold key surges past everything: it is dirty and gets planned in.
  groups[2][0].value = 1000.0;
  const auto surged = inc->plan(groups, 6);
  bool has_cold = false;
  for (const auto& o : surged.chosen) has_cold |= o.object == kCold;
  EXPECT_TRUE(has_cold);
}

TEST(IncrementalPlanner, SqueezedSurgeIsNotLockedInAtAFractionOfItsWorth) {
  constexpr ObjectId kSurge = 2;
  // Regression: a surged key whose best option no longer fits the leftover
  // capacity must trigger a full re-plan, not be squeezed into a tiny
  // option and then remembered as "stable" at its huge signature forever.
  auto inc = make_planner("incremental");
  std::vector<std::vector<CachingOption>> groups = {
      {opt(kA, 3, 100.0)},
      {opt(kB, 3, 90.0)},
      {opt(kSurge, 1, 5.0), opt(kSurge, 5, 6.0)},
  };
  const auto first = inc->plan(groups, 7);  // a + b + surge@1
  EXPECT_EQ(first.chosen.size(), 3u);

  // The surge key explodes: its heavy option is now worth more than
  // everything else combined, but only 1 unit is left after a and b.
  groups[2] = {opt(kSurge, 1, 5.0), opt(kSurge, 5, 1000.0)};
  const auto second = inc->plan(groups, 7);
  double surge_value = 0.0;
  for (const auto& o : second.chosen) {
    if (o.object == kSurge) surge_value = o.value;
  }
  EXPECT_DOUBLE_EQ(surge_value, 1000.0);
  EXPECT_DOUBLE_EQ(second.total_value,
                   solve_dp(groups, 7).total_value);

  // And it stays planned at full worth on subsequent stable rounds.
  const auto third = inc->plan(groups, 7);
  EXPECT_DOUBLE_EQ(third.total_value, second.total_value);
}

TEST(IncrementalPlanner, SmallDriftKeepsTheDpsValue) {
  // Three rounds of 1% drift stay under the dirty threshold, so the warm
  // re-plans keep their choices; on the realistic instance those are
  // still worth exactly what the DP finds.
  auto groups = table1_profile(300);
  auto inc = make_planner("incremental");
  (void)inc->plan(groups, 900);
  for (int round = 1; round <= 3; ++round) {
    for (auto& group : groups) {
      for (auto& o : group) o.value *= 1.01;
    }
    EXPECT_DOUBLE_EQ(inc->plan(groups, 900).total_value,
                     solve_dp(groups, 900).total_value)
        << "round " << round;
  }
}

TEST(IncrementalPlanner, CapacityShrinkForcesAFullReplan) {
  auto inc = make_planner("incremental");
  const std::vector<std::vector<CachingOption>> groups = {
      {opt(kA, 4, 40.0)},
      {opt(kB, 4, 39.0)},
  };
  const auto first = inc->plan(groups, 8);
  EXPECT_EQ(first.chosen.size(), 2u);
  // Half the capacity: the kept set no longer fits; the planner must fall
  // back to a full plan and still respect the new capacity.
  const auto shrunk = inc->plan(groups, 4);
  EXPECT_LE(shrunk.total_weight_units, 4u);
  ASSERT_EQ(shrunk.chosen.size(), 1u);
  EXPECT_EQ(shrunk.chosen[0].object, kA);
}

TEST(GreedyPlanner, EqualDensityTieBreaksByGroupThenWeight) {
  // Every option has density 1.0. The earlier group wins a tie whatever
  // its object (b before a here), and within a group the lighter option
  // does; the picks come back in group order.
  const std::vector<std::vector<CachingOption>> groups = {
      {opt(kB, 2, 2.0)},
      {opt(kA, 2, 2.0), opt(kA, 1, 1.0)},
  };
  const auto two = solve_greedy(groups, 2);
  ASSERT_EQ(two.chosen.size(), 1u);
  EXPECT_EQ(two.chosen[0].object, kB);
  // b@2, then a@1 in the unit left.
  const auto three = solve_greedy(groups, 3);
  ASSERT_EQ(three.chosen.size(), 2u);
  EXPECT_EQ(three.chosen[0].object, kB);
  EXPECT_EQ(three.chosen[1].object, kA);
  EXPECT_EQ(three.chosen[1].weight_units, 1u);
  EXPECT_DOUBLE_EQ(three.total_value, 3.0);
}

TEST(GreedyPlanner, ReportsPicksInGroupOrder) {
  // Greedy takes b (density 5) before a (density 1); the result lists them
  // as their groups do.
  const std::vector<std::vector<CachingOption>> groups = {
      {opt(kA, 1, 1.0)},
      {opt(kB, 1, 5.0)},
  };
  const auto r = solve_greedy(groups, 2);
  ASSERT_EQ(r.chosen.size(), 2u);
  EXPECT_EQ(r.chosen[0].object, kA);
  EXPECT_EQ(r.chosen[1].object, kB);
}

TEST(GreedyPlanner, LosesMoreOfTheDpsValueAsTheCacheGrows) {
  // Paper §II-D: greedy is a poor fit for the caching-options knapsack.
  // On the realistic instance its share of the DP's value falls strictly
  // as the cache grows from one full replica to 900 chunks: greedy's loss
  // grows from 7% to 37%.
  const auto groups = table1_profile(300);
  auto greedy = make_planner("greedy");
  auto dp = make_planner("knapsack-dp");
  const std::vector<std::pair<std::size_t, double>> shares = {
      {9, 0.9255},   {45, 0.8028},  {90, 0.7655},
      {180, 0.7372}, {450, 0.6780}, {900, 0.6276},
  };
  double previous = 1.0;
  for (const auto& [capacity, share] : shares) {
    const double got = greedy->plan(groups, capacity).total_value /
                       dp->plan(groups, capacity).total_value;
    EXPECT_NEAR(got, share, 5e-5) << capacity << " chunks";
    EXPECT_LT(got, previous) << capacity << " chunks";
    previous = got;
  }
}

}  // namespace
}  // namespace agar::core
