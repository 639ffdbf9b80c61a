// Knapsack solvers: the exact DP (paper Figs. 4-5) against brute force,
// greedy's known failure modes, and structural invariants.
#include "core/knapsack.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "common/rng.hpp"
#include "core/option_generator.hpp"

namespace agar::core {
namespace {

/// Objects are named by id: a = 0, b = 1, c = 2.
constexpr ObjectId kA = 0, kB = 1, kC = 2;

CachingOption opt(ObjectId object, std::size_t weight, double value) {
  return CachingOption{object, weight, weight, value};
}

TEST(Knapsack, EmptyInput) {
  const auto r = solve_dp({}, 10);
  EXPECT_TRUE(r.chosen.empty());
  EXPECT_DOUBLE_EQ(r.total_value, 0.0);
}

TEST(Knapsack, ZeroCapacityChoosesNothing) {
  const auto r = solve_dp({{opt(kA, 1, 5.0)}}, 0);
  EXPECT_TRUE(r.chosen.empty());
}

TEST(Knapsack, SingleOptionFits) {
  const auto r = solve_dp({{opt(kA, 3, 7.0)}}, 5);
  ASSERT_EQ(r.chosen.size(), 1u);
  EXPECT_EQ(r.chosen[0].object, kA);
  EXPECT_DOUBLE_EQ(r.total_value, 7.0);
  EXPECT_EQ(r.total_weight_units, 3u);
}

TEST(Knapsack, SingleOptionTooHeavy) {
  const auto r = solve_dp({{opt(kA, 6, 7.0)}}, 5);
  EXPECT_TRUE(r.chosen.empty());
}

TEST(Knapsack, AtMostOneOptionPerKey) {
  const std::vector<std::vector<CachingOption>> groups = {
      {opt(kA, 1, 10.0), opt(kA, 2, 15.0), opt(kA, 3, 18.0)},
      {opt(kB, 1, 9.0), opt(kB, 2, 14.0)},
  };
  const auto r = solve_dp(groups, 10);
  std::set<ObjectId> objects;
  for (const auto& o : r.chosen) {
    EXPECT_TRUE(objects.insert(o.object).second)
        << "duplicate object " << o.object;
  }
}

TEST(Knapsack, PrefersHigherValueCombination) {
  // Capacity 3: best is a@1 (10) + b@2 (14) = 24, not a@3 (18).
  const std::vector<std::vector<CachingOption>> groups = {
      {opt(kA, 1, 10.0), opt(kA, 3, 18.0)},
      {opt(kB, 2, 14.0)},
  };
  const auto r = solve_dp(groups, 3);
  EXPECT_DOUBLE_EQ(r.total_value, 24.0);
  EXPECT_EQ(r.chosen.size(), 2u);
}

TEST(Knapsack, RelaxationShrinkAnOption) {
  // The RELAX move of Fig. 5: replacing a heavy option for a key with a
  // lighter one for the same key frees room. Capacity 4:
  //   a@4 alone = 20; a@2 (15) + b@2 (12) = 27.
  const std::vector<std::vector<CachingOption>> groups = {
      {opt(kA, 2, 15.0), opt(kA, 4, 20.0)},
      {opt(kB, 2, 12.0)},
  };
  const auto r = solve_dp(groups, 4);
  EXPECT_DOUBLE_EQ(r.total_value, 27.0);
}

TEST(Knapsack, IgnoresZeroValueOptions) {
  const std::vector<std::vector<CachingOption>> groups = {
      {opt(kA, 1, 0.0)},
      {opt(kB, 1, -3.0)},
  };
  const auto r = solve_dp(groups, 5);
  EXPECT_TRUE(r.chosen.empty());
}

TEST(Knapsack, ExactCapacityFill) {
  const std::vector<std::vector<CachingOption>> groups = {
      {opt(kA, 5, 50.0)},
      {opt(kB, 5, 49.0)},
  };
  const auto r = solve_dp(groups, 10);
  EXPECT_EQ(r.total_weight_units, 10u);
  EXPECT_DOUBLE_EQ(r.total_value, 99.0);
}

TEST(Knapsack, GreedyFailsOnClassicAdversarialFamily) {
  // Greedy by density takes a@1 (density 10), leaving no room for b@C
  // (density 9.9, value 9.9 C) in a cache of C units. The DP takes b, so
  // greedy keeps 10 / (9.9 C) of the optimum: its loss grows with C.
  for (const std::size_t capacity : {2u, 10u, 100u, 1000u}) {
    const double big = 9.9 * static_cast<double>(capacity);
    const std::vector<std::vector<CachingOption>> groups = {
        {opt(kA, 1, 10.0)},
        {opt(kB, capacity, big)},
    };
    const auto greedy = solve_greedy(groups, capacity);
    const auto dp = solve_dp(groups, capacity);
    EXPECT_DOUBLE_EQ(greedy.total_value, 10.0) << capacity;
    EXPECT_DOUBLE_EQ(dp.total_value, big) << capacity;
  }
}

TEST(Knapsack, GreedyNeverBeatsDp) {
  Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::vector<CachingOption>> groups;
    const std::size_t keys = 1 + rng.next_below(6);
    for (std::size_t key = 0; key < keys; ++key) {
      std::vector<CachingOption> group;
      const std::size_t options = 1 + rng.next_below(4);
      for (std::size_t i = 0; i < options; ++i) {
        group.push_back(opt(static_cast<ObjectId>(key),
                            1 + rng.next_below(8),
                            static_cast<double>(rng.next_below(100))));
      }
      groups.push_back(std::move(group));
    }
    const std::size_t cap = rng.next_below(20);
    EXPECT_LE(solve_greedy(groups, cap).total_value,
              solve_dp(groups, cap).total_value + 1e-9);
  }
}

// The decisive correctness check: the DP must match exhaustive search on
// randomized small instances (different shapes via parameterization).
class DpVsBruteForce : public ::testing::TestWithParam<int> {};

TEST_P(DpVsBruteForce, OptimalOnRandomInstances) {
  Rng rng(77 + static_cast<std::uint64_t>(GetParam()));
  for (int trial = 0; trial < 120; ++trial) {
    std::vector<std::vector<CachingOption>> groups;
    const std::size_t keys = 1 + rng.next_below(5);
    for (std::size_t key = 0; key < keys; ++key) {
      std::vector<CachingOption> group;
      const std::size_t options = 1 + rng.next_below(5);
      for (std::size_t i = 0; i < options; ++i) {
        group.push_back(opt(static_cast<ObjectId>(key),
                            1 + rng.next_below(9),
                            1.0 + static_cast<double>(rng.next_below(1000))));
      }
      groups.push_back(std::move(group));
    }
    const std::size_t cap = 1 + rng.next_below(25);
    const auto dp = solve_dp(groups, cap);
    const auto brute = solve_brute_force(groups, cap);
    EXPECT_DOUBLE_EQ(dp.total_value, brute.total_value)
        << "trial " << trial << " cap " << cap;
    EXPECT_LE(dp.total_weight_units, cap);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DpVsBruteForce, ::testing::Range(0, 6));

TEST(Knapsack, ChosenWeightsNeverExceedCapacity) {
  Rng rng(555);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<std::vector<CachingOption>> groups;
    for (std::size_t key = 0; key < 8; ++key) {
      groups.push_back({opt(static_cast<ObjectId>(key), 1 + rng.next_below(9),
                            static_cast<double>(1 + rng.next_below(50)))});
    }
    const std::size_t cap = rng.next_below(30);
    const auto r = solve_dp(groups, cap);
    EXPECT_LE(r.total_weight_units, cap);
    double value = 0.0;
    for (const auto& o : r.chosen) value += o.value;
    EXPECT_DOUBLE_EQ(value, r.total_value);
  }
}

TEST(Knapsack, PaperStyleInstanceMixesWeights) {
  // Zipf-ish popularity: a handful of hot keys, long cold tail; options at
  // weights {1,3,5,7,9} with the paper's improvement profile
  // (2000/2800/3200/3320/3345 from Table I). With a small cache, the DP
  // should cache hot objects heavily and still squeeze value from the tail.
  const std::vector<double> improvement = {2000, 2800, 3200, 3320, 3345};
  const std::vector<std::size_t> weights = {1, 3, 5, 7, 9};
  std::vector<std::vector<CachingOption>> groups;
  for (int key = 0; key < 30; ++key) {
    const double popularity = 100.0 / (1.0 + key);  // zipf-1-ish
    std::vector<CachingOption> group;
    for (std::size_t i = 0; i < weights.size(); ++i) {
      group.push_back(opt(static_cast<ObjectId>(key), weights[i],
                          popularity * improvement[i]));
    }
    groups.push_back(std::move(group));
  }
  const auto r = solve_dp(groups, 90);  // 10 MB cache in chunk units

  // Brute force is exponential; verify optimality on a truncated instance.
  const std::vector<std::vector<CachingOption>> head(groups.begin(),
                                                     groups.begin() + 8);
  EXPECT_EQ(solve_brute_force(head, 20).total_value,
            solve_dp(head, 20).total_value);

  // The hottest key must be cached at high weight, and more keys than a
  // full-replica-only policy (90/9 = 10) must appear.
  std::size_t hottest_weight = 0;
  for (const auto& o : r.chosen) {
    if (o.object == 0) hottest_weight = o.weight;
  }
  EXPECT_GE(hottest_weight, 5u);
  EXPECT_GT(r.chosen.size(), 10u);
  EXPECT_LE(r.total_weight_units, 90u);
}

/// "key:weight" per chosen option, in the result's order; object i is
/// keys[i].
std::string describe(const KnapsackResult& r,
                     const std::vector<ObjectKey>& keys) {
  std::string out;
  for (const auto& o : r.chosen) {
    if (!out.empty()) out += ' ';
    out += keys[o.object] + ':' + std::to_string(o.weight);
  }
  return out;
}

TEST(Knapsack, IdenticalGroupsKeepTheirTieBreak) {
  // The paper configuration plans over one stripe layout, and keys read
  // equally often get equal EWMA popularities, so many option groups are
  // identical and most optima are far from unique. Pin the exact keys and
  // weights the DP picks among the ties: the installed configuration, and
  // with it every result byte, follows them.
  OptionGeneratorParams params;
  params.candidate_weights = {1, 3, 5, 7, 9};
  const OptionGenerator generator(params);
  const std::vector<double> latency = {81.25, 196.5, 611.75,
                                       1402.5, 3389.25, 4610.5};
  std::vector<ChunkCost> costs;
  for (ChunkIndex i = 0; i < 12; ++i) {
    costs.push_back(ChunkCost{i, i % 6, latency[i % 6]});
  }
  std::vector<ObjectKey> keys;
  for (int i = 0; i < 12; ++i) keys.push_back("object" + std::to_string(i));
  std::sort(keys.begin(), keys.end());  // the snapshot's key order
  std::vector<std::vector<CachingOption>> groups;
  for (ObjectId object = 0; object < keys.size(); ++object) {
    groups.push_back(generator.generate(costs, 0.8));
    for (auto& o : groups.back()) o.object = object;
  }

  const std::vector<std::pair<std::size_t, std::string>> expected = {
      {4, "object0:1 object1:1 object10:1 object11:1"},
      {10,
       "object0:1 object1:1 object10:1 object11:1 object2:1 object3:1 "
       "object4:1 object5:1 object6:1 object7:1"},
      {25,
       "object0:3 object1:3 object10:3 object11:3 object2:3 object3:3 "
       "object4:1 object5:1 object6:1 object7:1 object8:1 object9:1"},
      {40,
       "object0:5 object1:3 object10:5 object11:3 object2:3 object3:3 "
       "object4:3 object5:3 object6:3 object7:3 object8:3 object9:3"},
      {90,
       "object0:9 object1:9 object10:9 object11:7 object2:7 object3:7 "
       "object4:7 object5:7 object6:7 object7:7 object8:7 object9:7"},
  };
  for (const auto& [capacity, chosen] : expected) {
    EXPECT_EQ(describe(solve_dp(groups, capacity), keys), chosen)
        << "capacity " << capacity;
  }
}

TEST(Knapsack, BruteForceHonorsCapacityToo) {
  const std::vector<std::vector<CachingOption>> groups = {
      {opt(kA, 4, 9.0)},
      {opt(kB, 4, 9.5)},
      {opt(kC, 4, 9.9)},
  };
  const auto r = solve_brute_force(groups, 8);
  EXPECT_EQ(r.chosen.size(), 2u);
  EXPECT_DOUBLE_EQ(r.total_value, 19.4);
}

}  // namespace
}  // namespace agar::core
