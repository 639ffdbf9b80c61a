// Workload generators: Zipfian CDF properties (the Fig. 9 data source),
// uniform sanity, determinism.
#include "client/workload.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <map>

namespace agar::client {
namespace {

TEST(Uniform, EmptyUniverseThrows) {
  EXPECT_THROW(UniformGenerator(0), std::invalid_argument);
}

TEST(Uniform, CoversUniverseEvenly) {
  UniformGenerator gen(10);
  Rng rng(5);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[gen.next_index(rng)];
  for (const int c : counts) EXPECT_NEAR(c, n / 10, n / 80);
}

TEST(Zipfian, ValidatesInput) {
  EXPECT_THROW(ZipfianGenerator(0, 1.0), std::invalid_argument);
  EXPECT_THROW(ZipfianGenerator(10, -0.5), std::invalid_argument);
}

TEST(Zipfian, RejectsANanSkew) {
  EXPECT_THROW(
      ZipfianGenerator(10, std::numeric_limits<double>::quiet_NaN()),
      std::invalid_argument);
}

TEST(Zipfian, SkewZeroIsUniform) {
  ZipfianGenerator gen(100, 0.0);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_NEAR(gen.pmf(i), 0.01, 1e-12);
  }
}

TEST(Zipfian, PmfIsDecreasing) {
  ZipfianGenerator gen(300, 1.1);
  for (std::size_t i = 1; i < 300; ++i) {
    EXPECT_GE(gen.pmf(i - 1), gen.pmf(i));
  }
}

TEST(Zipfian, CdfIsMonotoneAndReachesOne) {
  ZipfianGenerator gen(300, 1.1);
  double prev = 0.0;
  for (std::size_t i = 0; i < 300; ++i) {
    EXPECT_GE(gen.cdf(i), prev);
    prev = gen.cdf(i);
  }
  EXPECT_DOUBLE_EQ(gen.cdf(299), 1.0);
  EXPECT_DOUBLE_EQ(gen.cdf(1000), 1.0);
}

TEST(Zipfian, HigherSkewConcentratesMass) {
  // Fig. 9's point: the top-5 objects' share grows with the skew.
  ZipfianGenerator low(300, 0.5), mid(300, 1.1), high(300, 1.4);
  EXPECT_LT(low.cdf(4), mid.cdf(4));
  EXPECT_LT(mid.cdf(4), high.cdf(4));
}

TEST(Zipfian, SamplesFollowPmf) {
  ZipfianGenerator gen(50, 1.1);
  Rng rng(11);
  std::vector<int> counts(50, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[gen.next_index(rng)];
  // Rank 0 should match its pmf within a few percent.
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, gen.pmf(0),
              gen.pmf(0) * 0.05);
  // Monotone-ish: rank 0 clearly more popular than rank 10.
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[10], counts[40]);
}

TEST(Zipfian, Paper5PercentRule) {
  // §II-B cites skewed workloads where few objects dominate; with skew 1.1
  // over 300 objects, the top 15 (5%) must account for well over a third of
  // accesses.
  ZipfianGenerator gen(300, 1.1);
  EXPECT_GT(gen.cdf(14), 0.35);
  // Fig. 9's example: the top 5 objects take about 40% of the requests
  // (43.7% analytic), and the generator samples that share.
  EXPECT_NEAR(gen.cdf(4), 0.437, 0.0005);
  Rng rng(5);
  const int n = 100000;
  int top5 = 0;
  for (int i = 0; i < n; ++i) top5 += gen.next_index(rng) < 5 ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(top5) / n, gen.cdf(4), 0.01);
}

TEST(WorkloadSpec, Labels) {
  EXPECT_EQ(WorkloadSpec::uniform().label(), "uniform");
  EXPECT_EQ(WorkloadSpec::zipfian(1.1).label(), "zipf-1.1");
}

TEST(WorkloadSpec, FactoryMakesRightGenerator) {
  auto uni = make_generator(WorkloadSpec::uniform(), 10);
  auto zipf = make_generator(WorkloadSpec::zipfian(1.0), 10);
  EXPECT_NE(dynamic_cast<UniformGenerator*>(uni.get()), nullptr);
  EXPECT_NE(dynamic_cast<ZipfianGenerator*>(zipf.get()), nullptr);
}

TEST(Workload, KeysFollowBackendNaming) {
  Workload w(WorkloadSpec::zipfian(1.1), 300, 42);
  for (int i = 0; i < 100; ++i) {
    const ObjectKey key = w.next_key();
    EXPECT_EQ(key.rfind("object", 0), 0u) << key;
    const int n = std::stoi(key.substr(6));
    EXPECT_GE(n, 0);
    EXPECT_LT(n, 300);
  }
}

TEST(Workload, SameSeedSameStream) {
  Workload a(WorkloadSpec::zipfian(1.1), 300, 99);
  Workload b(WorkloadSpec::zipfian(1.1), 300, 99);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(a.next_key(), b.next_key());
}

TEST(Workload, DifferentSeedsDiffer) {
  Workload a(WorkloadSpec::zipfian(1.1), 300, 1);
  Workload b(WorkloadSpec::zipfian(1.1), 300, 2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_key() == b.next_key()) ++same;
  }
  EXPECT_LT(same, 60);  // zipf makes collisions common but not total
}

TEST(Workload, ZipfFavorsObjectZero) {
  Workload w(WorkloadSpec::zipfian(1.4), 300, 7);
  std::map<ObjectKey, int> counts;
  for (int i = 0; i < 5000; ++i) ++counts[w.next_key()];
  int max_count = 0;
  ObjectKey max_key;
  for (const auto& [key, count] : counts) {
    if (count > max_count) {
      max_count = count;
      max_key = key;
    }
  }
  EXPECT_EQ(max_key, "object0");
}

}  // namespace
}  // namespace agar::client
