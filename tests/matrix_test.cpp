// Matrix algebra over GF(256): inversion, multiplication, and the MDS
// property of the Cauchy encoding matrix.
#include "ec/matrix.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "common/rng.hpp"
#include "gf/gf256.hpp"

namespace agar::ec {
namespace {

Matrix random_matrix(std::size_t n, Rng& rng) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      m.at(i, j) = static_cast<std::uint8_t>(rng.next_below(256));
    }
  }
  return m;
}

TEST(Matrix, IdentityTimesAnythingIsAnything) {
  Rng rng(1);
  const Matrix a = random_matrix(5, rng);
  EXPECT_EQ(Matrix::identity(5).multiply(a), a);
  EXPECT_EQ(a.multiply(Matrix::identity(5)), a);
}

TEST(Matrix, MultiplyDimensionMismatchThrows) {
  Matrix a(2, 3), b(2, 3);
  EXPECT_THROW((void)a.multiply(b), std::invalid_argument);
}

TEST(Matrix, InvertIdentity) {
  EXPECT_EQ(Matrix::identity(4).inverted(), Matrix::identity(4));
}

TEST(Matrix, InvertNonSquareThrows) {
  Matrix a(2, 3);
  EXPECT_THROW((void)a.inverted(), std::invalid_argument);
}

TEST(Matrix, InvertSingularThrows) {
  // Two identical rows.
  Matrix a{{1, 2}, {1, 2}};
  EXPECT_THROW((void)a.inverted(), std::domain_error);
}

TEST(Matrix, InvertZeroMatrixThrows) {
  Matrix a(3, 3);
  EXPECT_THROW((void)a.inverted(), std::domain_error);
}

TEST(Matrix, KnownInverse2x2) {
  // For [[1,1],[1,2]] over GF(256): det = 2 - 1 = 3 (in GF: 1*2 ^ 1*1 = 3).
  const Matrix a{{1, 1}, {1, 2}};
  const Matrix inv = a.inverted();
  EXPECT_TRUE(a.multiply(inv).is_identity());
  EXPECT_TRUE(inv.multiply(a).is_identity());
}

TEST(Matrix, RandomInvertRoundTrip) {
  Rng rng(7);
  int inverted_count = 0;
  for (int trial = 0; trial < 50; ++trial) {
    const Matrix a = random_matrix(6, rng);
    Matrix inv;
    try {
      inv = a.inverted();
    } catch (const std::domain_error&) {
      continue;  // singular draw; rare but possible
    }
    ++inverted_count;
    EXPECT_TRUE(a.multiply(inv).is_identity());
    EXPECT_TRUE(inv.multiply(a).is_identity());
  }
  // Random matrices over GF(256) are invertible with probability ~0.996.
  EXPECT_GT(inverted_count, 40);
}

TEST(Matrix, SubRows) {
  const Matrix a{{1, 2}, {3, 4}, {5, 6}};
  const Matrix sub = a.sub_rows(1, 2);
  EXPECT_EQ(sub, (Matrix{{3, 4}, {5, 6}}));
}

TEST(Matrix, SubRowsOutOfRangeThrows) {
  const Matrix a(2, 2);
  EXPECT_THROW((void)a.sub_rows(1, 2), std::out_of_range);
}

TEST(Matrix, SelectRows) {
  const Matrix a{{1, 2}, {3, 4}, {5, 6}};
  const Matrix sel = a.select_rows({2, 0});
  EXPECT_EQ(sel, (Matrix{{5, 6}, {1, 2}}));
}

TEST(Matrix, SelectRowsOutOfRangeThrows) {
  const Matrix a(2, 2);
  EXPECT_THROW((void)a.select_rows({0, 5}), std::out_of_range);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1, 2}, {3}}), std::invalid_argument);
}

TEST(Matrix, SystematicCauchyTopIsIdentity) {
  const Matrix s = systematic_cauchy(9, 3);
  EXPECT_TRUE(s.sub_rows(0, 9).is_identity());
  EXPECT_EQ(s.rows(), 12u);
}

TEST(Matrix, CauchyTooLargeThrows) {
  EXPECT_THROW((void)cauchy(200, 100), std::invalid_argument);
}

// The MDS property: ANY k rows of the systematic (k+m) x k matrix must be
// invertible. Exhaustively check all C(k+m, k) row subsets for small codes.
class MdsProperty : public ::testing::TestWithParam<std::tuple<int, int>> {};

void check_all_subsets(const Matrix& mat, std::size_t k, std::size_t total) {
  std::vector<std::size_t> pick(k);
  std::iota(pick.begin(), pick.end(), 0);
  while (true) {
    EXPECT_NO_THROW((void)mat.select_rows(pick).inverted())
        << "subset starting with row " << pick[0];
    // Next combination.
    std::size_t i = k;
    while (i > 0) {
      --i;
      if (pick[i] != i + total - k) {
        ++pick[i];
        for (std::size_t j = i + 1; j < k; ++j) pick[j] = pick[j - 1] + 1;
        break;
      }
      if (i == 0) return;
    }
  }
}

TEST_P(MdsProperty, AnyKRowsInvertibleCauchy) {
  const auto [k, m] = GetParam();
  const Matrix s = systematic_cauchy(static_cast<std::size_t>(k),
                                     static_cast<std::size_t>(m));
  check_all_subsets(s, static_cast<std::size_t>(k),
                    static_cast<std::size_t>(k + m));
}

INSTANTIATE_TEST_SUITE_P(
    SmallCodes, MdsProperty,
    ::testing::Values(std::make_tuple(2, 1), std::make_tuple(2, 2),
                      std::make_tuple(3, 2), std::make_tuple(4, 2),
                      std::make_tuple(4, 3), std::make_tuple(5, 3),
                      std::make_tuple(6, 3), std::make_tuple(9, 3)));

}  // namespace
}  // namespace agar::ec
