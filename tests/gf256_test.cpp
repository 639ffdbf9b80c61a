// Field-axiom and bulk-operation tests for GF(2^8).
#include "gf/gf256.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"

namespace agar::gf {
namespace {

TEST(Gf256, AddIsXor) {
  EXPECT_EQ(add(0x00, 0x00), 0x00);
  EXPECT_EQ(add(0xFF, 0xFF), 0x00);
  EXPECT_EQ(add(0x12, 0x34), 0x12 ^ 0x34);
}

TEST(Gf256, AdditionIsOwnInverse) {
  for (int a = 0; a < 256; ++a) {
    for (int b = 0; b < 256; b += 7) {
      const auto x = static_cast<std::uint8_t>(a);
      const auto y = static_cast<std::uint8_t>(b);
      EXPECT_EQ(sub(add(x, y), y), x);
    }
  }
}

TEST(Gf256, MulByZeroIsZero) {
  for (int a = 0; a < 256; ++a) {
    EXPECT_EQ(mul(static_cast<std::uint8_t>(a), 0), 0);
    EXPECT_EQ(mul(0, static_cast<std::uint8_t>(a)), 0);
  }
}

TEST(Gf256, MulByOneIsIdentity) {
  for (int a = 0; a < 256; ++a) {
    EXPECT_EQ(mul(static_cast<std::uint8_t>(a), 1),
              static_cast<std::uint8_t>(a));
  }
}

TEST(Gf256, MulIsCommutative) {
  for (int a = 0; a < 256; a += 3) {
    for (int b = 0; b < 256; b += 5) {
      EXPECT_EQ(mul(static_cast<std::uint8_t>(a), static_cast<std::uint8_t>(b)),
                mul(static_cast<std::uint8_t>(b), static_cast<std::uint8_t>(a)));
    }
  }
}

TEST(Gf256, MulIsAssociative) {
  Rng rng(123);
  for (int i = 0; i < 2000; ++i) {
    const auto a = static_cast<std::uint8_t>(rng.next_below(256));
    const auto b = static_cast<std::uint8_t>(rng.next_below(256));
    const auto c = static_cast<std::uint8_t>(rng.next_below(256));
    EXPECT_EQ(mul(mul(a, b), c), mul(a, mul(b, c)));
  }
}

TEST(Gf256, MulDistributesOverAdd) {
  Rng rng(456);
  for (int i = 0; i < 2000; ++i) {
    const auto a = static_cast<std::uint8_t>(rng.next_below(256));
    const auto b = static_cast<std::uint8_t>(rng.next_below(256));
    const auto c = static_cast<std::uint8_t>(rng.next_below(256));
    EXPECT_EQ(mul(a, add(b, c)), add(mul(a, b), mul(a, c)));
  }
}

TEST(Gf256, EveryNonzeroElementHasInverse) {
  for (int a = 1; a < 256; ++a) {
    const auto x = static_cast<std::uint8_t>(a);
    EXPECT_EQ(mul(x, inv(x)), 1) << "a=" << a;
  }
}

TEST(Gf256, InverseOfZeroThrows) {
  EXPECT_THROW((void)inv(0), std::domain_error);
}

TEST(Gf256, DivisionByZeroThrows) {
  EXPECT_THROW((void)div(1, 0), std::domain_error);
}

TEST(Gf256, LogOfZeroThrows) {
  EXPECT_THROW((void)log(0), std::domain_error);
}

TEST(Gf256, DivIsMulByInverse) {
  Rng rng(789);
  for (int i = 0; i < 2000; ++i) {
    const auto a = static_cast<std::uint8_t>(rng.next_below(256));
    const auto b = static_cast<std::uint8_t>(1 + rng.next_below(255));
    EXPECT_EQ(div(a, b), mul(a, inv(b)));
  }
}

TEST(Gf256, DivThenMulRoundTrips) {
  for (int a = 0; a < 256; a += 3) {
    for (int b = 1; b < 256; b += 5) {
      const auto x = static_cast<std::uint8_t>(a);
      const auto y = static_cast<std::uint8_t>(b);
      EXPECT_EQ(mul(div(x, y), y), x);
    }
  }
}

TEST(Gf256, ExpLogRoundTrip) {
  for (int a = 1; a < 256; ++a) {
    const auto x = static_cast<std::uint8_t>(a);
    EXPECT_EQ(exp(log(x)), x);
  }
}

TEST(Gf256, GeneratorHasFullOrder) {
  // 2 generates the multiplicative group: 2^i must visit all 255 nonzero
  // elements before repeating.
  std::vector<bool> seen(256, false);
  for (unsigned i = 0; i < 255; ++i) {
    const std::uint8_t v = exp(i);
    EXPECT_FALSE(seen[v]) << "repeat at i=" << i;
    seen[v] = true;
  }
  EXPECT_EQ(exp(255), exp(0));
}

TEST(Gf256, PowMatchesRepeatedMul) {
  for (int a = 0; a < 256; a += 11) {
    const auto x = static_cast<std::uint8_t>(a);
    std::uint8_t acc = 1;
    for (unsigned n = 0; n < 20; ++n) {
      EXPECT_EQ(pow(x, n), acc) << "a=" << a << " n=" << n;
      acc = mul(acc, x);
    }
  }
}

TEST(Gf256, PowZeroConventions) {
  EXPECT_EQ(pow(0, 0), 1);  // 0^0 == 1 by convention
  EXPECT_EQ(pow(0, 5), 0);
  EXPECT_EQ(pow(7, 0), 1);
}

TEST(Gf256, MulSliceMatchesScalar) {
  Rng rng(42);
  std::vector<std::uint8_t> src(257);
  rng.fill_bytes(src.data(), src.size());
  for (int c : {0, 1, 2, 0x1D, 0xFF}) {
    std::vector<std::uint8_t> dst(src.size());
    mul_slice(static_cast<std::uint8_t>(c), src, dst);
    for (std::size_t i = 0; i < src.size(); ++i) {
      EXPECT_EQ(dst[i], mul(static_cast<std::uint8_t>(c), src[i]));
    }
  }
}

TEST(Gf256, MulAddSliceMatchesScalar) {
  Rng rng(43);
  std::vector<std::uint8_t> src(129), dst(129), expected(129);
  rng.fill_bytes(src.data(), src.size());
  rng.fill_bytes(dst.data(), dst.size());
  expected = dst;
  const std::uint8_t c = 0x53;
  for (std::size_t i = 0; i < src.size(); ++i) {
    expected[i] = add(expected[i], mul(c, src[i]));
  }
  mul_add_slice(c, src, dst);
  EXPECT_EQ(dst, expected);
}

TEST(Gf256, MulAddSliceZeroCoefficientIsNoop) {
  std::vector<std::uint8_t> src(64, 0xAB), dst(64, 0xCD);
  const auto before = dst;
  mul_add_slice(0, src, dst);
  EXPECT_EQ(dst, before);
}

TEST(Gf256, XorSliceIsBytewiseAdd) {
  std::vector<std::uint8_t> src{1, 2, 3}, dst{4, 5, 6};
  xor_slice(src, dst);
  EXPECT_EQ(dst, (std::vector<std::uint8_t>{5, 7, 5}));
}

TEST(Gf256, SliceSizeMismatchThrows) {
  std::vector<std::uint8_t> a(3), b(4);
  EXPECT_THROW(mul_slice(2, a, b), std::invalid_argument);
  EXPECT_THROW(mul_add_slice(2, a, b), std::invalid_argument);
  EXPECT_THROW(xor_slice(a, b), std::invalid_argument);
}

TEST(Gf256, EmptySlicesAreFine) {
  std::vector<std::uint8_t> empty;
  mul_slice(7, empty, empty);
  mul_add_slice(7, empty, empty);
  xor_slice(empty, empty);
}

// The reducing polynomial identity: x^8 = x^4 + x^3 + x^2 + 1, i.e.
// mul(0x80, 2) == 0x1D.
TEST(Gf256, ReducingPolynomial) {
  EXPECT_EQ(mul(0x80, 0x02), 0x1D);
}

}  // namespace
}  // namespace agar::gf
