// Differential property tests for the GF(256) bulk-kernel backends: every
// runtime-supported kernel set (portable64, SSSE3, AVX2, GFNI) must agree
// with the scalar reference byte-for-byte over random coefficients, awkward
// lengths (0, 1, non-multiples of 16/32) and misaligned buffers.
#include "gf/gf256.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"

namespace agar::gf {
namespace {

/// Pin a backend for one scope; restores the automatic choice on exit.
class BackendGuard {
 public:
  explicit BackendGuard(Backend b) { EXPECT_TRUE(set_backend(b)); }
  ~BackendGuard() { reset_backend(); }
};

// Lengths straddling every kernel's block size (8, 16, 32, 64) plus a
// chunk-scale one.
const std::vector<std::size_t> kLengths = {
    0, 1, 2, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 100, 257, 4096,
    114 * 1024 + 3};

std::vector<std::uint8_t> random_buf(Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> out(n);
  rng.fill_bytes(out.data(), out.size());
  return out;
}

TEST(GfBackends, ScalarAlwaysSupported) {
  EXPECT_TRUE(backend_supported(Backend::kScalar));
  EXPECT_TRUE(backend_supported(Backend::kPortable64));
  const auto all = supported_backends();
  EXPECT_GE(all.size(), 2u);
}

TEST(GfBackends, SetAndResetBackend) {
  const Backend original = active_backend();
  ASSERT_TRUE(set_backend(Backend::kScalar));
  EXPECT_EQ(active_backend(), Backend::kScalar);
  reset_backend();
  EXPECT_EQ(active_backend(), original);
}

TEST(GfBackends, BackendNamesAreDistinct) {
  EXPECT_STREQ(backend_name(Backend::kScalar), "scalar");
  EXPECT_STREQ(backend_name(Backend::kPortable64), "portable64");
  EXPECT_STREQ(backend_name(Backend::kSsse3), "ssse3");
  EXPECT_STREQ(backend_name(Backend::kAvx2), "avx2");
  EXPECT_STREQ(backend_name(Backend::kGfni), "gfni");
}

TEST(GfBackends, MulSliceMatchesMulForEveryCoefficient) {
  // Every coefficient over every byte value: each coefficient has its own
  // nibble tables or affine matrix, so random coefficients could miss a
  // bad one.
  std::vector<std::uint8_t> ramp(256);
  for (std::size_t x = 0; x < ramp.size(); ++x) {
    ramp[x] = static_cast<std::uint8_t>(x);
  }
  for (const Backend b : supported_backends()) {
    BackendGuard guard(b);
    for (int c = 0; c < 256; ++c) {
      std::vector<std::uint8_t> dst(ramp.size());
      mul_slice(static_cast<std::uint8_t>(c), ramp, dst);
      for (std::size_t x = 0; x < ramp.size(); ++x) {
        ASSERT_EQ(dst[x], mul(static_cast<std::uint8_t>(c), ramp[x]))
            << backend_name(b) << " c=" << c << " x=" << x;
      }
    }
  }
}

TEST(GfBackends, MulSliceMatchesScalarReference) {
  Rng rng(1001);
  for (const Backend b : supported_backends()) {
    BackendGuard guard(b);
    for (const std::size_t n : kLengths) {
      const auto src = random_buf(rng, n);
      const std::uint8_t c = static_cast<std::uint8_t>(rng.next_below(256));
      std::vector<std::uint8_t> dst(n, 0xEE);
      mul_slice(c, src, dst);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(dst[i], mul(c, src[i]))
            << backend_name(b) << " c=" << int(c) << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST(GfBackends, MulAddSliceMatchesScalarReference) {
  Rng rng(1002);
  for (const Backend b : supported_backends()) {
    BackendGuard guard(b);
    for (const std::size_t n : kLengths) {
      // Sweep the special coefficients plus random ones.
      for (const int c0 : {0, 1, 2, 0x1D, -1}) {
        const std::uint8_t c =
            c0 < 0 ? static_cast<std::uint8_t>(rng.next_below(256))
                   : static_cast<std::uint8_t>(c0);
        const auto src = random_buf(rng, n);
        auto dst = random_buf(rng, n);
        const auto before = dst;
        mul_add_slice(c, src, dst);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(dst[i], static_cast<std::uint8_t>(before[i] ^
                                                      mul(c, src[i])))
              << backend_name(b) << " c=" << int(c) << " n=" << n
              << " i=" << i;
        }
      }
    }
  }
}

TEST(GfBackends, XorSliceMatchesScalarReference) {
  Rng rng(1003);
  for (const Backend b : supported_backends()) {
    BackendGuard guard(b);
    for (const std::size_t n : kLengths) {
      const auto src = random_buf(rng, n);
      auto dst = random_buf(rng, n);
      const auto before = dst;
      xor_slice(src, dst);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(dst[i], static_cast<std::uint8_t>(before[i] ^ src[i]));
      }
    }
  }
}

TEST(GfBackends, KernelsHandleMisalignedBuffers) {
  Rng rng(1004);
  for (const Backend b : supported_backends()) {
    BackendGuard guard(b);
    for (std::size_t offset = 0; offset < 4; ++offset) {
      const std::size_t n = 1000;
      const auto src_store = random_buf(rng, n + 8);
      auto dst_store = random_buf(rng, n + 8);
      const auto dst_before = dst_store;
      const std::uint8_t c = 0xA7;
      // Views deliberately offset from the allocation start.
      std::span<const std::uint8_t> src(src_store.data() + offset, n);
      std::span<std::uint8_t> dst(dst_store.data() + offset, n);
      mul_add_slice(c, src, dst);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(dst_store[offset + i],
                  static_cast<std::uint8_t>(dst_before[offset + i] ^
                                            mul(c, src_store[offset + i])))
            << backend_name(b) << " offset=" << offset << " i=" << i;
      }
      // Bytes outside the span must be untouched.
      for (std::size_t i = 0; i < offset; ++i) {
        ASSERT_EQ(dst_store[i], dst_before[i]);
      }
      for (std::size_t i = offset + n; i < dst_store.size(); ++i) {
        ASSERT_EQ(dst_store[i], dst_before[i]);
      }
    }
  }
}

TEST(GfBackends, MulAddMultiMatchesPerSourceReference) {
  Rng rng(1005);
  for (const Backend b : supported_backends()) {
    BackendGuard guard(b);
    for (const std::size_t nsrc : {std::size_t{1}, std::size_t{2},
                                   std::size_t{3}, std::size_t{9}}) {
      for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                                  std::size_t{33}, std::size_t{4096 + 5}}) {
        std::vector<std::vector<std::uint8_t>> srcs;
        std::vector<std::uint8_t> coeffs;
        std::vector<std::span<const std::uint8_t>> views;
        for (std::size_t j = 0; j < nsrc; ++j) {
          srcs.push_back(random_buf(rng, n));
          // Include zero and one coefficients.
          coeffs.push_back(j == 0 ? 0
                                  : j == 1 ? 1
                                           : static_cast<std::uint8_t>(
                                                 rng.next_below(256)));
        }
        for (const auto& s : srcs) views.emplace_back(s);
        auto dst = random_buf(rng, n);
        std::vector<std::uint8_t> expected = dst;
        for (std::size_t j = 0; j < nsrc; ++j) {
          for (std::size_t i = 0; i < n; ++i) {
            expected[i] ^= mul(coeffs[j], srcs[j][i]);
          }
        }
        mul_add_multi(coeffs, views, dst);
        ASSERT_EQ(dst, expected) << backend_name(b) << " nsrc=" << nsrc
                                 << " n=" << n;
      }
    }
  }
}

TEST(GfBackends, MulAddMultiValidatesShapes) {
  std::vector<std::uint8_t> a(4), dst(4);
  std::vector<std::span<const std::uint8_t>> views{std::span<const std::uint8_t>(a)};
  const std::vector<std::uint8_t> two_coeffs{1, 2};
  EXPECT_THROW(mul_add_multi(two_coeffs, views, dst), std::invalid_argument);
  std::vector<std::uint8_t> short_src(3);
  views[0] = std::span<const std::uint8_t>(short_src);
  const std::vector<std::uint8_t> one_coeff{1};
  EXPECT_THROW(mul_add_multi(one_coeff, views, dst), std::invalid_argument);
}

TEST(GfBackends, MulAddMultiAllZeroCoefficientsIsNoop) {
  std::vector<std::uint8_t> src(64, 0xAB), dst(64, 0xCD);
  const auto before = dst;
  const std::vector<std::uint8_t> coeffs{0};
  std::vector<std::span<const std::uint8_t>> views{
      std::span<const std::uint8_t>(src)};
  mul_add_multi(coeffs, views, dst);
  EXPECT_EQ(dst, before);
}

// exp/pow now fold exponents instead of dividing; pin the identities.
TEST(GfExpFold, ExpMatchesNaiveModulo) {
  for (unsigned n = 0; n < 3000; ++n) {
    EXPECT_EQ(exp(n), exp(n % 255u)) << n;
  }
  // Large exponents, including ones whose byte-fold takes several rounds.
  for (const unsigned n : {100000u, 16777215u, 4294967295u, 65025u}) {
    EXPECT_EQ(exp(n), exp(n % 255u)) << n;
  }
}

TEST(GfExpFold, PowMatchesSquareAndMultiply) {
  Rng rng(1006);
  for (int t = 0; t < 500; ++t) {
    const auto a = static_cast<std::uint8_t>(rng.next_below(256));
    const unsigned n = static_cast<unsigned>(rng.next_below(1u << 20));
    std::uint8_t expected = 1;
    std::uint8_t base = a;
    unsigned e = n;
    bool zero = (a == 0 && n > 0);
    while (e != 0 && !zero) {
      if (e & 1) expected = mul(expected, base);
      base = mul(base, base);
      e >>= 1;
    }
    EXPECT_EQ(pow(a, n), zero ? 0 : expected) << int(a) << "^" << n;
  }
}

}  // namespace
}  // namespace agar::gf
