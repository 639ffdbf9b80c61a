// Differential property tests for the GF(256) dot kernels: every
// runtime-supported family (portable64, SSSE3, AVX2, GFNI, GFNI-512) must
// agree with the scalar gf::mul byte-for-byte over every coefficient,
// zero and unit coefficients, awkward lengths (0, 1, non-multiples of
// 8/16/32/64/128) and misaligned buffers.
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

// Lengths straddling every kernel's block size (8, 16, 32, 64, 128) plus
// a chunk-scale one.
const std::vector<std::size_t> kLengths = {
    0, 1, 2, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 100, 127, 128, 129,
    191, 192, 193, 257, 4096, 114 * 1024 + 3};

std::vector<std::uint8_t> random_buf(Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> out(n);
  rng.fill_bytes(out.data(), out.size());
  return out;
}

TEST(GfBackends, PortableAlwaysSupported) {
  EXPECT_TRUE(backend_supported(Backend::kPortable64));
  const auto all = supported_backends();
  ASSERT_FALSE(all.empty());
  EXPECT_EQ(all.front(), Backend::kPortable64);
}

TEST(GfBackends, SetAndResetBackend) {
  const Backend original = active_backend();
  ASSERT_TRUE(set_backend(Backend::kPortable64));
  EXPECT_EQ(active_backend(), Backend::kPortable64);
  reset_backend();
  EXPECT_EQ(active_backend(), original);
}

TEST(GfBackends, BackendNamesAreDistinct) {
  EXPECT_STREQ(backend_name(Backend::kPortable64), "portable64");
  EXPECT_STREQ(backend_name(Backend::kSsse3), "ssse3");
  EXPECT_STREQ(backend_name(Backend::kAvx2), "avx2");
  EXPECT_STREQ(backend_name(Backend::kGfni), "gfni");
  EXPECT_STREQ(backend_name(Backend::kGfni512), "gfni512");
}

TEST(GfBackends, DotMatchesMulForEveryCoefficient) {
  // Every coefficient over every byte value: each coefficient has its own
  // nibble tables or affine matrix, so random coefficients could miss a
  // bad one. A second source of coefficient 1 over zeros keeps c = 1 on
  // the kernel (a lone c = 1 source is dot's copy).
  std::vector<std::uint8_t> ramp(256);
  for (std::size_t x = 0; x < ramp.size(); ++x) {
    ramp[x] = static_cast<std::uint8_t>(x);
  }
  const std::vector<std::uint8_t> zeros(ramp.size(), 0);
  const std::vector<std::span<const std::uint8_t>> srcs{ramp, zeros};
  for (const Backend b : supported_backends()) {
    BackendGuard guard(b);
    for (int c = 0; c < 256; ++c) {
      const std::vector<std::uint8_t> coeffs{static_cast<std::uint8_t>(c), 1};
      std::vector<std::uint8_t> dst(ramp.size(), 0xEE);
      dot(coeffs, srcs, dst);
      for (std::size_t x = 0; x < ramp.size(); ++x) {
        ASSERT_EQ(dst[x], mul(static_cast<std::uint8_t>(c), ramp[x]))
            << backend_name(b) << " c=" << c << " x=" << x;
      }
    }
  }
}

TEST(GfBackends, DotMatchesPerSourceReference) {
  // 33 sources outgrow dot's inline coefficient buffer (the heap path).
  // Source j sits (offset + j) % 4 bytes into its allocation and dst
  // `offset` bytes into one pre-filled with garbage: every dst byte must be
  // overwritten, and no byte outside the view touched.
  Rng rng(1005);
  for (const std::size_t nsrc : {std::size_t{1}, std::size_t{2},
                                 std::size_t{3}, std::size_t{9},
                                 std::size_t{33}}) {
    for (const std::size_t n : kLengths) {
      for (std::size_t offset = 0; offset < 4; ++offset) {
        std::vector<std::vector<std::uint8_t>> stores;
        std::vector<std::span<const std::uint8_t>> srcs;
        std::vector<std::uint8_t> coeffs;
        for (std::size_t j = 0; j < nsrc; ++j) {
          stores.push_back(random_buf(rng, n + 4));
          // Zero and unit coefficients among random ones >= 2.
          coeffs.push_back(j % 3 == 1   ? 0
                           : j % 3 == 2 ? 1
                                        : static_cast<std::uint8_t>(
                                              2 + rng.next_below(254)));
        }
        for (std::size_t j = 0; j < nsrc; ++j) {
          srcs.emplace_back(stores[j].data() + (offset + j) % 4, n);
        }
        const auto garbage = random_buf(rng, n + 8);
        std::vector<std::uint8_t> expected = garbage;
        for (std::size_t i = 0; i < n; ++i) {
          std::uint8_t b = 0;
          for (std::size_t j = 0; j < nsrc; ++j) {
            b ^= mul(coeffs[j], srcs[j][i]);
          }
          expected[offset + i] = b;
        }
        for (const Backend b : supported_backends()) {
          BackendGuard guard(b);
          auto dst_store = garbage;
          dot(coeffs, srcs,
              std::span<std::uint8_t>(dst_store.data() + offset, n));
          ASSERT_EQ(dst_store, expected)
              << backend_name(b) << " nsrc=" << nsrc << " n=" << n
              << " offset=" << offset;
        }
      }
    }
  }
}

TEST(GfBackends, DotWithAllZeroCoefficientsZeroesDst) {
  std::vector<std::uint8_t> a(64, 0xAB), b(64, 0x12), dst(64, 0xCD);
  const std::vector<std::uint8_t> coeffs{0, 0};
  const std::vector<std::span<const std::uint8_t>> srcs{a, b};
  dot(coeffs, srcs, dst);
  EXPECT_EQ(dst, std::vector<std::uint8_t>(64, 0));
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
