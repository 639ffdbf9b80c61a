// Decode-plan cache: exhaustive sweep over every RS(9,3) erasure pattern —
// all C(12,9) = 220 ways to pick 9 surviving chunks — verifying
// byte-identical reconstruction, correct hit/miss accounting, and that the
// SIMD and portable kernel paths produce identical bytes end to end.
#include "ec/reed_solomon.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "common/rng.hpp"
#include "gf/gf256.hpp"

namespace agar::ec {
namespace {

constexpr std::size_t kK = 9;
constexpr std::size_t kM = 3;
constexpr std::size_t kTotal = kK + kM;

struct Stripe {
  std::vector<Bytes> chunks;  // k data followed by m parity
};

Stripe make_stripe(const ReedSolomon& rs, std::size_t chunk_size,
                   std::uint64_t seed) {
  Stripe s;
  Rng rng(seed);
  std::vector<BytesView> views;
  for (std::size_t i = 0; i < kK; ++i) {
    Bytes c(chunk_size);
    rng.fill_bytes(c.data(), c.size());
    s.chunks.push_back(std::move(c));
  }
  for (const auto& c : s.chunks) views.emplace_back(c);
  for (auto& p : rs.encode(views)) s.chunks.push_back(std::move(p));
  return s;
}

// Data chunk d of a reconstruct_data output buffer.
Bytes row_of(const Bytes& out, std::size_t d, std::size_t chunk_size) {
  const auto begin = out.begin() + static_cast<std::ptrdiff_t>(d * chunk_size);
  return Bytes(begin, begin + static_cast<std::ptrdiff_t>(chunk_size));
}

std::vector<std::uint32_t> mask_to_indices(unsigned mask) {
  std::vector<std::uint32_t> out;
  for (std::uint32_t i = 0; i < kTotal; ++i) {
    if (mask & (1u << i)) out.push_back(i);
  }
  return out;
}

TEST(DecodePlanCache, AllErasurePatternsReconstructAndCache) {
  const ReedSolomon rs(CodecParams{kK, kM});
  const Stripe stripe = make_stripe(rs, 333, 7);
  Bytes out(kK * 333);

  std::size_t patterns = 0;
  std::size_t inverting_patterns = 0;  // any pattern missing a data chunk
  for (unsigned mask = 0; mask < (1u << kTotal); ++mask) {
    if (std::popcount(mask) != static_cast<int>(kK)) continue;
    ++patterns;
    const auto indices = mask_to_indices(mask);
    const bool all_data = indices.back() < kK;
    if (!all_data) ++inverting_patterns;

    std::vector<std::pair<std::uint32_t, BytesView>> available;
    for (const auto i : indices) {
      available.emplace_back(i, BytesView(stripe.chunks[i]));
    }
    rs.reconstruct_data(available, BytesSpan(out));
    for (std::size_t d = 0; d < kK; ++d) {
      ASSERT_EQ(row_of(out, d, 333), stripe.chunks[d])
          << "mask=" << mask << " d=" << d;
    }
  }
  EXPECT_EQ(patterns, 220u);       // C(12,9)
  EXPECT_EQ(inverting_patterns, 219u);  // only {0..8} skips inversion

  // First sweep: every inverting pattern was a miss, none a hit; the
  // all-data fast path never consults the cache.
  EXPECT_EQ(rs.decode_plan_misses(), 219u);
  EXPECT_EQ(rs.decode_plan_hits(), 0u);
  EXPECT_EQ(rs.decode_plan_cache_size(), 219u);

  // Second sweep: all hits, no new plans, identical bytes.
  for (unsigned mask = 0; mask < (1u << kTotal); ++mask) {
    if (std::popcount(mask) != static_cast<int>(kK)) continue;
    std::vector<std::pair<std::uint32_t, BytesView>> available;
    for (const auto i : mask_to_indices(mask)) {
      available.emplace_back(i, BytesView(stripe.chunks[i]));
    }
    rs.reconstruct_data(available, BytesSpan(out));
    for (std::size_t d = 0; d < kK; ++d) {
      ASSERT_EQ(row_of(out, d, 333), stripe.chunks[d]);
    }
  }
  EXPECT_EQ(rs.decode_plan_misses(), 219u);
  EXPECT_EQ(rs.decode_plan_hits(), 219u);
  EXPECT_EQ(rs.decode_plan_cache_size(), 219u);
}

TEST(DecodePlanCache, AvailableOrderDoesNotAffectPlanOrBytes) {
  const ReedSolomon rs(CodecParams{kK, kM});
  const Stripe stripe = make_stripe(rs, 128, 11);

  // Same surviving set handed over in two different orders must share one
  // cached plan and reconstruct identically.
  const std::vector<std::uint32_t> fwd = {1, 2, 3, 4, 5, 6, 7, 9, 11};
  std::vector<std::uint32_t> rev(fwd.rbegin(), fwd.rend());
  auto avail = [&](const std::vector<std::uint32_t>& order) {
    std::vector<std::pair<std::uint32_t, BytesView>> out;
    for (const auto i : order) {
      out.emplace_back(i, BytesView(stripe.chunks[i]));
    }
    return out;
  };
  Bytes a(kK * 128);
  Bytes b(kK * 128);
  rs.reconstruct_data(avail(fwd), BytesSpan(a));
  EXPECT_EQ(rs.decode_plan_misses(), 1u);
  rs.reconstruct_data(avail(rev), BytesSpan(b));
  EXPECT_EQ(rs.decode_plan_misses(), 1u);
  EXPECT_EQ(rs.decode_plan_hits(), 1u);
  EXPECT_EQ(a, b);
  for (std::size_t d = 0; d < kK; ++d) {
    EXPECT_EQ(row_of(a, d, 128), stripe.chunks[d]);
  }
}

TEST(DecodePlanCache, ClearDropsPlans) {
  const ReedSolomon rs(CodecParams{kK, kM});
  const Stripe stripe = make_stripe(rs, 64, 13);
  std::vector<std::pair<std::uint32_t, BytesView>> available;
  for (std::uint32_t i = 1; i <= kK; ++i) {
    available.emplace_back(i, BytesView(stripe.chunks[i]));
  }
  Bytes out(kK * 64);
  rs.reconstruct_data(available, BytesSpan(out));
  EXPECT_EQ(rs.decode_plan_cache_size(), 1u);
  rs.clear_decode_plan_cache();
  EXPECT_EQ(rs.decode_plan_cache_size(), 0u);
  rs.reconstruct_data(available, BytesSpan(out));
  EXPECT_EQ(rs.decode_plan_misses(), 2u);
}

TEST(DecodePlanCache, BackendsProduceIdenticalEncodeAndDecode) {
  // SIMD and portable/scalar kernels must agree byte-for-byte through the
  // whole codec, for every erasure pattern.
  const ReedSolomon rs(CodecParams{kK, kM});
  Rng rng(17);
  std::vector<Bytes> data;
  std::vector<BytesView> views;
  for (std::size_t i = 0; i < kK; ++i) {
    Bytes c(257);  // odd size: every kernel exercises its tail path
    rng.fill_bytes(c.data(), c.size());
    data.push_back(std::move(c));
  }
  for (const auto& d : data) views.emplace_back(d);

  std::vector<std::vector<Bytes>> parities;
  std::vector<std::vector<Bytes>> decodes;
  for (const gf::Backend b : gf::supported_backends()) {
    ASSERT_TRUE(gf::set_backend(b));
    parities.push_back(rs.encode(views));

    std::vector<Bytes> per_pattern;
    std::vector<Bytes> all = data;
    for (auto& p : parities.back()) all.push_back(p);
    for (unsigned mask = 0; mask < (1u << kTotal); ++mask) {
      if (std::popcount(mask) != static_cast<int>(kK)) continue;
      std::vector<std::pair<std::uint32_t, BytesView>> available;
      for (const auto i : mask_to_indices(mask)) {
        available.emplace_back(i, BytesView(all[i]));
      }
      rs.clear_decode_plan_cache();  // force the full decode path each time
      Bytes out(kK * 257);
      rs.reconstruct_data(available, BytesSpan(out));
      per_pattern.push_back(std::move(out));
    }
    decodes.push_back(std::move(per_pattern));
  }
  gf::reset_backend();

  for (std::size_t b = 1; b < parities.size(); ++b) {
    EXPECT_EQ(parities[b], parities[0]);
    EXPECT_EQ(decodes[b], decodes[0]);
  }
}

TEST(DecodePlanCache, ReconstructChunkUsesCacheToo) {
  const ReedSolomon rs(CodecParams{kK, kM});
  const Stripe stripe = make_stripe(rs, 100, 23);
  std::vector<std::pair<std::uint32_t, BytesView>> available;
  for (std::uint32_t i = 1; i < kK; ++i) {
    available.emplace_back(i, BytesView(stripe.chunks[i]));
  }
  available.emplace_back(10, BytesView(stripe.chunks[10]));

  const Bytes rebuilt0 = rs.reconstruct_chunk(0, available);
  EXPECT_EQ(rebuilt0, stripe.chunks[0]);
  const Bytes rebuilt11 = rs.reconstruct_chunk(11, available);
  EXPECT_EQ(rebuilt11, stripe.chunks[11]);
  EXPECT_EQ(rs.decode_plan_misses(), 1u);
  EXPECT_EQ(rs.decode_plan_hits(), 1u);
}

}  // namespace
}  // namespace agar::ec
