// Reed-Solomon codec: the "any k of k+m" contract, parameter sweeps, and
// failure handling.
#include "ec/reed_solomon.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "common/rng.hpp"

namespace agar::ec {
namespace {

std::vector<Bytes> random_chunks(std::size_t k, std::size_t size,
                                 std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Bytes> chunks(k, Bytes(size));
  for (auto& c : chunks) rng.fill_bytes(c.data(), c.size());
  return chunks;
}

std::vector<BytesView> views_of(const std::vector<Bytes>& chunks) {
  std::vector<BytesView> v;
  v.reserve(chunks.size());
  for (const auto& c : chunks) v.emplace_back(c);
  return v;
}

using Available = std::vector<std::pair<std::uint32_t, BytesView>>;

// reconstruct_data into one k-chunk buffer, split back into data chunks.
std::vector<Bytes> reconstruct(const ReedSolomon& rs,
                               const Available& available,
                               std::size_t chunk_size) {
  Bytes out(rs.k() * chunk_size);
  rs.reconstruct_data(available, BytesSpan(out));
  std::vector<Bytes> chunks;
  const auto size = static_cast<std::ptrdiff_t>(chunk_size);
  for (std::ptrdiff_t d = 0; d < static_cast<std::ptrdiff_t>(rs.k()); ++d) {
    chunks.emplace_back(out.begin() + d * size, out.begin() + (d + 1) * size);
  }
  return chunks;
}

TEST(ReedSolomon, ParamsValidation) {
  EXPECT_THROW(ReedSolomon(CodecParams{0, 3}), std::invalid_argument);
  EXPECT_THROW(ReedSolomon(CodecParams{200, 100}), std::invalid_argument);
  EXPECT_NO_THROW(ReedSolomon(CodecParams{9, 3}));
  EXPECT_NO_THROW(ReedSolomon(CodecParams{9, 0}));  // m == 0 is legal
}

TEST(ReedSolomon, EncodeProducesMParityChunks) {
  const ReedSolomon rs(CodecParams{9, 3});
  const auto data = random_chunks(9, 128, 1);
  const auto parity = rs.encode(views_of(data));
  ASSERT_EQ(parity.size(), 3u);
  for (const auto& p : parity) EXPECT_EQ(p.size(), 128u);
}

TEST(ReedSolomon, EncodeWrongChunkCountThrows) {
  const ReedSolomon rs(CodecParams{4, 2});
  const auto data = random_chunks(3, 16, 2);
  EXPECT_THROW((void)rs.encode(views_of(data)), std::invalid_argument);
}

TEST(ReedSolomon, EncodeRaggedSizesThrows) {
  const ReedSolomon rs(CodecParams{2, 1});
  std::vector<Bytes> data{Bytes(16), Bytes(17)};
  EXPECT_THROW((void)rs.encode(views_of(data)), std::invalid_argument);
}

TEST(ReedSolomon, AllDataChunksFastPath) {
  const ReedSolomon rs(CodecParams{4, 2});
  const auto data = random_chunks(4, 64, 3);
  std::vector<std::pair<std::uint32_t, BytesView>> available;
  for (std::uint32_t i = 0; i < 4; ++i) available.emplace_back(i, data[i]);
  const auto out = reconstruct(rs, available, 64);
  ASSERT_EQ(out.size(), 4u);
  for (std::uint32_t i = 0; i < 4; ++i) EXPECT_EQ(out[i], data[i]);
}

TEST(ReedSolomon, FewerThanKThrows) {
  const ReedSolomon rs(CodecParams{4, 2});
  const auto data = random_chunks(4, 64, 4);
  std::vector<std::pair<std::uint32_t, BytesView>> available{
      {0, BytesView(data[0])}, {1, BytesView(data[1])}};
  EXPECT_THROW((void)reconstruct(rs, available, 64), std::invalid_argument);
}

TEST(ReedSolomon, DuplicateIndicesDoNotCount) {
  const ReedSolomon rs(CodecParams{3, 2});
  const auto data = random_chunks(3, 32, 5);
  std::vector<std::pair<std::uint32_t, BytesView>> available{
      {0, BytesView(data[0])},
      {0, BytesView(data[0])},
      {1, BytesView(data[1])}};
  EXPECT_THROW((void)reconstruct(rs, available, 32), std::invalid_argument);
}

TEST(ReedSolomon, OutOfRangeIndexThrows) {
  const ReedSolomon rs(CodecParams{2, 1});
  const auto data = random_chunks(2, 8, 6);
  std::vector<std::pair<std::uint32_t, BytesView>> available{
      {0, BytesView(data[0])}, {7, BytesView(data[1])}};
  EXPECT_THROW((void)reconstruct(rs, available, 8), std::invalid_argument);
}

TEST(ReedSolomon, OutputLargerThanKChunksThrows) {
  const ReedSolomon rs(CodecParams{3, 2});
  const auto data = random_chunks(3, 16, 12);
  const auto parity = rs.encode(views_of(data));
  for (const bool all_data : {true, false}) {
    const Available available{{0, BytesView(data[0])},
                              {1, BytesView(data[1])},
                              all_data ? Available::value_type{2, data[2]}
                                       : Available::value_type{3, parity[0]}};
    Bytes out(3 * 16 + 1);
    EXPECT_THROW(rs.reconstruct_data(available, BytesSpan(out)),
                 std::invalid_argument);
    EXPECT_NO_THROW(
        rs.reconstruct_data(available, BytesSpan(out).first(3 * 16)));
  }
}

TEST(ReedSolomon, ReconstructChunkReturnsAvailableDirectly) {
  const ReedSolomon rs(CodecParams{2, 2});
  const auto data = random_chunks(2, 16, 7);
  const auto parity = rs.encode(views_of(data));
  std::vector<std::pair<std::uint32_t, BytesView>> available{
      {0, BytesView(data[0])},
      {1, BytesView(data[1])},
      {2, BytesView(parity[0])}};
  EXPECT_EQ(rs.reconstruct_chunk(2, available), parity[0]);
}

TEST(ReedSolomon, ReconstructMissingParityChunk) {
  const ReedSolomon rs(CodecParams{3, 2});
  const auto data = random_chunks(3, 48, 8);
  const auto parity = rs.encode(views_of(data));
  // Provide data chunks only; ask for parity chunk 4 (index 3+1).
  std::vector<std::pair<std::uint32_t, BytesView>> available;
  for (std::uint32_t i = 0; i < 3; ++i) available.emplace_back(i, data[i]);
  EXPECT_EQ(rs.reconstruct_chunk(4, available), parity[1]);
}

TEST(ReedSolomon, ReconstructTargetOutOfRangeThrows) {
  const ReedSolomon rs(CodecParams{2, 1});
  const auto data = random_chunks(2, 8, 9);
  std::vector<std::pair<std::uint32_t, BytesView>> available{
      {0, BytesView(data[0])}, {1, BytesView(data[1])}};
  EXPECT_THROW((void)rs.reconstruct_chunk(9, available),
               std::invalid_argument);
}

// The central MDS contract, swept over (k, m): encode, then decode from
// EVERY possible subset of exactly k chunks.
struct SweepParam {
  std::size_t k;
  std::size_t m;
};

class AnyKofKM : public ::testing::TestWithParam<SweepParam> {};

TEST_P(AnyKofKM, EverySubsetDecodes) {
  const auto [k, m] = GetParam();
  const ReedSolomon rs(CodecParams{k, m});
  const std::size_t chunk_size = 96;
  const auto data = random_chunks(k, chunk_size, 1000 + k * 10 + m);
  const auto parity = rs.encode(views_of(data));

  std::vector<Bytes> all;
  all.insert(all.end(), data.begin(), data.end());
  all.insert(all.end(), parity.begin(), parity.end());

  // Iterate all C(k+m, k) subsets.
  const std::size_t total = k + m;
  std::vector<std::size_t> pick(k);
  std::iota(pick.begin(), pick.end(), 0);
  std::size_t subsets = 0;
  while (true) {
    std::vector<std::pair<std::uint32_t, BytesView>> available;
    available.reserve(k);
    for (const std::size_t idx : pick) {
      available.emplace_back(static_cast<std::uint32_t>(idx),
                             BytesView(all[idx]));
    }
    const auto out = reconstruct(rs, available, chunk_size);
    ASSERT_EQ(out.size(), k);
    for (std::size_t i = 0; i < k; ++i) {
      ASSERT_EQ(out[i], data[i]) << "chunk " << i << " subset #" << subsets;
    }
    ++subsets;

    std::size_t i = k;
    bool advanced = false;
    while (i > 0) {
      --i;
      if (pick[i] != i + total - k) {
        ++pick[i];
        for (std::size_t j = i + 1; j < k; ++j) pick[j] = pick[j - 1] + 1;
        advanced = true;
        break;
      }
    }
    if (!advanced) break;
  }
  EXPECT_GT(subsets, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    CodecSweep, AnyKofKM,
    ::testing::Values(SweepParam{2, 1}, SweepParam{2, 2}, SweepParam{3, 2},
                      SweepParam{4, 2}, SweepParam{4, 3}, SweepParam{6, 3},
                      SweepParam{9, 3}));

TEST(ReedSolomon, LargeCodeRoundTrip) {
  // A wide code near the field-size limit still works.
  const ReedSolomon rs(CodecParams{32, 16});
  const auto data = random_chunks(32, 64, 77);
  const auto parity = rs.encode(views_of(data));
  // Decode from the last 32 chunks (16 data + 16 parity).
  std::vector<std::pair<std::uint32_t, BytesView>> available;
  for (std::uint32_t i = 16; i < 32; ++i) available.emplace_back(i, data[i]);
  for (std::uint32_t p = 0; p < 16; ++p) {
    available.emplace_back(32 + p, parity[p]);
  }
  const auto out = reconstruct(rs, available, 64);
  for (std::size_t i = 0; i < 32; ++i) EXPECT_EQ(out[i], data[i]);
}

TEST(ReedSolomon, MoreThanKAvailableUsesKDistinct) {
  const ReedSolomon rs(CodecParams{3, 3});
  const auto data = random_chunks(3, 24, 11);
  const auto parity = rs.encode(views_of(data));
  std::vector<std::pair<std::uint32_t, BytesView>> available;
  for (std::uint32_t i = 0; i < 3; ++i) available.emplace_back(i, data[i]);
  for (std::uint32_t p = 0; p < 3; ++p) {
    available.emplace_back(3 + p, parity[p]);
  }
  const auto out = reconstruct(rs, available, 24);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(out[i], data[i]);
}

TEST(ReedSolomon, EncodingMatrixIsSystematic) {
  const ReedSolomon rs(CodecParams{5, 2});
  EXPECT_TRUE(rs.encoding_matrix().sub_rows(0, 5).is_identity());
}

TEST(ReedSolomon, ZeroDataEncodesToZeroParity) {
  const ReedSolomon rs(CodecParams{4, 2});
  std::vector<Bytes> data(4, Bytes(32, 0));
  const auto parity = rs.encode(views_of(data));
  for (const auto& p : parity) {
    for (const auto b : p) EXPECT_EQ(b, 0);
  }
}

}  // namespace
}  // namespace agar::ec
