// Object <-> chunk codec: padding, odd sizes, decode-from-subsets.
#include "ec/object_codec.hpp"

#include <gtest/gtest.h>

#include <span>

#include "common/bytes.hpp"

namespace agar::ec {
namespace {

TEST(ObjectCodec, ChunkSizeCeilDivides) {
  const ObjectCodec codec(CodecParams{9, 3});
  EXPECT_EQ(codec.chunk_size(9), 1u);
  EXPECT_EQ(codec.chunk_size(10), 2u);
  EXPECT_EQ(codec.chunk_size(1_MB), (1_MB + 8) / 9);
}

TEST(ObjectCodec, EmptyObjectStillMakesChunks) {
  const ObjectCodec codec(CodecParams{4, 2});
  const auto encoded = codec.encode({});
  EXPECT_EQ(encoded.object_size, 0u);
  EXPECT_EQ(encoded.chunks.size(), 6u);
  for (const auto& c : encoded.chunks) EXPECT_EQ(c.data.size(), 1u);
}

TEST(ObjectCodec, EncodeProducesIndexedChunks) {
  const ObjectCodec codec(CodecParams{3, 2});
  const Bytes payload = deterministic_payload("x", 100);
  const auto encoded = codec.encode(BytesView(payload));
  ASSERT_EQ(encoded.chunks.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(encoded.chunks[i].index, i);
  }
}

TEST(ObjectCodec, RoundTripAllChunks) {
  const ObjectCodec codec(CodecParams{9, 3});
  const Bytes payload = deterministic_payload("obj", 12345);
  const auto encoded = codec.encode(BytesView(payload));
  EXPECT_EQ(codec.decode(encoded.object_size, encoded.chunks), payload);
}

TEST(ObjectCodec, RoundTripFromParityOnlySubset) {
  const ObjectCodec codec(CodecParams{3, 3});
  const Bytes payload = deterministic_payload("p", 1000);
  const auto encoded = codec.encode(BytesView(payload));
  // Use chunks {2, 3, 4}: one data + two parity.
  std::vector<Chunk> subset{encoded.chunks[2], encoded.chunks[3],
                            encoded.chunks[4]};
  EXPECT_EQ(codec.decode(payload.size(), subset), payload);
}

// Reconstruct into a buffer pre-filled with another object's bytes: every
// byte must be written, the cut-short last row too.
Bytes decode_over_other_object(const ObjectCodec& codec,
                               const std::vector<Chunk>& chunks,
                               std::size_t size) {
  Bytes object = deterministic_payload("other", size);
  std::vector<std::pair<std::uint32_t, BytesView>> available;
  for (const Chunk& c : chunks) available.emplace_back(c.index, c.data.view());
  codec.rs().reconstruct_data(available, BytesSpan(object));
  return object;
}

TEST(ObjectCodec, RoundTripSizesSweep) {
  const ObjectCodec codec(CodecParams{9, 3});
  // Sizes straddling padding boundaries: k-1, k, k+1, primes, 1 MB.
  for (const std::size_t size :
       {std::size_t{1}, std::size_t{8}, std::size_t{9}, std::size_t{10},
        std::size_t{1009}, std::size_t{65537}, 1_MB}) {
    const Bytes payload = deterministic_payload('s' + std::to_string(size),
                                                size);
    const auto encoded = codec.encode(BytesView(payload));
    EXPECT_EQ(codec.decode(size, encoded.chunks), payload) << size;
    EXPECT_EQ(decode_over_other_object(codec, encoded.chunks, size), payload)
        << size;
  }
}

TEST(ObjectCodec, PaddingIsStripped) {
  const ObjectCodec codec(CodecParams{4, 1});
  const Bytes payload{1, 2, 3, 4, 5};  // 5 bytes -> 4 chunks of 2 (3 padding)
  const auto encoded = codec.encode(BytesView(payload));
  EXPECT_EQ(encoded.chunks[0].data.size(), 2u);
  EXPECT_EQ(codec.decode(5, encoded.chunks), payload);
}

TEST(ObjectCodec, DecodeTooFewChunksThrows) {
  const ObjectCodec codec(CodecParams{3, 1});
  const Bytes payload = deterministic_payload("few", 99);
  auto encoded = codec.encode(BytesView(payload));
  encoded.chunks.resize(2);
  EXPECT_THROW((void)codec.decode(99, encoded.chunks),
               std::invalid_argument);
}

TEST(ObjectCodec, DecodeMatchesOnEveryKSubsetOfPaperCode) {
  const ObjectCodec codec(CodecParams{9, 3});
  const Bytes payload = deterministic_payload("paper", 4096);
  const auto encoded = codec.encode(BytesView(payload));
  // A few representative subsets rather than all C(12,9): leading,
  // trailing, parity-heavy, alternating.
  const std::vector<std::vector<std::size_t>> subsets = {
      {0, 1, 2, 3, 4, 5, 6, 7, 8},
      {3, 4, 5, 6, 7, 8, 9, 10, 11},
      {0, 1, 2, 3, 4, 5, 9, 10, 11},
      {0, 2, 4, 6, 8, 9, 10, 11, 1},
  };
  for (const auto& subset : subsets) {
    std::vector<Chunk> chunks;
    chunks.reserve(subset.size());
    for (const std::size_t i : subset) chunks.push_back(encoded.chunks[i]);
    EXPECT_EQ(codec.decode(payload.size(), chunks), payload);
    EXPECT_EQ(decode_over_other_object(codec, chunks, payload.size()),
              payload);
  }
}

// A read that lost data chunks 7 and 8: rows 0-6 are copies of their
// chunks, rows 7 and 8 are computed from all nine, parity 9 and 10 among
// them.
std::vector<Chunk> without_rows_7_and_8(const EncodedObject& encoded) {
  std::vector<Chunk> chunks(encoded.chunks.begin(),
                            encoded.chunks.begin() + 7);
  chunks.push_back(encoded.chunks[9]);
  chunks.push_back(encoded.chunks[10]);
  return chunks;
}

TEST(ObjectCodec, DecodeMatchesOnEveryTileAndSize) {
  const ObjectCodec codec(CodecParams{9, 3});
  for (const std::size_t size :
       {std::size_t{0}, std::size_t{5}, std::size_t{1000}, 1_MB + 3}) {
    const Bytes payload = deterministic_payload("sizes", size);
    const auto encoded = codec.encode(BytesView(payload));
    const std::span<const Chunk> data(encoded.chunks.data(), codec.k());
    for (const std::size_t tile :
         {std::size_t{65}, std::size_t{129}, kVerifyTileBytes, 2_MB}) {
      Bytes buffer(tile);
      for (const auto& chunks :
           {encoded.chunks, without_rows_7_and_8(encoded),
            std::vector<Chunk>(encoded.chunks.begin() + 3,
                               encoded.chunks.end())}) {
        EXPECT_TRUE(
            codec.decode_matches(chunks, data, size, BytesSpan(buffer)))
            << "size=" << size << " tile=" << tile;
      }
    }
  }
}

TEST(ObjectCodec, DecodeMatchesRejectsAFlippedByteInAFirstOrLastTile) {
  // Input 2 is data chunk 2, copied into row 2; input 7 is parity 9,
  // which only the computed rows 7 and 8 read.
  const ObjectCodec codec(CodecParams{9, 3});
  const std::size_t size = 1_MB;
  const Bytes payload = deterministic_payload("flip", size);
  const auto encoded = codec.encode(BytesView(payload));
  const std::span<const Chunk> data(encoded.chunks.data(), codec.k());
  const std::vector<Chunk> chunks = without_rows_7_and_8(encoded);
  Bytes tile(kVerifyTileBytes);
  ASSERT_TRUE(codec.decode_matches(chunks, data, size, BytesSpan(tile)));

  const std::size_t row = codec.chunk_size(size);  // rows 2 and 7 are whole
  const std::size_t last_tile = (row - 1) / tile.size() * tile.size();
  for (const std::size_t input : {std::size_t{2}, std::size_t{7}}) {
    for (const std::size_t offset :
         {std::size_t{0}, tile.size() - 1, last_tile, row - 1}) {
      std::vector<Chunk> flipped = chunks;
      Bytes bytes(chunks[input].data.begin(), chunks[input].data.end());
      bytes[offset] ^= 0x01;
      flipped[input].data = SharedBytes(std::move(bytes));
      EXPECT_FALSE(
          codec.decode_matches(flipped, data, size, BytesSpan(tile)))
          << "input=" << input << " offset=" << offset;
    }
  }
  EXPECT_TRUE(codec.decode_matches(chunks, data, size, BytesSpan(tile)));
}

TEST(ObjectCodec, DecodeMatchesNeedsEveryDataRow) {
  const ObjectCodec codec(CodecParams{9, 3});
  const std::size_t size = 1000;  // 112-byte rows, the last one 104
  const Bytes payload = deterministic_payload("rows", size);
  const auto encoded = codec.encode(BytesView(payload));
  const std::vector<Chunk> chunks = without_rows_7_and_8(encoded);
  Bytes tile(kVerifyTileBytes);
  std::vector<Chunk> data(encoded.chunks.begin(), encoded.chunks.begin() + 9);
  EXPECT_TRUE(codec.decode_matches(chunks, data, size, BytesSpan(tile)));
  // A missing last row, or a last row shorter than the object's end.
  EXPECT_FALSE(codec.decode_matches(
      chunks, std::span<const Chunk>(data).first(8), size, BytesSpan(tile)));
  data[8].data = SharedBytes(Bytes(data[8].data.begin(),
                                   data[8].data.begin() + 103));
  EXPECT_FALSE(codec.decode_matches(chunks, data, size, BytesSpan(tile)));
  // The row needs only the object's bytes, not the padding.
  data[8].data = SharedBytes(Bytes(payload.begin() + 8 * 112, payload.end()));
  EXPECT_TRUE(codec.decode_matches(chunks, data, size, BytesSpan(tile)));
  EXPECT_THROW((void)codec.decode_matches(chunks, data, size, BytesSpan()),
               std::invalid_argument);
}

TEST(ObjectCodec, DecodeMatchesLooksUpOnePlan) {
  // Set-up runs once per check, as once per decode: a check with a data
  // row missing counts one plan lookup, one with every data chunk none.
  const ObjectCodec codec(CodecParams{9, 3});
  const Bytes payload = deterministic_payload("plan", 1_MB);
  const auto encoded = codec.encode(BytesView(payload));
  const std::span<const Chunk> data(encoded.chunks.data(), codec.k());
  Bytes tile(kVerifyTileBytes);
  ASSERT_TRUE(codec.decode_matches(without_rows_7_and_8(encoded), data,
                                   payload.size(), BytesSpan(tile)));
  ASSERT_TRUE(codec.decode_matches(without_rows_7_and_8(encoded), data,
                                   payload.size(), BytesSpan(tile)));
  ASSERT_TRUE(codec.decode_matches(encoded.chunks, data, payload.size(),
                                   BytesSpan(tile)));
  EXPECT_EQ(codec.rs().decode_plan_misses(), 1u);
  EXPECT_EQ(codec.rs().decode_plan_hits(), 1u);
}

}  // namespace
}  // namespace agar::ec
