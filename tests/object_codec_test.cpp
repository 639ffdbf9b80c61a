// Object <-> chunk codec: padding, odd sizes, decode-from-subsets.
#include "ec/object_codec.hpp"

#include <gtest/gtest.h>

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

// Decode through the span overload into a buffer pre-filled with another
// object's bytes: every byte must be written, the cut-short last row too.
Bytes decode_over_other_object(const ObjectCodec& codec,
                               const std::vector<Chunk>& chunks,
                               std::size_t size) {
  Bytes object = deterministic_payload("other", size);
  codec.decode(chunks, BytesSpan(object));
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

}  // namespace
}  // namespace agar::ec
