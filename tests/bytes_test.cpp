// Byte helpers: deterministic payloads, FNV-1a, human formatting.
#include "common/bytes.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/types.hpp"

namespace agar {
namespace {

TEST(Bytes, DeterministicPayloadIsStable) {
  EXPECT_EQ(deterministic_payload("k", 100), deterministic_payload("k", 100));
}

TEST(Bytes, DeterministicPayloadVariesByKey) {
  EXPECT_NE(deterministic_payload("a", 64), deterministic_payload("b", 64));
}

TEST(Bytes, DeterministicPayloadSize) {
  EXPECT_EQ(deterministic_payload("x", 0).size(), 0u);
  EXPECT_EQ(deterministic_payload("x", 12345).size(), 12345u);
}

TEST(Bytes, PayloadVectorPathMatchesScalarReference) {
  // Every size around the vector path's 64-byte blocks and a partial last
  // word, plus the paper's object size and a ragged one past it. Where the
  // vector path is compiled out or the CPU lacks it, only the dispatching
  // form is compared with the reference.
  std::vector<std::size_t> sizes;
  for (std::size_t n = 0; n <= 130; ++n) sizes.push_back(n);
  sizes.push_back(1_MB);
  sizes.push_back(1_MB + 3);
  for (const char* key : {"", "k", "object0", "object299", "bench"}) {
    for (const std::size_t n : sizes) {
      Bytes reference(n + 2, 0xEE);
      detail::fill_payload_scalar(key, BytesSpan(reference).subspan(1, n));
      Bytes vector(n + 2, 0xEE);
      if (detail::fill_payload_vector(key, BytesSpan(vector).subspan(1, n))) {
        ASSERT_EQ(vector, reference) << key << " " << n;
      }
      Bytes filled(n, 0x11);
      fill_deterministic_payload(key, BytesSpan(filled));
      ASSERT_EQ(filled, Bytes(reference.begin() + 1, reference.end() - 1))
          << key << " " << n;
      ASSERT_EQ(deterministic_payload(key, n), filled) << key << " " << n;
    }
  }
}

TEST(Bytes, DeterministicPayloadDigestIsPinned) {
  // FNV-1a of the first object of the paper's working set, as generated one
  // SplitMix64 word at a time before the vector path existed.
  EXPECT_EQ(fnv1a(deterministic_payload("object0", 1_MB)),
            0xed14fb8d7daa319eULL);
}

TEST(Bytes, Fnv1aKnownVector) {
  // FNV-1a 64-bit of empty input is the offset basis.
  EXPECT_EQ(fnv1a(std::string("")), 0xcbf29ce484222325ULL);
  // "a" -> published value.
  EXPECT_EQ(fnv1a(std::string("a")), 0xaf63dc4c8601ec8cULL);
}

TEST(Bytes, Fnv1aStringAndViewAgree) {
  const std::string s = "hello world";
  const BytesView v(reinterpret_cast<const std::uint8_t*>(s.data()),
                    s.size());
  EXPECT_EQ(fnv1a(s), fnv1a(v));
}

TEST(Bytes, FormatBytesUnits) {
  EXPECT_EQ(format_bytes(512), "512.0 B");
  EXPECT_EQ(format_bytes(1024), "1.0 KB");
  EXPECT_EQ(format_bytes(10 * 1024 * 1024), "10.0 MB");
  EXPECT_EQ(format_bytes(3ull * 1024 * 1024 * 1024), "3.0 GB");
}

TEST(Bytes, LiteralOperators) {
  EXPECT_EQ(1_KB, 1024u);
  EXPECT_EQ(1_MB, 1024u * 1024u);
  EXPECT_EQ(10_MB, 10u * 1024u * 1024u);
}

TEST(Bytes, ChunkIdKeyPacksObjectAndIndex) {
  const ChunkId id{42, 3};
  EXPECT_EQ(id.key(), (ChunkKey{42} << 32) | 3);
  EXPECT_EQ(ChunkId::of(id.key()), id);
  const ChunkId last{~ObjectId{0} - 1, ~ChunkIndex{0}};
  EXPECT_EQ(ChunkId::of(last.key()), last);
}

TEST(Bytes, ChunkIdEquality) {
  const ChunkId a{5, 1}, b{5, 1}, c{5, 2}, d{4, 1};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, d);
  EXPECT_NE(a.key(), c.key());
  EXPECT_NE(a.key(), d.key());
}

TEST(Bytes, ChunkNameHashMatchesTheBuiltString) {
  for (const ChunkIndex index : {0u, 3u, 9u, 10u, 11u, 4294967295u}) {
    EXPECT_EQ(fnv1a_chunk("object42", index),
              fnv1a("object42#" + std::to_string(index)));
  }
  EXPECT_EQ(fnv1a_chunk("", 0), fnv1a("#0"));
}

}  // namespace
}  // namespace agar
