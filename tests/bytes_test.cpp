// Byte helpers: deterministic payloads, FNV-1a, human formatting.
#include "common/bytes.hpp"

#include <gtest/gtest.h>

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

TEST(Bytes, ChunkIdCacheKey) {
  const ChunkId id{"object42", 3};
  EXPECT_EQ(id.cache_key(), "object42#3");
}

TEST(Bytes, ChunkIdEqualityAndHash) {
  const ChunkId a{"k", 1}, b{"k", 1}, c{"k", 2}, d{"j", 1};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, d);
  EXPECT_EQ(std::hash<ChunkId>{}(a), std::hash<ChunkId>{}(b));
}

}  // namespace
}  // namespace agar
