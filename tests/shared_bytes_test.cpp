// SharedBytes: refcounted immutable chunk buffers and their zero-copy
// hand-offs through bucket, backend and cache layers.
#include "common/shared_bytes.hpp"

#include <gtest/gtest.h>

#include "cache/lru_cache.hpp"
#include "store/bucket.hpp"

namespace agar {
namespace {

TEST(SharedBytes, DefaultIsEmpty) {
  const SharedBytes s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.size(), 0u);
  EXPECT_EQ(s.view().size(), 0u);
}

TEST(SharedBytes, AdoptsBytesByMove) {
  Bytes b{1, 2, 3};
  const std::uint8_t* payload = b.data();
  const SharedBytes s(std::move(b));
  EXPECT_EQ(s.size(), 3u);
  // The allocation moved, it was not copied.
  EXPECT_EQ(s.data(), payload);
}

TEST(SharedBytes, CopyIsRefcountBumpNotByteCopy) {
  const SharedBytes a(Bytes{1, 2, 3, 4});
  EXPECT_EQ(a.use_count(), 1);
  const SharedBytes b = a;  // NOLINT(performance-unnecessary-copy-...)
  EXPECT_EQ(a.use_count(), 2);
  EXPECT_EQ(a.data(), b.data());  // same allocation
  EXPECT_EQ(a, b);
}

TEST(SharedBytes, ViewInteropAndEquality) {
  const SharedBytes a(Bytes{9, 8, 7});
  const BytesView v = a;  // implicit conversion
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(v.data(), a.data());
  EXPECT_EQ(SharedBytes::copy_of(v), a);
  EXPECT_FALSE(SharedBytes(Bytes{9, 8}) == a);
  EXPECT_FALSE(SharedBytes(Bytes{9, 8, 6}) == a);
}

TEST(SharedBytes, BucketGetSharesTheStoredBuffer) {
  store::Bucket bucket;
  bucket.put({7, 0}, Bytes{1, 2, 3});
  const auto a = bucket.get({7, 0});
  ASSERT_TRUE(a.has_value());
  const auto b = bucket.get({7, 0});
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->data(), b->data());  // one allocation, many handles
  EXPECT_GE(a->use_count(), 3);     // bucket + a + b
}

TEST(SharedBytes, CacheHitSurvivesEviction) {
  const ChunkKey a = ChunkId{1, 0}.key(), b = ChunkId{2, 0}.key();
  cache::LruCache cache(10);
  cache.put(a, Bytes{1, 2, 3});
  const auto hit = cache.get(a);
  ASSERT_TRUE(hit.has_value());
  cache.put(b, Bytes(9, 0xFF));  // evicts a
  EXPECT_FALSE(cache.contains(a));
  // The handle keeps the buffer alive past eviction.
  EXPECT_EQ(hit->size(), 3u);
  EXPECT_EQ((*hit)[2], 3);
}

TEST(SharedBytes, CachePutDoesNotCopyPayload) {
  cache::LruCache cache(100);
  SharedBytes payload(Bytes{5, 6, 7});
  const std::uint8_t* raw = payload.data();
  const ChunkKey k = ChunkId{7, 0}.key();
  cache.put(k, payload);  // refcount bump in, not a byte copy
  const auto hit = cache.get(k);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->data(), raw);
}

}  // namespace
}  // namespace agar
