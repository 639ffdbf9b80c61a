// IntMap: the integer-keyed open-addressing table behind the read path.
#include "common/int_map.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace agar {
namespace {

TEST(IntMap, EmplaceFindErase) {
  IntMap<int> m;
  EXPECT_EQ(m.find(7), nullptr);
  EXPECT_FALSE(m.erase(7));
  auto [value, inserted] = m.try_emplace(7);
  ASSERT_TRUE(inserted);
  EXPECT_EQ(*value, 0);  // value-initialized
  *value = 42;
  EXPECT_FALSE(m.try_emplace(7).second);
  EXPECT_EQ(*m.find(7), 42);
  EXPECT_TRUE(m.contains(7));
  EXPECT_EQ(m.size(), 1u);
  EXPECT_TRUE(m.erase(7));
  EXPECT_FALSE(m.contains(7));
  EXPECT_TRUE(m.empty());
  // A key that comes back starts from a fresh value.
  EXPECT_EQ(*m.try_emplace(7).first, 0);
}

TEST(IntMap, MatchesAReferenceMapUnderChurn) {
  // Chunk keys of few objects differ in few bits: long probe runs whose
  // erasures exercise the backward shift.
  IntMap<std::uint64_t> m;
  std::map<std::uint64_t, std::uint64_t> ref;
  Rng rng(7);
  for (int i = 0; i < 20000; ++i) {
    const ChunkKey key = ChunkId{static_cast<ObjectId>(rng.next_below(40)),
                                 static_cast<ChunkIndex>(rng.next_below(12))}
                             .key();
    switch (rng.next_below(3)) {
      case 0:
        *m.try_emplace(key).first = static_cast<std::uint64_t>(i);
        ref[key] = static_cast<std::uint64_t>(i);
        break;
      case 1:
        ASSERT_EQ(m.erase(key), ref.erase(key) == 1);
        break;
      default: {
        const std::uint64_t* found = m.find(key);
        const auto it = ref.find(key);
        ASSERT_EQ(found != nullptr, it != ref.end());
        if (found != nullptr) {
          ASSERT_EQ(*found, it->second);
        }
      }
    }
    ASSERT_EQ(m.size(), ref.size());
  }
  std::map<std::uint64_t, std::uint64_t> visited;
  m.for_each([&](std::uint64_t key, std::uint64_t value) {
    EXPECT_TRUE(visited.emplace(key, value).second);
  });
  EXPECT_EQ(visited, ref);
}

TEST(IntMap, ClearEmptiesAndTheTableIsReusable) {
  IntMap<int> m;
  for (std::uint64_t k = 0; k < 100; ++k) *m.try_emplace(k).first = 1;
  m.clear();
  EXPECT_TRUE(m.empty());
  for (std::uint64_t k = 0; k < 100; ++k) EXPECT_FALSE(m.contains(k));
  *m.try_emplace(5).first = 9;
  EXPECT_EQ(*m.find(5), 9);
  EXPECT_EQ(m.size(), 1u);
}

}  // namespace
}  // namespace agar
