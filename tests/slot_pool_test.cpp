// SlotPool: the free-list record pool behind the fetch path's callbacks.
#include "common/slot_pool.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

namespace agar {
namespace {

struct Record {
  std::function<void()> cb;
  int value = 0;
};

TEST(SlotPool, ReusesTheSlotReleasedLast) {
  SlotPool<Record> pool;
  const std::uint32_t a = pool.acquire();
  const std::uint32_t b = pool.acquire();
  const std::uint32_t c = pool.acquire();
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(c, 2u);
  pool.release(a);
  pool.release(c);
  EXPECT_EQ(pool.acquire(), c);
  EXPECT_EQ(pool.acquire(), a);
  EXPECT_EQ(pool.acquire(), 3u);  // none free: a new slot
}

TEST(SlotPool, ReleaseResetsARecordAndDropsItsCapture) {
  SlotPool<Record> pool;
  const auto held = std::make_shared<int>(7);
  const std::uint32_t slot = pool.acquire();
  pool[slot].cb = [held] {};
  pool[slot].value = 42;
  EXPECT_EQ(held.use_count(), 2);
  pool.release(slot);
  EXPECT_EQ(held.use_count(), 1);
  ASSERT_EQ(pool.acquire(), slot);
  EXPECT_FALSE(pool[slot].cb);
  EXPECT_EQ(pool[slot].value, 0);
}

/// A record with clear(): release keeps its list's capacity.
struct Batch {
  std::vector<int> items;
  int reads = 0;
  void clear() { items.clear(); }
};

TEST(SlotPool, ReleaseClearsARecordThatHasClear) {
  SlotPool<Batch> pool;
  const std::uint32_t slot = pool.acquire();
  pool[slot].items.assign(100, 1);
  pool[slot].reads = 3;
  const std::size_t capacity = pool[slot].items.capacity();
  pool.release(slot);
  ASSERT_EQ(pool.acquire(), slot);
  EXPECT_TRUE(pool[slot].items.empty());
  EXPECT_EQ(pool[slot].items.capacity(), capacity);
  EXPECT_EQ(pool[slot].reads, 3);  // clear() alone decides what resets
}

}  // namespace
}  // namespace agar
