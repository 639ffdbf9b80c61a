// SlotPool: the free-list record pool behind the fetch path's callbacks,
// and SlotList: the linked list threaded through a pool's records.
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

/// A record that can sit on a SlotList.
struct Node {
  int value = 0;
  SlotLinks links;
};

/// The list's slots front to back, checked against the walk back to
/// front over the prev links and against size().
std::vector<std::uint32_t> walk(const SlotList<Node>& list,
                                const SlotPool<Node>& pool) {
  std::vector<std::uint32_t> forward;
  list.for_each(pool, [&](std::uint32_t s) { forward.push_back(s); });
  std::vector<std::uint32_t> backward;
  for (std::uint32_t s = list.back(); s != kNoSlot; s = pool[s].links.prev) {
    backward.insert(backward.begin(), s);
  }
  EXPECT_EQ(forward, backward);
  EXPECT_EQ(forward.size(), list.size());
  EXPECT_EQ(list.empty(), forward.empty());
  EXPECT_EQ(list.front(), forward.empty() ? kNoSlot : forward.front());
  EXPECT_EQ(list.back(), forward.empty() ? kNoSlot : forward.back());
  return forward;
}

using Slots = std::vector<std::uint32_t>;

TEST(SlotList, StartsEmpty) {
  SlotPool<Node> pool;
  const SlotList<Node> list;
  EXPECT_TRUE(list.empty());
  EXPECT_EQ(list.size(), 0u);
  EXPECT_EQ(list.front(), kNoSlot);
  EXPECT_EQ(list.back(), kNoSlot);
  EXPECT_EQ(walk(list, pool), Slots{});
}

TEST(SlotList, PushesKeepWalkOrder) {
  SlotPool<Node> pool;
  SlotList<Node> list;
  const std::uint32_t a = pool.acquire();
  const std::uint32_t b = pool.acquire();
  const std::uint32_t c = pool.acquire();
  const std::uint32_t d = pool.acquire();
  list.push_back(pool, b);
  list.push_front(pool, a);
  list.push_back(pool, c);
  list.push_front(pool, d);
  EXPECT_EQ(walk(list, pool), (Slots{d, a, b, c}));
  EXPECT_EQ(list.size(), 4u);
  EXPECT_FALSE(list.empty());
}

TEST(SlotList, InsertAfterTheFrontAMiddleRecordAndTheBack) {
  SlotPool<Node> pool;
  SlotList<Node> list;
  Slots s;
  for (int i = 0; i < 6; ++i) s.push_back(pool.acquire());
  list.insert_after(pool, kNoSlot, s[0]);  // into an empty list
  EXPECT_EQ(walk(list, pool), (Slots{s[0]}));
  list.insert_after(pool, s[0], s[1]);  // after the back
  EXPECT_EQ(walk(list, pool), (Slots{s[0], s[1]}));
  list.insert_after(pool, kNoSlot, s[2]);  // at the front
  EXPECT_EQ(walk(list, pool), (Slots{s[2], s[0], s[1]}));
  list.insert_after(pool, s[2], s[3]);  // after the front
  EXPECT_EQ(walk(list, pool), (Slots{s[2], s[3], s[0], s[1]}));
  list.insert_after(pool, s[0], s[4]);  // after a middle record
  EXPECT_EQ(walk(list, pool), (Slots{s[2], s[3], s[0], s[4], s[1]}));
  list.insert_after(pool, s[1], s[5]);  // after the back again
  EXPECT_EQ(walk(list, pool), (Slots{s[2], s[3], s[0], s[4], s[1], s[5]}));
  EXPECT_EQ(list.size(), 6u);
}

TEST(SlotList, UnlinkTheHeadAMiddleRecordAndTheTail) {
  SlotPool<Node> pool;
  SlotList<Node> list;
  Slots s;
  for (int i = 0; i < 5; ++i) {
    s.push_back(pool.acquire());
    list.push_back(pool, s.back());
  }
  list.unlink(pool, s[0]);  // the head
  EXPECT_EQ(walk(list, pool), (Slots{s[1], s[2], s[3], s[4]}));
  list.unlink(pool, s[2]);  // a middle record
  EXPECT_EQ(walk(list, pool), (Slots{s[1], s[3], s[4]}));
  list.unlink(pool, s[4]);  // the tail
  EXPECT_EQ(walk(list, pool), (Slots{s[1], s[3]}));
  list.unlink(pool, s[3]);
  list.unlink(pool, s[1]);  // the last record
  EXPECT_EQ(walk(list, pool), Slots{});
  EXPECT_TRUE(list.empty());
  // An emptied list takes records again.
  list.push_front(pool, s[2]);
  EXPECT_EQ(walk(list, pool), (Slots{s[2]}));
}

TEST(SlotList, ForEachMayReleaseTheRecordItIsGiven) {
  SlotPool<Node> pool;
  SlotList<Node> list;
  for (int i = 0; i < 4; ++i) {
    const std::uint32_t slot = pool.acquire();
    pool[slot].value = i;
    list.push_back(pool, slot);
  }
  std::vector<int> seen;
  list.for_each(pool, [&](std::uint32_t slot) {
    seen.push_back(pool[slot].value);
    list.unlink(pool, slot);
    pool.release(slot);
    (void)pool.acquire();  // takes the slot just released
  });
  EXPECT_EQ(seen, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_TRUE(list.empty());
}

TEST(SlotList, MovesARecordBetweenTwoListsOfOnePool) {
  // As ARC moves a node from T1 to T2, or LFU an entry between buckets.
  SlotPool<Node> pool;
  SlotList<Node> from;
  SlotList<Node> to;
  Slots s;
  for (int i = 0; i < 3; ++i) {
    s.push_back(pool.acquire());
    from.push_back(pool, s.back());
  }
  const std::uint32_t other = pool.acquire();
  to.push_back(pool, other);

  from.unlink(pool, s[1]);
  to.push_front(pool, s[1]);
  EXPECT_EQ(walk(from, pool), (Slots{s[0], s[2]}));
  EXPECT_EQ(walk(to, pool), (Slots{s[1], other}));

  from.unlink(pool, s[2]);
  to.insert_after(pool, s[1], s[2]);
  EXPECT_EQ(walk(from, pool), (Slots{s[0]}));
  EXPECT_EQ(walk(to, pool), (Slots{s[1], s[2], other}));

  to.unlink(pool, s[1]);
  from.push_back(pool, s[1]);
  EXPECT_EQ(walk(from, pool), (Slots{s[0], s[1]}));
  EXPECT_EQ(walk(to, pool), (Slots{s[2], other}));
}

}  // namespace
}  // namespace agar
