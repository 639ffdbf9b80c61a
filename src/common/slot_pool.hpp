// SlotPool — records in one vector, named by a 32-bit slot and reused
// through a free list: the pooled state behind the fetch path's callbacks
// (wire fetches, coalesced waiters, fetch-policy attempts, probe rounds,
// collab-routed fetches, read batches) and the cache engines' nodes.
//
// A callback captures its record's slot rather than its address, so it
// stays within std::function's 16-byte inline buffer. The vector may grow
// while a slot is taken: hold a record by slot, not by reference, across
// anything that may acquire from the same pool. Once the pool has reached
// its peak occupancy nothing allocates.
//
// Ordering contract: `acquire` hands out the slot released last. Slot
// numbers are deterministic but carry no order; a table that must keep
// an order (issue, join, recency, frequency) threads its records on a
// SlotList.
#pragma once

#include <cstdint>
#include <vector>

namespace agar {

template <typename T>
class SlotPool {
 public:
  /// A free slot: the one released last, else a new one. It holds T{}, or
  /// what T::clear() left of its last record.
  [[nodiscard]] std::uint32_t acquire() {
    if (free_.empty()) {
      slots_.emplace_back();
      // Room for every slot to be free at once, so release never grows
      // the free list after the pool's peak.
      free_.reserve(slots_.capacity());
      return static_cast<std::uint32_t>(slots_.size() - 1);
    }
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    return slot;
  }

  /// Reset `slot` and free it: with T::clear() where T has one (a record
  /// that keeps its lists' capacity), else to T{} (which drops whatever
  /// its callback captured).
  void release(std::uint32_t slot) {
    if constexpr (requires(T& record) { record.clear(); }) {
      slots_[slot].clear();
    } else {
      slots_[slot] = T{};
    }
    free_.push_back(slot);
  }

  [[nodiscard]] T& operator[](std::uint32_t slot) { return slots_[slot]; }
  [[nodiscard]] const T& operator[](std::uint32_t slot) const {
    return slots_[slot];
  }

 private:
  std::vector<T> slots_;
  std::vector<std::uint32_t> free_;
};

/// No record: the end of a SlotList.
inline constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

/// A record's neighbours on the SlotList it sits on.
struct SlotLinks {
  std::uint32_t prev = kNoSlot;
  std::uint32_t next = kNoSlot;
};

/// A doubly linked list of one SlotPool<T>'s records, threaded through
/// T's `SlotLinks links` member, so a record sits on at most one list at
/// a time. The list holds only its ends and length; every call that
/// follows or writes links takes the pool. Nothing allocates.
template <typename T>
class SlotList {
 public:
  [[nodiscard]] std::uint32_t front() const { return head_; }
  [[nodiscard]] std::uint32_t back() const { return tail_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  void push_front(SlotPool<T>& pool, std::uint32_t slot) {
    insert_after(pool, kNoSlot, slot);
  }

  void push_back(SlotPool<T>& pool, std::uint32_t slot) {
    SlotLinks& links = pool[slot].links;
    links.prev = tail_;
    links.next = kNoSlot;
    (tail_ == kNoSlot ? head_ : pool[tail_].links.next) = slot;
    tail_ = slot;
    ++size_;
  }

  /// Link `slot` in after `pos`, a record on this list, or at the front
  /// when `pos` is kNoSlot.
  void insert_after(SlotPool<T>& pool, std::uint32_t pos, std::uint32_t slot) {
    SlotLinks& links = pool[slot].links;
    links.prev = pos;
    links.next = pos == kNoSlot ? head_ : pool[pos].links.next;
    (links.next == kNoSlot ? tail_ : pool[links.next].links.prev) = slot;
    (pos == kNoSlot ? head_ : pool[pos].links.next) = slot;
    ++size_;
  }

  /// Take `slot`, a record on this list, off it. Its links are left
  /// stale until it is linked again.
  void unlink(SlotPool<T>& pool, std::uint32_t slot) {
    const SlotLinks links = pool[slot].links;
    (links.prev == kNoSlot ? head_ : pool[links.prev].links.next) = links.next;
    (links.next == kNoSlot ? tail_ : pool[links.next].links.prev) = links.prev;
    --size_;
  }

  /// Calls f(slot) for every record, front to back. Each record's
  /// successor is read before f runs, so f may unlink or release the
  /// record it is given, and may acquire from the pool, but must leave
  /// the rest of the list alone.
  template <typename F>
  void for_each(const SlotPool<T>& pool, F&& f) const {
    for (std::uint32_t slot = head_; slot != kNoSlot;) {
      const std::uint32_t next = pool[slot].links.next;
      f(slot);
      slot = next;
    }
  }

 private:
  std::uint32_t head_ = kNoSlot;
  std::uint32_t tail_ = kNoSlot;
  std::uint32_t size_ = 0;
};

}  // namespace agar
