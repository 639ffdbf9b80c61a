// SlotPool — records in one vector, named by a 32-bit slot and reused
// through a free list: the pooled state behind the fetch path's callbacks
// (wire fetches, coalesced waiters, fetch-policy attempts, probe rounds,
// collab-routed fetches, read batches) and the LRU engine's nodes.
//
// A callback captures its record's slot rather than its address, so it
// stays within std::function's 16-byte inline buffer. The vector may grow
// while a slot is taken: hold a record by slot, not by reference, across
// anything that may acquire from the same pool. Once the pool has reached
// its peak occupancy nothing allocates.
//
// Ordering contract: `acquire` hands out the slot released last. Slot
// numbers are deterministic but carry no order; a table that must keep
// issue order links its records itself.
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

}  // namespace agar
