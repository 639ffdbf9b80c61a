// Adaptive Replacement Cache (Megiddo & Modha, FAST'03), byte-capacity
// variant — the engine that proves the experiment API is open: it is added
// to the system purely through its api::EngineRegistration below; no
// runner, CLI or bench file knows it exists, yet `agar_cli --set system=arc`
// and every spec-driven bench can run it.
//
// ARC balances recency and frequency online: two resident lists (T1 =
// seen once recently, T2 = seen at least twice) plus two ghost lists (B1,
// B2) remembering recently evicted keys. A hit in a ghost list shifts the
// adaptive target `p` — the byte share of the cache T1 is allowed — toward
// the list that would have hit, so the cache continuously re-tunes itself
// between LRU-like and LFU-like behaviour without any tuning parameter.
//
// One node per key holds either the resident entry or its ghost (the
// bytes it had when evicted): nodes live in a SlotPool, each on one of
// the four SlotLists, and an IntMap indexes them, so once the directory
// has been full nothing allocates.
#pragma once

#include <array>
#include <cstdint>

#include "cache/cache.hpp"
#include "common/int_map.hpp"
#include "common/slot_pool.hpp"

namespace agar::cache {

class ArcCache final : public CacheEngine {
 public:
  explicit ArcCache(std::size_t capacity_bytes);

  [[nodiscard]] std::optional<SharedBytes> get(ChunkKey key) override;
  bool put(ChunkKey key, SharedBytes value) override;
  [[nodiscard]] bool contains(ChunkKey key) const override;
  [[nodiscard]] std::vector<ChunkKey> keys() const override;

  /// Adaptive target: bytes of capacity currently granted to the
  /// recency-side list T1. For tests and inspection.
  [[nodiscard]] std::size_t target_t1_bytes() const { return target_p_; }
  /// Resident/ghost byte gauges, for tests.
  [[nodiscard]] std::size_t t1_bytes() const { return bytes_[kT1]; }
  [[nodiscard]] std::size_t t2_bytes() const { return bytes_[kT2]; }
  [[nodiscard]] std::size_t ghost_bytes() const {
    return bytes_[kB1] + bytes_[kB2];
  }

 private:
  /// The resident lists T1, T2 and their ghost lists B1, B2; each
  /// front is the most recent.
  enum List : std::uint8_t { kT1, kT2, kB1, kB2 };
  struct Node {
    ChunkKey key = 0;
    SharedBytes value;     ///< empty on a ghost list
    std::size_t size = 0;  ///< the value's bytes, kept by its ghost
    List list = kT1;
    SlotLinks links;
  };

  /// The slot of `key`'s resident node, or kNoSlot.
  [[nodiscard]] std::uint32_t resident(ChunkKey key) const;
  /// Move node `n` to the front of `to`, carrying its bytes along.
  void move(std::uint32_t n, List to);
  /// Make room for `incoming` bytes: evict from T1 while it exceeds the
  /// adaptive target (from T2 otherwise), demoting victims to the ghost
  /// lists. `favor_t1` biases the boundary case toward evicting from T1
  /// (set on B2 ghost hits, as in the paper's REPLACE). Node `keep` (an
  /// overwrite's own entry, at T2's front; kNoSlot: none) is never evicted.
  void replace(std::size_t incoming, bool favor_t1, std::uint32_t keep);
  /// Bound the directory: B1 <= capacity - T1 (roughly), total <= 2x
  /// capacity, dropping ghost LRU entries.
  void trim_ghosts();
  /// Forget ghost `n`.
  void drop(std::uint32_t n);

  SlotPool<Node> nodes_;
  std::array<SlotList<Node>, 4> lists_;
  std::array<std::size_t, 4> bytes_{};  ///< each list's node bytes
  IntMap<std::uint32_t> index_;         ///< key -> slot in nodes_
  std::size_t target_p_ = 0;  ///< T1's byte target, in [0, capacity]
};

}  // namespace agar::cache
