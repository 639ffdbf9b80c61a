// Least-Recently-Used cache — memcached's default policy (paper §V-A "LRU").
//
// Classic intrusive design: a doubly linked list in recency order plus a
// hash map from key to list node. All operations are O(1) expected. The
// nodes live in a SlotPool, on one SlotList, and the map is an
// integer-keyed IntMap, so once the cache has been full a put allocates
// nothing.
#pragma once

#include <cstdint>
#include <vector>

#include "cache/cache.hpp"
#include "common/int_map.hpp"
#include "common/slot_pool.hpp"

namespace agar::cache {

class LruCache final : public CacheEngine {
 public:
  explicit LruCache(std::size_t capacity_bytes);

  [[nodiscard]] std::optional<SharedBytes> get(ChunkKey key) override;
  bool put(ChunkKey key, SharedBytes value) override;
  [[nodiscard]] bool contains(ChunkKey key) const override;
  /// Resident keys, most recently used first.
  [[nodiscard]] std::vector<ChunkKey> keys() const override;

  /// Key that would be evicted next (least recently used); for tests.
  [[nodiscard]] std::optional<ChunkKey> eviction_candidate() const;

 private:
  struct Entry {
    ChunkKey key = 0;
    SharedBytes value;
    SlotLinks links;
  };

  void evict_until_fits(std::size_t incoming);

  SlotPool<Entry> entries_;
  SlotList<Entry> recency_;  ///< most recently used first
  IntMap<std::uint32_t> index_;  ///< key -> slot in entries_
};

}  // namespace agar::cache
