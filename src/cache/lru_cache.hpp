// Least-Recently-Used cache — memcached's default policy (paper §V-A "LRU").
//
// Classic intrusive design: a doubly linked list in recency order plus a
// hash map from key to list node. All operations are O(1) expected. The
// nodes live in a SlotPool, linked by slot, and the map is an
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
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  struct Entry {
    ChunkKey key = 0;
    SharedBytes value;
    std::uint32_t prev = kNone;  ///< more recently used
    std::uint32_t next = kNone;  ///< less recently used
  };

  void unlink(std::uint32_t e);
  void push_front(std::uint32_t e);
  void evict_until_fits(std::size_t incoming);

  SlotPool<Entry> entries_;
  std::uint32_t head_ = kNone;  ///< most recently used
  std::uint32_t tail_ = kNone;  ///< least recently used
  IntMap<std::uint32_t> index_;  ///< key -> slot in entries_
};

}  // namespace agar::cache
