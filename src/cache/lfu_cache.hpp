// Least-Frequently-Used cache (paper §V-A "LFU": a proxy tracks per-object
// request frequency and evicts the least frequently used entries).
//
// Implementation: the classic O(1) LFU of Shah/Mitra/Matani — a doubly
// linked list of frequency buckets, each holding an LRU-ordered list of
// entries with that frequency. Eviction takes the least recent entry of the
// lowest-frequency bucket, so ties fall back to LRU like the paper's WLFU
// discussion suggests. Buckets and entries are records in two SlotPools,
// each list a SlotList, and the index an IntMap, so once the cache has
// been full nothing allocates.
#pragma once

#include <cstdint>

#include "cache/cache.hpp"
#include "common/int_map.hpp"
#include "common/slot_pool.hpp"

namespace agar::cache {

class LfuCache final : public CacheEngine {
 public:
  explicit LfuCache(std::size_t capacity_bytes);

  [[nodiscard]] std::optional<SharedBytes> get(ChunkKey key) override;
  bool put(ChunkKey key, SharedBytes value) override;
  [[nodiscard]] bool contains(ChunkKey key) const override;
  [[nodiscard]] std::vector<ChunkKey> keys() const override;

  /// Current access frequency of a resident key (0 if absent); for tests.
  [[nodiscard]] std::uint64_t frequency(ChunkKey key) const;

  /// Key that would be evicted next; for tests.
  [[nodiscard]] std::optional<ChunkKey> eviction_candidate() const;

 private:
  struct Entry {
    ChunkKey key = 0;
    SharedBytes value;
    std::uint32_t bucket = 0;  ///< slot in buckets_
    SlotLinks links;           ///< on its bucket's list
  };
  struct Bucket {
    std::uint64_t freq = 0;
    SlotList<Entry> entries;  ///< most recently touched first
    SlotLinks links;          ///< on by_freq_
  };

  /// Move entry `e` to the front of the bucket with its frequency + 1,
  /// creating that bucket and dropping its old one as needed.
  void promote(std::uint32_t e);
  /// Take entry `e` off its bucket, dropping the bucket if it empties.
  void unlink_entry(std::uint32_t e);
  /// Evict until `incoming` more bytes fit, never entry `keep` (an
  /// overwrite's own entry, at its bucket's front; kNoSlot: none).
  void evict_until_fits(std::size_t incoming, std::uint32_t keep);

  SlotPool<Entry> entries_;
  SlotPool<Bucket> buckets_;
  SlotList<Bucket> by_freq_;     ///< ascending frequency
  IntMap<std::uint32_t> index_;  ///< key -> slot in entries_
};

}  // namespace agar::cache
