// Least-Frequently-Used cache (paper §V-A "LFU": a proxy tracks per-object
// request frequency and evicts the least frequently used entries).
//
// Implementation: the classic O(1) LFU of Shah/Mitra/Matani — a doubly
// linked list of frequency buckets, each holding an LRU-ordered list of
// entries with that frequency. Eviction takes the least recent entry of the
// lowest-frequency bucket, so ties fall back to LRU like the paper's WLFU
// discussion suggests.
#pragma once

#include <list>
#include <unordered_map>

#include "cache/cache.hpp"

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
  };
  struct Bucket {
    std::uint64_t freq;
    std::list<Entry> entries;  // front = most recently touched
  };
  using BucketList = std::list<Bucket>;

  struct Locator {
    BucketList::iterator bucket;
    std::list<Entry>::iterator entry;
  };

  /// Move an entry from its bucket to the bucket with frequency+1,
  /// creating/destroying buckets as needed.
  void promote(ChunkKey key, Locator& loc);
  void evict_until_fits(std::size_t incoming);
  void remove_entry(ChunkKey key, const Locator& loc);

  BucketList buckets_;  // ascending frequency order
  std::unordered_map<ChunkKey, Locator> index_;
};

}  // namespace agar::cache
