// Least-Recently-Used cache — memcached's default policy (paper §V-A "LRU").
//
// Classic intrusive design: a doubly linked list in recency order plus a
// hash map from key to list node. All operations are O(1) expected.
#pragma once

#include <list>
#include <unordered_map>

#include "cache/cache.hpp"

namespace agar::cache {

class LruCache final : public CacheEngine {
 public:
  explicit LruCache(std::size_t capacity_bytes);

  [[nodiscard]] std::optional<SharedBytes> get(const std::string& key) override;
  bool put(const std::string& key, SharedBytes value) override;
  [[nodiscard]] bool contains(const std::string& key) const override;
  [[nodiscard]] std::vector<std::string> keys() const override;

  /// Key that would be evicted next (least recently used); for tests.
  [[nodiscard]] std::optional<std::string> eviction_candidate() const;

 private:
  struct Entry {
    std::string key;
    SharedBytes value;
  };
  using List = std::list<Entry>;

  void evict_until_fits(std::size_t incoming);

  List entries_;  // front = most recent, back = least recent
  std::unordered_map<std::string, List::iterator> index_;
};

}  // namespace agar::cache
