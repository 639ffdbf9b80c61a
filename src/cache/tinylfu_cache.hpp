// TinyLFU-gated LRU cache — the scalability extension the paper points to
// (§III-b, §VII): a count-min sketch approximates access frequencies and a
// frequency duel decides whether a new key may displace the LRU victim.
//
// This is W-TinyLFU without the window cache: admission compares the
// candidate's sketch estimate against the eviction candidate's; the
// candidate is admitted only if it is at least as popular. A doorkeeper
// Bloom-style trick is approximated by the sketch's aging window.
#pragma once

#include "cache/cache.hpp"
#include "cache/lru_cache.hpp"
#include "stats/count_min.hpp"

namespace agar::cache {

struct TinyLfuParams {
  std::size_t sketch_width = 4096;
  std::size_t sketch_depth = 4;
  /// Halve counters after this many recorded accesses (0 = never).
  std::uint64_t aging_window = 10'000;
};

class TinyLfuCache final : public CacheEngine {
 public:
  /// The sketch hashes a chunk by its name "<key>#<index>", as the
  /// prototype's memcached keys were named, looking the key up by id in
  /// `object_keys` (the deployment's BackendCluster::keys(), which must
  /// outlive the cache and hold every object the cache sees).
  TinyLfuCache(std::size_t capacity_bytes,
               const std::vector<ObjectKey>& object_keys,
               TinyLfuParams params = {});

  [[nodiscard]] std::optional<SharedBytes> get(ChunkKey key) override;
  bool put(ChunkKey key, SharedBytes value) override;
  [[nodiscard]] bool contains(ChunkKey key) const override;
  [[nodiscard]] std::vector<ChunkKey> keys() const override;

  [[nodiscard]] const stats::CountMinSketch& sketch() const { return sketch_; }

 private:
  [[nodiscard]] std::uint64_t sketch_hash(ChunkKey key) const;

  LruCache inner_;
  stats::CountMinSketch sketch_;
  const std::vector<ObjectKey>* object_keys_;  // non-owning
};

}  // namespace agar::cache
