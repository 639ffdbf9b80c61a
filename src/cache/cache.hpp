// Cache engine interface — the memcached stand-in.
//
// A cache stores byte payloads under integer chunk keys (ChunkId::key(),
// the id-based form of memcached keys like "object42#3") within a byte
// capacity. Engines differ only in their replacement/admission policy: LRU
// and LFU evict on insert as memcached and the paper's LFU proxy do; the
// Agar static cache admits only keys in the currently installed
// configuration.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/bytes.hpp"
#include "common/shared_bytes.hpp"
#include "common/types.hpp"

namespace agar::cache {

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t puts = 0;
  std::uint64_t admissions = 0;  ///< puts that were actually stored
  std::uint64_t rejections = 0;  ///< puts declined by the admission policy
  std::uint64_t evictions = 0;

  [[nodiscard]] double hit_rate() const {
    const auto total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

class CacheEngine {
 public:
  explicit CacheEngine(std::size_t capacity_bytes)
      : capacity_bytes_(capacity_bytes) {}
  virtual ~CacheEngine() = default;

  CacheEngine(const CacheEngine&) = delete;
  CacheEngine& operator=(const CacheEngine&) = delete;

  /// Look up a key. Engines update recency/frequency state on hit. The
  /// returned handle shares the cached buffer (refcount bump, no copy) and
  /// stays valid even if the entry is evicted afterwards.
  [[nodiscard]] virtual std::optional<SharedBytes> get(ChunkKey key) = 0;

  /// Insert a value (Bytes convert implicitly, adopted by move). Returns
  /// true if the value resides in the cache after the call (it may evict
  /// others), false if admission declined it.
  virtual bool put(ChunkKey key, SharedBytes value) = 0;

  /// Presence check with NO policy side effects (no recency update).
  [[nodiscard]] virtual bool contains(ChunkKey key) const = 0;

  /// All resident keys, unordered. For inspection/tests.
  [[nodiscard]] virtual std::vector<ChunkKey> keys() const = 0;

  [[nodiscard]] std::size_t capacity_bytes() const { return capacity_bytes_; }
  [[nodiscard]] std::size_t used_bytes() const { return used_bytes_; }
  [[nodiscard]] const CacheStats& stats() const { return stats_; }

 protected:
  std::size_t capacity_bytes_;
  std::size_t used_bytes_ = 0;
  CacheStats stats_;
};

}  // namespace agar::cache
