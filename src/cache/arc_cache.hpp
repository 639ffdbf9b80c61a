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
#pragma once

#include <list>
#include <unordered_map>

#include "cache/cache.hpp"

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
  [[nodiscard]] std::size_t t1_bytes() const { return t1_bytes_; }
  [[nodiscard]] std::size_t t2_bytes() const { return t2_bytes_; }
  [[nodiscard]] std::size_t ghost_bytes() const {
    return b1_bytes_ + b2_bytes_;
  }

 private:
  struct Entry {
    ChunkKey key = 0;
    SharedBytes value;
  };
  struct Ghost {
    ChunkKey key = 0;
    std::size_t size = 0;  ///< bytes the entry had when evicted
  };
  enum class Where { kT1, kT2, kB1, kB2 };
  struct Locator {
    Where where;
    std::list<Entry>::iterator entry;   // kT1/kT2
    std::list<Ghost>::iterator ghost;   // kB1/kB2
  };

  /// Make room for `incoming` bytes: evict from T1 while it exceeds the
  /// adaptive target (from T2 otherwise), demoting victims to the ghost
  /// lists. `favor_t1` biases the boundary case toward evicting from T1
  /// (set on B2 ghost hits, as in the paper's REPLACE).
  void replace(std::size_t incoming, bool favor_t1);
  /// Bound the directory: B1 <= capacity - T1 (roughly), total <= 2x
  /// capacity, dropping ghost LRU entries.
  void trim_ghosts();
  void remove_ghost(std::list<Ghost>& list, std::size_t& bytes,
                    std::list<Ghost>::iterator it);
  void insert_resident(Where where, ChunkKey key, SharedBytes value);

  std::list<Entry> t1_, t2_;  // front = MRU
  std::list<Ghost> b1_, b2_;  // front = most recently evicted
  std::unordered_map<ChunkKey, Locator> index_;
  std::size_t t1_bytes_ = 0, t2_bytes_ = 0;
  std::size_t b1_bytes_ = 0, b2_bytes_ = 0;
  std::size_t target_p_ = 0;  ///< T1's byte target, in [0, capacity]
};

}  // namespace agar::cache
