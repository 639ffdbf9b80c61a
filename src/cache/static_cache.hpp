// Agar-managed cache: a bounded store whose admission is gated by a
// pre-computed *static configuration* (paper §III-c/d).
//
// The cache manager periodically installs the set of chunk keys that should
// reside in the cache. That set is the one record of the configuration:
// Agar's read planning asks is_configured(), and the manager's churn
// telemetry comes from install_configuration()'s counts. Between
// reconfigurations:
//   * get() serves whatever configured chunks have been populated;
//   * put() admits ONLY configured keys (clients write chunks they fetched,
//     per the paper's client-populates-cache protocol); anything else is
//     rejected;
//   * entries that fall out of the configuration are evicted eagerly at
//     reconfiguration time.
// There is no eviction policy in the classical sense — the knapsack solver
// already decided what deserves the space.
//
// One integer-keyed table holds every configured key, resident or not, so
// a read's lookups are one probe each. Installing a configuration fills a
// second table of the same kind and swaps the two, so steady-state
// reconfigurations reuse both tables' capacity.
#pragma once

#include <vector>

#include "cache/cache.hpp"
#include "common/int_map.hpp"

namespace agar::cache {

class StaticConfigCache final : public CacheEngine {
 public:
  explicit StaticConfigCache(std::size_t capacity_bytes);

  [[nodiscard]] std::optional<SharedBytes> get(ChunkKey key) override;
  bool put(ChunkKey key, SharedBytes value) override;
  [[nodiscard]] bool contains(ChunkKey key) const override;
  /// Resident keys, ascending.
  [[nodiscard]] std::vector<ChunkKey> keys() const override;

  /// Keys a new configuration adds to and drops from the previous one.
  struct Churn {
    std::uint64_t added = 0;
    std::uint64_t dropped = 0;
  };

  /// Install a new configuration: the exact set of admissible keys (in any
  /// order; duplicates count once). Resident entries outside the new set
  /// are evicted immediately; keys in the set are admitted lazily as
  /// clients put them.
  Churn install_configuration(const std::vector<ChunkKey>& configured);

  [[nodiscard]] bool is_configured(ChunkKey key) const {
    return entries_.contains(key);
  }
  [[nodiscard]] std::size_t configured_size() const {
    return entries_.size();
  }

 private:
  struct Entry {
    SharedBytes value;
    bool resident = false;
    bool kept = false;  ///< carried into the configuration being installed
  };

  IntMap<Entry> entries_;  ///< every configured key
  IntMap<Entry> next_;     ///< install_configuration's scratch, kept empty
};

}  // namespace agar::cache
