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
#pragma once

#include <string>
#include <unordered_map>
#include <unordered_set>

#include "cache/cache.hpp"

namespace agar::cache {

class StaticConfigCache final : public CacheEngine {
 public:
  explicit StaticConfigCache(std::size_t capacity_bytes);

  [[nodiscard]] std::optional<SharedBytes> get(const std::string& key) override;
  bool put(const std::string& key, SharedBytes value) override;
  [[nodiscard]] bool contains(const std::string& key) const override;
  [[nodiscard]] std::vector<std::string> keys() const override;

  /// Keys a new configuration adds to and drops from the previous one.
  struct Churn {
    std::uint64_t added = 0;
    std::uint64_t dropped = 0;
  };

  /// Install a new configuration: the exact set of admissible keys.
  /// Resident entries outside the new set are evicted immediately; keys in
  /// the set are admitted lazily as clients put them.
  Churn install_configuration(std::unordered_set<std::string> configured);

  [[nodiscard]] bool is_configured(const std::string& key) const;
  [[nodiscard]] std::size_t configured_size() const {
    return configured_.size();
  }

 private:
  std::unordered_set<std::string> configured_;
  std::unordered_map<std::string, SharedBytes> entries_;
};

}  // namespace agar::cache
