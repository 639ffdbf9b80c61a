// The paper's LFU-c baseline (§V-A): "reads content via a cache that stores
// a predefined number of erasure-coded chunks and supports the Least
// Frequently Used cache replacement policy. This client includes an
// additional proxy component that tracks request frequency for each
// object" — with the same 30-second reconfiguration period as Agar.
//
// Concretely: a request-frequency proxy (the same EWMA request monitor Agar
// uses) ranks objects each period; the cache is then statically configured
// to hold the c most-distant needed chunks of the most frequent objects, as
// many as fit. It is exactly Agar minus the knapsack: fixed per-object
// weight, popularity-ranked admission, identical planning/population
// machinery — which makes the Fig. 6 comparison isolate the contribution
// of the optimization itself.
//
// (An eviction-driven LFU cache engine — instant adaptation, cumulative
// frequencies — is available separately as the registered "lfu-eviction"
// system for the baseline-strength ablation.)
#pragma once

#include <map>
#include <memory>

#include "cache/static_cache.hpp"
#include "client/strategy.hpp"
#include "core/region_manager.hpp"
#include "core/request_monitor.hpp"

namespace agar::client {

struct LfuConfigParams {
  std::size_t chunks_per_object = 9;  ///< the "c" in LFU-c
  std::size_t cache_capacity_bytes = 10_MB;
  SimTimeMs reconfig_period_ms = 30'000.0;
  double ewma_alpha = 0.8;
  double proxy_overhead_ms = 0.5;  ///< the frequency proxy is on-path
};

class LfuConfigStrategy final : public ReadStrategy {
 public:
  LfuConfigStrategy(ClientContext ctx, LfuConfigParams params);

  void start_read(const ObjectKey& key, ReadCallback done) override;
  [[nodiscard]] std::string name() const override;

  void warm_up() override;
  void start_control_plane() override;

  /// One reconfiguration through the periodic pipeline: an asynchronous
  /// probe round, then the configuration is applied once it lands. Run the
  /// loop to complete it.
  void start_reconfiguration();

  [[nodiscard]] cache::StaticConfigCache& cache() { return cache_; }
  [[nodiscard]] const cache::CacheEngine* cache_engine() const override {
    return &cache_;
  }
  [[nodiscard]] core::RequestMonitor& monitor() { return monitor_; }
  [[nodiscard]] const LfuConfigParams& params() const { return params_; }

 private:
  /// The c most-distant of the k needed chunks of `key` (most distant
  /// first), per the live latency estimates.
  [[nodiscard]] std::vector<ChunkIndex> designated_chunks(
      const ObjectKey& key) const;

  /// Rank by popularity, install the configuration, start populations.
  void apply_configuration();

  LfuConfigParams params_;
  cache::StaticConfigCache cache_;
  core::RegionManager region_manager_;
  core::RequestMonitor monitor_;
  /// Chunk sets installed at the last reconfiguration, per object.
  /// Key-ordered: the population loop iterates it, and fetch issue order
  /// becomes event sequence order.
  std::map<ObjectKey, std::vector<ChunkIndex>> configured_;
};

}  // namespace agar::client
