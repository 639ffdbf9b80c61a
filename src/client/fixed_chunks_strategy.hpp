// Fixed-chunks strategies — LRU-c / LFU-c and friends (paper §V-A): a
// cache that "stores a predefined number of erasure-coded chunks for each
// data record" under a replacement/admission policy. The client always
// designates the c most distant of the k needed chunks (the motivating
// experiment of §II-C caches most distant first). Each read plans the
// designated chunks from the cache and the other k − c from the backend;
// the shared executor fetches a designated chunk the engine does not hold
// from its home region. After the read the strategy (re-)inserts the
// designated chunks the engine does not hold, letting the policy evict.
//
// The policy is any engine in api::EngineRegistry, looked up
// by name — registering a new engine ("arc", ...) makes it a runnable
// system with zero edits here or in the runner/CLI/bench plumbing.
#pragma once

#include <memory>
#include <string>

#include "cache/cache.hpp"
#include "client/strategy.hpp"

namespace agar::client {

struct FixedChunksParams {
  std::string engine = "lru";         ///< cache-engine registry name
  std::size_t chunks_per_object = 9;  ///< the "c" in LRU-c / LFU-c
  std::size_t cache_capacity_bytes = 10_MB;
  /// Frequency-tracking proxies (the paper's LFU client) sit on the
  /// request path; charge their processing like Agar's 0.5 ms monitor.
  double proxy_overhead_ms = 0.0;
};

class FixedChunksStrategy final : public ReadStrategy {
 public:
  /// `engine` is the already-built cache engine (the api registration
  /// creates it from the registry; tests may inject any engine directly).
  FixedChunksStrategy(ClientContext ctx, FixedChunksParams params,
                      std::unique_ptr<cache::CacheEngine> engine);

  /// The c most distant of the k cheapest chunks from the cache (hit or
  /// miss) and written back after the read, the rest of the k from the
  /// backend; the other m are the fallbacks.
  void plan(ObjectId object, ReadPlan& out) override;

  [[nodiscard]] const FixedChunksParams& params() const { return params_; }

 private:
  FixedChunksParams params_;
  std::unique_ptr<cache::CacheEngine> cache_;
};

}  // namespace agar::client
