// Read planning: resolve every chunk of one read to a source.
//
// Every strategy hands a ReadPlan to the one read executor,
// client::ReadStrategy::start_plan. `plan_chunk_sources` plans the reads of
// a periodically configured cache: the configuration says which chunks
// belong in the cache, this decides where each read's chunks come from.
// The predicate keeps it independent of how the configuration is stored,
// so tests can plan against any chunk set.
#pragma once

#include <functional>

#include "cache/static_cache.hpp"
#include "core/region_manager.hpp"
#include "store/backend.hpp"

namespace agar::core {

/// Where each chunk of a read comes from. All `from_cache` and
/// `from_backend` fetches happen in parallel on the latency path;
/// `async_populate` fetches and the `populate_after_read` write-backs are
/// off-path (the prototype's client performs them on a thread pool). A
/// `from_cache` chunk the cache does not hold when the read starts is
/// fetched on the latency path from its home region, after `from_backend`:
/// fixed-chunks plans name their designated chunks this way, hit or miss,
/// while `plan_chunk_sources` lists only resident chunks.
struct ReadPlan {
  std::vector<ChunkIndex> from_cache;
  std::vector<std::pair<ChunkIndex, RegionId>> from_backend;
  std::vector<std::pair<ChunkIndex, RegionId>> async_populate;
  std::vector<ChunkIndex> populate_after_read;
  double monitor_overhead_ms = 0.0;

  [[nodiscard]] std::size_t chunks_on_path() const {
    return from_cache.size() + from_backend.size();
  }
};

/// Predicate: is chunk `index` of `key` part of the current configuration?
using ConfiguredChunkFn = std::function<bool(const ObjectKey&, ChunkIndex)>;

/// Build the plan for one read:
///   * resident chunks come from the cache (up to k);
///   * the remainder fills with the cheapest backend regions per the
///     region manager's live latency estimates;
///   * configured chunks that were fetched on-path are written back after
///     the read; configured chunks neither resident nor fetched are
///     downloaded asynchronously by the population pool.
[[nodiscard]] ReadPlan plan_chunk_sources(const store::BackendCluster& backend,
                                          const RegionManager& region_manager,
                                          const cache::StaticConfigCache& cache,
                                          const ConfiguredChunkFn& configured,
                                          const ObjectKey& key);

}  // namespace agar::core
