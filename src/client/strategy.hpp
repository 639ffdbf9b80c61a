// Read strategies — the client variants of the paper's evaluation (§V-A):
// Backend (no cache), LRU-c (fixed chunks per object under an eviction
// policy), and Agar and LFU-c (a cache configured every period; LFU-c is
// Agar's strategy with the chunks per object fixed).
//
// A strategy only decides where each chunk of a read comes from: its `plan`
// fills a ReadPlan, and `start_read`, the one read executor, turns that plan
// into events on the simulation loop. Chunk fetches begin on the network
// (which enforces per-region concurrency limits), duplicate fetches
// coalesce in the strategy's in-flight table, and `done` fires at the
// virtual time the read completes — so concurrent clients genuinely overlap
// on the timeline. A thin synchronous `read(key)` wrapper drives the
// strategy's loop until the read completes (the daemon's serve path, tests
// and examples).
//
// Reads run on object ids. A read's batch state comes from a per-strategy
// SlotPool and goes back when the read completes; `plan` writes straight
// into the batch's ReadPlan, whose lists keep their capacity, and every
// callback on the fetch path captures at most 16 trivially copyable bytes
// (std::function keeps those inline), so a steady-state read allocates
// nothing.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cache/cache.hpp"
#include "client/fetch_policy.hpp"
#include "collab/peer_info.hpp"
#include "common/slot_pool.hpp"
#include "common/types.hpp"
#include "core/fetch_coordinator.hpp"
#include "core/planner.hpp"
#include "sim/event_loop.hpp"
#include "sim/network.hpp"
#include "store/backend.hpp"

namespace agar::client {

/// Where each chunk of a read comes from. All `from_cache` and
/// `from_backend` fetches happen in parallel on the latency path;
/// `async_populate` fetches and the `populate_after_read` write-backs are
/// off-path (the prototype's client performs them on a thread pool). A
/// `from_cache` chunk the cache does not hold when the read starts is
/// fetched on the latency path from its home region, after `from_backend`:
/// fixed-chunks plans name their designated chunks this way, hit or miss,
/// while Agar's plans list only resident chunks.
struct ReadPlan {
  std::vector<ChunkIndex> from_cache;
  std::vector<std::pair<ChunkIndex, RegionId>> from_backend;
  /// Every chunk neither list above names, in the order the executor tries
  /// them when an arm's region is down or its fetch fails: cheapest first
  /// by the network's expected latency.
  std::vector<std::pair<ChunkIndex, RegionId>> fallbacks;
  std::vector<ChunkIndex> async_populate;
  std::vector<ChunkIndex> populate_after_read;
  /// False: the write-back skips populate_after_read chunks the cache
  /// holds when the read completes (fixed-chunks plans, so a hit keeps its
  /// recency). True: every listed chunk is put.
  bool populate_resident = true;
  double monitor_overhead_ms = 0.0;

  [[nodiscard]] std::size_t chunks_on_path() const {
    return from_cache.size() + from_backend.size();
  }
  /// Reset to an empty plan, keeping the lists' capacity.
  void clear();
};

struct ReadResult {
  SimTimeMs latency_ms = 0.0;
  std::size_t cache_chunks = 0;    ///< chunks served by the local cache
  std::size_t backend_chunks = 0;  ///< chunks fetched from backend regions
  std::size_t coalesced_chunks = 0;///< chunk fetches joined to in-flight ones
  bool full_hit = false;           ///< every chunk came from the cache
  bool partial_hit = false;        ///< at least one chunk came from the cache
  bool verified = false;           ///< payload decoded and checked (verify mode)
  /// Fewer than k chunks could be assembled (outage exhausted every
  /// fallback): the object is unreadable right now. No decode happened;
  /// latency_ms is the time until exhaustion. Runners count these as
  /// failed reads instead of latency samples.
  bool failed = false;
  /// The read completed, but not on its planned path: at least one arm
  /// failed (down region, abort, or an exhausted fetch policy) and a
  /// fallback chunk was decoded instead. These count as successes with
  /// their real (inflated) latency — the paper's motivation for caching
  /// under failure — but are surfaced separately.
  bool degraded = false;
};

/// Shared context every strategy needs.
struct ClientContext {
  const store::BackendCluster* backend = nullptr;
  sim::Network* network = nullptr;
  /// Codec used for client-side decodes (verify mode). Null means the
  /// backend's shared codec; lane-parallel runs install a per-lane clone
  /// so the decode-plan cache is never shared across shard threads.
  const ec::ObjectCodec* codec = nullptr;
  /// Loop that reads, population downloads and the control plane run on;
  /// required. The network must be bound to the same loop.
  sim::EventLoop* loop = nullptr;
  RegionId region = 0;
  /// Simulated decode cost: ms per MB of object decoded (CPU time of the
  /// Reed-Solomon decode on the client, paper's clients decode after k
  /// chunks arrive).
  double decode_ms_per_mb = 10.0;
  /// When true, reads move real bytes and RS-decode them; tests use this.
  /// Benches leave it off: latency math is identical, wall-clock far lower.
  bool verify_data = false;
  /// Fault-tolerant fetch wrapper (timeouts/retries/hedging). Null means
  /// the historical fail-fast path: the coordinator talks to the raw
  /// network directly. Shared because the runner also reads its stats.
  std::shared_ptr<FetchPolicy> fetch_policy;
};

class ReadStrategy {
 public:
  /// Completion callback of one read; fires on the loop at the virtual
  /// time the read finishes (last chunk + decode + monitor overhead).
  using ReadCallback = std::function<void(const ReadResult&)>;

  explicit ReadStrategy(ClientContext ctx);
  virtual ~ReadStrategy();
  // Fetch callbacks and the coordinator's transport hold `this`.
  ReadStrategy(const ReadStrategy&) = delete;
  ReadStrategy& operator=(const ReadStrategy&) = delete;

  /// Start one asynchronous read of a registered object: the one read
  /// executor, so the systems under comparison differ only in what they
  /// plan and cache. It plans the read into its batch with `plan`, then
  /// runs the plan on the loop and invokes `done` exactly once when the
  /// read completes. Resident `from_cache` chunks ride one cache arm in
  /// parallel with the `from_backend` arms; a `from_cache` chunk that is
  /// not resident is fetched from its home region after `from_backend`.
  /// The plan's fallbacks, in order, replace an arm whose region is down
  /// or whose fetch fails. Decode and monitor/proxy overhead are charged
  /// after the last arrival, the plan's populations run off the latency
  /// path, and in verify mode the chunks are decoded and checked before
  /// `done` fires. A plan with cache chunks or populations needs the
  /// strategy's cache (`engine_`).
  void start_read(ObjectId object, ReadCallback done);
  /// The same by key; throws std::out_of_range for an unknown key.
  void start_read(const ObjectKey& key, ReadCallback done);

  /// Where each chunk of a read of `object` comes from, and which chunks
  /// replace a failed arm (`ReadPlan::fallbacks`), into `out` (empty on
  /// entry). The strategy's only part in a read. It must not start a
  /// read: it runs while the executor holds a reference into its batch.
  virtual void plan(ObjectId object, ReadPlan& out) = 0;

  /// Thin synchronous wrapper: starts the read and drives the loop until
  /// it completes. Other events (timers, populations, other clients'
  /// fetches) interleave as they would in a full run.
  [[nodiscard]] ReadResult read(ObjectId object);
  [[nodiscard]] ReadResult read(const ObjectKey& key);

  /// Start the periodic control plane (the Agar strategy's
  /// reconfigurations) on the loop. Called once, after warm-up and the
  /// collab tier's attach; strategies without a control plane do nothing.
  virtual void start_control_plane() {}

  /// Warm-up before measurement starts (latency probes etc.).
  virtual void warm_up() {}

  /// In-flight table: one wire fetch per chunk regardless of how many
  /// concurrent reads/populations want it.
  [[nodiscard]] core::FetchCoordinator& fetch_coordinator() {
    return fetcher_;
  }

  /// The fault-tolerant fetch policy wrapping this strategy's wire fetches,
  /// or null on the fail-fast path (runner telemetry).
  [[nodiscard]] const FetchPolicy* fetch_policy() const {
    return ctx_.fetch_policy.get();
  }

  // ------------------------------------------- cooperative cache tier
  // Installed by collab::CollabRuntime::attach between construction and
  // start_control_plane; never called on the collab=none path, so the
  // historical wire path stays byte-identical.

  /// Peer-fetch routing: picks the region a wire fetch should actually go
  /// to (the chunk's home region when no peer cache is cheaper).
  using CollabRoute =
      std::function<RegionId(const ChunkId&, RegionId home, std::size_t)>;
  /// Completion accounting for the tier: (target, home, bytes, success).
  using CollabDone =
      std::function<void(RegionId, RegionId, std::size_t, bool)>;

  /// Put the collab tier on every later wire fetch (see wire_fetch): the
  /// route picks the target and `done` accounts for the outcome.
  void enable_collab(CollabRoute route, CollabDone done);

  /// Observer fired after every completed reconfiguration (the collab tier
  /// appends the installed configuration to the Paxos config log). Only
  /// strategies with a periodic control plane ever invoke it.
  void set_reconfigure_observer(std::function<void()> observer) {
    on_reconfigure_ = std::move(observer);
  }

  /// Broadcastable snapshot of this strategy's cache state (configured
  /// chunks). Default: an empty snapshot — strategies without
  /// a configured cache still participate in the broadcast protocol so
  /// determinism is uniform, they just never attract peer fetches.
  [[nodiscard]] virtual collab::PeerInfo collab_info() { return {}; }

  // ------------------------------------------------ observability hooks
  // The runner snapshots end-of-run state through these instead of
  // dynamic_casting to concrete types, so strategies added through the
  // api registry are observable without runner edits.

  /// The cache engine serving this strategy, if any (null: uncached).
  [[nodiscard]] const cache::CacheEngine* cache_engine() const {
    return engine_;
  }

  /// Configured objects per option weight (Agar's Fig. 10 data), sorted by
  /// weight; empty for strategies without a weighted configuration.
  [[nodiscard]] virtual std::map<std::size_t, std::size_t>
  config_weight_histogram() const {
    return {};
  }

  /// Control-plane telemetry (reconfiguration count, planner time, config
  /// churn); zeros for strategies without a periodic control plane.
  [[nodiscard]] virtual core::ControlPlaneStats control_plane_stats() const {
    return {};
  }

 protected:
  /// Population download as a background event (paper §IV-A: "caching items
  /// implies downloading them a priori"): fetch one chunk from its backend
  /// region through the coalescing table and install it in the cache when
  /// the transfer lands. Off the latency path. No-op if already resident.
  void populate_chunk_async(const ChunkId& chunk);

  /// Payload to install for a populated chunk (in verify mode, a shared
  /// handle to the backend's buffer — no copy).
  [[nodiscard]] SharedBytes population_payload(const ChunkId& chunk,
                                               std::size_t chunk_size) const;

  /// Every chunk of `object` by expected fetch latency, cheapest first
  /// (deterministic tie-break on region then index). Valid until the next
  /// call.
  const std::vector<std::pair<ChunkIndex, RegionId>>&
  chunks_by_expected_latency(ObjectId object);

  ClientContext ctx_;
  core::FetchCoordinator fetcher_;
  /// The cache the strategy reads and populates (null: uncached). Set by
  /// the concrete strategy, which owns it.
  cache::CacheEngine* engine_ = nullptr;
  /// Fired after each completed reconfiguration (collab config log).
  std::function<void()> on_reconfigure_;
  /// Memoized zero buffer for latency-only cache populations: every
  /// populated chunk of one size shares it (refcount bump per put).
  mutable SharedBytes zero_payload_;

 private:
  /// Decode-cost model.
  [[nodiscard]] double decode_ms(std::size_t object_bytes) const;

  /// Verify mode: decode the read's chunks (cache hits and fetched backend
  /// chunks) into decode_buffer_ and compare it with the store's data
  /// chunks. False when a row differs or a data chunk is missing.
  [[nodiscard]] bool verify_payload(ObjectId object, std::size_t object_size,
                                    const std::vector<ec::Chunk>& chunks);

  /// Verify mode: the lane's one decode buffer, reused across reads (it
  /// keeps its capacity, so a steady-state read allocates no object-sized
  /// buffer). Each lane owns its strategy, so shard threads never share it.
  Bytes decode_buffer_;

  /// One read's fetch batch: its backend arms plus the optional cache arm.
  /// The functions below name a batch by its slot in `batches_`.
  struct BatchState;
  /// Issue on-path/fallback fetches until `want` arms are in flight.
  void batch_issue(std::uint32_t b);
  /// One backend arm landed (a latency) or died (nullopt: try a fallback).
  void batch_arm_landed(std::uint32_t b, ChunkIndex index,
                        std::optional<SimTimeMs> latency);
  /// One arm finished; once all have, schedule the read's completion.
  void batch_arm_done(std::uint32_t b);
  /// The read completes: populations, verify, then `done`, with the batch
  /// back in the pool.
  void batch_finish(std::uint32_t b);
  /// A population download of `chunk` landed.
  void population_landed(const ChunkId& chunk);

  /// The coordinator's transport: every wire fetch passes through here.
  /// Layering per fetch: coalescing table -> collab route (once
  /// enable_collab ran: the peer or the home region) -> fetch policy
  /// (retry/hedge/timeout against the chosen target) or, without one, the
  /// network. So retries, hedges and timeouts compose with redirected
  /// transfers, and a failed peer arm falls back through the executor's
  /// degraded-read machinery.
  bool wire_fetch(const ChunkId& chunk, RegionId from, RegionId to,
                  std::size_t bytes, core::FetchCoordinator::Callback cb);

  /// One wire fetch the collab tier routed, until it lands.
  struct RoutedFetch {
    core::FetchCoordinator::Callback cb;
    RegionId target = 0;
    RegionId home = 0;
    std::size_t bytes = 0;
  };
  /// A routed fetch landed: account for its final outcome (after any
  /// retries, so a peer hit means the transfer landed), then pass it on.
  void collab_landed(std::uint32_t slot, std::optional<SimTimeMs> latency);

  CollabRoute collab_route_;
  CollabDone collab_done_;
  SlotPool<RoutedFetch> routed_fetches_;

  /// A read holds one batch until it completes; a freed batch keeps its
  /// lists' capacity.
  SlotPool<BatchState> batches_;
  /// start_read's sampled cache-chunk latencies.
  std::vector<SimTimeMs> cache_latencies_;
  /// chunks_by_expected_latency's result and its per-region estimates.
  std::vector<std::pair<ChunkIndex, RegionId>> candidates_;
  std::vector<SimTimeMs> region_ms_;
};

}  // namespace agar::client
