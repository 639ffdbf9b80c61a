// In-flight fetch table with duplicate coalescing (paper §IV-A's population
// pool meets the read path).
//
// Every chunk download of one Agar node — read-path fetches, post-read
// population writes and reconfiguration prefetches — funnels through this
// coordinator. If a chunk is already being downloaded, later requesters
// join the in-flight entry instead of issuing a second wire fetch; when the
// single wire transfer completes, every joined callback fires. This is the
// classic request-coalescing ("singleflight") pattern: under a skewed
// workload many concurrent reads want the same hot chunk, and without
// coalescing the simulated backends would serve the same bytes repeatedly.
//
// One coordinator serves one client region (wire latency depends on the
// requesting region, so coalescing across regions would be wrong).
//
// The in-flight table is keyed by the chunk's integer key; each entry is a
// SlotList of waiter records drawn from one SlotPool, so a steady-state
// fetch allocates nothing. Waiters fire in the order they joined.
#pragma once

#include <cstdint>
#include <functional>

#include "common/int_map.hpp"
#include "common/slot_pool.hpp"
#include "common/types.hpp"
#include "sim/network.hpp"

namespace agar::core {

/// How one fetch request was admitted.
enum class FetchStart {
  kStarted,  ///< fresh wire fetch issued to the transport
  kJoined,   ///< coalesced onto an already in-flight fetch of the chunk
  kDown,     ///< region down and nothing in flight; callback never fires
};

class FetchCoordinator {
 public:
  using Callback = sim::Network::FetchCallback;
  /// The wire layer under the table, with Network::begin_fetch's contract:
  /// return false to refuse synchronously, otherwise fire the callback
  /// exactly once on the loop. The client's transport (collab routing,
  /// then its fetch policy or the network) sits *under* the coalescing
  /// table, so retries and hedges of one chunk still count as a single
  /// in-flight entry that others join. The chunk identity is passed
  /// through so the cooperative cache tier can redirect a fetch to a peer
  /// cache that holds the chunk.
  using Transport = std::function<bool(const ChunkId&, RegionId, RegionId,
                                       std::size_t, Callback)>;

  /// Throws std::invalid_argument for an empty transport.
  explicit FetchCoordinator(Transport transport);
  // In-flight fetches' callbacks hold `this`.
  FetchCoordinator(const FetchCoordinator&) = delete;
  FetchCoordinator& operator=(const FetchCoordinator&) = delete;

  /// Fetch chunk `chunk` of size `bytes` from backend region `to` on behalf
  /// of a client in `from`. If the chunk is already in flight the request
  /// joins it (one wire fetch, every callback fires at completion).
  FetchStart fetch(const ChunkId& chunk, RegionId from, RegionId to,
                   std::size_t bytes, Callback cb);

  /// Is a fetch of this chunk currently on the wire (or queued)?
  [[nodiscard]] bool in_flight(const ChunkId& chunk) const {
    return inflight_.contains(chunk.key());
  }

  // ------------------------------------------------------- observability
  /// Wire fetches the transport accepted.
  [[nodiscard]] std::uint64_t started() const { return started_; }
  /// Requests that joined an existing in-flight fetch (deduplicated work).
  [[nodiscard]] std::uint64_t coalesced() const { return coalesced_; }

 private:
  struct Waiter {
    Callback cb;
    SlotLinks links;
  };

  /// Add a waiter holding `cb` to the end of `waiting`.
  void join(SlotList<Waiter>& waiting, Callback cb);
  /// The wire fetch of `key` landed: fire its waiters in join order.
  void complete(ChunkKey key, std::optional<SimTimeMs> latency);

  Transport transport_;
  IntMap<SlotList<Waiter>> inflight_;  ///< each chunk's waiters, oldest first
  SlotPool<Waiter> waiters_;
  std::uint64_t started_ = 0;
  std::uint64_t coalesced_ = 0;
};

}  // namespace agar::core
