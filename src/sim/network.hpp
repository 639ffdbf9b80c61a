// Simulated wide-area network with failure injection.
//
// The network wraps the latency model, tracks region liveness, and — when
// bound to an event loop — serves chunk fetches asynchronously: a fetch is
// an event whose completion fires on the loop after the sampled latency.
// Each destination region admits a bounded number of outstanding requests
// (the paper's storage nodes have finite service capacity); excess fetches
// wait in a per-region FIFO, so contention shows up as queueing latency
// instead of being invisible to the virtual timeline.
//
// The synchronous `backend_fetch` (returning a latency number) serves the
// warm-up probe round before measurement and the Paxos proposer's RTT
// samples; reads, population downloads and the control plane's periodic
// probes all go through `begin_fetch`.
//
// Every asynchronous fetch is a record in one SlotPool and sits on one of
// its destination region's two SlotLists: the FIFO, or the wire. Both
// keep issue order, whichever slots the records occupy, so fail_region
// fails fetches in the order they were issued. A completion event names
// its record's slot and transfer number; an aborted or freed record holds
// none, so its event is a no-op. Every event captures 16 bytes or less,
// which std::function keeps inline.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/slot_pool.hpp"
#include "common/types.hpp"
#include "sim/event_loop.hpp"
#include "sim/latency_model.hpp"

namespace agar::sim {

/// What one network partition counted. Failed fetches are split by mode:
/// aborted on the wire by `fail_region`, failed while waiting in a region
/// FIFO, or timed out on the wire (gray drop: the response was lost and
/// the requester heard nothing until drop_latency_mult× the transfer
/// time).
struct NetworkStats {
  std::uint64_t wire_fetches = 0;    ///< transfers put on the wire
  std::uint64_t queued_fetches = 0;  ///< fetches that waited in a FIFO
  std::size_t max_queue_depth = 0;   ///< deepest per-region FIFO
  std::size_t max_in_flight = 0;     ///< peak concurrent wire transfers
  std::uint64_t aborted_on_wire = 0;
  std::uint64_t failed_in_queue = 0;
  std::uint64_t timed_out = 0;

  /// Fold in another lane's partition. Lanes run side by side, so their
  /// in-flight peaks add; a FIFO belongs to one partition, so its depth
  /// is a max.
  void merge(const NetworkStats& other) {
    wire_fetches += other.wire_fetches;
    queued_fetches += other.queued_fetches;
    max_queue_depth = std::max(max_queue_depth, other.max_queue_depth);
    max_in_flight += other.max_in_flight;
    aborted_on_wire += other.aborted_on_wire;
    failed_in_queue += other.failed_in_queue;
    timed_out += other.timed_out;
  }
};

class Network {
 public:
  /// Completion callback of one asynchronous fetch: the wire latency the
  /// transfer took (excluding any time spent queued), or nullopt if the
  /// destination region went down while the fetch waited in the queue.
  using FetchCallback = std::function<void(std::optional<SimTimeMs>)>;

  explicit Network(LatencyModel model) : model_(std::move(model)) {
    region_states_.resize(model_.topology().num_regions());
  }
  // Completion events hold `this`.
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  [[nodiscard]] const Topology& topology() const { return model_.topology(); }
  [[nodiscard]] LatencyModel& model() { return model_; }

  /// Bind the loop that completion events are scheduled on. Must be called
  /// before `begin_fetch`. Rebinding is allowed only while no fetches are
  /// outstanding.
  void bind_loop(EventLoop* loop);
  [[nodiscard]] EventLoop* loop() const { return loop_; }

  /// Per-destination-region cap on concurrently served fetches. Excess
  /// fetches queue FIFO. 0 means unlimited.
  void set_max_outstanding_per_region(std::size_t limit) {
    max_outstanding_per_region_ = limit;
  }

  /// Start one asynchronous backend fetch. Returns false (and never calls
  /// `cb`) if `to` is down right now — callers substitute a fallback
  /// immediately, mirroring the synchronous path's skip-down-regions
  /// semantics. Otherwise the fetch is served or queued and `cb` fires on
  /// the loop when the transfer completes.
  bool begin_fetch(RegionId from, RegionId to, std::size_t bytes,
                   FetchCallback cb);

  /// Failure injection: a down region refuses new fetches until restored,
  /// transfers already on the wire are aborted (their observers hear
  /// nullopt now, not at the transfer's original completion time), and
  /// entries waiting in the region's FIFO fail immediately instead of
  /// stranding until an unrelated completion drains them.
  void fail_region(RegionId r);
  /// Bring a region back. A proper inverse of `fail_region`: idempotent,
  /// and it verifies the downed region held no stranded wire or FIFO state
  /// (anything left would never drain — a restored region only hands out
  /// slots on completions, and aborted transfers have none coming).
  /// Fetches aborted by `fail_region` stay failed — their completion
  /// events are already dead and cannot resurrect.
  void restore_region(RegionId r);
  /// `r` must be a region of the topology, as for every call here.
  [[nodiscard]] bool is_down(RegionId r) const {
    return region_states_[r].down;
  }
  [[nodiscard]] std::size_t down_count() const {
    return static_cast<std::size_t>(
        std::count_if(region_states_.begin(), region_states_.end(),
                      [](const RegionState& rs) { return rs.down; }));
  }

  /// Latency for one backend chunk fetch, or nullopt if `to` is down.
  /// Synchronous path: the warm-up probe round and Paxos RTT samples.
  [[nodiscard]] std::optional<SimTimeMs> backend_fetch(RegionId from,
                                                       RegionId to,
                                                       std::size_t bytes);

  /// Latency of one region-local cache fetch (the cache co-resides with the
  /// client's region, so it never fails in this model).
  [[nodiscard]] SimTimeMs cache_fetch(std::size_t bytes);

  /// Completion time of a parallel batch: max of the elements, 0 if empty
  /// (the cache arm of a read: its cache-resident chunks in parallel).
  [[nodiscard]] static SimTimeMs parallel_batch_ms(
      const std::vector<SimTimeMs>& latencies);

  // ------------------------------------------------------- observability
  [[nodiscard]] const NetworkStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t in_flight() const { return total_outstanding_; }
  [[nodiscard]] std::size_t outstanding(RegionId r) const {
    return region_states_[r].wire.size();
  }
  [[nodiscard]] std::size_t queue_depth(RegionId r) const {
    return region_states_[r].fifo.size();
  }

 private:
  /// One asynchronous fetch, queued or on the wire.
  struct Fetch {
    FetchCallback cb;
    RegionId from = 0;
    RegionId to = 0;
    std::size_t bytes = 0;
    SimTimeMs latency_ms = 0.0;  ///< on the wire: the sampled transfer
    bool dropped = false;        ///< on the wire: the response is lost
    /// On the wire: the transfer's number, which its completion event
    /// carries. 0 while queued, once aborted and once freed, so an event
    /// that finds another number is stale.
    std::uint32_t transfer = 0;
    SlotLinks links;  ///< on the region's wire or FIFO list
  };
  using FetchList = SlotList<Fetch>;
  struct RegionState {
    FetchList wire;  ///< in the order they went on the wire
    FetchList fifo;  ///< waiting for a slot, in issue order
    bool down = false;
  };

  /// Free a record's slot, handing back its callback.
  FetchCallback free_fetch(std::uint32_t f);

  void start_wire(std::uint32_t f);
  /// Completion event of transfer number `transfer`, in slot `f`.
  void wire_done(std::uint32_t f, std::uint32_t transfer);
  /// Hand freed slots to the FIFO head(s) after a completion.
  void drain_queue(RegionId to);
  /// Fail every fetch on `list`, oldest first, charging each to the
  /// failure-mode `counter`.
  void fail_list(FetchList& list, std::uint64_t& counter);

  LatencyModel model_;
  EventLoop* loop_ = nullptr;  // non-owning
  std::vector<RegionState> region_states_;  ///< by topology region
  SlotPool<Fetch> fetches_;
  std::uint32_t transfers_ = 0;  ///< the last transfer number handed out
  std::size_t max_outstanding_per_region_ = 64;
  std::size_t total_outstanding_ = 0;
  NetworkStats stats_;
};

}  // namespace agar::sim
