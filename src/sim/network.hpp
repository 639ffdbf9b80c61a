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
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <unordered_set>
#include <vector>

#include "common/types.hpp"
#include "sim/event_loop.hpp"
#include "sim/latency_model.hpp"

namespace agar::sim {

class Network {
 public:
  /// Completion callback of one asynchronous fetch: the wire latency the
  /// transfer took (excluding any time spent queued), or nullopt if the
  /// destination region went down while the fetch waited in the queue.
  using FetchCallback = std::function<void(std::optional<SimTimeMs>)>;

  explicit Network(LatencyModel model) : model_(std::move(model)) {
    region_states_.resize(model_.topology().num_regions());
  }

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
  [[nodiscard]] std::size_t max_outstanding_per_region() const {
    return max_outstanding_per_region_;
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
  [[nodiscard]] bool is_down(RegionId r) const { return down_.contains(r); }
  [[nodiscard]] std::size_t down_count() const { return down_.size(); }

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
  [[nodiscard]] std::uint64_t wire_fetches() const { return wire_fetches_; }
  [[nodiscard]] std::uint64_t queued_fetches() const {
    return queued_fetches_;
  }
  [[nodiscard]] std::size_t max_queue_depth() const {
    return max_queue_depth_;
  }
  [[nodiscard]] std::size_t max_in_flight() const { return max_in_flight_; }
  [[nodiscard]] std::size_t in_flight() const { return total_outstanding_; }
  [[nodiscard]] std::size_t outstanding(RegionId r) const {
    return region_states_[r].wire.size();
  }
  [[nodiscard]] std::size_t queue_depth(RegionId r) const {
    return region_states_[r].fifo.size();
  }
  /// Fetches that completed with nullopt, by failure mode: aborted on the
  /// wire by `fail_region`, failed while waiting in a region FIFO, or
  /// timed out on the wire (gray drop: the response was lost and the
  /// requester heard nothing until drop_latency_mult× the transfer time).
  [[nodiscard]] std::uint64_t aborted_on_wire() const {
    return aborted_on_wire_;
  }
  [[nodiscard]] std::uint64_t failed_in_queue() const {
    return failed_in_queue_;
  }
  [[nodiscard]] std::uint64_t timed_out() const { return timed_out_; }

 private:
  struct PendingFetch {
    RegionId from;
    std::size_t bytes;
    FetchCallback cb;
  };
  struct RegionState {
    /// In-flight wire transfers by issue id (ordered, so fail_region
    /// aborts them deterministically in issue order). A completion event
    /// whose id is gone was aborted and is a no-op.
    std::map<std::uint64_t, FetchCallback> wire;
    std::deque<PendingFetch> fifo;
  };

  void start_wire(RegionId to, PendingFetch pending);
  /// Hand freed slots to the FIFO head(s) after a completion.
  void drain_queue(RegionId to);
  /// Deliver one failure asynchronously (like a timeout), charging it to
  /// the given failure-mode counter.
  void deliver_failure(FetchCallback cb, std::uint64_t& counter);

  LatencyModel model_;
  EventLoop* loop_ = nullptr;  // non-owning
  std::unordered_set<RegionId> down_;
  std::vector<RegionState> region_states_;
  std::size_t max_outstanding_per_region_ = 64;
  std::size_t total_outstanding_ = 0;
  std::size_t max_in_flight_ = 0;
  std::size_t max_queue_depth_ = 0;
  std::uint64_t next_wire_id_ = 1;
  std::uint64_t wire_fetches_ = 0;
  std::uint64_t queued_fetches_ = 0;
  std::uint64_t aborted_on_wire_ = 0;
  std::uint64_t failed_in_queue_ = 0;
  std::uint64_t timed_out_ = 0;
};

}  // namespace agar::sim
