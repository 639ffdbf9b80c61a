// Deterministic parallel discrete-event engine.
//
// The engine partitions the simulation's *lanes* (logical partitions — the
// runner uses one lane per client region) across N *shards*, each shard
// owning one EventLoop and one worker thread. Shards advance in
// conservative time windows: every shard executes its local events up to
// the window boundary, all shards meet at a barrier, cross-shard messages
// are drained, and only then does the next window start — so no shard can
// ever receive an event from its own past (the classic Chandy–Misra
// conservative synchronization, with the window playing the lookahead
// role).
//
// A cross-shard message is appended to the producing shard's outbox for
// the destination shard, keyed (when, origin lane, origin seq). Because
// the key is drawn from the *lane's* counter — not the shard's — the
// merged execution order every loop produces is exactly the order a single
// loop running all lanes would produce: byte-identical results for any
// shard count. A one-shard engine runs inline on the calling thread with
// no threads, barriers or outboxes, and is the reference the N-shard runs
// must match.
//
// Window protocol per window k over [k·W, (k+1)·W]:
//   1. execute: each shard runs its loop up to the boundary (k+1)·W
//   2. barrier — every producer has finished appending this window's
//      messages
//   3. drain: each shard moves every outbox addressed to it into its own
//      loop
//   4. barrier — one thread evaluates the stop predicate; all shards
//      either continue to window k+1 or stop together
//
// The barriers are the outboxes' only synchronization: an outbox is
// written by its producer in step 1 and emptied by its consumer in step 3.
#pragma once

#include <atomic>
#include <barrier>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "sim/event_loop.hpp"

namespace agar::sim {

/// Destructive-interference stride between shards. Pinned to 64 (the line
/// size on every target this builds for) instead of
/// std::hardware_destructive_interference_size: the constant is part of
/// the layout, and GCC warns that the std value can differ between TUs
/// under different tuning flags.
inline constexpr std::size_t kCacheLineSize = 64;

class ShardedEngine {
 public:
  using LaneId = EventLoop::LaneId;

  /// An event in flight between shards: the deterministic ordering key
  /// plus the event body. `lane`/`seq` always come from the *producing*
  /// lane's counter.
  struct Message {
    SimTimeMs when = 0.0;
    LaneId lane = 0;
    std::uint64_t seq = 0;
    EventLoop::Callback fn;
  };

  /// `num_shards` is clamped to [1, num_lanes] — a shard without lanes
  /// would only burn a thread on empty windows.
  ShardedEngine(std::size_t num_shards, std::size_t num_lanes);

  [[nodiscard]] std::size_t num_shards() const { return shards_.size(); }
  [[nodiscard]] std::size_t num_lanes() const { return num_lanes_; }

  /// Lanes are packed round-robin so consecutive lanes land on distinct
  /// shards. The mapping must never influence results — only which thread
  /// happens to execute a lane's events.
  [[nodiscard]] std::size_t shard_of_lane(LaneId lane) const {
    return lane % shards_.size();
  }
  [[nodiscard]] EventLoop& loop_of_lane(LaneId lane) {
    return shards_[shard_of_lane(lane)]->loop;
  }

  /// Virtual time of the last completed window boundary.
  [[nodiscard]] SimTimeMs now() const { return shards_[0]->loop.now(); }

  /// Total events executed across all shards.
  [[nodiscard]] std::uint64_t events_executed() const;

  /// Messages that crossed a shard boundary (observability). Read it
  /// between runs or from the stop predicate.
  [[nodiscard]] std::uint64_t cross_shard_messages() const;

  /// Post an event to `to_lane`. Must be called from inside an event
  /// executing on this engine (the producing lane is the executing
  /// event's lane). The fire time is clamped to the end of the current
  /// window — the conservative lookahead bound — so the result cannot
  /// depend on whether the destination lane shares the producer's shard.
  void post(LaneId to_lane, SimTimeMs when, EventLoop::Callback fn);

  /// Run whole windows of `window_ms` until `stop()` is true at a window
  /// boundary or every shard is idle with no messages in flight. `stop`
  /// runs on one thread while all shards are quiescent at the barrier; it
  /// may read any lane state. The predicate is evaluated at time 0 too,
  /// mirroring the serial driver's check-before-every-window loop.
  void run_windows(SimTimeMs window_ms, const std::function<bool()>& stop);

 private:
  /// One producer's messages for one destination shard. Line-aligned so
  /// no two producers ever write one cache line.
  struct alignas(kCacheLineSize) Outbox {
    std::vector<Message> messages;
  };
  struct alignas(kCacheLineSize) Shard {
    EventLoop loop;
    SimTimeMs window_end = 0.0;
    std::vector<Outbox> outboxes;   // [destination shard]
    std::uint64_t cross_posts = 0;  // messages appended to `outboxes`
  };

  [[nodiscard]] bool all_idle() const;
  void drain_into(std::size_t shard);
  void run_inline(SimTimeMs window_ms, const std::function<bool()>& stop);
  void worker(std::size_t shard, SimTimeMs window_ms);

  std::size_t num_lanes_;
  SimTimeMs window_ms_ = 1.0;  ///< set by run_windows; post()'s clamp grid
  std::vector<std::unique_ptr<Shard>> shards_;

  // Per-run coordination (workers + the barrier completion step).
  std::function<bool()> stop_;
  bool stop_flag_ = false;
  std::atomic<bool> failed_{false};
  std::exception_ptr error_;
  std::unique_ptr<std::barrier<>> window_done_;
  struct DrainCompletion {
    ShardedEngine* engine;
    void operator()() noexcept { engine->on_window_complete(); }
  };
  std::unique_ptr<std::barrier<DrainCompletion>> drain_done_;
  void on_window_complete() noexcept;
};

}  // namespace agar::sim
