// Discrete-event simulation core.
//
// The reproduction replaces the paper's AWS deployment with a deterministic
// discrete-event simulation: clients, periodic reconfigurations and latency
// probes are all events on one virtual timeline. Events fire in
// (timestamp, lane, sequence) order, where a *lane* is the logical
// partition (client region) that scheduled the event and the sequence is a
// per-lane insertion counter. Lanes make the total order independent of
// how lanes are packed onto shards, so the sharded engine
// (sim/sharded_engine.hpp) produces byte-identical results for any shard
// count; a plain single-loop run is simply the one-lane special case.
//
// Hot-path design: every event, one-shot or periodic-timer firing, lives
// in one 4-ary min-heap over a reserved contiguous vector — half the depth
// of a binary heap and hole-based sifting, so a push or pop moves each
// displaced event once instead of swapping it; events are moved in and
// out, never copied. A periodic timer keeps its callback in a record keyed
// by its TimerId; each firing is an ordinary heap event whose callback is
// a 16-byte [this, id] thunk, which std::function stores inline, so arming
// and re-arming allocate nothing. Cancelling erases the record: a firing
// already in the heap still pops at its time, as a counted no-op.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"

namespace agar::sim {

class EventLoop {
 public:
  using Callback = std::function<void()>;
  /// Handle identifying one periodic timer. Never reused within a loop.
  using TimerId = std::uint64_t;
  /// Logical partition that owns an event's ordering key. Single-loop
  /// callers never touch lanes and everything lands on lane 0.
  using LaneId = std::uint32_t;

  EventLoop() { heap_.reserve(kDefaultReserve); }
  // Armed timer firings hold `this`.
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Current virtual time (ms). Starts at 0.
  [[nodiscard]] SimTimeMs now() const { return now_; }

  /// Schedule `fn` to run at absolute time `when` (>= now, clamped).
  void schedule_at(SimTimeMs when, Callback fn);

  /// Schedule `fn` to run `delay` ms from now.
  void schedule_in(SimTimeMs delay, Callback fn);

  /// Schedule `fn` every `period` ms, first firing at now + period.
  /// The callback returns true to keep the timer armed, false to cancel.
  /// The returned handle can cancel the timer from outside (or from within
  /// the callback itself); a firing already armed when the timer is
  /// cancelled becomes a no-op and does not re-arm.
  /// Throws std::invalid_argument if `period` is not strictly positive.
  TimerId schedule_periodic(SimTimeMs period, std::function<bool()> fn);

  /// Cancel a periodic timer. Returns true if it was still armed. Safe to
  /// call from inside the timer's own callback and idempotent.
  bool cancel(TimerId id);

  /// Is the periodic timer still armed?
  [[nodiscard]] bool timer_active(TimerId id) const {
    return timers_.contains(id);
  }

  /// Number of armed periodic timers (leak detection in tests).
  [[nodiscard]] std::size_t active_timer_count() const {
    return timers_.size();
  }

  /// Run until the queue is empty or until the optional time horizon.
  void run();
  void run_until(SimTimeMs horizon);

  /// Execute exactly one event. Returns false if the queue was empty.
  /// Lets callers interleave with the loop (the synchronous read wrapper
  /// drives the shared loop one event at a time until its read completes).
  bool step();

  /// Number of events executed so far (observability for tests).
  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }

  /// True once nothing is queued. A cancelled timer's pending firing
  /// still counts until it pops; the sharded engine's idle check relies
  /// on that.
  [[nodiscard]] bool empty() const { return heap_.empty(); }

  /// Pre-size the event heap (the runner sizes it from the op budget).
  void reserve(std::size_t events) {
    if (events > heap_.capacity()) heap_.reserve(events);
  }

  // ---- Lane protocol (used by the sharded engine; see the file comment).

  /// Lane stamped on events scheduled right now. While an event executes
  /// this is the executing event's lane, so causally-derived events inherit
  /// it; the engine sets it explicitly around per-lane setup code.
  [[nodiscard]] LaneId scheduling_lane() const { return lane_; }
  void set_scheduling_lane(LaneId lane) { lane_ = lane; }

  /// Draw the next per-lane sequence number. The engine uses this to key
  /// cross-shard messages from the producing lane's counter so the total
  /// order matches what a single loop running all lanes would produce.
  [[nodiscard]] std::uint64_t allocate_seq(LaneId lane);

  /// Insert an event with an explicit, pre-allocated ordering key. Used
  /// when draining cross-shard outboxes; `when` is still clamped to >= now.
  void schedule_keyed(SimTimeMs when, LaneId lane, std::uint64_t seq,
                      Callback fn);

 private:
  static constexpr std::size_t kDefaultReserve = 256;

  struct Event {
    SimTimeMs when;
    LaneId lane;
    std::uint64_t seq;  // per-lane insertion order; deterministic tie-break
    Callback fn;
  };
  /// Total event order: does `a` fire before `b`? (when, lane, seq).
  static bool earlier(const Event& a, const Event& b) {
    if (a.when != b.when) return a.when < b.when;
    if (a.lane != b.lane) return a.lane < b.lane;
    return a.seq < b.seq;
  }

  struct TimerRecord {
    std::function<bool()> fn;
    SimTimeMs period;
  };

  void push_event(Event event);
  /// Remove and return the earliest heap event (heap must be non-empty).
  Event pop_top();
  /// Execute the earliest event if it fires at or before `horizon`.
  bool advance_one(SimTimeMs horizon);
  /// Push timer `id`'s next firing, keyed on `lane`'s counter.
  void arm_timer(TimerId id, SimTimeMs when, LaneId lane);
  void fire_timer(TimerId id);

  SimTimeMs now_ = 0.0;
  LaneId lane_ = 0;
  std::uint64_t executed_ = 0;
  TimerId next_timer_ = 1;
  std::vector<std::uint64_t> seqs_ = {0};
  std::vector<Event> heap_;
  std::unordered_map<TimerId, TimerRecord> timers_;
};

}  // namespace agar::sim
