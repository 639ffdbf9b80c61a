#include "sim/event_loop.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

namespace agar::sim {

namespace {
constexpr SimTimeMs kForever = std::numeric_limits<SimTimeMs>::infinity();
/// Heap fan-out. 4 children halve the depth of a binary heap; the extra
/// sibling compares are cheap next to moving 48-byte events an extra level.
constexpr std::size_t kHeapArity = 4;
}  // namespace

std::uint64_t EventLoop::allocate_seq(LaneId lane) {
  if (lane >= seqs_.size()) seqs_.resize(lane + 1, 0);
  return seqs_[lane]++;
}

void EventLoop::push_event(Event event) {
  // Hole-based sift-up: displaced parents move down once each; the new
  // event lands in its final slot in one move.
  heap_.emplace_back();
  std::size_t hole = heap_.size() - 1;
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / kHeapArity;
    if (!earlier(event, heap_[parent])) break;
    heap_[hole] = std::move(heap_[parent]);
    hole = parent;
  }
  heap_[hole] = std::move(event);
}

EventLoop::Event EventLoop::pop_top() {
  Event top = std::move(heap_.front());
  Event last = std::move(heap_.back());
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n > 0) {
    // Sift the hole left at the root down to where `last` belongs.
    std::size_t hole = 0;
    for (;;) {
      const std::size_t first = hole * kHeapArity + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t end = std::min(first + kHeapArity, n);
      for (std::size_t c = first + 1; c < end; ++c) {
        if (earlier(heap_[c], heap_[best])) best = c;
      }
      if (!earlier(heap_[best], last)) break;
      heap_[hole] = std::move(heap_[best]);
      hole = best;
    }
    heap_[hole] = std::move(last);
  }
  return top;
}

void EventLoop::schedule_at(SimTimeMs when, Callback fn) {
  push_event(Event{std::max(when, now_), lane_, allocate_seq(lane_),
                   std::move(fn)});
}

void EventLoop::schedule_in(SimTimeMs delay, Callback fn) {
  schedule_at(now_ + std::max(delay, 0.0), std::move(fn));
}

void EventLoop::schedule_keyed(SimTimeMs when, LaneId lane, std::uint64_t seq,
                               Callback fn) {
  push_event(Event{std::max(when, now_), lane, seq, std::move(fn)});
}

EventLoop::TimerId EventLoop::schedule_periodic(SimTimeMs period,
                                                std::function<bool()> fn) {
  if (!(period > 0.0)) {
    throw std::invalid_argument("EventLoop: periodic timer period must be > 0");
  }
  const TimerId id = next_timer_++;
  timers_.emplace(id, TimerRecord{std::move(fn), period});
  arm_timer(id, now_ + period, lane_);
  return id;
}

bool EventLoop::cancel(TimerId id) { return timers_.erase(id) > 0; }

void EventLoop::arm_timer(TimerId id, SimTimeMs when, LaneId lane) {
  Callback fire = [this, id] { fire_timer(id); };
  push_event(Event{when, lane, allocate_seq(lane), std::move(fire)});
}

void EventLoop::fire_timer(TimerId id) {
  const auto it = timers_.find(id);
  if (it == timers_.end()) return;  // cancelled while armed: no-op firing
  const LaneId lane = lane_;  // the re-arm keys on the firing's lane
  // unordered_map references survive inserts from inside the callback; the
  // record is re-looked-up afterwards because cancel() may have erased it.
  const bool keep = it->second.fn();
  const auto again = timers_.find(id);
  if (again == timers_.end()) return;  // cancelled itself: no re-arm
  if (!keep) {
    timers_.erase(again);
    return;
  }
  arm_timer(id, now_ + again->second.period, lane);
}

bool EventLoop::advance_one(SimTimeMs horizon) {
  if (heap_.empty() || heap_.front().when > horizon) return false;
  Event event = pop_top();
  now_ = event.when;
  ++executed_;
  const LaneId prev_lane = lane_;
  lane_ = event.lane;
  event.fn();
  lane_ = prev_lane;
  return true;
}

bool EventLoop::step() { return advance_one(kForever); }

void EventLoop::run() {
  while (advance_one(kForever)) {
  }
}

void EventLoop::run_until(SimTimeMs horizon) {
  while (advance_one(horizon)) {
  }
  now_ = std::max(now_, horizon);
}

}  // namespace agar::sim
