#include "sim/sharded_engine.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <thread>
#include <utility>

namespace agar::sim {

namespace {

/// Index of the shard whose events the current thread is executing, or -1
/// outside of engine-driven execution. Lets post() identify the producing
/// loop without threading an explicit context through every callback.
// agar-lint: global-ok(per-thread shard index for post() provenance; set and
// cleared by ShardScope, never part of simulation state)
thread_local std::ptrdiff_t tl_shard = -1;

struct ShardScope {
  explicit ShardScope(std::size_t shard) { tl_shard = shard; }
  ~ShardScope() { tl_shard = -1; }
};

}  // namespace

ShardedEngine::ShardedEngine(std::size_t num_shards, std::size_t num_lanes)
    : num_lanes_(std::max<std::size_t>(num_lanes, 1)) {
  const std::size_t n =
      std::clamp<std::size_t>(num_shards, 1, num_lanes_);
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>());
    shards_.back()->outboxes.resize(n);
  }
}

std::uint64_t ShardedEngine::events_executed() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->loop.events_executed();
  return total;
}

std::uint64_t ShardedEngine::cross_shard_messages() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->cross_posts;
  return total;
}

bool ShardedEngine::all_idle() const {
  for (const auto& shard : shards_) {
    if (!shard->loop.empty()) return false;
  }
  return true;
}

void ShardedEngine::post(LaneId to_lane, SimTimeMs when,
                         EventLoop::Callback fn) {
  assert(tl_shard >= 0 && "post() must run inside an engine-driven event");
  assert(to_lane < num_lanes_);
  Shard& from = *shards_[static_cast<std::size_t>(tl_shard)];
  const LaneId from_lane = from.loop.scheduling_lane();
  // Conservative lookahead: never target a time the destination shard may
  // already have passed. The bound must be a pure function of the sending
  // event's virtual time — NOT of the window the event happened to execute
  // in: an event firing exactly at a boundary runs in window k when local
  // but in window k+1 when it arrived from another shard, and using the
  // executing window's end would leak that difference into the fire time.
  const SimTimeMs now = from.loop.now();
  const SimTimeMs bound = (std::floor(now / window_ms_) + 1.0) * window_ms_;
  const SimTimeMs fire = std::max(when, bound);
  const std::uint64_t seq = from.loop.allocate_seq(from_lane);
  const std::size_t to_shard = shard_of_lane(to_lane);
  if (to_shard == static_cast<std::size_t>(tl_shard)) {
    from.loop.schedule_keyed(fire, from_lane, seq, std::move(fn));
    return;
  }
  ++from.cross_posts;
  from.outboxes[to_shard].messages.push_back(
      Message{fire, from_lane, seq, std::move(fn)});
}

void ShardedEngine::drain_into(std::size_t shard) {
  EventLoop& loop = shards_[shard]->loop;
  for (const auto& from : shards_) {
    std::vector<Message>& messages = from->outboxes[shard].messages;
    // Insertion order is irrelevant: the loop orders by (when, lane, seq)
    // and every key is unique, so the execution order is deterministic.
    for (Message& msg : messages) {
      loop.schedule_keyed(msg.when, msg.lane, msg.seq, std::move(msg.fn));
    }
    messages.clear();
  }
}

void ShardedEngine::on_window_complete() noexcept {
  try {
    stop_flag_ = failed_.load(std::memory_order_relaxed) ||
                 (stop_ && stop_()) || all_idle();
  } catch (...) {
    if (!failed_.exchange(true)) error_ = std::current_exception();
    stop_flag_ = true;
  }
}

void ShardedEngine::worker(std::size_t shard, SimTimeMs window_ms) {
  ShardScope scope(shard);
  Shard& s = *shards_[shard];
  while (true) {
    s.window_end += window_ms;
    if (!failed_.load(std::memory_order_relaxed)) {
      try {
        s.loop.run_until(s.window_end);
      } catch (...) {
        if (!failed_.exchange(true)) error_ = std::current_exception();
      }
    }
    window_done_->arrive_and_wait();  // all producers done with this window
    drain_into(shard);
    drain_done_->arrive_and_wait();   // completion step sets stop_flag_
    if (stop_flag_) break;
  }
}

void ShardedEngine::run_inline(SimTimeMs window_ms,
                               const std::function<bool()>& stop) {
  ShardScope scope(0);
  Shard& s = *shards_[0];
  while (true) {
    s.window_end += window_ms;
    s.loop.run_until(s.window_end);
    if ((stop && stop()) || all_idle()) break;
  }
}

void ShardedEngine::run_windows(SimTimeMs window_ms,
                                const std::function<bool()>& stop) {
  assert(window_ms > 0.0);
  window_ms_ = window_ms;
  // Boundary-0 check, mirroring the serial driver's check-before-window.
  if ((stop && stop()) || all_idle()) return;

  if (shards_.size() == 1) {
    run_inline(window_ms, stop);
    return;
  }

  stop_ = stop;
  stop_flag_ = false;
  failed_.store(false, std::memory_order_relaxed);
  error_ = nullptr;
  const auto n = static_cast<std::ptrdiff_t>(shards_.size());
  window_done_ = std::make_unique<std::barrier<>>(n);
  drain_done_ =
      std::make_unique<std::barrier<DrainCompletion>>(n, DrainCompletion{this});

  std::vector<std::thread> threads;
  threads.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    threads.emplace_back([this, i, window_ms] { worker(i, window_ms); });
  }
  for (std::thread& t : threads) t.join();

  stop_ = nullptr;
  window_done_.reset();
  drain_done_.reset();
  if (error_) std::rethrow_exception(error_);
}

}  // namespace agar::sim
