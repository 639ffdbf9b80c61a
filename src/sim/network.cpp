#include "sim/network.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace agar::sim {

void Network::bind_loop(EventLoop* loop) {
  if (loop != loop_ && total_outstanding_ > 0) {
    throw std::logic_error("Network: cannot rebind loop with fetches in flight");
  }
  loop_ = loop;
}

bool Network::begin_fetch(RegionId from, RegionId to, std::size_t bytes,
                          FetchCallback cb) {
  if (is_down(to)) return false;
  if (loop_ == nullptr) {
    throw std::logic_error("Network: begin_fetch requires a bound loop");
  }
  RegionState& rs = region_states_[to];
  PendingFetch pending{from, bytes, std::move(cb)};
  if (max_outstanding_per_region_ != 0 &&
      rs.wire.size() >= max_outstanding_per_region_) {
    rs.fifo.push_back(std::move(pending));
    ++stats_.queued_fetches;
    stats_.max_queue_depth = std::max(stats_.max_queue_depth, rs.fifo.size());
    return true;
  }
  start_wire(to, std::move(pending));
  return true;
}

void Network::start_wire(RegionId to, PendingFetch pending) {
  // Latency is sampled at wire time, not enqueue time: a fetch that waited
  // in the FIFO pays its queueing delay on top of a fresh transfer sample.
  // Under gray drop injection the sample may be a loss: the slot is held
  // (a lost response still occupies the server) and the observer hears
  // nullopt only after the inflated discovery delay.
  const FetchSample sample =
      model_.sample_backend_fetch(pending.from, to, pending.bytes);
  RegionState& rs = region_states_[to];
  const std::uint64_t id = next_wire_id_++;
  rs.wire.emplace(id, std::move(pending.cb));
  ++total_outstanding_;
  ++stats_.wire_fetches;
  stats_.max_in_flight = std::max(stats_.max_in_flight, total_outstanding_);
  loop_->schedule_in(
      sample.latency_ms,
      [this, to, id, latency = sample.latency_ms, dropped = sample.dropped] {
        RegionState& state = region_states_[to];
        const auto it = state.wire.find(id);
        if (it == state.wire.end()) {
          return;  // aborted by fail_region mid-flight
        }
        FetchCallback cb = std::move(it->second);
        state.wire.erase(it);
        --total_outstanding_;
        // Hand the freed slot to the queue head before the completion
        // callback runs, so a callback issuing a new fetch cannot jump the
        // FIFO.
        drain_queue(to);
        if (dropped) {
          ++stats_.timed_out;
          cb(std::nullopt);
        } else {
          cb(latency);
        }
      });
}

void Network::drain_queue(RegionId to) {
  // Queued entries only exist for up regions: fail_region clears the FIFO
  // and begin_fetch refuses down destinations, so no down-check is needed.
  RegionState& rs = region_states_[to];
  while (!rs.fifo.empty() &&
         (max_outstanding_per_region_ == 0 ||
          rs.wire.size() < max_outstanding_per_region_)) {
    PendingFetch next = std::move(rs.fifo.front());
    rs.fifo.pop_front();
    start_wire(to, std::move(next));
  }
}

void Network::deliver_failure(FetchCallback cb, std::uint64_t& counter) {
  // On the loop, so callers observe the failure asynchronously (like a
  // timeout), never re-entrantly from inside fail_region.
  ++counter;
  loop_->schedule_in(0.0,
                     [cb = std::move(cb)]() mutable { cb(std::nullopt); });
}

void Network::fail_region(RegionId r) {
  if (!down_.insert(r).second) return;  // already down
  RegionState& rs = region_states_[r];
  if (rs.wire.empty() && rs.fifo.empty()) return;
  // Transfers die with the region: every in-flight observer hears the
  // failure now. The already-scheduled completion events find their wire
  // ids gone and become no-ops — restoring the region cannot resurrect
  // them. Queued entries fail immediately too, instead of stranding until
  // an unrelated completion would have drained them.
  total_outstanding_ -= rs.wire.size();
  for (auto& [id, cb] : rs.wire) {
    deliver_failure(std::move(cb), stats_.aborted_on_wire);
  }
  rs.wire.clear();
  for (auto& pending : rs.fifo) {
    deliver_failure(std::move(pending.cb), stats_.failed_in_queue);
  }
  rs.fifo.clear();
}

void Network::restore_region(RegionId r) {
  if (down_.erase(r) == 0) return;  // already up: idempotent
  const RegionState& rs = region_states_[r];
  if (!rs.wire.empty() || !rs.fifo.empty()) {
    // fail_region's contract is that a downed region holds no wire or
    // queue state. Anything found here would strand forever — a restored
    // region only hands out slots on completions, and aborted transfers
    // have none coming — so a flapping region would leak a slot per cycle.
    throw std::logic_error(
        "Network: restore_region found stranded fetches for region " +
        std::to_string(r));
  }
}

std::optional<SimTimeMs> Network::backend_fetch(RegionId from, RegionId to,
                                                std::size_t bytes) {
  if (is_down(to)) return std::nullopt;
  // A synchronous caller that loses its response (gray drop) measures the
  // inflated discovery delay — probes against drop-sick regions come back
  // slow, not absent, so latency estimators see the sickness.
  return model_.sample_backend_fetch(from, to, bytes).latency_ms;
}

SimTimeMs Network::cache_fetch(std::size_t bytes) {
  return model_.cache_fetch_ms(bytes);
}

SimTimeMs Network::parallel_batch_ms(const std::vector<SimTimeMs>& latencies) {
  if (latencies.empty()) return 0.0;
  return *std::max_element(latencies.begin(), latencies.end());
}

}  // namespace agar::sim
