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

Network::FetchCallback Network::free_fetch(std::uint32_t f) {
  FetchCallback cb = std::move(fetches_[f].cb);
  fetches_.release(f);
  return cb;
}

bool Network::begin_fetch(RegionId from, RegionId to, std::size_t bytes,
                          FetchCallback cb) {
  if (is_down(to)) return false;
  if (loop_ == nullptr) {
    throw std::logic_error("Network: begin_fetch requires a bound loop");
  }
  const std::uint32_t f = fetches_.acquire();
  Fetch& fetch = fetches_[f];
  fetch.cb = std::move(cb);
  fetch.from = from;
  fetch.to = to;
  fetch.bytes = bytes;
  RegionState& rs = region_states_[to];
  if (max_outstanding_per_region_ != 0 &&
      rs.wire.size() >= max_outstanding_per_region_) {
    rs.fifo.push_back(fetches_, f);
    ++stats_.queued_fetches;
    stats_.max_queue_depth = std::max(stats_.max_queue_depth, rs.fifo.size());
    return true;
  }
  start_wire(f);
  return true;
}

void Network::start_wire(std::uint32_t f) {
  // Latency is sampled at wire time, not enqueue time: a fetch that waited
  // in the FIFO pays its queueing delay on top of a fresh transfer sample.
  // Under gray drop injection the sample may be a loss: the slot is held
  // (a lost response still occupies the server) and the observer hears
  // nullopt only after the inflated discovery delay.
  Fetch& fetch = fetches_[f];
  const FetchSample sample =
      model_.sample_backend_fetch(fetch.from, fetch.to, fetch.bytes);
  fetch.latency_ms = sample.latency_ms;
  fetch.dropped = sample.dropped;
  if (++transfers_ == 0) transfers_ = 1;  // 0 marks no transfer
  fetch.transfer = transfers_;
  region_states_[fetch.to].wire.push_back(fetches_, f);
  ++total_outstanding_;
  ++stats_.wire_fetches;
  stats_.max_in_flight = std::max(stats_.max_in_flight, total_outstanding_);
  loop_->schedule_in(sample.latency_ms,
                     [this, f, transfer = fetch.transfer] {
                       wire_done(f, transfer);
                     });
}

void Network::wire_done(std::uint32_t f, std::uint32_t transfer) {
  if (fetches_[f].transfer != transfer) {
    return;  // aborted by fail_region mid-flight
  }
  const RegionId to = fetches_[f].to;
  const std::optional<SimTimeMs> latency =
      fetches_[f].dropped ? std::nullopt
                          : std::optional<SimTimeMs>(fetches_[f].latency_ms);
  region_states_[to].wire.unlink(fetches_, f);
  FetchCallback cb = free_fetch(f);
  --total_outstanding_;
  // Hand the freed slot to the queue head before the completion callback
  // runs, so a callback issuing a new fetch cannot jump the FIFO.
  drain_queue(to);
  if (!latency.has_value()) ++stats_.timed_out;
  cb(latency);
}

void Network::drain_queue(RegionId to) {
  // Queued entries only exist for up regions: fail_region clears the FIFO
  // and begin_fetch refuses down destinations, so no down-check is needed.
  RegionState& rs = region_states_[to];
  while (!rs.fifo.empty() &&
         (max_outstanding_per_region_ == 0 ||
          rs.wire.size() < max_outstanding_per_region_)) {
    const std::uint32_t next = rs.fifo.front();
    rs.fifo.unlink(fetches_, next);
    start_wire(next);
  }
}

void Network::fail_list(FetchList& list, std::uint64_t& counter) {
  list.for_each(fetches_, [this, &counter](std::uint32_t f) {
    // A wire completion still scheduled finds no transfer number. The
    // record stays taken until its observer hears the failure, on the
    // loop: asynchronously (like a timeout), never re-entrantly from
    // inside fail_region.
    fetches_[f].transfer = 0;
    ++counter;
    loop_->schedule_in(0.0, [this, f] { free_fetch(f)(std::nullopt); });
  });
  list = FetchList{};
}

void Network::fail_region(RegionId r) {
  RegionState& rs = region_states_[r];
  if (rs.down) return;  // already down
  rs.down = true;
  // Transfers die with the region: every in-flight observer hears the
  // failure now, in issue order. The already-scheduled completion events
  // find their records' transfer numbers gone and become no-ops —
  // restoring the region cannot resurrect them. Queued entries fail
  // immediately too, instead of stranding until an unrelated completion
  // would have drained them.
  total_outstanding_ -= rs.wire.size();
  fail_list(rs.wire, stats_.aborted_on_wire);
  fail_list(rs.fifo, stats_.failed_in_queue);
}

void Network::restore_region(RegionId r) {
  RegionState& rs = region_states_[r];
  if (!rs.down) return;  // already up: idempotent
  rs.down = false;
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
