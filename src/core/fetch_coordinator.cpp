#include "core/fetch_coordinator.hpp"

#include <stdexcept>
#include <utility>

namespace agar::core {

FetchCoordinator::FetchCoordinator(sim::Network* network)
    : network_(network) {
  if (network_ == nullptr) {
    throw std::invalid_argument("FetchCoordinator: null network");
  }
}

std::uint32_t FetchCoordinator::new_waiter(Callback cb) {
  const std::uint32_t w = waiters_.acquire();
  waiters_[w].cb = std::move(cb);
  return w;
}

FetchStart FetchCoordinator::fetch(const ChunkId& chunk, RegionId from,
                                   RegionId to, std::size_t bytes,
                                   Callback cb) {
  const ChunkKey key = chunk.key();
  if (Flight* flight = inflight_.find(key)) {
    const std::uint32_t w = new_waiter(std::move(cb));
    waiters_[flight->tail].next = w;
    flight->tail = w;
    ++coalesced_;
    return FetchStart::kJoined;
  }
  Callback on_done = [this, key](std::optional<SimTimeMs> latency) {
    complete(key, latency);
  };
  const bool accepted =
      transport_
          ? transport_(chunk, from, to, bytes, std::move(on_done))
          : network_->begin_fetch(from, to, bytes, std::move(on_done));
  if (!accepted) return FetchStart::kDown;
  const std::uint32_t w = new_waiter(std::move(cb));
  *inflight_.try_emplace(key).first = Flight{w, w};
  ++started_;
  return FetchStart::kStarted;
}

void FetchCoordinator::complete(ChunkKey key,
                                std::optional<SimTimeMs> latency) {
  // Unlink the entry before invoking: a callback may start a new fetch of
  // the same chunk, which must open a fresh entry.
  std::uint32_t w = inflight_.find(key)->head;
  inflight_.erase(key);
  while (w != kNone) {
    // A waiter may start fetches that reuse freed records or grow the
    // table, so take what this one needs before it runs.
    Callback cb = std::move(waiters_[w].cb);
    const std::uint32_t next = waiters_[w].next;
    waiters_.release(w);
    cb(latency);
    w = next;
  }
}

}  // namespace agar::core
