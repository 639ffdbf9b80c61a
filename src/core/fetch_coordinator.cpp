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

FetchStart FetchCoordinator::fetch(const ChunkId& chunk, RegionId from,
                                   RegionId to, std::size_t bytes,
                                   Callback cb) {
  const std::string key = chunk.cache_key();
  if (auto it = inflight_.find(key); it != inflight_.end()) {
    it->second.push_back(std::move(cb));
    ++coalesced_;
    return FetchStart::kJoined;
  }
  Callback on_done = [this, key](std::optional<SimTimeMs> latency) {
    // Move the waiter list out before invoking: a callback may start a
    // new fetch of the same chunk, which must open a fresh entry.
    auto node = inflight_.extract(key);
    for (auto& waiter : node.mapped()) waiter(latency);
  };
  const bool accepted =
      transport_
          ? transport_(chunk, from, to, bytes, std::move(on_done))
          : network_->begin_fetch(from, to, bytes, std::move(on_done));
  if (!accepted) return FetchStart::kDown;
  inflight_.emplace(key, std::vector<Callback>{std::move(cb)});
  ++started_;
  return FetchStart::kStarted;
}

}  // namespace agar::core
