#include "core/fetch_coordinator.hpp"

#include <stdexcept>
#include <utility>

namespace agar::core {

FetchCoordinator::FetchCoordinator(Transport transport)
    : transport_(std::move(transport)) {
  if (!transport_) {
    throw std::invalid_argument("FetchCoordinator: empty transport");
  }
}

void FetchCoordinator::join(SlotList<Waiter>& waiting, Callback cb) {
  const std::uint32_t w = waiters_.acquire();
  waiters_[w].cb = std::move(cb);
  waiting.push_back(waiters_, w);
}

FetchStart FetchCoordinator::fetch(const ChunkId& chunk, RegionId from,
                                   RegionId to, std::size_t bytes,
                                   Callback cb) {
  const ChunkKey key = chunk.key();
  if (SlotList<Waiter>* waiting = inflight_.find(key)) {
    join(*waiting, std::move(cb));
    ++coalesced_;
    return FetchStart::kJoined;
  }
  Callback on_done = [this, key](std::optional<SimTimeMs> latency) {
    complete(key, latency);
  };
  if (!transport_(chunk, from, to, bytes, std::move(on_done))) {
    return FetchStart::kDown;
  }
  join(*inflight_.try_emplace(key).first, std::move(cb));
  ++started_;
  return FetchStart::kStarted;
}

void FetchCoordinator::complete(ChunkKey key,
                                std::optional<SimTimeMs> latency) {
  // Unlink the entry before invoking: a callback may start a new fetch of
  // the same chunk, which must open a fresh entry.
  const SlotList<Waiter> waiting = *inflight_.find(key);
  inflight_.erase(key);
  waiting.for_each(waiters_, [this, latency](std::uint32_t w) {
    // A waiter may start fetches that reuse freed records or grow the
    // pool, so take its callback before it runs.
    Callback cb = std::move(waiters_[w].cb);
    waiters_.release(w);
    cb(latency);
  });
}

}  // namespace agar::core
