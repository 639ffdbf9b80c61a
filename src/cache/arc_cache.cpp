#include "cache/arc_cache.hpp"

#include <algorithm>
#include <memory>

#include "api/registry.hpp"

namespace agar::cache {

ArcCache::ArcCache(std::size_t capacity_bytes) : CacheEngine(capacity_bytes) {}

std::uint32_t ArcCache::resident(ChunkKey key) const {
  const std::uint32_t* n = index_.find(key);
  return n != nullptr && nodes_[*n].list <= kT2 ? *n : kNoSlot;
}

void ArcCache::move(std::uint32_t n, List to) {
  Node& node = nodes_[n];
  lists_[node.list].unlink(nodes_, n);
  bytes_[node.list] -= node.size;
  node.list = to;
  lists_[to].push_front(nodes_, n);
  bytes_[to] += node.size;
}

void ArcCache::drop(std::uint32_t n) {
  const Node& node = nodes_[n];
  lists_[node.list].unlink(nodes_, n);
  bytes_[node.list] -= node.size;
  index_.erase(node.key);
  nodes_.release(n);
}

std::optional<SharedBytes> ArcCache::get(ChunkKey key) {
  const std::uint32_t n = resident(key);
  if (n == kNoSlot) {
    ++stats_.misses;
    return std::nullopt;
  }
  // Any repeat access promotes to the frequency side (T2 MRU).
  move(n, kT2);
  ++stats_.hits;
  return nodes_[n].value;
}

void ArcCache::replace(std::size_t incoming, bool favor_t1,
                       std::uint32_t keep) {
  while (bytes_[kT1] + bytes_[kT2] + incoming > capacity_bytes_) {
    // `keep` sits at T2's front, so it is T2's LRU end only when alone.
    const bool t2_evictable =
        !lists_[kT2].empty() && lists_[kT2].back() != keep;
    const bool from_t1 =
        !lists_[kT1].empty() &&
        (bytes_[kT1] > target_p_ || (favor_t1 && bytes_[kT1] >= target_p_) ||
         !t2_evictable);
    if (!from_t1 && !t2_evictable) break;  // nothing else resident to evict
    const List from = from_t1 ? kT1 : kT2;
    const std::uint32_t victim = lists_[from].back();
    used_bytes_ -= nodes_[victim].size;
    nodes_[victim].value = SharedBytes{};
    move(victim, from == kT1 ? kB1 : kB2);
    ++stats_.evictions;
  }
}

void ArcCache::trim_ghosts() {
  // Directory bound: resident + ghosts <= 2x capacity, and the recency
  // half (T1 + B1) <= capacity. Oldest ghosts go first.
  const auto total = [this] {
    return bytes_[kT1] + bytes_[kT2] + bytes_[kB1] + bytes_[kB2];
  };
  while (!lists_[kB1].empty() && bytes_[kT1] + bytes_[kB1] > capacity_bytes_) {
    drop(lists_[kB1].back());
  }
  while (!lists_[kB2].empty() && total() > 2 * capacity_bytes_) {
    drop(lists_[kB2].back());
  }
  while (!lists_[kB1].empty() && total() > 2 * capacity_bytes_) {
    drop(lists_[kB1].back());
  }
}

bool ArcCache::put(ChunkKey key, SharedBytes value) {
  ++stats_.puts;
  const std::size_t size = value.size();
  if (size > capacity_bytes_) {
    ++stats_.rejections;
    return false;  // can never fit
  }

  if (const std::uint32_t n = resident(key); n != kNoSlot) {
    // Resident overwrite: refresh on the frequency side.
    move(n, kT2);
    Node& node = nodes_[n];
    bytes_[kT2] += size - node.size;
    used_bytes_ += size - node.size;
    node.size = size;
    node.value = std::move(value);
    // A grown entry may exceed capacity: evict other entries to fit. When
    // T1 is within its target and the entry is alone in T2, T1's LRU end
    // goes, so the entry put reports stored is resident.
    replace(0, false, n);
    trim_ghosts();
    ++stats_.admissions;
    return true;
  }

  List to = kT1;  // a brand-new key: recency side
  bool favor_t1 = false;
  if (const std::uint32_t* ghost = index_.find(key)) {
    // Ghost hit: a bigger share for the list that lost the key would have
    // kept it, so move the target toward that list (B1: grow T1's share,
    // B2: shrink it), and the key returns on the frequency side.
    const bool recency = nodes_[*ghost].list == kB1;
    const std::size_t ratio = std::max<std::size_t>(
        1, bytes_[recency ? kB2 : kB1] /
               std::max<std::size_t>(bytes_[recency ? kB1 : kB2], 1));
    const std::size_t delta = ratio * size;
    target_p_ = recency ? std::min(capacity_bytes_, target_p_ + delta)
                        : (target_p_ > delta ? target_p_ - delta : 0);
    drop(*ghost);
    to = kT2;
    favor_t1 = !recency;
  }
  replace(size, favor_t1, kNoSlot);
  const std::uint32_t n = nodes_.acquire();
  Node& node = nodes_[n];
  node.key = key;
  node.size = size;
  node.value = std::move(value);
  node.list = to;
  lists_[to].push_front(nodes_, n);
  bytes_[to] += size;
  used_bytes_ += size;
  *index_.try_emplace(key).first = n;
  trim_ghosts();
  ++stats_.admissions;
  return true;
}

bool ArcCache::contains(ChunkKey key) const {
  return resident(key) != kNoSlot;
}

std::vector<ChunkKey> ArcCache::keys() const {
  std::vector<ChunkKey> out;
  out.reserve(lists_[kT1].size() + lists_[kT2].size());
  for (const List list : {kT1, kT2}) {
    lists_[list].for_each(
        nodes_, [&](std::uint32_t n) { out.push_back(nodes_[n].key); });
  }
  return out;
}

// ----------------------------------------------------------- registration
// This is the ONLY wiring ARC has: registering the engine makes
// `system=arc` runnable through the fixed-chunks adapter, gives it a
// bench/CLI label, and puts it in `--list` — no other file changes.

namespace {

const api::EngineRegistration kArcEngine{{
    "arc",
    "ARC",
    "adaptive replacement cache: self-tuning recency/frequency balance "
    "with ghost lists",
    api::ParamSchema{},
    [](const api::EngineContext& ctx, const api::ParamMap&) {
      return std::make_unique<ArcCache>(ctx.capacity_bytes);
    },
    {}}};

}  // namespace

}  // namespace agar::cache
