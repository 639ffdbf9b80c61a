#include "cache/lru_cache.hpp"

#include <memory>

#include "api/registry.hpp"

namespace agar::cache {

namespace {

const api::EngineRegistration kLruEngine{{
    "lru",
    "LRU",
    "least-recently-used eviction (memcached's default policy)",
    api::ParamSchema{},
    [](const api::EngineContext& ctx, const api::ParamMap&) {
      return std::make_unique<LruCache>(ctx.capacity_bytes);
    },
    {}}};

}  // namespace

LruCache::LruCache(std::size_t capacity_bytes) : CacheEngine(capacity_bytes) {}

std::optional<SharedBytes> LruCache::get(ChunkKey key) {
  const std::uint32_t* e = index_.find(key);
  if (e == nullptr) {
    ++stats_.misses;
    return std::nullopt;
  }
  // Move to front (most recently used).
  recency_.unlink(entries_, *e);
  recency_.push_front(entries_, *e);
  ++stats_.hits;
  return entries_[*e].value;  // shared handle, no copy
}

void LruCache::evict_until_fits(std::size_t incoming) {
  while (used_bytes_ + incoming > capacity_bytes_ && !recency_.empty()) {
    const std::uint32_t victim = recency_.back();
    used_bytes_ -= entries_[victim].value.size();
    index_.erase(entries_[victim].key);
    recency_.unlink(entries_, victim);
    entries_.release(victim);
    ++stats_.evictions;
  }
}

bool LruCache::put(ChunkKey key, SharedBytes value) {
  ++stats_.puts;
  if (value.size() > capacity_bytes_) {
    ++stats_.rejections;
    return false;  // can never fit
  }
  if (const std::uint32_t* found = index_.find(key)) {
    // Overwrite in place and refresh recency.
    const std::uint32_t e = *found;
    used_bytes_ -= entries_[e].value.size();
    used_bytes_ += value.size();
    entries_[e].value = std::move(value);
    recency_.unlink(entries_, e);
    recency_.push_front(entries_, e);
    evict_until_fits(0);
    ++stats_.admissions;
    return true;
  }
  evict_until_fits(value.size());
  const std::uint32_t e = entries_.acquire();
  used_bytes_ += value.size();
  entries_[e].key = key;
  entries_[e].value = std::move(value);
  recency_.push_front(entries_, e);
  *index_.try_emplace(key).first = e;
  ++stats_.admissions;
  return true;
}

bool LruCache::contains(ChunkKey key) const { return index_.contains(key); }

std::vector<ChunkKey> LruCache::keys() const {
  std::vector<ChunkKey> out;
  out.reserve(index_.size());
  recency_.for_each(entries_,
                    [&](std::uint32_t e) { out.push_back(entries_[e].key); });
  return out;
}

std::optional<ChunkKey> LruCache::eviction_candidate() const {
  if (recency_.empty()) return std::nullopt;
  return entries_[recency_.back()].key;
}

}  // namespace agar::cache
