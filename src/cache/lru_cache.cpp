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

std::optional<SharedBytes> LruCache::get(const std::string& key) {
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  // Move to front (most recently used).
  entries_.splice(entries_.begin(), entries_, it->second);
  ++stats_.hits;
  return it->second->value;  // shared handle, no copy
}

void LruCache::evict_until_fits(std::size_t incoming) {
  while (used_bytes_ + incoming > capacity_bytes_ && !entries_.empty()) {
    const Entry& victim = entries_.back();
    used_bytes_ -= victim.value.size();
    index_.erase(victim.key);
    entries_.pop_back();
    ++stats_.evictions;
  }
}

bool LruCache::put(const std::string& key, SharedBytes value) {
  ++stats_.puts;
  if (value.size() > capacity_bytes_) {
    ++stats_.rejections;
    return false;  // can never fit
  }
  const auto it = index_.find(key);
  if (it != index_.end()) {
    // Overwrite in place and refresh recency.
    used_bytes_ -= it->second->value.size();
    used_bytes_ += value.size();
    it->second->value = std::move(value);
    entries_.splice(entries_.begin(), entries_, it->second);
    evict_until_fits(0);
    ++stats_.admissions;
    return true;
  }
  evict_until_fits(value.size());
  used_bytes_ += value.size();
  entries_.push_front(Entry{key, std::move(value)});
  index_[key] = entries_.begin();
  ++stats_.admissions;
  return true;
}

bool LruCache::contains(const std::string& key) const {
  return index_.contains(key);
}

std::vector<std::string> LruCache::keys() const {
  std::vector<std::string> out;
  out.reserve(index_.size());
  for (const auto& e : entries_) out.push_back(e.key);
  return out;
}

std::optional<std::string> LruCache::eviction_candidate() const {
  if (entries_.empty()) return std::nullopt;
  return entries_.back().key;
}

}  // namespace agar::cache
