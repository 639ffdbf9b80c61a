#include "cache/lfu_cache.hpp"

#include <memory>

#include "api/registry.hpp"

namespace agar::cache {

namespace {

// Display stem "LFUev": as a fixed-chunks *system* this engine is the
// eviction-driven (instant-adaptation) LFU of the baseline-strength
// ablation — the paper's periodic "LFU" baseline is the lfu-config
// strategy, which owns the bare "LFU-" label.
const api::EngineRegistration kLfuEngine{{
    "lfu",
    "LFUev",
    "least-frequently-used eviction (O(1) frequency buckets, LRU ties)",
    api::ParamSchema{{
        {"proxy_ms", api::ParamType::kDouble, "0.5",
         "frequency-tracking proxy cost when run as a fixed-chunks system"},
    }},
    [](const api::EngineContext& ctx, const api::ParamMap&) {
      return std::make_unique<LfuCache>(ctx.capacity_bytes);
    },
    {}}};

}  // namespace

LfuCache::LfuCache(std::size_t capacity_bytes) : CacheEngine(capacity_bytes) {}

void LfuCache::promote(ChunkKey key, Locator& loc) {
  const std::uint64_t next_freq = loc.bucket->freq + 1;
  auto next_bucket = std::next(loc.bucket);
  if (next_bucket == buckets_.end() || next_bucket->freq != next_freq) {
    next_bucket = buckets_.insert(next_bucket, Bucket{next_freq, {}});
  }
  // Splice the entry to the front (most recent) of the next bucket.
  next_bucket->entries.splice(next_bucket->entries.begin(),
                              loc.bucket->entries, loc.entry);
  if (loc.bucket->entries.empty()) buckets_.erase(loc.bucket);
  loc.bucket = next_bucket;
  loc.entry = next_bucket->entries.begin();
  index_[key] = loc;
}

std::optional<SharedBytes> LfuCache::get(ChunkKey key) {
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  promote(key, it->second);
  ++stats_.hits;
  return it->second.entry->value;  // shared handle, no copy
}

void LfuCache::remove_entry(ChunkKey key, const Locator& loc) {
  used_bytes_ -= loc.entry->value.size();
  auto bucket = loc.bucket;
  bucket->entries.erase(loc.entry);
  if (bucket->entries.empty()) buckets_.erase(bucket);
  index_.erase(key);
}

void LfuCache::evict_until_fits(std::size_t incoming) {
  while (used_bytes_ + incoming > capacity_bytes_ && !buckets_.empty()) {
    // Lowest-frequency bucket, least recently touched entry.
    Bucket& lowest = buckets_.front();
    const ChunkKey victim = lowest.entries.back().key;
    remove_entry(victim, index_.at(victim));
    ++stats_.evictions;
  }
}

bool LfuCache::put(ChunkKey key, SharedBytes value) {
  ++stats_.puts;
  if (value.size() > capacity_bytes_) {
    ++stats_.rejections;
    return false;
  }
  const auto it = index_.find(key);
  if (it != index_.end()) {
    used_bytes_ -= it->second.entry->value.size();
    used_bytes_ += value.size();
    it->second.entry->value = std::move(value);
    promote(key, it->second);
    evict_until_fits(0);
    ++stats_.admissions;
    return true;
  }
  evict_until_fits(value.size());
  // New entries start in the frequency-1 bucket.
  auto bucket = buckets_.begin();
  if (bucket == buckets_.end() || bucket->freq != 1) {
    bucket = buckets_.insert(buckets_.begin(), Bucket{1, {}});
  }
  bucket->entries.push_front(Entry{key, std::move(value)});
  used_bytes_ += bucket->entries.front().value.size();
  index_[key] = Locator{bucket, bucket->entries.begin()};
  ++stats_.admissions;
  return true;
}

bool LfuCache::contains(ChunkKey key) const {
  return index_.contains(key);
}

std::vector<ChunkKey> LfuCache::keys() const {
  std::vector<ChunkKey> out;
  out.reserve(index_.size());
  for (const auto& bucket : buckets_) {
    for (const auto& e : bucket.entries) out.push_back(e.key);
  }
  return out;
}

std::uint64_t LfuCache::frequency(ChunkKey key) const {
  const auto it = index_.find(key);
  return it == index_.end() ? 0 : it->second.bucket->freq;
}

std::optional<ChunkKey> LfuCache::eviction_candidate() const {
  if (buckets_.empty()) return std::nullopt;
  return buckets_.front().entries.back().key;
}

}  // namespace agar::cache
