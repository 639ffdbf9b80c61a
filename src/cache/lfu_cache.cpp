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

void LfuCache::unlink_entry(std::uint32_t e) {
  const std::uint32_t b = entries_[e].bucket;
  buckets_[b].entries.unlink(entries_, e);
  if (buckets_[b].entries.empty()) {
    by_freq_.unlink(buckets_, b);
    buckets_.release(b);
  }
}

void LfuCache::promote(std::uint32_t e) {
  const std::uint32_t from = entries_[e].bucket;
  const std::uint64_t freq = buckets_[from].freq + 1;
  std::uint32_t to = buckets_[from].links.next;
  if (to == kNoSlot || buckets_[to].freq != freq) {
    to = buckets_.acquire();
    buckets_[to].freq = freq;
    by_freq_.insert_after(buckets_, from, to);
  }
  unlink_entry(e);
  buckets_[to].entries.push_front(entries_, e);
  entries_[e].bucket = to;
}

std::optional<SharedBytes> LfuCache::get(ChunkKey key) {
  const std::uint32_t* e = index_.find(key);
  if (e == nullptr) {
    ++stats_.misses;
    return std::nullopt;
  }
  promote(*e);
  ++stats_.hits;
  return entries_[*e].value;  // shared handle, no copy
}

void LfuCache::evict_until_fits(std::size_t incoming, std::uint32_t keep) {
  while (used_bytes_ + incoming > capacity_bytes_ && !by_freq_.empty()) {
    // Lowest-frequency bucket, least recently touched entry. `keep` sits at
    // its bucket's front, so it is that end only when alone in the bucket:
    // then the next bucket's goes.
    std::uint32_t b = by_freq_.front();
    if (buckets_[b].entries.back() == keep) b = buckets_[b].links.next;
    if (b == kNoSlot) break;
    const std::uint32_t victim = buckets_[b].entries.back();
    used_bytes_ -= entries_[victim].value.size();
    index_.erase(entries_[victim].key);
    unlink_entry(victim);
    entries_.release(victim);
    ++stats_.evictions;
  }
}

bool LfuCache::put(ChunkKey key, SharedBytes value) {
  ++stats_.puts;
  if (value.size() > capacity_bytes_) {
    ++stats_.rejections;
    return false;
  }
  if (const std::uint32_t* found = index_.find(key)) {
    const std::uint32_t e = *found;
    used_bytes_ -= entries_[e].value.size();
    used_bytes_ += value.size();
    entries_[e].value = std::move(value);
    promote(e);
    evict_until_fits(0, e);
    ++stats_.admissions;
    return true;
  }
  evict_until_fits(value.size(), kNoSlot);
  // New entries start in the frequency-1 bucket.
  std::uint32_t b = by_freq_.front();
  if (b == kNoSlot || buckets_[b].freq != 1) {
    b = buckets_.acquire();
    buckets_[b].freq = 1;
    by_freq_.push_front(buckets_, b);
  }
  const std::uint32_t e = entries_.acquire();
  used_bytes_ += value.size();
  entries_[e].key = key;
  entries_[e].value = std::move(value);
  entries_[e].bucket = b;
  buckets_[b].entries.push_front(entries_, e);
  *index_.try_emplace(key).first = e;
  ++stats_.admissions;
  return true;
}

bool LfuCache::contains(ChunkKey key) const { return index_.contains(key); }

std::vector<ChunkKey> LfuCache::keys() const {
  std::vector<ChunkKey> out;
  out.reserve(index_.size());
  by_freq_.for_each(buckets_, [&](std::uint32_t b) {
    buckets_[b].entries.for_each(
        entries_, [&](std::uint32_t e) { out.push_back(entries_[e].key); });
  });
  return out;
}

std::uint64_t LfuCache::frequency(ChunkKey key) const {
  const std::uint32_t* e = index_.find(key);
  return e == nullptr ? 0 : buckets_[entries_[*e].bucket].freq;
}

std::optional<ChunkKey> LfuCache::eviction_candidate() const {
  if (by_freq_.empty()) return std::nullopt;
  return entries_[buckets_[by_freq_.front()].entries.back()].key;
}

}  // namespace agar::cache
