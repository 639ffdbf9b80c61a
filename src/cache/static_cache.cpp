#include "cache/static_cache.hpp"

#include <algorithm>
#include <utility>

namespace agar::cache {

StaticConfigCache::StaticConfigCache(std::size_t capacity_bytes)
    : CacheEngine(capacity_bytes) {}

std::optional<SharedBytes> StaticConfigCache::get(ChunkKey key) {
  const Entry* e = entries_.find(key);
  if (e == nullptr || !e->resident) {
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  return e->value;  // shared handle, no copy
}

bool StaticConfigCache::put(ChunkKey key, SharedBytes value) {
  ++stats_.puts;
  Entry* e = entries_.find(key);
  if (e == nullptr) {
    ++stats_.rejections;
    return false;
  }
  if (value.size() > capacity_bytes_) {
    ++stats_.rejections;
    return false;
  }
  if (e->resident) {
    used_bytes_ -= e->value.size();
    used_bytes_ += value.size();
    e->value = std::move(value);
    ++stats_.admissions;
    return true;
  }
  if (used_bytes_ + value.size() > capacity_bytes_) {
    // The solver sized the configuration to fit; if chunk sizes drifted
    // (e.g. configuration from a stale size estimate) decline rather than
    // evict a configured sibling.
    ++stats_.rejections;
    return false;
  }
  used_bytes_ += value.size();
  e->value = std::move(value);
  e->resident = true;
  ++stats_.admissions;
  return true;
}

bool StaticConfigCache::contains(ChunkKey key) const {
  const Entry* e = entries_.find(key);
  return e != nullptr && e->resident;
}

std::vector<ChunkKey> StaticConfigCache::keys() const {
  std::vector<ChunkKey> out;
  entries_.for_each([&out](ChunkKey key, const Entry& e) {
    if (e.resident) out.push_back(key);
  });
  // Callers compare and print key lists; hand them a stable order rather
  // than the table's.
  std::sort(out.begin(), out.end());
  return out;
}

StaticConfigCache::Churn StaticConfigCache::install_configuration(
    const std::vector<ChunkKey>& configured) {
  std::uint64_t kept = 0;
  for (const ChunkKey key : configured) {
    const auto [entry, inserted] = next_.try_emplace(key);
    if (!inserted) continue;  // a duplicate of an earlier key
    if (Entry* old = entries_.find(key)) {
      *entry = std::move(*old);
      old->kept = true;
      ++kept;
    }
  }
  const Churn churn{next_.size() - kept, entries_.size() - kept};
  // Evict what the new configuration drops. Counts only, so the table's
  // visit order cannot reach an output.
  entries_.for_each([this](ChunkKey, const Entry& e) {
    if (e.resident && !e.kept) {
      used_bytes_ -= e.value.size();
      ++stats_.evictions;
    }
  });
  std::swap(entries_, next_);
  next_.clear();
  return churn;
}

}  // namespace agar::cache
