#include "cache/static_cache.hpp"

#include <algorithm>

namespace agar::cache {

StaticConfigCache::StaticConfigCache(std::size_t capacity_bytes)
    : CacheEngine(capacity_bytes) {}

std::optional<SharedBytes> StaticConfigCache::get(const std::string& key) {
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  return it->second;  // shared handle, no copy
}

bool StaticConfigCache::put(const std::string& key, SharedBytes value) {
  ++stats_.puts;
  if (!configured_.contains(key)) {
    ++stats_.rejections;
    return false;
  }
  if (value.size() > capacity_bytes_) {
    ++stats_.rejections;
    return false;
  }
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    used_bytes_ -= it->second.size();
    used_bytes_ += value.size();
    it->second = std::move(value);
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
  entries_.emplace(key, std::move(value));
  ++stats_.admissions;
  return true;
}

bool StaticConfigCache::contains(const std::string& key) const {
  return entries_.contains(key);
}

std::vector<std::string> StaticConfigCache::keys() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  // agar-lint: ordered-ok(sorted below before returning)
  for (const auto& [key, value] : entries_) out.push_back(key);
  // Callers compare and print key lists; hand them a stable order rather
  // than the hash-map's.
  std::sort(out.begin(), out.end());
  return out;
}

StaticConfigCache::Churn StaticConfigCache::install_configuration(
    std::unordered_set<std::string> configured) {
  std::uint64_t kept = 0;
  // agar-lint: ordered-ok(churn count; membership test + counter, no
  // order-dependent output)
  for (const auto& key : configured) {
    if (configured_.contains(key)) ++kept;
  }
  const Churn churn{configured.size() - kept, configured_.size() - kept};
  configured_ = std::move(configured);
  // agar-lint: ordered-ok(pure eviction sweep; membership test + counter, no
  // order-dependent output)
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (!configured_.contains(it->first)) {
      used_bytes_ -= it->second.size();
      it = entries_.erase(it);
      ++stats_.evictions;
    } else {
      ++it;
    }
  }
  return churn;
}

bool StaticConfigCache::is_configured(const std::string& key) const {
  return configured_.contains(key);
}

}  // namespace agar::cache
