#include "cache/arc_cache.hpp"

#include <algorithm>
#include <memory>

#include "api/registry.hpp"

namespace agar::cache {

ArcCache::ArcCache(std::size_t capacity_bytes) : CacheEngine(capacity_bytes) {}

std::optional<SharedBytes> ArcCache::get(ChunkKey key) {
  const auto it = index_.find(key);
  if (it == index_.end() || (it->second.where != Where::kT1 &&
                             it->second.where != Where::kT2)) {
    ++stats_.misses;
    return std::nullopt;
  }
  Locator& loc = it->second;
  // Any repeat access promotes to the frequency side (T2 MRU).
  if (loc.where == Where::kT1) {
    const std::size_t size = loc.entry->value.size();
    t2_.splice(t2_.begin(), t1_, loc.entry);
    t1_bytes_ -= size;
    t2_bytes_ += size;
    loc.where = Where::kT2;
  } else {
    t2_.splice(t2_.begin(), t2_, loc.entry);
  }
  ++stats_.hits;
  return loc.entry->value;
}

void ArcCache::remove_ghost(std::list<Ghost>& list, std::size_t& bytes,
                            std::list<Ghost>::iterator it) {
  bytes -= it->size;
  index_.erase(it->key);
  list.erase(it);
}

void ArcCache::replace(std::size_t incoming, bool favor_t1) {
  while (t1_bytes_ + t2_bytes_ + incoming > capacity_bytes_) {
    const bool from_t1 =
        !t1_.empty() &&
        (t1_bytes_ > target_p_ || (favor_t1 && t1_bytes_ >= target_p_) ||
         t2_.empty());
    if (from_t1) {
      Entry& victim = t1_.back();
      const std::size_t size = victim.value.size();
      Locator& loc = index_.at(victim.key);
      b1_.push_front(Ghost{victim.key, size});
      loc.where = Where::kB1;
      loc.ghost = b1_.begin();
      b1_bytes_ += size;
      t1_bytes_ -= size;
      used_bytes_ -= size;
      t1_.pop_back();
      ++stats_.evictions;
    } else if (!t2_.empty()) {
      Entry& victim = t2_.back();
      const std::size_t size = victim.value.size();
      Locator& loc = index_.at(victim.key);
      b2_.push_front(Ghost{victim.key, size});
      loc.where = Where::kB2;
      loc.ghost = b2_.begin();
      b2_bytes_ += size;
      t2_bytes_ -= size;
      used_bytes_ -= size;
      t2_.pop_back();
      ++stats_.evictions;
    } else {
      break;  // nothing resident to evict
    }
  }
}

void ArcCache::trim_ghosts() {
  // Directory bound: resident + ghosts <= 2x capacity, and the recency
  // half (T1 + B1) <= capacity. Oldest ghosts go first.
  while (!b1_.empty() && t1_bytes_ + b1_bytes_ > capacity_bytes_) {
    remove_ghost(b1_, b1_bytes_, std::prev(b1_.end()));
  }
  while (!b2_.empty() && t1_bytes_ + t2_bytes_ + b1_bytes_ + b2_bytes_ >
                             2 * capacity_bytes_) {
    remove_ghost(b2_, b2_bytes_, std::prev(b2_.end()));
  }
  while (!b1_.empty() && t1_bytes_ + t2_bytes_ + b1_bytes_ + b2_bytes_ >
                             2 * capacity_bytes_) {
    remove_ghost(b1_, b1_bytes_, std::prev(b1_.end()));
  }
}

void ArcCache::insert_resident(Where where, ChunkKey key,
                               SharedBytes value) {
  const std::size_t size = value.size();
  Locator loc;
  loc.where = where;
  if (where == Where::kT1) {
    t1_.push_front(Entry{key, std::move(value)});
    loc.entry = t1_.begin();
    t1_bytes_ += size;
  } else {
    t2_.push_front(Entry{key, std::move(value)});
    loc.entry = t2_.begin();
    t2_bytes_ += size;
  }
  used_bytes_ += size;
  index_[key] = loc;
}

bool ArcCache::put(ChunkKey key, SharedBytes value) {
  ++stats_.puts;
  const std::size_t size = value.size();
  if (size > capacity_bytes_) {
    ++stats_.rejections;
    return false;  // can never fit
  }

  const auto it = index_.find(key);
  if (it != index_.end() &&
      (it->second.where == Where::kT1 || it->second.where == Where::kT2)) {
    // Resident overwrite: refresh on the frequency side.
    Locator& loc = it->second;
    const std::size_t old_size = loc.entry->value.size();
    if (loc.where == Where::kT1) {
      t2_.splice(t2_.begin(), t1_, loc.entry);
      t1_bytes_ -= old_size;
      t2_bytes_ += old_size;
      loc.where = Where::kT2;
    } else {
      t2_.splice(t2_.begin(), t2_, loc.entry);
    }
    t2_bytes_ += size - old_size;
    used_bytes_ += size - old_size;
    loc.entry->value = std::move(value);
    // A grown entry may exceed capacity; evict others (never itself: it
    // sits at the T2 MRU position and eviction takes the LRU end).
    replace(0, false);
    trim_ghosts();
    ++stats_.admissions;
    return true;
  }

  if (it != index_.end() && it->second.where == Where::kB1) {
    // Recency ghost hit: a bigger T1 would have kept it. Grow the target.
    const std::size_t ratio =
        std::max<std::size_t>(1, b2_bytes_ / std::max<std::size_t>(b1_bytes_, 1));
    target_p_ = std::min(capacity_bytes_, target_p_ + ratio * size);
    remove_ghost(b1_, b1_bytes_, it->second.ghost);
    replace(size, false);
    insert_resident(Where::kT2, key, std::move(value));
  } else if (it != index_.end() && it->second.where == Where::kB2) {
    // Frequency ghost hit: shrink T1's share.
    const std::size_t ratio =
        std::max<std::size_t>(1, b1_bytes_ / std::max<std::size_t>(b2_bytes_, 1));
    const std::size_t delta = ratio * size;
    target_p_ = target_p_ > delta ? target_p_ - delta : 0;
    remove_ghost(b2_, b2_bytes_, it->second.ghost);
    replace(size, true);
    insert_resident(Where::kT2, key, std::move(value));
  } else {
    // Brand-new key: recency side.
    replace(size, false);
    insert_resident(Where::kT1, key, std::move(value));
  }
  trim_ghosts();
  ++stats_.admissions;
  return true;
}

bool ArcCache::contains(ChunkKey key) const {
  const auto it = index_.find(key);
  return it != index_.end() && (it->second.where == Where::kT1 ||
                                it->second.where == Where::kT2);
}

std::vector<ChunkKey> ArcCache::keys() const {
  std::vector<ChunkKey> out;
  out.reserve(t1_.size() + t2_.size());
  for (const auto& e : t1_) out.push_back(e.key);
  for (const auto& e : t2_) out.push_back(e.key);
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
