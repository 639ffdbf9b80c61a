#include "cache/tinylfu_cache.hpp"

#include <memory>
#include <stdexcept>

#include "api/registry.hpp"

namespace agar::cache {

namespace {

const api::EngineRegistration kTinyLfuEngine{{
    "tinylfu",
    "TinyLFU",
    "count-min-sketch frequency duel gating an LRU cache (W-TinyLFU "
    "admission)",
    api::ParamSchema{{
        {"sketch_width", api::ParamType::kSize, "4096",
         "count-min sketch width"},
        {"sketch_depth", api::ParamType::kSize, "4",
         "count-min sketch depth"},
        {"aging_window", api::ParamType::kSize, "10000",
         "halve sketch counters after this many accesses (0 = never)"},
        {"proxy_ms", api::ParamType::kDouble, "0.5",
         "frequency-tracking proxy cost when run as a fixed-chunks system"},
    }},
    [](const api::EngineContext& ctx, const api::ParamMap& params) {
      TinyLfuParams p;
      p.sketch_width = params.get_size("sketch_width");
      p.sketch_depth = params.get_size("sketch_depth");
      p.aging_window = params.get_size("aging_window");
      if (ctx.object_keys == nullptr) {
        throw std::invalid_argument(
            "tinylfu: needs the deployment's object keys");
      }
      return std::make_unique<TinyLfuCache>(ctx.capacity_bytes,
                                            *ctx.object_keys, p);
    },
    {}}};

}  // namespace

TinyLfuCache::TinyLfuCache(std::size_t capacity_bytes,
                           const std::vector<ObjectKey>& object_keys,
                           TinyLfuParams params)
    : CacheEngine(capacity_bytes),
      inner_(capacity_bytes),
      sketch_(params.sketch_width, params.sketch_depth, params.aging_window),
      object_keys_(&object_keys) {}

std::uint64_t TinyLfuCache::sketch_hash(ChunkKey key) const {
  const ChunkId chunk = ChunkId::of(key);
  return fnv1a_chunk(object_keys_->at(chunk.object), chunk.index);
}

std::optional<SharedBytes> TinyLfuCache::get(ChunkKey key) {
  sketch_.add_hash(sketch_hash(key));
  auto result = inner_.get(key);
  if (result.has_value()) {
    ++stats_.hits;
  } else {
    ++stats_.misses;
  }
  used_bytes_ = inner_.used_bytes();
  return result;
}

bool TinyLfuCache::put(ChunkKey key, SharedBytes value) {
  ++stats_.puts;
  if (value.size() > capacity_bytes_) {
    ++stats_.rejections;
    return false;
  }
  // Frequency duel: if inserting would evict, the candidate must be at
  // least as popular as the LRU victim. Resident keys always update.
  if (!inner_.contains(key) &&
      inner_.used_bytes() + value.size() > capacity_bytes_) {
    const auto victim = inner_.eviction_candidate();
    if (victim.has_value() &&
        sketch_.estimate_hash(sketch_hash(key)) <
            sketch_.estimate_hash(sketch_hash(*victim))) {
      ++stats_.rejections;
      return false;
    }
  }
  const bool ok = inner_.put(key, std::move(value));
  used_bytes_ = inner_.used_bytes();
  if (ok) {
    ++stats_.admissions;
  } else {
    ++stats_.rejections;
  }
  return ok;
}

bool TinyLfuCache::contains(ChunkKey key) const {
  return inner_.contains(key);
}

std::vector<ChunkKey> TinyLfuCache::keys() const { return inner_.keys(); }

}  // namespace agar::cache
