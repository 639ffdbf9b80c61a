#include "store/backend.hpp"

#include <algorithm>
#include <cstring>
#include <functional>
#include <stdexcept>

namespace agar::store {

BackendCluster::BackendCluster(std::size_t num_regions,
                               ec::CodecParams codec_params,
                               ec::RoundRobinPlacement placement)
    : codec_(codec_params), placement_(placement), buckets_(num_regions) {
  if (num_regions == 0) {
    throw std::invalid_argument("BackendCluster: need at least one region");
  }
  const std::size_t total = codec_.rs().total();
  layouts_.reserve(num_regions * total);
  for (std::size_t offset = 0; offset < num_regions; ++offset) {
    for (std::size_t i = 0; i < total; ++i) {
      layouts_.push_back(ChunkLocation{
          static_cast<ChunkIndex>(i),
          static_cast<RegionId>((i + offset) % num_regions)});
    }
  }
}

void BackendCluster::reserve(std::size_t objects) {
  objects_.reserve(objects);
  keys_.reserve(objects);
  if (2 * objects > index_.size()) grow_index(objects);
}

std::size_t BackendCluster::index_slot(const ObjectKey& key) const {
  const std::size_t mask = index_.size() - 1;
  std::size_t slot = std::hash<ObjectKey>{}(key) & mask;
  while (index_[slot] != kNoObject && keys_[index_[slot]] != key) {
    slot = (slot + 1) & mask;
  }
  return slot;
}

void BackendCluster::grow_index(std::size_t objects) {
  std::size_t size = 16;
  while (size < 2 * objects) size *= 2;
  index_.assign(size, kNoObject);
  for (ObjectId id = 0; id < keys_.size(); ++id) {
    index_[index_slot(keys_[id])] = id;
  }
}

ObjectId BackendCluster::register_object(const ObjectKey& key,
                                         std::size_t object_size) {
  if (2 * (keys_.size() + 1) > index_.size()) grow_index(keys_.size() + 1);
  const std::size_t slot = index_slot(key);
  if (index_[slot] == kNoObject) {
    index_[slot] = static_cast<ObjectId>(keys_.size());
    keys_.push_back(key);
    objects_.emplace_back();
  }
  const ObjectId id = index_[slot];
  ObjectInfo& info = objects_[id];
  info.object_size = object_size;
  info.chunk_size = codec_.chunk_size(object_size);
  const std::size_t total = codec_.rs().total();
  const std::size_t layout = placement_.offset_of(key, num_regions());
  info.layout = static_cast<std::uint32_t>(layout);
  info.locations =
      std::span<const ChunkLocation>(layouts_).subspan(layout * total, total);
  return id;
}

ObjectId BackendCluster::put_object(const ObjectKey& key, BytesView data) {
  const ObjectId id = register_object(key, data.size());
  ec::EncodedObject encoded = codec_.encode(data);
  for (auto& chunk : encoded.chunks) {
    const RegionId region = objects_[id].locations[chunk.index].region;
    buckets_[region].put(ChunkId{id, chunk.index}, std::move(chunk.data));
  }
  return id;
}

bool BackendCluster::has_object(const ObjectKey& key) const {
  return find_id(key).has_value();
}

std::optional<ObjectId> BackendCluster::find_id(const ObjectKey& key) const {
  if (index_.empty()) return std::nullopt;
  const ObjectId id = index_[index_slot(key)];
  if (id == kNoObject) return std::nullopt;
  return id;
}

ObjectId BackendCluster::id_of(const ObjectKey& key) const {
  const auto id = find_id(key);
  if (!id.has_value()) {
    throw std::out_of_range("BackendCluster: unknown object " + key);
  }
  return *id;
}

std::optional<SharedBytes> BackendCluster::get_chunk(const ChunkId& id) const {
  if (id.object >= objects_.size()) return std::nullopt;
  const auto& locations = objects_[id.object].locations;
  if (id.index >= locations.size()) return std::nullopt;
  return buckets_[locations[id.index].region].get(id);
}

void check_data_chunks(const BackendCluster& backend, const ObjectKey& key,
                       BytesView payload) {
  const ObjectId id = backend.id_of(key);
  const std::size_t chunk_size = backend.codec().chunk_size(payload.size());
  for (std::size_t d = 0; d < backend.codec().k(); ++d) {
    const std::size_t begin = std::min(d * chunk_size, payload.size());
    const std::size_t len = std::min(chunk_size, payload.size() - begin);
    const auto chunk =
        backend.get_chunk(ChunkId{id, static_cast<ChunkIndex>(d)});
    if (!chunk.has_value() || chunk->size() != chunk_size ||
        (len != 0 &&
         std::memcmp(chunk->data(), payload.data() + begin, len) != 0)) {
      throw std::logic_error("store: data chunk " + std::to_string(d) +
                             " of " + key + " differs from its payload");
    }
  }
}

void populate_working_set(BackendCluster& backend, std::size_t count,
                          std::size_t object_size, const std::string& prefix) {
  backend.reserve(backend.num_objects() + count);
  // One buffer for every payload: each fill overwrites all of it.
  Bytes payload(object_size);
  for (std::size_t i = 0; i < count; ++i) {
    const ObjectKey key = prefix + std::to_string(i);
    fill_deterministic_payload(key, BytesSpan(payload));
    (void)backend.put_object(key, BytesView(payload));
    check_data_chunks(backend, key, BytesView(payload));
  }
}

}  // namespace agar::store
