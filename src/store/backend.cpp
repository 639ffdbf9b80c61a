#include "store/backend.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace agar::store {

BackendCluster::BackendCluster(std::size_t num_regions,
                               ec::CodecParams codec_params,
                               ec::RoundRobinPlacement placement)
    : codec_(codec_params), placement_(placement), buckets_(num_regions) {
  if (num_regions == 0) {
    throw std::invalid_argument("BackendCluster: need at least one region");
  }
}

void BackendCluster::put_object(const ObjectKey& key, BytesView data) {
  ec::EncodedObject encoded = codec_.encode(data);
  for (auto& chunk : encoded.chunks) {
    const RegionId region =
        placement_.region_of(key, chunk.index, num_regions());
    buckets_.at(region).put(ChunkId{key, chunk.index}, std::move(chunk.data));
  }
  objects_[key] = StoredObject{encoded.object_size,
                               codec_.chunk_size(encoded.object_size)};
}

void BackendCluster::register_object(const ObjectKey& key,
                                     std::size_t object_size) {
  objects_[key] = StoredObject{object_size, codec_.chunk_size(object_size)};
}

bool BackendCluster::has_object(const ObjectKey& key) const {
  return objects_.contains(key);
}

ObjectInfo BackendCluster::object_info(const ObjectKey& key) const {
  const auto it = objects_.find(key);
  if (it == objects_.end()) {
    throw std::out_of_range("BackendCluster: unknown object " + key);
  }
  ObjectInfo info;
  info.object_size = it->second.object_size;
  info.chunk_size = it->second.chunk_size;
  const std::size_t total = codec_.rs().total();
  info.locations.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    const auto idx = static_cast<ChunkIndex>(i);
    info.locations.push_back(
        ChunkLocation{idx, placement_.region_of(key, idx, num_regions())});
  }
  return info;
}

std::optional<SharedBytes> BackendCluster::get_chunk(const ChunkId& id) const {
  const auto it = objects_.find(id.key);
  if (it == objects_.end()) return std::nullopt;
  const RegionId region =
      placement_.region_of(id.key, id.index, num_regions());
  return buckets_.at(region).get(id);
}

std::vector<ObjectKey> BackendCluster::keys() const {
  std::vector<ObjectKey> out;
  out.reserve(objects_.size());
  for (const auto& [key, value] : objects_) out.push_back(key);
  return out;
}

void check_data_chunks(const BackendCluster& backend, const ObjectKey& key,
                       BytesView payload) {
  const std::size_t chunk_size = backend.codec().chunk_size(payload.size());
  for (std::size_t d = 0; d < backend.codec().k(); ++d) {
    const std::size_t begin = std::min(d * chunk_size, payload.size());
    const std::size_t len = std::min(chunk_size, payload.size() - begin);
    const auto chunk =
        backend.get_chunk(ChunkId{key, static_cast<ChunkIndex>(d)});
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
  for (std::size_t i = 0; i < count; ++i) {
    const ObjectKey key = prefix + std::to_string(i);
    const Bytes payload = deterministic_payload(key, object_size);
    backend.put_object(key, BytesView(payload));
    check_data_chunks(backend, key, BytesView(payload));
  }
}

}  // namespace agar::store
