// The erasure-coded backend cluster: one bucket per region plus the
// placement policy and codec parameters that define the stripe layout.
//
// Writing an object encodes it with Reed-Solomon and distributes the k+m
// chunks round-robin over the regional buckets, exactly like Fig. 1 of the
// paper (6 regions, RS(9,3), two chunks per region).
//
// The backend is also the deployment's object directory: registering an
// object gives it the next dense ObjectId (registration order) and builds
// its ObjectInfo once, so the read path looks objects up by id, by
// reference. Key strings are resolved to ids only at the edges (specs,
// the daemon's GET requests, tests).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/bytes.hpp"
#include "common/types.hpp"
#include "ec/object_codec.hpp"
#include "ec/placement.hpp"
#include "store/bucket.hpp"

namespace agar::store {

/// Location of one chunk: stripe index + region.
struct ChunkLocation {
  ChunkIndex index = 0;
  RegionId region = kInvalidRegion;
};

/// Per-object metadata the backend exposes (what a real deployment would
/// keep in a metadata service).
struct ObjectInfo {
  std::size_t object_size = 0;
  std::size_t chunk_size = 0;
  /// All k + m chunks, by index. Objects with the same stripe start share
  /// one layout table, so a record owns no heap memory of its own.
  std::span<const ChunkLocation> locations;
  /// Which of the backend's num_layouts() tables `locations` is.
  std::uint32_t layout = 0;
};

class BackendCluster {
 public:
  BackendCluster(std::size_t num_regions, ec::CodecParams codec_params,
                 ec::RoundRobinPlacement placement);
  // Object records point into this cluster's layout table.
  BackendCluster(const BackendCluster&) = delete;
  BackendCluster& operator=(const BackendCluster&) = delete;

  [[nodiscard]] std::size_t num_regions() const { return buckets_.size(); }
  [[nodiscard]] const ec::ObjectCodec& codec() const { return codec_; }
  [[nodiscard]] const ec::RoundRobinPlacement& placement() const {
    return placement_;
  }

  /// Stripe layouts, one per stripe start: an object's chunk regions, and
  /// so its chunk costs and caching options, depend only on its layout.
  [[nodiscard]] std::size_t num_layouts() const { return num_regions(); }

  /// Room for `objects` registrations without regrowing the directory.
  void reserve(std::size_t objects);

  /// Encode `data` and store its chunks across the regional buckets.
  /// Returns the object's id (a new one unless `key` was registered).
  ObjectId put_object(const ObjectKey& key, BytesView data);

  /// Register an object's metadata without materializing chunk payloads.
  /// Used by latency-only experiments where no real bytes move; get_chunk
  /// on such an object returns nullopt. Returns the object's id.
  ObjectId register_object(const ObjectKey& key, std::size_t object_size);

  /// True if the object has been written.
  [[nodiscard]] bool has_object(const ObjectKey& key) const;

  /// The id `key` was registered under, or nullopt.
  [[nodiscard]] std::optional<ObjectId> find_id(const ObjectKey& key) const;
  /// As find_id, but throws std::out_of_range naming an unknown key.
  [[nodiscard]] ObjectId id_of(const ObjectKey& key) const;
  /// The key object `id` was registered under.
  [[nodiscard]] const ObjectKey& key_of(ObjectId id) const {
    return keys_[id];
  }

  /// Stripe layout of a registered object (`id` < num_objects()).
  [[nodiscard]] const ObjectInfo& object_info(ObjectId id) const {
    return objects_[id];
  }
  /// Stripe layout by key. Throws std::out_of_range if unknown.
  [[nodiscard]] const ObjectInfo& object_info(const ObjectKey& key) const {
    return objects_[id_of(key)];
  }

  /// Fetch one chunk payload from its region's bucket. Shares the stored
  /// buffer (refcount bump); never copies the bytes. nullopt for an
  /// unknown object or chunk.
  [[nodiscard]] std::optional<SharedBytes> get_chunk(const ChunkId& id) const;

  /// Direct bucket access (tests, repair tooling).
  [[nodiscard]] Bucket& bucket(RegionId r) { return buckets_.at(r); }
  [[nodiscard]] const Bucket& bucket(RegionId r) const {
    return buckets_.at(r);
  }

  [[nodiscard]] std::size_t num_objects() const { return objects_.size(); }
  /// Every registered key, indexed by id.
  [[nodiscard]] const std::vector<ObjectKey>& keys() const { return keys_; }

 private:
  ec::ObjectCodec codec_;
  ec::RoundRobinPlacement placement_;
  std::vector<Bucket> buckets_;
  /// One stripe layout per stripe start: layouts_[offset * (k + m) + i] is
  /// chunk i of an object whose stripe starts at region `offset`.
  std::vector<ChunkLocation> layouts_;
  std::vector<ObjectInfo> objects_;  // by id
  std::vector<ObjectKey> keys_;      // by id
  /// Ids by key hash: open addressing over keys_, at most half full, so a
  /// registration adds no heap node. kNoObject marks an empty slot.
  static constexpr ObjectId kNoObject = ~ObjectId{0};
  std::vector<ObjectId> index_;

  /// The slot of index_ holding `key`'s id, or the empty slot where it
  /// would go.
  [[nodiscard]] std::size_t index_slot(const ObjectKey& key) const;
  /// Rebuild index_ with room for `objects` keys.
  void grow_index(std::size_t objects);
};

/// Throws std::logic_error naming `key` unless each of the object's k data
/// chunks is stored and starts with its slice of `payload`. The code is
/// systematic, so this binds the stored data chunks to the payload:
/// verify-mode reads check decoded objects against those chunks.
void check_data_chunks(const BackendCluster& backend, const ObjectKey& key,
                       BytesView payload);

/// Populate the backend with the paper's working set: `count` objects named
/// "<prefix>0".."<prefix>N-1", each stored with `object_size` bytes of its
/// deterministic_payload and its data chunks checked against that payload
/// (check_data_chunks); 300 x 1 MB in the paper.
void populate_working_set(BackendCluster& backend, std::size_t count,
                          std::size_t object_size,
                          const std::string& prefix = "object");

}  // namespace agar::store
