// The erasure-coded backend cluster: one bucket per region plus the
// placement policy and codec parameters that define the stripe layout.
//
// Writing an object encodes it with Reed-Solomon and distributes the k+m
// chunks round-robin over the regional buckets, exactly like Fig. 1 of the
// paper (6 regions, RS(9,3), two chunks per region).
#pragma once

#include <optional>
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
  std::vector<ChunkLocation> locations;  // all k + m chunks
};

class BackendCluster {
 public:
  BackendCluster(std::size_t num_regions, ec::CodecParams codec_params,
                 ec::RoundRobinPlacement placement);

  [[nodiscard]] std::size_t num_regions() const { return buckets_.size(); }
  [[nodiscard]] const ec::ObjectCodec& codec() const { return codec_; }
  [[nodiscard]] const ec::RoundRobinPlacement& placement() const {
    return placement_;
  }

  /// Encode `data` and store its chunks across the regional buckets.
  void put_object(const ObjectKey& key, BytesView data);

  /// Register an object's metadata without materializing chunk payloads.
  /// Used by latency-only experiments where no real bytes move; get_chunk
  /// on such an object returns nullopt.
  void register_object(const ObjectKey& key, std::size_t object_size);

  /// True if the object has been written.
  [[nodiscard]] bool has_object(const ObjectKey& key) const;

  /// Stripe layout for an object. Throws std::out_of_range if unknown.
  [[nodiscard]] ObjectInfo object_info(const ObjectKey& key) const;

  /// Fetch one chunk payload from its region's bucket. Shares the stored
  /// buffer (refcount bump); never copies the bytes.
  [[nodiscard]] std::optional<SharedBytes> get_chunk(const ChunkId& id) const;

  /// Direct bucket access (tests, repair tooling).
  [[nodiscard]] Bucket& bucket(RegionId r) { return buckets_.at(r); }
  [[nodiscard]] const Bucket& bucket(RegionId r) const {
    return buckets_.at(r);
  }

  [[nodiscard]] std::size_t num_objects() const { return objects_.size(); }
  [[nodiscard]] std::vector<ObjectKey> keys() const;

 private:
  struct StoredObject {
    std::size_t object_size = 0;
    std::size_t chunk_size = 0;
  };

  ec::ObjectCodec codec_;
  ec::RoundRobinPlacement placement_;
  std::vector<Bucket> buckets_;
  std::unordered_map<ObjectKey, StoredObject> objects_;
};

/// Throws std::logic_error naming `key` unless each of the object's k data
/// chunks is stored and starts with its slice of `payload`. The code is
/// systematic, so this binds the stored data chunks to the payload:
/// verify-mode reads check decoded objects against those chunks.
void check_data_chunks(const BackendCluster& backend, const ObjectKey& key,
                       BytesView payload);

/// Populate the backend with the paper's working set: `count` objects named
/// "<prefix>0".."<prefix>N-1", each `object_size` bytes of deterministic
/// pseudo-random payload (300 x 1 MB in the paper). Each object's data
/// chunks are checked against its payload (check_data_chunks).
void populate_working_set(BackendCluster& backend, std::size_t count,
                          std::size_t object_size,
                          const std::string& prefix = "object");

}  // namespace agar::store
