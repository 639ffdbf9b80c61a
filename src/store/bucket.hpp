// An S3-like bucket: durable chunk storage for one region.
//
// Buckets store chunk payloads keyed by ChunkId and account the bytes they
// hold. During sharded runs the chunk map is read-only, so shard threads
// read it concurrently without synchronization.
#pragma once

#include <optional>
#include <unordered_map>

#include "common/bytes.hpp"
#include "common/shared_bytes.hpp"
#include "common/types.hpp"

namespace agar::store {

class Bucket {
 public:
  /// Store (or overwrite) one chunk. Accepts Bytes too (adopted by move).
  void put(const ChunkId& id, SharedBytes data);

  /// Fetch a chunk payload; nullopt if absent. The returned handle shares
  /// the stored buffer (no copy) and stays valid past eviction/overwrite.
  [[nodiscard]] std::optional<SharedBytes> get(const ChunkId& id) const;

  [[nodiscard]] bool contains(const ChunkId& id) const;
  bool erase(const ChunkId& id);

  [[nodiscard]] std::size_t num_chunks() const { return chunks_.size(); }
  [[nodiscard]] std::size_t total_bytes() const { return total_bytes_; }

 private:
  std::unordered_map<ChunkId, SharedBytes> chunks_;
  std::size_t total_bytes_ = 0;
};

}  // namespace agar::store
