// An S3-like bucket: durable chunk storage for one region.
//
// Buckets store chunk payloads keyed by the chunk's integer key and account
// the bytes they hold. During sharded runs the chunk table is read-only, so
// shard threads read it concurrently without synchronization.
//
// The table is a node-based std::unordered_map, not an IntMap: only
// verify-mode reads and populations touch a bucket, and with one flat
// table per bucket glibc handed the whole store's heap back to the system
// when a deployment was torn down, so every later `verify` set-up in the
// process faulted its ~400 MB in again (glibc 2.36: 337,349 minor faults
// over five set-ups, against 132,445 with the nodes).
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
  std::unordered_map<ChunkKey, SharedBytes> chunks_;
  std::size_t total_bytes_ = 0;
};

}  // namespace agar::store
