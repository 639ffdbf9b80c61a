// Core vocabulary types shared across the Agar reproduction.
//
// These are deliberately small value types: region identifiers, object keys
// and ids, chunk identifiers and simulated-time aliases. Everything that
// moves between subsystems (simulator, store, cache, core algorithm,
// client) speaks in these types.
//
// An object has two names. Its key (a string such as "object42") is what
// specs, the daemon's GET requests and reports speak; its id is the dense
// integer the backend gives it at registration, in registration order
// (store::BackendCluster). Every per-read and per-fetch step runs on ids
// and on the integer chunk keys built from them, so a steady-state read
// builds and hashes no string.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace agar {

/// Identifier of a geographic region (index into a Topology).
using RegionId = std::uint32_t;

/// Sentinel for "no region".
inline constexpr RegionId kInvalidRegion = static_cast<RegionId>(-1);

/// Key identifying a stored object (YCSB-style, e.g. "user4953").
using ObjectKey = std::string;

/// Dense id of a registered object: 0..N-1 in registration order.
using ObjectId = std::uint32_t;

/// Simulated time in milliseconds. The discrete-event simulator and every
/// latency figure in the reproduction use this unit (the paper reports
/// latencies in ms).
using SimTimeMs = double;

/// Index of a chunk within an erasure-coded stripe: data chunks occupy
/// [0, k), parity chunks occupy [k, k+m).
using ChunkIndex = std::uint32_t;

/// Integer cache key of one chunk (ChunkId::key()): the object id in the
/// high 32 bits, the chunk index in the low 32. The caches, the
/// coalescing table and the collab directory key chunks by it, where the
/// paper's prototype addressed chunks in memcached as "user42#3".
using ChunkKey = std::uint64_t;

/// Identifies one chunk of one object.
struct ChunkId {
  ObjectId object = 0;
  ChunkIndex index = 0;

  bool operator==(const ChunkId&) const = default;

  [[nodiscard]] constexpr ChunkKey key() const {
    return (static_cast<ChunkKey>(object) << 32) | index;
  }
  [[nodiscard]] static constexpr ChunkId of(ChunkKey key) {
    return ChunkId{static_cast<ObjectId>(key >> 32),
                   static_cast<ChunkIndex>(key)};
  }
};

/// Bytes helper literals.
inline constexpr std::size_t operator""_KB(unsigned long long v) {
  return static_cast<std::size_t>(v) * 1024;
}
inline constexpr std::size_t operator""_MB(unsigned long long v) {
  return static_cast<std::size_t>(v) * 1024 * 1024;
}

}  // namespace agar
