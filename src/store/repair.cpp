#include "store/repair.hpp"

namespace agar::store {

std::vector<ChunkIndex> missing_chunks(const BackendCluster& backend,
                                       const ObjectKey& key) {
  std::vector<ChunkIndex> missing;
  const ObjectId id = backend.id_of(key);
  for (const auto& loc : backend.object_info(id).locations) {
    if (!backend.bucket(loc.region).contains(ChunkId{id, loc.index})) {
      missing.push_back(loc.index);
    }
  }
  return missing;
}

bool repair_object(BackendCluster& backend, const ObjectKey& key,
                   RepairReport* report) {
  RepairReport local;
  RepairReport& r = report ? *report : local;
  ++r.objects_scanned;

  const auto missing = missing_chunks(backend, key);
  if (missing.empty()) return true;
  ++r.objects_damaged;

  // Gather the survivors.
  const ObjectId id = backend.id_of(key);
  const ObjectInfo& info = backend.object_info(id);
  std::vector<std::pair<std::uint32_t, BytesView>> survivors;
  for (const auto& loc : info.locations) {
    const auto bytes = backend.bucket(loc.region).get(ChunkId{id, loc.index});
    if (bytes.has_value()) survivors.emplace_back(loc.index, *bytes);
  }
  const std::size_t k = backend.codec().k();
  if (survivors.size() < k) {
    ++r.objects_unrecoverable;
    return false;
  }

  // Rebuild each missing chunk and write it back to its home region.
  // reconstruct_chunk copies survivor views, so writes during the loop are
  // safe: we collect first, then store.
  std::vector<std::pair<ChunkIndex, Bytes>> rebuilt;
  rebuilt.reserve(missing.size());
  for (const ChunkIndex idx : missing) {
    rebuilt.emplace_back(idx,
                         backend.codec().rs().reconstruct_chunk(idx,
                                                                survivors));
  }
  for (auto& [idx, bytes] : rebuilt) {
    backend.bucket(info.locations[idx].region)
        .put(ChunkId{id, idx}, std::move(bytes));
    ++r.chunks_rebuilt;
  }
  ++r.objects_repaired;
  return true;
}

RepairReport repair_all(BackendCluster& backend) {
  RepairReport report;
  for (const auto& key : backend.keys()) {
    (void)repair_object(backend, key, &report);
  }
  return report;
}

}  // namespace agar::store
