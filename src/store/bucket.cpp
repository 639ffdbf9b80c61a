#include "store/bucket.hpp"

namespace agar::store {

void Bucket::put(const ChunkId& id, SharedBytes data) {
  SharedBytes& slot = chunks_[id.key()];
  total_bytes_ -= slot.size();
  total_bytes_ += data.size();
  slot = std::move(data);
}

std::optional<SharedBytes> Bucket::get(const ChunkId& id) const {
  const auto it = chunks_.find(id.key());
  if (it == chunks_.end()) return std::nullopt;
  return it->second;  // refcount bump, not a byte copy
}

bool Bucket::contains(const ChunkId& id) const {
  return chunks_.contains(id.key());
}

bool Bucket::erase(const ChunkId& id) {
  const auto it = chunks_.find(id.key());
  if (it == chunks_.end()) return false;
  total_bytes_ -= it->second.size();
  chunks_.erase(it);
  return true;
}

}  // namespace agar::store
