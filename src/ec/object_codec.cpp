#include "ec/object_codec.hpp"

#include <algorithm>

namespace agar::ec {

std::size_t ObjectCodec::chunk_size(std::size_t object_size) const {
  const std::size_t k = rs_.k();
  // ceil-divide; empty objects still get 1-byte chunks so stripe layout and
  // placement stay uniform.
  return std::max<std::size_t>(1, (object_size + k - 1) / k);
}

EncodedObject ObjectCodec::encode(BytesView object) const {
  const std::size_t cs = chunk_size(object.size());
  const std::size_t k = rs_.k();

  EncodedObject out;
  out.object_size = object.size();
  out.chunks.reserve(rs_.total());

  // Data chunks: copy the slice, then zero-pad the tail (only the padding
  // is written twice), then freeze each buffer into shared ownership (a
  // move, not a byte copy).
  std::vector<BytesView> views;
  views.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    Bytes payload;
    payload.reserve(cs);
    const std::size_t begin = i * cs;
    if (begin < object.size()) {
      const std::size_t len = std::min(cs, object.size() - begin);
      const auto first = object.begin() + static_cast<std::ptrdiff_t>(begin);
      payload.insert(payload.end(), first,
                     first + static_cast<std::ptrdiff_t>(len));
    }
    payload.resize(cs);
    out.chunks.push_back(
        Chunk{static_cast<ChunkIndex>(i), SharedBytes(std::move(payload))});
  }
  for (std::size_t i = 0; i < k; ++i) {
    views.emplace_back(out.chunks[i].data.view());
  }

  // Parity chunks.
  std::vector<Bytes> parity = rs_.encode(views);
  for (std::size_t p = 0; p < parity.size(); ++p) {
    out.chunks.push_back(Chunk{static_cast<ChunkIndex>(k + p),
                               SharedBytes(std::move(parity[p]))});
  }
  return out;
}

void ObjectCodec::decode(const std::vector<Chunk>& chunks,
                         BytesSpan object) const {
  available_.clear();
  for (const auto& c : chunks) {
    available_.emplace_back(c.index, c.data.view());
  }
  rs_.reconstruct_data(available_, object);
}

Bytes ObjectCodec::decode(std::size_t object_size,
                          const std::vector<Chunk>& chunks) const {
  Bytes object(object_size);
  decode(chunks, BytesSpan(object));
  return object;
}

}  // namespace agar::ec
