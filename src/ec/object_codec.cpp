#include "ec/object_codec.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

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

const std::vector<std::pair<std::uint32_t, BytesView>>&
ObjectCodec::available_of(const std::vector<Chunk>& chunks) const {
  available_.clear();
  for (const auto& c : chunks) {
    available_.emplace_back(c.index, c.data.view());
  }
  return available_;
}

Bytes ObjectCodec::decode(std::size_t object_size,
                          const std::vector<Chunk>& chunks) const {
  Bytes object(object_size);
  rs_.reconstruct_data(available_of(chunks), BytesSpan(object));
  return object;
}

bool ObjectCodec::decode_matches(const std::vector<Chunk>& chunks,
                                 std::span<const Chunk> data,
                                 std::size_t object_size,
                                 BytesSpan tile) const {
  if (tile.empty()) {
    throw std::invalid_argument("ObjectCodec::decode_matches: empty tile");
  }
  const std::size_t cs = rs_.prepare_decode(available_of(chunks));
  if (object_size > rs_.k() * cs) {
    throw std::invalid_argument(
        "ObjectCodec::decode_matches: object larger than k chunks");
  }
  for (std::size_t d = 0; d * cs < object_size; ++d) {
    const std::size_t row = std::min(cs, object_size - d * cs);
    if (d >= data.size() || data[d].data.size() < row) return false;
    const std::uint8_t* const expected = data[d].data.data();
    for (std::size_t offset = 0; offset < row; offset += tile.size()) {
      // Zeroed first, so a slice the decode skipped cannot pass on bytes
      // an earlier tile left.
      const BytesSpan t = tile.first(std::min(tile.size(), row - offset));
      std::fill(t.begin(), t.end(), std::uint8_t{0});
      rs_.decode_slice(d, offset, t);
      if (std::memcmp(t.data(), expected + offset, t.size()) != 0) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace agar::ec
