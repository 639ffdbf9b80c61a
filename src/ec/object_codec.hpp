// Object <-> chunk conversion on top of the Reed-Solomon codec.
//
// Objects have arbitrary byte sizes; the stripe requires k equal chunks, so
// the codec pads the object to a multiple of k and records the original size
// so decode can strip the padding. This mirrors what the paper's modified
// YCSB client did around Longhair.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.hpp"
#include "common/shared_bytes.hpp"
#include "common/types.hpp"
#include "ec/reed_solomon.hpp"

namespace agar::ec {

/// One encoded chunk: stripe position plus payload. The payload is a
/// refcounted immutable buffer, so chunks are cheap to copy between the
/// store, caches and the decoder.
struct Chunk {
  ChunkIndex index = 0;
  SharedBytes data;
};

/// A fully encoded object: k data chunks followed by m parity chunks.
struct EncodedObject {
  std::size_t object_size = 0;  ///< pre-padding size, needed by decode
  std::vector<Chunk> chunks;    ///< size k + m, indices 0..k+m-1
};

class ObjectCodec {
 public:
  explicit ObjectCodec(CodecParams params) : rs_(params) {}

  [[nodiscard]] const ReedSolomon& rs() const { return rs_; }
  [[nodiscard]] std::size_t k() const { return rs_.k(); }
  [[nodiscard]] std::size_t m() const { return rs_.m(); }

  /// Size of each chunk for an object of `object_size` bytes.
  [[nodiscard]] std::size_t chunk_size(std::size_t object_size) const;

  /// Split + encode. Always produces k+m chunks (even for empty objects).
  [[nodiscard]] EncodedObject encode(BytesView object) const;

  /// Reassemble the object from any k of its chunks into `object`, whose
  /// size must be the original (pre-padding) size. Writes every byte of
  /// `object`; once the codec has decoded from as many chunks, it
  /// allocates nothing.
  void decode(const std::vector<Chunk>& chunks, BytesSpan object) const;

  /// As above, into a fresh buffer of `object_size` bytes.
  [[nodiscard]] Bytes decode(std::size_t object_size,
                             const std::vector<Chunk>& chunks) const;

 private:
  ReedSolomon rs_;
  // decode's (index, bytes) list, kept between calls like rs_'s scratch.
  mutable std::vector<std::pair<std::uint32_t, BytesView>> available_;
};

}  // namespace agar::ec
