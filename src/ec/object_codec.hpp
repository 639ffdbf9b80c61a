// Object <-> chunk conversion on top of the Reed-Solomon codec.
//
// Objects have arbitrary byte sizes; the stripe requires k equal chunks, so
// the codec pads the object to a multiple of k and records the original size
// so decode can strip the padding. This mirrors what the paper's modified
// YCSB client did around Longhair.
#pragma once

#include <cstdint>
#include <span>
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

/// The tile a verify read decodes and checks at a time. The tile and the
/// slice of the data chunk it is compared with must fit in L1d together
/// (48 KiB per core on the Sapphire Rapids hosts measured), so the compare
/// reads the bytes the decode just wrote from L1; a whole row (about 114
/// KiB for 1 MB objects at RS(9,3)) does not fit. In a 10-round rotation of
/// the `verify` benchmark, 8, 16 and 32 KiB tiles gave medians of 7,878,
/// 7,461 and 6,219 reads/s, against 5,235 for decoding the whole object
/// before comparing it: 32 KiB, whose tile and slice overflow L1d, kept
/// the least of the gain. 8 KiB, twice the tiles per row, measured level
/// with 16 KiB over 10 alternating pairs (9,208 against 9,034 reads/s,
/// inside the 8 KiB runs' quartiles of 8,972-9,449).
inline constexpr std::size_t kVerifyTileBytes = 16 * 1024;

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

  /// Reassemble the object of `object_size` bytes, the original
  /// (pre-padding) size, from any k of its chunks.
  [[nodiscard]] Bytes decode(std::size_t object_size,
                             const std::vector<Chunk>& chunks) const;

  /// The verify check: true when the object of `object_size` bytes decoded
  /// from any k of its chunks equals its data chunks, `data[d]` holding
  /// data chunk d for every row with object bytes (a short or absent one
  /// fails). The object is never built: each tile.size() slice of a row is
  /// zero-filled in `tile`, decoded into it and compared with the same
  /// slice of data[d], and the first difference returns false. Throws like
  /// decode, or if `tile` is empty.
  [[nodiscard]] bool decode_matches(const std::vector<Chunk>& chunks,
                                    std::span<const Chunk> data,
                                    std::size_t object_size,
                                    BytesSpan tile) const;

 private:
  ReedSolomon rs_;
  /// `chunks` as the (index, bytes) list rs_ decodes from, in available_.
  const std::vector<std::pair<std::uint32_t, BytesView>>& available_of(
      const std::vector<Chunk>& chunks) const;

  // available_of's list, kept between calls like rs_'s scratch.
  mutable std::vector<std::pair<std::uint32_t, BytesView>> available_;
};

}  // namespace agar::ec
