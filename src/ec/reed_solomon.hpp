// Systematic Reed-Solomon erasure codec over GF(2^8).
//
// RS(k, m) splits a stripe into k equally sized data chunks and computes m
// parity chunks; ANY k of the k+m chunks reconstruct the stripe (the MDS
// property). This is the same contract as Longhair, the Cauchy Reed-Solomon
// library the paper's prototype used.
//
// Hot-path structure: every row application is one gf::dot call, which
// writes the output row once from all k inputs without reading it, and
// reconstruction memoizes the inverted decode matrix per surviving-chunk
// set — RS(9,3) has at most C(12,9) = 220 such sets, so after warm-up a
// degraded read pays zero matrix-inversion cost. Apart from that cache and
// the reconstruction's scratch lists, kept so a steady-state decode
// allocates nothing (single-threaded use, like the rest of the
// simulation), the codec is stateless, so one instance can be shared by
// every region of a lane.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"
#include "ec/matrix.hpp"

namespace agar::ec {

/// The code is backed by the systematic [I; Cauchy] matrix, which is MDS
/// by construction.
struct CodecParams {
  std::size_t k = 9;  ///< data chunks (paper default)
  std::size_t m = 3;  ///< parity chunks (paper default)

  [[nodiscard]] std::size_t total() const { return k + m; }
};

class ReedSolomon {
 public:
  explicit ReedSolomon(CodecParams params);

  [[nodiscard]] std::size_t k() const { return params_.k; }
  [[nodiscard]] std::size_t m() const { return params_.m; }
  [[nodiscard]] std::size_t total() const { return params_.total(); }
  [[nodiscard]] const Matrix& encoding_matrix() const { return encode_; }

  /// Encode k data chunks (all the same size) into m parity chunks.
  /// Throws std::invalid_argument on wrong count or ragged sizes.
  [[nodiscard]] std::vector<Bytes> encode(
      const std::vector<BytesView>& data_chunks) const;

  /// Reconstruct the k original data chunks from any k (or more) available
  /// chunks into `out`: data chunk d lands at offset d * chunk_size, cut
  /// off at out.size(). `available[i]` pairs a chunk index in [0, k+m) with
  /// its bytes. Data chunks that arrived are copied; only the missing data
  /// rows are computed. Throws std::invalid_argument if fewer than k
  /// distinct chunks are supplied, an index is out of range, sizes are
  /// ragged, or `out` is larger than k chunks.
  void reconstruct_data(
      const std::vector<std::pair<std::uint32_t, BytesView>>& available,
      BytesSpan out) const;

  /// Reconstruct one specific chunk (data or parity) from any k available
  /// chunks. Used by repair paths and tests.
  [[nodiscard]] Bytes reconstruct_chunk(
      std::uint32_t target,
      const std::vector<std::pair<std::uint32_t, BytesView>>& available) const;

  // ---------------------------------------------- decode-plan cache stats
  /// Reconstructions that found their inverted decode matrix memoized.
  [[nodiscard]] std::uint64_t decode_plan_hits() const { return plan_hits_; }
  /// Reconstructions that had to invert (and then memoized the result).
  [[nodiscard]] std::uint64_t decode_plan_misses() const {
    return plan_misses_;
  }
  [[nodiscard]] std::size_t decode_plan_cache_size() const {
    return plan_cache_.size();
  }
  /// Drop memoized plans (benchmarks measuring the cold path).
  void clear_decode_plan_cache() const { plan_cache_.clear(); }

 private:
  /// out = sum_j matrix[row][j] * inputs[j], one gf::dot call.
  void apply_row(const Matrix& matrix, std::size_t row,
                 const std::vector<BytesView>& inputs, BytesSpan out) const;

  /// Inverted decode matrix for this exact (sorted, distinct) row set,
  /// served from the plan cache when the row set fits a 64-bit mask.
  [[nodiscard]] const Matrix& decode_plan(
      const std::vector<std::size_t>& rows) const;

  CodecParams params_;
  Matrix encode_;  // (k+m) x k, top square == identity.

  // Memoized inverted decode matrices keyed by the surviving-row bitmask.
  // Mutable: reconstruction is logically const. Single-threaded by design
  // (the simulation drives everything from one event loop). Bounded: once
  // kMaxCachedPlans distinct patterns are cached, further ones invert
  // without memoizing (only reachable by codes far wider than the paper's).
  static constexpr std::size_t kMaxCachedPlans = 4096;
  mutable std::unordered_map<std::uint64_t, Matrix> plan_cache_;
  mutable Matrix plan_scratch_;  // fallback when total() > 64 (uncacheable)
  mutable std::uint64_t plan_hits_ = 0;
  mutable std::uint64_t plan_misses_ = 0;

  // reconstruct_data's per-call lists, each at most k long and reserved
  // at construction: the picked chunks, their bytes and their rows.
  mutable std::vector<std::pair<std::uint32_t, BytesView>> picked_;
  mutable std::vector<BytesView> views_;
  mutable std::vector<std::size_t> rows_;
};

}  // namespace agar::ec
