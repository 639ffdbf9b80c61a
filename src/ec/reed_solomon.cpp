#include "ec/reed_solomon.hpp"

#include <algorithm>
#include <bitset>
#include <stdexcept>

#include "gf/gf256.hpp"

namespace agar::ec {

namespace {

void check_uniform_size(const std::vector<BytesView>& chunks) {
  if (chunks.empty()) return;
  const std::size_t size = chunks.front().size();
  for (const auto& c : chunks) {
    if (c.size() != size) {
      throw std::invalid_argument("ReedSolomon: ragged chunk sizes");
    }
  }
}

}  // namespace

ReedSolomon::ReedSolomon(CodecParams params) : params_(params) {
  if (params_.k == 0) {
    throw std::invalid_argument("ReedSolomon: k must be positive");
  }
  if (params_.total() > gf::kFieldSize) {
    throw std::invalid_argument("ReedSolomon: k + m must be <= 256");
  }
  encode_ = systematic_cauchy(params_.k, params_.m);
}

void ReedSolomon::apply_row(const Matrix& matrix, std::size_t row,
                            const std::vector<BytesView>& inputs,
                            BytesSpan out) const {
  gf::dot(std::span<const std::uint8_t>(matrix.row(row), inputs.size()),
          inputs, out);
}

std::vector<Bytes> ReedSolomon::encode(
    const std::vector<BytesView>& data_chunks) const {
  if (data_chunks.size() != params_.k) {
    throw std::invalid_argument("ReedSolomon::encode: need exactly k chunks");
  }
  check_uniform_size(data_chunks);
  const std::size_t chunk_size = data_chunks.front().size();

  std::vector<Bytes> parity(params_.m, Bytes(chunk_size));
  for (std::size_t p = 0; p < params_.m; ++p) {
    apply_row(encode_, params_.k + p, data_chunks, BytesSpan(parity[p]));
  }
  return parity;
}

const Matrix& ReedSolomon::decode_plan(
    const std::vector<std::size_t>& rows) const {
  if (params_.total() > 64) {
    // Row set doesn't fit a 64-bit mask; invert per call (codes this wide
    // are outside every experiment in the repo).
    plan_scratch_ = encode_.select_rows(rows).inverted();
    ++plan_misses_;
    return plan_scratch_;
  }
  std::uint64_t mask = 0;
  for (const std::size_t r : rows) mask |= std::uint64_t{1} << r;
  const auto it = plan_cache_.find(mask);
  if (it != plan_cache_.end()) {
    ++plan_hits_;
    return it->second;
  }
  ++plan_misses_;
  if (plan_cache_.size() >= kMaxCachedPlans) {
    // Wide codes (total() up to 64) can have astronomically many erasure
    // patterns; stop memoizing rather than grow without bound. The paper's
    // RS(9,3) tops out at 219 cached plans, far under the cap.
    plan_scratch_ = encode_.select_rows(rows).inverted();
    return plan_scratch_;
  }
  return plan_cache_.emplace(mask, encode_.select_rows(rows).inverted())
      .first->second;
}

void ReedSolomon::reconstruct_data(
    const std::vector<std::pair<std::uint32_t, BytesView>>& available,
    BytesSpan out) const {
  if (available.size() < params_.k) {
    throw std::invalid_argument(
        "ReedSolomon::reconstruct_data: fewer than k chunks available");
  }

  // Take the first k distinct chunks, preferring data chunks (identity rows)
  // so the common no-failure path is a cheap copy.
  std::vector<std::pair<std::uint32_t, BytesView>> picked;
  picked.reserve(params_.k);
  std::bitset<gf::kFieldSize> seen;  // total() <= kFieldSize (constructor)
  auto take = [&](bool data_only) {
    for (const auto& [idx, bytes] : available) {
      if (picked.size() == params_.k) break;
      if (idx >= params_.total()) {
        throw std::invalid_argument(
            "ReedSolomon::reconstruct_data: chunk index out of range");
      }
      const bool is_data = idx < params_.k;
      if (data_only != is_data || seen.test(idx)) continue;
      seen.set(idx);
      picked.emplace_back(idx, bytes);
    }
  };
  take(/*data_only=*/true);
  take(/*data_only=*/false);
  if (picked.size() < params_.k) {
    throw std::invalid_argument(
        "ReedSolomon::reconstruct_data: fewer than k distinct chunks");
  }

  // Canonical order: the decode plan is keyed by the chunk *set*, so the
  // picked rows must map to matrix columns the same way regardless of the
  // order `available` arrived in. GF arithmetic is exact — row order never
  // changes the reconstructed bytes.
  std::sort(picked.begin(), picked.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  std::vector<BytesView> views;
  views.reserve(params_.k);
  for (const auto& [idx, bytes] : picked) views.push_back(bytes);
  check_uniform_size(views);
  const std::size_t chunk_size = views.front().size();
  if (out.size() > params_.k * chunk_size) {
    throw std::invalid_argument(
        "ReedSolomon::reconstruct_data: output larger than k chunks");
  }
  // Data row d of `out`; the row holding out's end is cut short and the
  // rows after it are empty.
  auto row = [&](std::size_t d) {
    const std::size_t begin = std::min(d * chunk_size, out.size());
    return out.subspan(begin, std::min(chunk_size, out.size() - begin));
  };

  // Data chunks that arrived (sorted first) are copied. A data chunk's row
  // of the decode matrix below is a unit vector, so this is the same bytes.
  for (const auto& [idx, bytes] : picked) {
    if (idx >= params_.k) break;
    const BytesSpan dst = row(idx);
    std::copy_n(bytes.begin(), dst.size(), dst.begin());
  }
  if (picked.back().first < params_.k) return;  // all k data chunks arrived

  // The rows of the encoding matrix for the picked chunks form an
  // invertible k x k matrix (MDS); its inverse maps picked chunks back to
  // the original data chunks. The inverse is memoized per surviving set;
  // only the missing data rows are applied.
  std::vector<std::size_t> rows;
  rows.reserve(params_.k);
  for (const auto& [idx, bytes] : picked) rows.push_back(idx);
  const Matrix& decode = decode_plan(rows);

  for (std::size_t d = 0; d < params_.k; ++d) {
    if (seen.test(d)) continue;
    const BytesSpan dst = row(d);
    if (dst.empty()) break;
    if (dst.size() < chunk_size) {
      // The cut-short row: dot reads inputs of the same length.
      for (BytesView& v : views) v = v.first(dst.size());
    }
    apply_row(decode, d, views, dst);
  }
}

Bytes ReedSolomon::reconstruct_chunk(
    std::uint32_t target,
    const std::vector<std::pair<std::uint32_t, BytesView>>& available) const {
  if (target >= params_.total()) {
    throw std::invalid_argument(
        "ReedSolomon::reconstruct_chunk: target out of range");
  }
  // If the chunk is already available, return it directly.
  for (const auto& [idx, bytes] : available) {
    if (idx == target) return Bytes(bytes.begin(), bytes.end());
  }
  const std::size_t chunk_size =
      available.empty() ? 0 : available.front().second.size();
  Bytes data(params_.k * chunk_size);
  reconstruct_data(available, BytesSpan(data));

  std::vector<BytesView> views;
  views.reserve(params_.k);
  for (std::size_t d = 0; d < params_.k; ++d) {
    views.push_back(BytesView(data).subspan(d * chunk_size, chunk_size));
  }
  if (target < params_.k) {
    return Bytes(views[target].begin(), views[target].end());
  }

  Bytes out(chunk_size);
  apply_row(encode_, target, views, BytesSpan(out));
  return out;
}

}  // namespace agar::ec
