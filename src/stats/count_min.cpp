#include "stats/count_min.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "common/bytes.hpp"
#include "common/rng.hpp"

namespace agar::stats {

CountMinSketch::CountMinSketch(std::size_t width, std::size_t depth,
                               std::uint64_t aging_window)
    : width_(width), aging_window_(aging_window) {
  if (width == 0 || depth == 0) {
    throw std::invalid_argument("CountMinSketch: width/depth must be > 0");
  }
  rows_.assign(depth, std::vector<std::uint32_t>(width, 0));
  SplitMix64 sm(0x5eedc0de12345678ULL);
  seeds_.reserve(depth);
  for (std::size_t i = 0; i < depth; ++i) seeds_.push_back(sm.next());
}

std::size_t CountMinSketch::cell(std::size_t row,
                                 std::uint64_t key_hash) const {
  // Mix the key hash with the per-row seed; splitmix-style finalizer.
  std::uint64_t h = key_hash ^ seeds_[row];
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return static_cast<std::size_t>(h % width_);
}

void CountMinSketch::add(const std::string& key) { add_hash(fnv1a(key)); }

std::uint64_t CountMinSketch::estimate(const std::string& key) const {
  return estimate_hash(fnv1a(key));
}

void CountMinSketch::add_hash(std::uint64_t key_hash) {
  ++adds_;
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    auto& counter = rows_[r][cell(r, key_hash)];
    if (counter < std::numeric_limits<std::uint32_t>::max()) ++counter;
  }
  if (aging_window_ > 0 && ++adds_since_halve_ >= aging_window_) {
    halve();
    adds_since_halve_ = 0;
  }
}

std::uint64_t CountMinSketch::estimate_hash(std::uint64_t key_hash) const {
  std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    best = std::min<std::uint64_t>(best, rows_[r][cell(r, key_hash)]);
  }
  return best;
}

void CountMinSketch::halve() {
  for (auto& row : rows_) {
    for (auto& c : row) c >>= 1;
  }
}

void CountMinSketch::reset() {
  for (auto& row : rows_) {
    std::fill(row.begin(), row.end(), 0);
  }
  adds_since_halve_ = 0;
}

}  // namespace agar::stats
