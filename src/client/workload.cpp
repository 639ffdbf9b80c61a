#include "client/workload.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace agar::client {

UniformGenerator::UniformGenerator(std::size_t universe)
    : universe_(universe) {
  if (universe == 0) {
    throw std::invalid_argument("UniformGenerator: empty universe");
  }
}

std::size_t UniformGenerator::next_index(Rng& rng) {
  return static_cast<std::size_t>(rng.next_below(universe_));
}

ZipfianGenerator::ZipfianGenerator(std::size_t universe, double skew)
    : skew_(skew) {
  if (universe == 0) {
    throw std::invalid_argument("ZipfianGenerator: empty universe");
  }
  if (!(skew >= 0.0)) {
    throw std::invalid_argument("ZipfianGenerator: skew must be >= 0");
  }
  cumulative_.resize(universe);
  double acc = 0.0;
  for (std::size_t i = 0; i < universe; ++i) {
    acc += 1.0 / std::pow(static_cast<double>(i + 1), skew);
    cumulative_[i] = acc;
  }
  // Normalize to a proper CDF.
  for (auto& c : cumulative_) c /= acc;
  cumulative_.back() = 1.0;
}

std::size_t ZipfianGenerator::next_index(Rng& rng) {
  const double u = rng.next_double();
  const auto it =
      std::lower_bound(cumulative_.begin(), cumulative_.end(), u);
  return static_cast<std::size_t>(it - cumulative_.begin());
}

double ZipfianGenerator::cdf(std::size_t i) const {
  if (i >= cumulative_.size()) return 1.0;
  return cumulative_[i];
}

double ZipfianGenerator::pmf(std::size_t i) const {
  if (i >= cumulative_.size()) return 0.0;
  return i == 0 ? cumulative_[0] : cumulative_[i] - cumulative_[i - 1];
}

std::string WorkloadSpec::label() const {
  if (kind == Kind::kUniform) return "uniform";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "zipf-%.1f", zipf_skew);
  return buf;
}

std::unique_ptr<KeyGenerator> make_generator(const WorkloadSpec& spec,
                                             std::size_t universe) {
  if (spec.kind == WorkloadSpec::Kind::kUniform) {
    return std::make_unique<UniformGenerator>(universe);
  }
  return std::make_unique<ZipfianGenerator>(universe, spec.zipf_skew);
}

Workload::Workload(WorkloadSpec spec, std::size_t universe,
                   std::uint64_t seed, std::string prefix)
    : spec_(spec),
      generator_(make_generator(spec, universe)),
      rng_(seed),
      prefix_(std::move(prefix)) {
  permutation_.resize(universe);
  for (std::size_t i = 0; i < universe; ++i) permutation_[i] = i;
}

std::size_t Workload::next_object() {
  return permutation_[generator_->next_index(rng_)];
}

ObjectKey Workload::next_key() {
  return prefix_ + std::to_string(next_object());
}

void Workload::apply(const scenario::PopularityShift& shift) {
  const std::size_t n = permutation_.size();
  if (n == 0) return;
  switch (shift.kind) {
    case scenario::PopularityShift::Kind::kRotate: {
      const std::size_t by = shift.rotate_by % n;
      std::rotate(permutation_.begin(),
                  permutation_.begin() + static_cast<std::ptrdiff_t>(by),
                  permutation_.end());
      break;
    }
    case scenario::PopularityShift::Kind::kReseed: {
      // Deterministic Fisher-Yates from the shift's own seed, so every
      // client in every run sees the same post-shift popularity order.
      Rng rng(shift.seed);
      for (std::size_t i = n - 1; i > 0; --i) {
        const std::size_t j =
            static_cast<std::size_t>(rng.next_below(i + 1));
        std::swap(permutation_[i], permutation_[j]);
      }
      break;
    }
    case scenario::PopularityShift::Kind::kFlashCrowd: {
      const std::size_t count = std::min(shift.crowd_count, n);
      if (count == 0) break;
      const std::size_t from =
          std::min(shift.crowd_from.value_or(n - count), n - count);
      // Move the block to the front, preserving everyone else's order.
      std::rotate(permutation_.begin(),
                  permutation_.begin() + static_cast<std::ptrdiff_t>(from),
                  permutation_.begin() +
                      static_cast<std::ptrdiff_t>(from + count));
      break;
    }
  }
}

std::uint64_t workload_stream_seed(std::uint64_t run_seed,
                                   std::size_t region_index,
                                   std::size_t client) {
  return run_seed * 1315423911ULL + region_index * 1000000007ULL + client;
}

}  // namespace agar::client
