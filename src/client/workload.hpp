// YCSB-style workload generation (paper §V-A: read-only workloads, Zipfian
// with configurable skew or uniform, over a fixed pool of objects).
//
// The Zipfian generator samples rank r with probability proportional to
// 1 / r^s by inverse-CDF over a precomputed cumulative table — exact for
// any skew s >= 0 (s == 0 degenerates to uniform), including s == 1 where
// the YCSB rejection formula needs special-casing.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "scenario/scenario.hpp"

namespace agar::client {

/// Key-choice distribution.
class KeyGenerator {
 public:
  virtual ~KeyGenerator() = default;
  /// Returns a key index in [0, universe).
  [[nodiscard]] virtual std::size_t next_index(Rng& rng) = 0;
  [[nodiscard]] virtual std::size_t universe() const = 0;
};

class UniformGenerator final : public KeyGenerator {
 public:
  explicit UniformGenerator(std::size_t universe);
  [[nodiscard]] std::size_t next_index(Rng& rng) override;
  [[nodiscard]] std::size_t universe() const override { return universe_; }

 private:
  std::size_t universe_;
};

class ZipfianGenerator final : public KeyGenerator {
 public:
  /// `skew` is the Zipf exponent (the paper sweeps 0.2 .. 1.4).
  ZipfianGenerator(std::size_t universe, double skew);

  [[nodiscard]] std::size_t next_index(Rng& rng) override;
  [[nodiscard]] std::size_t universe() const override {
    return cumulative_.size();
  }
  [[nodiscard]] double skew() const { return skew_; }

  /// P(rank <= i), 0-based inclusive — the Fig. 9 CDF.
  [[nodiscard]] double cdf(std::size_t i) const;

  /// Probability of exactly rank i.
  [[nodiscard]] double pmf(std::size_t i) const;

 private:
  double skew_;
  std::vector<double> cumulative_;  // cumulative_[i] = P(rank <= i)
};

/// Declarative workload description used by experiment configs.
struct WorkloadSpec {
  enum class Kind { kUniform, kZipfian };
  Kind kind = Kind::kZipfian;
  double zipf_skew = 1.1;  ///< paper default

  [[nodiscard]] static WorkloadSpec uniform() {
    return WorkloadSpec{Kind::kUniform, 0.0};
  }
  [[nodiscard]] static WorkloadSpec zipfian(double skew) {
    return WorkloadSpec{Kind::kZipfian, skew};
  }

  [[nodiscard]] std::string label() const;
};

/// Instantiate the generator a spec describes.
[[nodiscard]] std::unique_ptr<KeyGenerator> make_generator(
    const WorkloadSpec& spec, std::size_t universe);

/// Mix the per-(run, region, client) workload RNG seed the experiment
/// runner uses. Exported so external load generators (agarctl's replay
/// mode) can reproduce the exact key stream of a run: region index 0,
/// client c reduces to the historical single-region formula.
[[nodiscard]] std::uint64_t workload_stream_seed(std::uint64_t run_seed,
                                                 std::size_t region_index,
                                                 std::size_t client);

/// A stream of object keys: maps generator ranks onto key names through a
/// mutable rank->object permutation. Rank 0 is the most popular object;
/// initially rank r maps to object r. Keys follow the backend's naming
/// scheme ("<prefix><i>"); Deployment::object_id maps an index to the id
/// a read runs on.
///
/// The permutation is what makes the workload non-stationary: scenario
/// popularity shifts rewrite which objects occupy the hot ranks mid-run
/// while the generator's rank distribution (the Zipf shape) is untouched.
class Workload {
 public:
  Workload(WorkloadSpec spec, std::size_t universe, std::uint64_t seed,
           std::string prefix = "object");

  /// The next object's index in the working set.
  [[nodiscard]] std::size_t next_object();
  /// The same object's key: "<prefix><index>".
  [[nodiscard]] ObjectKey next_key();
  [[nodiscard]] const WorkloadSpec& spec() const { return spec_; }

  /// Apply one scripted popularity shift to the rank->object mapping:
  ///   * rotate: rank r now yields the object previously at rank r+by;
  ///   * reseed: deterministic Fisher-Yates reshuffle of the mapping;
  ///   * flash crowd: a block of `count` objects (default: the coldest
  ///     tail) jumps to the top ranks, everything else shifts back.
  void apply(const scenario::PopularityShift& shift);

  /// Object index currently mapped to `rank` (tests/observability).
  [[nodiscard]] std::size_t object_at_rank(std::size_t rank) const {
    return permutation_.at(rank);
  }

 private:
  WorkloadSpec spec_;
  std::unique_ptr<KeyGenerator> generator_;
  Rng rng_;
  std::string prefix_;
  std::vector<std::size_t> permutation_;  ///< rank -> object index
};

}  // namespace agar::client
