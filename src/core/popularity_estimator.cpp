#include "core/popularity_estimator.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <unordered_map>

#include "api/registry.hpp"
#include "stats/count_min.hpp"

namespace agar::core {

namespace {

/// The paper's monitor: an exact count and an EWMA popularity per key,
/// with the current period's in-flight count blended into every reading.
/// Keys whose popularity decays below `drop_below` are dropped, so the map
/// follows the working set, not the full key space.
class ExactEwmaEstimator final : public PopularityEstimator {
 public:
  ExactEwmaEstimator(double alpha, double drop_below)
      : alpha_(alpha), drop_below_(drop_below) {}

  void record(const ObjectKey& key) override { ++state_[key].count; }

  void roll_period() override {
    // agar-lint: ordered-ok(per-key EWMA fold + threshold drop; every key
    // is updated independently, so visit order cannot change the result)
    for (auto it = state_.begin(); it != state_.end();) {
      KeyState& s = it->second;
      s.popularity = alpha_ * static_cast<double>(s.count) +
                     (1.0 - alpha_) * s.popularity;
      s.count = 0;
      if (s.popularity < drop_below_) {
        it = state_.erase(it);
      } else {
        ++it;
      }
    }
  }

  [[nodiscard]] double popularity(const ObjectKey& key) const override {
    const auto it = state_.find(key);
    return it == state_.end() ? 0.0 : blended(it->second);
  }

  [[nodiscard]] std::vector<std::pair<ObjectKey, double>> snapshot()
      const override {
    std::vector<std::pair<ObjectKey, double>> out;
    out.reserve(state_.size());
    // agar-lint: ordered-ok(sorted below; snapshot() promises key-sorted
    // output)
    for (const auto& [key, s] : state_) out.emplace_back(key, blended(s));
    std::sort(out.begin(), out.end());
    return out;
  }

  [[nodiscard]] std::size_t tracked_keys() const override {
    return state_.size();
  }

  [[nodiscard]] std::string name() const override { return "exact-ewma"; }

 private:
  struct KeyState {
    double popularity = 0.0;  ///< EWMA over the closed periods
    std::uint64_t count = 0;  ///< accesses in the current period
  };

  [[nodiscard]] double blended(const KeyState& s) const {
    return s.popularity + alpha_ * static_cast<double>(s.count);
  }

  double alpha_;
  double drop_below_;
  std::unordered_map<ObjectKey, KeyState> state_;
};

/// Sketch-backed estimator: per-period counts live in a count-min sketch
/// (fixed memory regardless of keyspace), and only a bounded candidate set
/// of keys carries an EWMA popularity into planning. Estimates can only
/// over-count (sketch collisions), never under-count.
class CountMinEstimator final : public PopularityEstimator {
 public:
  CountMinEstimator(double alpha, std::size_t width, std::size_t depth,
                    std::size_t max_keys, double drop_below)
      : alpha_(alpha),
        max_keys_(std::max<std::size_t>(max_keys, 1)),
        drop_below_(drop_below),
        sketch_(width, depth) {}

  void record(const ObjectKey& key) override {
    sketch_.add(key);
    if (pops_.count(key) != 0) return;
    if (pops_.size() < max_keys_) {
      pops_.emplace(key, 0.0);
      return;
    }
    // Candidate set full: a new key displaces the weakest candidate only
    // once its sketch estimate out-ranks that candidate's blended
    // popularity. record() is on the path of every client read, so the
    // full O(max_keys) victim scan is amortized: it runs once per period
    // roll and once per displacement; the steady-state challenge is one
    // O(depth) re-estimate of the cached victim.
    const auto est = sketch_.estimate(key);
    if (est < 2) return;
    if (weakest_.empty()) refresh_weakest();
    if (weakest_.empty()) return;
    const double weakest_pop = blended(weakest_, pops_.at(weakest_));
    if (alpha_ * static_cast<double>(est) > weakest_pop) {
      pops_.erase(weakest_);
      pops_.emplace(key, 0.0);
      weakest_.clear();
    }
  }

  void roll_period() override {
    // agar-lint: ordered-ok(per-key EWMA decay + threshold drop; every key
    // is updated independently, so visit order cannot change the result)
    for (auto it = pops_.begin(); it != pops_.end();) {
      const auto count = sketch_.estimate(it->first);
      it->second = alpha_ * static_cast<double>(count) +
                   (1.0 - alpha_) * it->second;
      if (it->second < drop_below_) {
        it = pops_.erase(it);
      } else {
        ++it;
      }
    }
    // Fresh counters per period (the EWMA carries the history); the
    // decayed popularities re-rank the candidates, so the cached victim
    // is stale.
    sketch_.reset();
    weakest_.clear();
  }

  [[nodiscard]] double popularity(const ObjectKey& key) const override {
    const auto it = pops_.find(key);
    return blended(key, it == pops_.end() ? 0.0 : it->second);
  }

  [[nodiscard]] std::vector<std::pair<ObjectKey, double>> snapshot()
      const override {
    std::vector<std::pair<ObjectKey, double>> out;
    out.reserve(pops_.size());
    // agar-lint: ordered-ok(sorted below; snapshot() promises key-sorted
    // output — the estimator determinism contract from PR 5)
    for (const auto& [key, pop] : pops_) {
      out.emplace_back(key, blended(key, pop));
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  [[nodiscard]] std::size_t tracked_keys() const override {
    return pops_.size();
  }

  [[nodiscard]] std::string name() const override { return "count-min"; }

 private:
  [[nodiscard]] double blended(const ObjectKey& key, double pop) const {
    return pop + alpha_ * static_cast<double>(sketch_.estimate(key));
  }

  /// Full victim scan; deterministic tie-break (lexicographically largest
  /// key) so displacement order never depends on hash-map iteration.
  void refresh_weakest() {
    weakest_.clear();
    double weakest_pop = std::numeric_limits<double>::infinity();
    // agar-lint: ordered-ok(min-scan with explicit lexicographic tie-break;
    // the chosen victim is order-independent)
    for (const auto& [key, pop] : pops_) {
      const double p = blended(key, pop);
      if (p < weakest_pop || (p == weakest_pop && key > weakest_)) {
        weakest_ = key;
        weakest_pop = p;
      }
    }
  }

  double alpha_;
  std::size_t max_keys_;
  double drop_below_;
  stats::CountMinSketch sketch_;
  std::unordered_map<ObjectKey, double> pops_;
  /// Cached displacement victim; empty = recompute on next challenge.
  ObjectKey weakest_;
};

const api::EstimatorRegistration kExactEwma{{
    "exact-ewma",
    "exact EWMA",
    "exact per-key counts folded into EWMA popularity (the paper's request "
    "monitor)",
    api::ParamSchema{{
        {"drop_below", api::ParamType::kDouble, "0.001",
         "drop keys whose popularity decays below this floor"},
    }},
    [](const api::EstimatorContext& ctx, const api::ParamMap& params) {
      return std::make_unique<ExactEwmaEstimator>(
          ctx.ewma_alpha, params.get_double("drop_below"));
    },
    {}}};

const api::EstimatorRegistration kCountMin{{
    "count-min",
    "count-min",
    "count-min sketch counts + bounded candidate set: sublinear memory on "
    "large keyspaces, bounded over-estimates",
    api::ParamSchema{{
        {"width", api::ParamType::kSize, "1024", "sketch counters per row"},
        {"depth", api::ParamType::kSize, "4", "sketch hash rows"},
        {"max_keys", api::ParamType::kSize, "4096",
         "bound on candidate keys carried into planning"},
        {"drop_below", api::ParamType::kDouble, "0.001",
         "drop candidates whose popularity decays below this floor"},
    }},
    [](const api::EstimatorContext& ctx, const api::ParamMap& params) {
      return std::make_unique<CountMinEstimator>(
          ctx.ewma_alpha, params.get_size("width"), params.get_size("depth"),
          params.get_size("max_keys"), params.get_double("drop_below"));
    },
    {}}};

}  // namespace

}  // namespace agar::core
