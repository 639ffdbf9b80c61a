#include "core/knapsack.hpp"

#include <algorithm>

namespace agar::core {

namespace {

/// An option is usable if it consumes capacity and contributes value.
bool usable(const CachingOption& o, std::size_t capacity_units) {
  return o.value > 0.0 && o.weight_units > 0 &&
         o.weight_units <= capacity_units;
}

KnapsackResult finish(std::vector<CachingOption> chosen) {
  KnapsackResult r;
  r.chosen = std::move(chosen);
  for (const auto& o : r.chosen) {
    r.total_value += o.value;
    r.total_weight_units += o.weight_units;
  }
  return r;
}

}  // namespace

KnapsackResult solve_dp(
    const std::vector<std::vector<CachingOption>>& options_per_key,
    std::size_t capacity_units) {
  const std::size_t cap = capacity_units;
  const std::size_t n = options_per_key.size();

  // The table below is sized by the capacity, not by the options: with
  // nothing to choose, return the empty plan without building it.
  const bool any_usable = std::any_of(
      options_per_key.begin(), options_per_key.end(), [cap](const auto& g) {
        return std::any_of(g.begin(), g.end(), [cap](const CachingOption& o) {
          return usable(o, cap);
        });
      });
  if (!any_usable) return finish({});

  // table[i][c]: best value achievable with the first i keys and at most c
  // capacity units. This is the paper's MaxV map (Fig. 4) densified over
  // capacities; row i+1 is row i "improved" by key i's option group.
  //
  // Considering every option of a group at each capacity performs both of
  // the paper's improvement moves at once:
  //   * ADDTOCONFIG: extend a configuration of weight c-w with an option of
  //     weight w;
  //   * RELAX: a configuration that used a heavier option for this key is
  //     superseded whenever a lighter option (leaving room for other keys'
  //     options) yields more total value — that alternative is simply
  //     another cell of the same row.
  std::vector<std::vector<double>> table(n + 1,
                                         std::vector<double>(cap + 1, 0.0));
  for (std::size_t i = 0; i < n; ++i) {
    const auto& group = options_per_key[i];
    for (std::size_t c = 0; c <= cap; ++c) {
      double v = table[i][c];  // skip this key entirely
      for (const auto& opt : group) {
        if (!usable(opt, cap) || opt.weight_units > c) continue;
        v = std::max(v, table[i][c - opt.weight_units] + opt.value);
      }
      table[i + 1][c] = v;
    }
  }

  // Trace back the choices from MaxV[CacheSize] (paper Fig. 4 line 23).
  std::vector<CachingOption> chosen;
  std::size_t c = cap;
  for (std::size_t i = n; i-- > 0;) {
    if (table[i + 1][c] == table[i][c]) continue;  // key i contributed nothing
    for (const auto& opt : options_per_key[i]) {
      if (!usable(opt, cap) || opt.weight_units > c) continue;
      if (table[i][c - opt.weight_units] + opt.value == table[i + 1][c]) {
        chosen.push_back(opt);
        c -= opt.weight_units;
        break;
      }
    }
  }
  std::reverse(chosen.begin(), chosen.end());
  return finish(std::move(chosen));
}

KnapsackResult solve_greedy(
    const std::vector<std::vector<CachingOption>>& options_per_key,
    std::size_t capacity_units) {
  struct Flat {
    const CachingOption* opt;
    std::size_t key_idx;
    double density;
  };
  std::vector<Flat> flat;
  for (std::size_t i = 0; i < options_per_key.size(); ++i) {
    for (const auto& o : options_per_key[i]) {
      if (!usable(o, capacity_units)) continue;
      flat.push_back(
          Flat{&o, i, o.value / static_cast<double>(o.weight_units)});
    }
  }
  // Deterministic total order: density first, then key and weight — equal
  // densities must not fall through to input order, or the chosen
  // configuration would depend on how the caller assembled the groups.
  std::stable_sort(flat.begin(), flat.end(), [](const Flat& a, const Flat& b) {
    if (a.density != b.density) return a.density > b.density;
    if (a.opt->key != b.opt->key) return a.opt->key < b.opt->key;
    return a.opt->weight_units < b.opt->weight_units;
  });

  std::vector<bool> key_used(options_per_key.size(), false);
  std::vector<CachingOption> chosen;
  std::size_t used = 0;
  for (const auto& f : flat) {
    if (key_used[f.key_idx]) continue;
    if (used + f.opt->weight_units > capacity_units) continue;
    key_used[f.key_idx] = true;
    chosen.push_back(*f.opt);
    used += f.opt->weight_units;
  }
  return finish(std::move(chosen));
}

namespace {

void brute_rec(const std::vector<std::vector<CachingOption>>& groups,
               std::size_t i, std::size_t capacity_left, double value,
               std::vector<const CachingOption*>& picked, double& best_value,
               std::vector<const CachingOption*>& best_picked) {
  if (i == groups.size()) {
    if (value > best_value) {
      best_value = value;
      best_picked = picked;
    }
    return;
  }
  // Branch: skip this key entirely.
  brute_rec(groups, i + 1, capacity_left, value, picked, best_value,
            best_picked);
  for (const auto& o : groups[i]) {
    if (o.value <= 0.0 || o.weight_units == 0 ||
        o.weight_units > capacity_left) {
      continue;
    }
    picked.push_back(&o);
    brute_rec(groups, i + 1, capacity_left - o.weight_units, value + o.value,
              picked, best_value, best_picked);
    picked.pop_back();
  }
}

}  // namespace

KnapsackResult solve_brute_force(
    const std::vector<std::vector<CachingOption>>& options_per_key,
    std::size_t capacity_units) {
  double best_value = 0.0;
  std::vector<const CachingOption*> picked, best_picked;
  brute_rec(options_per_key, 0, capacity_units, 0.0, picked, best_value,
            best_picked);
  std::vector<CachingOption> chosen;
  chosen.reserve(best_picked.size());
  for (const auto* p : best_picked) chosen.push_back(*p);
  return finish(std::move(chosen));
}

}  // namespace agar::core
