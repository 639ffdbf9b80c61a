#include "core/knapsack.hpp"

#include <algorithm>

namespace agar::core {

KnapsackResult KnapsackResult::of(std::vector<CachingOption> chosen) {
  KnapsackResult r;
  r.chosen = std::move(chosen);
  for (const auto& o : r.chosen) {
    r.total_value += o.value;
    r.total_weight_units += o.weight_units;
  }
  return r;
}

KnapsackResult KnapsackDp::solve(
    const std::vector<std::vector<CachingOption>>& options_per_key,
    std::size_t capacity_units) {
  const std::size_t cap = capacity_units;

  // Flatten the usable options, group by group in input order. A group with
  // none gets no row: its row would repeat the one before it.
  items_.clear();
  rows_.clear();
  for (std::size_t g = 0; g < options_per_key.size(); ++g) {
    const std::size_t first = items_.size();
    const auto& group = options_per_key[g];
    for (std::size_t o = 0; o < group.size(); ++o) {
      if (!usable(group[o], cap)) continue;
      items_.push_back(Item{group[o].weight_units, group[o].value, g, o});
    }
    if (items_.size() > first) rows_.push_back(first);
  }
  // The table below is sized by the capacity, not by the options: with
  // nothing to choose, return the empty plan without building it.
  if (items_.empty()) return KnapsackResult::of({});
  const std::size_t rows = rows_.size();
  rows_.push_back(items_.size());

  // table[r][c]: best value achievable with the first r keys and at most c
  // capacity units. This is the paper's MaxV map (Fig. 4) densified over
  // capacities; row r+1 is row r "improved" by key r's option group.
  //
  // Considering every option of a group at each capacity performs both of
  // the paper's improvement moves at once:
  //   * ADDTOCONFIG: extend a configuration of weight c-w with an option of
  //     weight w;
  //   * RELAX: a configuration that used a heavier option for this key is
  //     superseded whenever a lighter option (leaving room for other keys'
  //     options) yields more total value — that alternative is simply
  //     another cell of the same row.
  //
  // A row starts as the one before it (skip this key), then takes each
  // option in group order wherever it is strictly better, so a cell keeps
  // the first option that reaches its maximum. The loop over capacities is
  // a branch-free max the compiler vectorizes.
  const std::size_t width = cap + 1;
  if (table_.size() < (rows + 1) * width) table_.resize((rows + 1) * width);
  std::fill_n(table_.begin(), width, 0.0);
  for (std::size_t r = 0; r < rows; ++r) {
    const double* prev = table_.data() + r * width;
    double* cur = table_.data() + (r + 1) * width;
    std::copy_n(prev, width, cur);
    for (std::size_t j = rows_[r]; j < rows_[r + 1]; ++j) {
      const std::size_t w = items_[j].weight_units;
      const double v = items_[j].value;
      for (std::size_t c = w; c < width; ++c) {
        const double candidate = prev[c - w] + v;
        cur[c] = candidate > cur[c] ? candidate : cur[c];
      }
    }
  }

  // Trace back the choices from MaxV[CacheSize] (paper Fig. 4 line 23): the
  // first option of the key's group that reaches the cell is the one the
  // cell took.
  picks_.clear();
  std::size_t c = cap;
  for (std::size_t r = rows; r-- > 0;) {
    const double* prev = table_.data() + r * width;
    const double best = table_[(r + 1) * width + c];
    if (best == prev[c]) continue;  // key r contributed nothing
    for (std::size_t j = rows_[r]; j < rows_[r + 1]; ++j) {
      const Item& item = items_[j];
      if (item.weight_units > c) continue;
      if (prev[c - item.weight_units] + item.value == best) {
        picks_.push_back(j);
        c -= item.weight_units;
        break;
      }
    }
  }
  std::vector<CachingOption> chosen;
  chosen.reserve(picks_.size());
  for (auto it = picks_.rbegin(); it != picks_.rend(); ++it) {
    const Item& item = items_[*it];
    chosen.push_back(options_per_key[item.group][item.option]);
  }
  return KnapsackResult::of(std::move(chosen));
}

KnapsackResult solve_dp(
    const std::vector<std::vector<CachingOption>>& options_per_key,
    std::size_t capacity_units) {
  return KnapsackDp{}.solve(options_per_key, capacity_units);
}

KnapsackResult solve_greedy(
    const std::vector<std::vector<CachingOption>>& options_per_key,
    std::size_t capacity_units) {
  struct Flat {
    const CachingOption* opt;
    std::size_t group;
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
  // Deterministic total order: density first, then group and weight. A
  // planner's groups are in key order, so equal densities go to the
  // earlier key.
  std::stable_sort(flat.begin(), flat.end(), [](const Flat& a, const Flat& b) {
    if (a.density != b.density) return a.density > b.density;
    if (a.group != b.group) return a.group < b.group;
    return a.opt->weight_units < b.opt->weight_units;
  });

  // Each group's pick, if any; reported in group order, as the other
  // solvers do.
  std::vector<const CachingOption*> picked(options_per_key.size(), nullptr);
  std::size_t used = 0;
  for (const auto& f : flat) {
    if (picked[f.group] != nullptr) continue;
    if (used + f.opt->weight_units > capacity_units) continue;
    picked[f.group] = f.opt;
    used += f.opt->weight_units;
  }
  std::vector<CachingOption> chosen;
  for (const CachingOption* o : picked) {
    if (o != nullptr) chosen.push_back(*o);
  }
  return KnapsackResult::of(std::move(chosen));
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
    if (!usable(o, capacity_left)) continue;
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
  return KnapsackResult::of(std::move(chosen));
}

}  // namespace agar::core
