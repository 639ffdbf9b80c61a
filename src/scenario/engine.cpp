#include "scenario/engine.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>
#include <utility>

#include "sim/topology.hpp"

namespace agar::scenario {

namespace {

api::ParamInfo region_param() {
  return {"region", api::ParamType::kString, "",
          "target region (name like 'tokyo', or numeric id)"};
}

RegionId region_of(const api::ParamMap& params) {
  return sim::resolve_region(params.get_string("region"));
}

/// partition_regions' group: the listed regions, a repeat dropped.
std::vector<RegionId> partition_group(const api::ParamMap& params) {
  std::vector<RegionId> group;
  for (const RegionId r :
       sim::resolve_region_list(params.raw("regions").value_or(""))) {
    if (std::find(group.begin(), group.end(), r) == group.end()) {
      group.push_back(r);
    }
  }
  return group;
}

/// flap_region's down time: half the cycle unless given.
SimTimeMs down_ms_of(const api::ParamMap& params) {
  return params.has("down_ms") ? params.get_double("down_ms")
                               : params.get_double("period_ms") / 2.0;
}

}  // namespace

const std::vector<EventKind>& event_kinds() {
  static const std::vector<EventKind> kinds = ScenarioEngine::vocabulary();
  return kinds;
}

std::vector<EventKind> ScenarioEngine::vocabulary() {
  using api::ParamMap;
  using api::ParamSchema;
  using api::ParamType;
  using Loop = sim::EventLoop;
  using Shift = PopularityShift;
  return {
      {"fail_region", ParamSchema{{region_param()}},
       "region outage: refuse new fetches, abort in-flight and queued ones",
       nullptr,
       [](ScenarioEngine& engine, const ParamMap& p, Loop&) {
         engine.network_->fail_region(region_of(p));
       }},
      {"restore_region", ParamSchema{{region_param()}},
       "bring a failed region back (aborted fetches stay failed)", nullptr,
       [](ScenarioEngine& engine, const ParamMap& p, Loop&) {
         engine.network_->restore_region(region_of(p));
       }},
      {"slow_region",
       ParamSchema{{region_param(),
                    {"factor", ParamType::kDouble, "1",
                     "multiplicative latency slowdown (1 clears)"}}},
       "latency degradation: scale fetches served by a region",
       [](const ParamMap& p) {
         return p.get_double("factor") > 0.0 ? nullptr : "factor must be > 0";
       },
       [](ScenarioEngine& engine, const ParamMap& p, Loop&) {
         engine.network_->model().set_region_slowdown(region_of(p),
                                                      p.get_double("factor"));
       }},
      {"drop_region",
       ParamSchema{{region_param(),
                    {"p", ParamType::kDouble, "0",
                     "response-loss probability in [0, 1) (0 clears)"},
                    {"mult", ParamType::kDouble, "3",
                     "failure-discovery delay as a multiple of the sampled "
                     "transfer latency"}}},
       "gray failure: lose responses; the loss surfaces only after mult x "
       "the transfer time",
       [](const ParamMap& p) -> const char* {
         const double loss = p.get_double("p");
         if (loss < 0.0 || loss >= 1.0) return "p must be in [0, 1)";
         if (p.get_double("mult") <= 0.0) return "mult must be > 0";
         return nullptr;
       },
       [](ScenarioEngine& engine, const ParamMap& p, Loop&) {
         engine.network_->model().set_region_drop(
             region_of(p), p.get_double("p"), p.get_double("mult"));
       }},
      {"straggle_region",
       ParamSchema{{region_param(),
                    {"frac", ParamType::kDouble, "0",
                     "fraction of fetches hitting the slow tail (0 clears)"},
                    {"mult", ParamType::kDouble, "10",
                     "latency multiplier for straggling fetches"}}},
       "gray failure: a sampled fraction of a region's fetches straggles",
       [](const ParamMap& p) -> const char* {
         const double frac = p.get_double("frac");
         if (frac < 0.0 || frac > 1.0) return "frac must be in [0, 1]";
         if (p.get_double("mult") <= 0.0) return "mult must be > 0";
         return nullptr;
       },
       [](ScenarioEngine& engine, const ParamMap& p, Loop&) {
         engine.network_->model().set_region_straggle(
             region_of(p), p.get_double("frac"), p.get_double("mult"));
       }},
      {"flap_region",
       ParamSchema{{region_param(),
                    {"period_ms", ParamType::kDouble, "10000",
                     "full up/down cycle length in ms"},
                    {"down_ms", ParamType::kDouble, "",
                     "down time per cycle (default: period_ms / 2)"},
                    {"until_ms", ParamType::kDouble, "",
                     "no new cycle starts at/after this time "
                     "(default: flap forever)"}}},
       "gray failure: the region fails and recovers periodically",
       [](const ParamMap& p) -> const char* {
         const double period = p.get_double("period_ms");
         if (period <= 0.0) return "period_ms must be > 0";
         const double down = down_ms_of(p);
         if (down <= 0.0 || down >= period) {
           return "down_ms must be in (0, period_ms)";
         }
         if (p.has("until_ms") && p.get_double("until_ms") < 0.0) {
           return "until_ms must be >= 0";
         }
         return nullptr;
       },
       [](ScenarioEngine& engine, const ParamMap& p, Loop& loop) {
         engine.flap_cycle(
             loop, region_of(p), p.get_double("period_ms"), down_ms_of(p),
             p.has("until_ms") ? p.get_double("until_ms") : 0.0);
       }},
      {"partition_regions",
       ParamSchema{{{"regions", ParamType::kString, "",
                     "comma-separated region names/ids forming one side of "
                     "the partition"}}},
       "network partition: the listed regions and the rest can no longer "
       "exchange collab traffic (peer fetches, broadcasts, config appends); "
       "backend fetches keep flowing",
       [](const ParamMap& p) -> const char* {
         // Absent or empty, the list names no region.
         const auto group = partition_group(p);
         if (group.empty()) return "'regions' must list >= 1 region";
         if (group.size() >= sim::aws_six_regions().num_regions()) {
           return "'regions' must leave at least one region on the other "
                  "side";
         }
         return nullptr;
       },
       [](ScenarioEngine& engine, const ParamMap& p, Loop&) {
         if (engine.partition_) {
           engine.partition_(partition_group(p));
         }
       }},
      {"heal_partition", ParamSchema{},
       "heal the network partition: collab traffic flows everywhere again",
       nullptr,
       [](ScenarioEngine& engine, const ParamMap&, Loop&) {
         if (engine.partition_) engine.partition_({});
       }},
      {"popularity_rotate",
       ParamSchema{{{"by", ParamType::kSize, "0",
                     "ranks to rotate the rank->object mapping by"}}},
       "popularity shift: rotate which objects are hot", nullptr, nullptr,
       [](const ParamMap& p) {
         Shift shift;
         shift.kind = Shift::Kind::kRotate;
         shift.rotate_by = p.get_size("by");
         return shift;
       }},
      {"popularity_reseed",
       ParamSchema{{{"seed", ParamType::kSize, "1",
                     "shuffle seed for the rank->object mapping"}}},
       "popularity shift: reshuffle the rank->object mapping", nullptr,
       nullptr,
       [](const ParamMap& p) {
         Shift shift;
         shift.kind = Shift::Kind::kReseed;
         shift.seed = p.get_size("seed");
         return shift;
       }},
      {"flash_crowd",
       ParamSchema{{{"count", ParamType::kSize, "1",
                     "number of keys promoted to the most popular ranks"},
                    {"from_rank", ParamType::kSize, "",
                     "rank the promoted block starts at (default: coldest "
                     "tail)"}}},
       "popularity shift: a key subset jumps to the top ranks", nullptr,
       nullptr,
       [](const ParamMap& p) {
         Shift shift;
         shift.kind = Shift::Kind::kFlashCrowd;
         shift.crowd_count = p.get_size("count");
         if (p.has("from_rank")) shift.crowd_from = p.get_size("from_rank");
         return shift;
       }},
      {"arrival_factor",
       ParamSchema{{{"factor", ParamType::kDouble, "1",
                     "step multiplier on open-loop arrival rate"}}},
       "arrival modulation: step the Poisson rate up or down",
       [](const ParamMap& p) {
         return p.get_double("factor") > 0.0 ? nullptr : "factor must be > 0";
       },
       [](ScenarioEngine& engine, const ParamMap& p, Loop&) {
         engine.step_factor_ = p.get_double("factor");
       }},
      {"arrival_sine",
       ParamSchema{{{"period_s", ParamType::kDouble, "60",
                     "sine period in seconds"},
                    {"amplitude", ParamType::kDouble, "0.5",
                     "relative amplitude in [0, 1) (0 turns the sine off)"}}},
       "arrival modulation: diurnal-sine rate multiplier from now on",
       [](const ParamMap& p) -> const char* {
         const double amp = p.get_double("amplitude");
         if (amp < 0.0 || amp >= 1.0) return "amplitude must be in [0, 1)";
         if (p.get_double("period_s") <= 0.0) return "period_s must be > 0";
         return nullptr;
       },
       [](ScenarioEngine& engine, const ParamMap& p, Loop& loop) {
         engine.sine_amplitude_ = p.get_double("amplitude");
         engine.sine_period_ms_ = p.get_double("period_s") * 1000.0;
         engine.sine_start_ms_ = loop.now();
       }},
  };
}

ScenarioEngine::ScenarioEngine(Scenario scenario, sim::Network* network,
                               PopularityHook popularity)
    : scenario_(std::move(scenario)),
      network_(network),
      popularity_(std::move(popularity)) {
  if (network_ == nullptr) {
    throw std::invalid_argument("ScenarioEngine: null network");
  }
  scenario_.validate();
  if (!popularity_) {
    for (const auto& e : scenario_.events) {
      if (find_event_kind(e.event)->shift != nullptr) {
        throw std::invalid_argument(
            "ScenarioEngine: scenario contains popularity event '" +
            e.event + "' but no popularity hook was registered");
      }
    }
  }
}

void ScenarioEngine::schedule(sim::EventLoop& loop) {
  for (const ScenarioEvent& e : scenario_.sorted()) {
    const EventKind* kind = find_event_kind(e.event);
    loop.schedule_at(e.at_ms, [this, kind, &loop,
                               params = e.params.with_defaults(kind->schema)] {
      ++fired_;
      // The constructor guaranteed the hook exists for popularity shifts.
      if (kind->shift != nullptr) {
        popularity_(kind->shift(params));
      } else {
        kind->apply(*this, params, loop);
      }
    });
  }
}

void ScenarioEngine::flap_cycle(sim::EventLoop& loop, RegionId region,
                                SimTimeMs period_ms, SimTimeMs down_ms,
                                SimTimeMs until_ms) {
  network_->fail_region(region);
  loop.schedule_in(down_ms,
                   [this, region] { network_->restore_region(region); });
  const SimTimeMs next = loop.now() + period_ms;
  if (until_ms > 0.0 && next >= until_ms) return;
  loop.schedule_in(period_ms, [this, &loop, region, period_ms, down_ms,
                               until_ms] {
    flap_cycle(loop, region, period_ms, down_ms, until_ms);
  });
}

double ScenarioEngine::arrival_multiplier(SimTimeMs now) const {
  double m = step_factor_;
  if (sine_amplitude_ > 0.0 && sine_period_ms_ > 0.0) {
    const double phase = 2.0 * std::numbers::pi * (now - sine_start_ms_) /
                         sine_period_ms_;
    m *= 1.0 + sine_amplitude_ * std::sin(phase);
  }
  // An arrival gap of rate*multiplier must stay drawable.
  return std::max(m, 0.05);
}

}  // namespace agar::scenario
