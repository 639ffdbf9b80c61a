// ExperimentSpec: key=value routing, JSON spec files (round-trip and
// malformed-input diagnostics), sweep expansion, validation.
#include "api/experiment_spec.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>

#include "api/json.hpp"
#include "api/registry.hpp"
#include "api/run.hpp"

namespace agar::api {
namespace {

TEST(ExperimentSpec, KeyValueRoutingReachesTypedFields) {
  const auto spec = ExperimentSpec::from_pairs(
      {"system=lru", "chunks=5", "cache_bytes=2MB", "workload=zipf:1.3",
       "region=sydney", "objects=120", "object_bytes=64KB", "ops=500",
       "runs=3", "clients=4", "arrival_rate=12.5", "period_s=15",
       "seed=99", "verify=true", "max_outstanding=8", "decode_ms_per_mb=2",
       "weights=1,5,9", "rs_k=6", "rs_m=2", "placement_offset=true"});
  EXPECT_EQ(spec.system, "lru");
  EXPECT_EQ(spec.params.get_size("chunks"), 5u);
  EXPECT_EQ(spec.params.get_size("cache_bytes"), 2_MB);
  EXPECT_EQ(spec.experiment.workload.kind,
            client::WorkloadSpec::Kind::kZipfian);
  EXPECT_DOUBLE_EQ(spec.experiment.workload.zipf_skew, 1.3);
  EXPECT_EQ(spec.experiment.client_region, sim::region::kSydney);
  EXPECT_EQ(spec.experiment.deployment.num_objects, 120u);
  EXPECT_EQ(spec.experiment.deployment.object_size_bytes, 64_KB);
  EXPECT_EQ(spec.experiment.ops_per_run, 500u);
  EXPECT_EQ(spec.experiment.runs, 3u);
  EXPECT_EQ(spec.experiment.num_clients, 4u);
  EXPECT_DOUBLE_EQ(spec.experiment.arrival_rate_per_s, 12.5);
  EXPECT_DOUBLE_EQ(spec.experiment.reconfig_period_ms, 15'000.0);
  EXPECT_EQ(spec.experiment.deployment.seed, 99u);
  EXPECT_TRUE(spec.experiment.verify_data);
  EXPECT_EQ(spec.experiment.max_outstanding_per_region, 8u);
  EXPECT_DOUBLE_EQ(spec.experiment.decode_ms_per_mb, 2.0);
  EXPECT_EQ(spec.experiment.agar_candidate_weights,
            (std::vector<std::size_t>{1, 5, 9}));
  EXPECT_EQ(spec.experiment.deployment.codec.k, 6u);
  EXPECT_EQ(spec.experiment.deployment.codec.m, 2u);
  EXPECT_TRUE(spec.experiment.deployment.per_key_placement_offset);
  spec.validate();
}

TEST(ExperimentSpec, WithCopiesAndOverrides) {
  const auto base = ExperimentSpec::from_pairs({"system=agar", "ops=100"});
  const auto derived = base.with({"system=lru", "chunks=3"});
  EXPECT_EQ(base.system, "agar");
  EXPECT_EQ(derived.system, "lru");
  EXPECT_EQ(derived.experiment.ops_per_run, 100u);
  EXPECT_EQ(derived.params.get_size("chunks"), 3u);
}

TEST(ExperimentSpec, RegionAfterRegionsWinsAndViceVersa) {
  // Last writer wins in both directions — a later "region" must not be
  // silently shadowed by an earlier multi-region list.
  const auto narrowed = ExperimentSpec::from_pairs(
      {"regions=dublin,tokyo", "region=sydney"});
  EXPECT_TRUE(narrowed.experiment.client_regions.empty());
  EXPECT_EQ(narrowed.experiment.client_region, sim::region::kSydney);
  EXPECT_EQ(narrowed.experiment.effective_client_regions(),
            std::vector<RegionId>{sim::region::kSydney});

  const auto widened = ExperimentSpec::from_pairs(
      {"region=sydney", "regions=dublin,tokyo"});
  EXPECT_EQ(widened.experiment.effective_client_regions(),
            (std::vector<RegionId>{sim::region::kDublin,
                                   sim::region::kTokyo}));
}

TEST(ExperimentSpec, RepeatedClientRegionIsRejected) {
  // Each listed region is one lane with its own network; a repeat would
  // hand the second lane the first lane's network.
  try {
    (void)ExperimentSpec::from_pairs({"regions=frankfurt,dublin,frankfurt"});
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'frankfurt'"), std::string::npos)
        << e.what();
  }
}

TEST(ExperimentSpec, CandidateWeightAboveKFailsBeforeAnyRead) {
  // The default weights 1,3,5,7,9 exceed k = 6. A 30 s period never
  // reconfigures within 40 reads, so only a check at build time sees it.
  const auto spec = ExperimentSpec::from_pairs(
      {"system=agar", "rs_k=6", "rs_m=2", "objects=20", "object_bytes=9KB",
       "ops=40", "runs=1", "period_s=30"});
  EXPECT_THROW((void)run(spec), std::invalid_argument);
}

TEST(ExperimentSpec, UnknownEngineFailsAtValidateTime) {
  EXPECT_THROW(ExperimentSpec::from_pairs(
                   {"system=fixed-chunks", "engine=arcc"})
                   .validate(),
               UnknownNameError);
}

TEST(ExperimentSpec, ControlPlaneKeysValidateAgainstTheirRegistries) {
  // A fully specified control plane passes validation.
  ExperimentSpec::from_pairs(
      {"system=agar", "planner=incremental", "planner.threshold=0.2",
       "planner.full_every=10", "monitor=count-min", "monitor.width=512",
       "monitor.depth=4"})
      .validate();
  // Defaults (nothing specified) also pass.
  ExperimentSpec::from_pairs({"system=agar"}).validate();
}

TEST(ExperimentSpec, UnknownPlannerFailsAtValidateTimeWithKnownNames) {
  try {
    ExperimentSpec::from_pairs({"system=agar", "planner=simplex"}).validate();
    FAIL() << "expected UnknownNameError";
  } catch (const UnknownNameError& e) {
    const auto& known = e.known_names();
    EXPECT_NE(std::find(known.begin(), known.end(), "knapsack-dp"),
              known.end());
  }
}

TEST(ExperimentSpec, UnknownMonitorFailsAtValidateTime) {
  EXPECT_THROW(
      ExperimentSpec::from_pairs({"system=agar", "monitor=oracle"}).validate(),
      UnknownNameError);
}

TEST(ExperimentSpec, UnknownPlannerSubParamFailsAtValidateTime) {
  EXPECT_THROW(ExperimentSpec::from_pairs(
                   {"system=agar", "planner=incremental",
                    "planner.thresold=0.2"})  // typo
                   .validate(),
               std::invalid_argument);
}

TEST(ExperimentSpec, MalformedPlannerSubParamFailsAtValidateTime) {
  EXPECT_THROW(ExperimentSpec::from_pairs(
                   {"system=agar", "planner=incremental",
                    "planner.threshold=banana"})
                   .validate(),
               std::invalid_argument);
}

TEST(ExperimentSpec, ControlPlaneKeysAreRejectedForSystemsWithoutOne) {
  // `backend` has no control plane: planner= must not silently ride along.
  EXPECT_THROW(
      ExperimentSpec::from_pairs({"system=backend", "planner=greedy"})
          .validate(),
      std::invalid_argument);
}

TEST(ExperimentSpec, ControlPlanePicksShowUpInTheLabel) {
  EXPECT_EQ(ExperimentSpec::from_pairs({"system=agar"}).label(), "Agar");
  EXPECT_EQ(
      ExperimentSpec::from_pairs({"system=agar", "planner=greedy"}).label(),
      "Agar[greedy]");
  EXPECT_EQ(ExperimentSpec::from_pairs(
                {"system=agar", "planner=incremental", "monitor=count-min"})
                .label(),
            "Agar[incremental,count-min]");
}

TEST(ExperimentSpec, EmptyValueClearsAStrategyParam) {
  auto spec = ExperimentSpec::from_pairs({"system=lru", "cache_bytes=1MB"});
  EXPECT_TRUE(spec.params.has("cache_bytes"));
  spec.set_pair("cache_bytes=");
  EXPECT_FALSE(spec.params.has("cache_bytes"));
}

TEST(ExperimentSpec, MalformedValuesThrowWithDiagnostics) {
  EXPECT_THROW((void)ExperimentSpec::from_pairs({"ops=banana"}),
               std::invalid_argument);
  EXPECT_THROW((void)ExperimentSpec::from_pairs({"region=atlantis"}),
               std::invalid_argument);
  EXPECT_THROW((void)ExperimentSpec::from_pairs({"workload=zipf:fast"}),
               std::invalid_argument);
  // std::stod reads these as numbers; no time, rate or skew may be one.
  for (const char* pair :
       {"workload=zipf:nan", "workload=zipf:inf", "decode_ms_per_mb=nan",
        "decode_ms_per_mb=inf", "arrival_rate=nan", "period_s=inf"}) {
    EXPECT_THROW((void)ExperimentSpec::from_pairs({pair}),
                 std::invalid_argument)
        << pair;
  }
  EXPECT_THROW((void)ExperimentSpec::from_pairs({"not-a-pair"}),
               std::invalid_argument);
  try {
    (void)ExperimentSpec::from_pairs({"region=atlantis"});
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    // Diagnostic lists the known regions.
    EXPECT_NE(std::string(e.what()).find("frankfurt"), std::string::npos);
  }
}

TEST(ExperimentSpec, ValidateRejectsUnknownAndMistypedParams) {
  EXPECT_THROW(
      ExperimentSpec::from_pairs({"system=backend", "chunks=5"}).validate(),
      std::invalid_argument);
  EXPECT_THROW(
      ExperimentSpec::from_pairs({"system=lru", "chunks=lots"}).validate(),
      std::invalid_argument);
  EXPECT_THROW(ExperimentSpec::from_pairs({"system=unheard-of"}).validate(),
               UnknownNameError);
  // Engine-specific params ride along through the fixed-chunks adapter.
  ExperimentSpec::from_pairs({"system=tinylfu", "sketch_width=128"})
      .validate();
  EXPECT_THROW(ExperimentSpec::from_pairs({"system=lru", "sketch_width=128"})
                   .validate(),
               std::invalid_argument);
  EXPECT_THROW(
      ExperimentSpec::from_pairs({"system=lfu", "proxy_ms=nan"}).validate(),
      std::invalid_argument);
  EXPECT_THROW(ExperimentSpec::from_pairs(
                   {"scenario=0 slow_region region=tokyo factor=nan"})
                   .validate(),
               std::invalid_argument);
}

TEST(ExperimentSpec, ValidateRejectsOutOfRangeTimesAndRates) {
  // Each used to pass validation: a zero period failed mid-run with an
  // event-loop error naming no key, a negative decode charge was clamped
  // to zero and a negative rate ran closed-loop.
  auto expect_rejected = [](const std::vector<std::string>& pairs,
                            const std::string& key) {
    try {
      ExperimentSpec::from_pairs(pairs).validate();
      ADD_FAILURE() << key << ": expected a throw";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
          << e.what();
    }
  };
  expect_rejected({"period_s=0"}, "period_s");
  expect_rejected({"decode_ms_per_mb=-100000"}, "decode_ms_per_mb");
  expect_rejected({"arrival_rate=-5"}, "arrival_rate");
  // A read lands in window floor(now / window_ms): a sub-millisecond width
  // asks for a window per microsecond of a run (1e-300 overflowed the
  // index), and a NaN set through the typed field compared false with
  // every bound.
  for (const char* width : {"-1", "1e-300", "1e-6", "0.5", "0.999"}) {
    expect_rejected({std::string("window_ms=") + width}, "window_ms");
  }
  try {
    ExperimentSpec nan_window;
    nan_window.experiment.metric_window_ms = std::nan("");
    nan_window.validate();
    ADD_FAILURE() << "window_ms=NaN: expected a throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("window_ms"), std::string::npos)
        << e.what();
  }
  ExperimentSpec::from_pairs({"window_ms=0"}).validate();
  ExperimentSpec::from_pairs({"window_ms=1"}).validate();
  expect_rejected(
      {"collab=broadcast", "regions=frankfurt,dublin", "collab.period_s=0"},
      "collab.period_s");
  ExperimentSpec::from_pairs({"decode_ms_per_mb=0", "arrival_rate=0"})
      .validate();
}

TEST(ExperimentSpec, DocumentedDefaultsAreTheDefaults) {
  // `--list` prints the schema's defaults, while a run starts from the
  // config structs' initializers: applying every documented default must
  // leave a default spec as it was.
  ExperimentSpec spec;
  for (const ParamInfo& key : ExperimentSpec::experiment_keys().params) {
    if (!key.default_value.empty()) spec.set(key.name, key.default_value);
  }
  EXPECT_EQ(spec.to_json(), ExperimentSpec{}.to_json());
}

TEST(ExperimentSpec, JsonRoundTripPreservesEverything) {
  const auto spec = ExperimentSpec::from_pairs(
      {"system=tinylfu", "chunks=7", "cache_bytes=3MB", "sketch_width=512",
       "workload=uniform", "regions=dublin,tokyo", "objects=50",
       "object_bytes=128KB", "ops=400", "runs=2", "clients=3",
       "arrival_rate=5", "period_s=20", "seed=123", "verify=true",
       "max_outstanding=16", "decode_ms_per_mb=1.5", "weights=3,7",
       "rs_k=9", "rs_m=3", "placement_offset=false"});
  const auto parsed = parse_spec_json(spec.to_json());
  ASSERT_EQ(parsed.size(), 1u);
  const auto& back = parsed[0];
  EXPECT_EQ(back.system, spec.system);
  EXPECT_EQ(back.params.entries(), spec.params.entries());
  EXPECT_EQ(back.experiment.client_regions, spec.experiment.client_regions);
  EXPECT_EQ(back.experiment.workload.kind, spec.experiment.workload.kind);
  EXPECT_EQ(back.experiment.deployment.object_size_bytes,
            spec.experiment.deployment.object_size_bytes);
  EXPECT_EQ(back.experiment.deployment.seed, spec.experiment.deployment.seed);
  EXPECT_TRUE(back.experiment.verify_data);
  EXPECT_EQ(back.experiment.agar_candidate_weights,
            spec.experiment.agar_candidate_weights);
  EXPECT_DOUBLE_EQ(back.experiment.reconfig_period_ms,
                   spec.experiment.reconfig_period_ms);
  EXPECT_EQ(back.label(), spec.label());
}

TEST(ExperimentSpec, JsonRoundTripKeepsEveryDigit) {
  // Each value needs more than six significant digits (what "%g" kept):
  // agard keeps a route's warm instance while its spec JSON is unchanged,
  // so an edit to any digit must change the JSON.
  const auto round_trip = [](const std::vector<std::string>& pairs) {
    const auto spec = ExperimentSpec::from_pairs(pairs);
    const auto parsed = parse_spec_json(spec.to_json());
    EXPECT_EQ(parsed.size(), 1u);
    EXPECT_EQ(parsed[0].to_json(), spec.to_json());
    return parsed[0];
  };
  EXPECT_EQ(round_trip({"arrival_rate=1234567"}).experiment.arrival_rate_per_s,
            1234567.0);
  EXPECT_EQ(
      round_trip({"decode_ms_per_mb=10.1234567"}).experiment.decode_ms_per_mb,
      10.1234567);
  const auto zipf = ExperimentSpec::from_pairs({"workload=zipf:1.23456789"});
  EXPECT_NE(zipf.to_json().find("\"zipf:1.23456789\""), std::string::npos)
      << zipf.to_json();
  EXPECT_EQ(round_trip({"workload=zipf:1.23456789"})
                .experiment.workload.zipf_skew,
            1.23456789);
  const auto event = round_trip({"scenario=1234567 popularity_rotate by=3"});
  ASSERT_EQ(event.experiment.scenario.size(), 1u);
  EXPECT_EQ(event.experiment.scenario.events[0].at_ms, 1234567.0);
  const auto a = round_trip({"period_s=12.34567891"});
  const auto b = round_trip({"period_s=12.34567899"});
  EXPECT_NE(a.to_json(), b.to_json());
  EXPECT_EQ(a.experiment.reconfig_period_ms,
            ExperimentSpec::from_pairs({"period_s=12.34567891"})
                .experiment.reconfig_period_ms);
}

TEST(ExperimentSpec, SystemsArrayExpandsIntoComparison) {
  const auto specs = parse_spec_json(R"({
    "objects": 30, "ops": 100,
    "systems": [
      {"system": "agar", "cache_bytes": "1MB"},
      {"system": "lru", "chunks": 5, "cache_bytes": "1MB"},
      "backend"
    ]
  })");
  ASSERT_EQ(specs.size(), 3u);
  EXPECT_EQ(specs[0].system, "agar");
  EXPECT_EQ(specs[1].params.get_size("chunks"), 5u);
  EXPECT_EQ(specs[2].system, "backend");
  for (const auto& s : specs) {
    EXPECT_EQ(s.experiment.deployment.num_objects, 30u);
    EXPECT_EQ(s.experiment.ops_per_run, 100u);
  }
}

TEST(ExperimentSpec, SweepSectionExpandsGrid) {
  const auto specs = parse_spec_json(R"({
    "system": "lru", "cache_bytes": "1MB",
    "sweep": {"chunks": [1, 5], "workload": ["uniform", "zipf:1.1"]}
  })");
  ASSERT_EQ(specs.size(), 4u);
  // First sweep key is outermost.
  EXPECT_EQ(specs[0].params.get_size("chunks"), 1u);
  EXPECT_EQ(specs[1].params.get_size("chunks"), 1u);
  EXPECT_EQ(specs[2].params.get_size("chunks"), 5u);
  EXPECT_EQ(specs[0].experiment.workload.kind,
            client::WorkloadSpec::Kind::kUniform);
  EXPECT_EQ(specs[1].experiment.workload.kind,
            client::WorkloadSpec::Kind::kZipfian);
}

TEST(ExperimentSpec, MalformedJsonDiagnosticsNamePosition) {
  try {
    (void)parse_spec_json("{\n  \"ops\": 10,\n  oops\n}");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
  EXPECT_THROW((void)parse_spec_json("[1,2,3]"), std::invalid_argument);
  EXPECT_THROW((void)parse_spec_json(R"({"systems": 5})"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_spec_json(R"({"sweep": {"chunks": []}})"),
               std::invalid_argument);
  // Spec-level validation runs on every parsed spec.
  EXPECT_THROW((void)parse_spec_json(R"({"system": "nope"})"),
               std::invalid_argument);
}

TEST(ExperimentSpec, LoadSpecFileReadsAndNamesThePath) {
  const std::string path = ::testing::TempDir() + "/spec_test.json";
  {
    std::ofstream out(path);
    out << R"({"system": "arc", "chunks": 5, "cache_bytes": "1MB",)"
        << R"( "objects": 10, "ops": 50})";
  }
  const auto specs = load_spec_file(path);
  ASSERT_EQ(specs.size(), 1u);
  EXPECT_EQ(specs[0].label(), "ARC-5");
  std::remove(path.c_str());

  try {
    (void)load_spec_file("/definitely/not/here.json");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("/definitely/not/here.json"),
              std::string::npos);
  }
}

TEST(Sweep, GridOrderAndBaseInheritance) {
  const auto base =
      ExperimentSpec::from_pairs({"system=lru", "cache_bytes=1MB", "ops=10"});
  const auto specs =
      sweep(base, {{"chunks", {"1", "9"}}, {"seed", {"1", "2", "3"}}});
  ASSERT_EQ(specs.size(), 6u);
  EXPECT_EQ(specs[0].params.get_size("chunks"), 1u);
  EXPECT_EQ(specs[0].experiment.deployment.seed, 1u);
  EXPECT_EQ(specs[2].experiment.deployment.seed, 3u);
  EXPECT_EQ(specs[3].params.get_size("chunks"), 9u);
  for (const auto& s : specs) EXPECT_EQ(s.experiment.ops_per_run, 10u);
  EXPECT_THROW((void)sweep(base, {{"chunks", {}}}), std::invalid_argument);
}

TEST(Json, ParserHandlesEscapesAndNesting) {
  const auto v = parse_json(
      R"({"a": "x\ny", "b": [1, 2.5, true, null], "c": {"d": "e"}})");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.find("a")->text, "x\ny");
  EXPECT_EQ(v.find("b")->array.size(), 4u);
  EXPECT_EQ(v.find("b")->array[1].text, "2.5");
  EXPECT_EQ(v.find("c")->find("d")->text, "e");
  EXPECT_THROW((void)parse_json("{\"a\": }"), std::invalid_argument);
  EXPECT_THROW((void)parse_json("{\"a\": 1} trailing"),
               std::invalid_argument);
  // \u escapes: valid Latin-1 passes, non-hex digits fail with the
  // parser's positioned diagnostic instead of a raw stoul exception.
  EXPECT_EQ(parse_json(R"({"a": "A"})").find("a")->text, "A");
  try {
    (void)parse_json(R"({"a": "\u12g4"})");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos);
  }
  EXPECT_THROW((void)parse_json(R"({"a": "\uzzzz"})"),
               std::invalid_argument);
}

}  // namespace
}  // namespace agar::api
