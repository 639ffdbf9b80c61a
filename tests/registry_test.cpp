// The api registries: registration/lookup, unknown-name diagnostics,
// duplicate rejection, label derivation, engine->fixed-chunks fallback,
// and the ParamMap typed accessors the whole layer is built on.
#include "api/registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <string>

#include "api/experiment_spec.hpp"
#include "cache/cache.hpp"
#include "client/fetch_policy.hpp"
#include "client/runner.hpp"
#include "collab/collab.hpp"

namespace agar::api {
namespace {

// ------------------------------------------------------------- ParamMap

TEST(ParamMap, TypedGettersParseAndMissingKeysThrow) {
  ParamMap params;
  params.set("cache_bytes", "10MB");
  params.set("chunks", "5");
  params.set("rate", "2.5");
  params.set("verify", "true");
  params.set("weights", "1,3,9");
  EXPECT_EQ(params.get_size("cache_bytes"), 10_MB);
  EXPECT_EQ(params.get_size("chunks"), 5u);
  EXPECT_DOUBLE_EQ(params.get_double("rate"), 2.5);
  EXPECT_TRUE(params.get_bool("verify"));
  EXPECT_EQ(params.get_size_list("weights"),
            (std::vector<std::size_t>{1, 3, 9}));
  // A default lives in the schema, so an unset key is an error that names
  // the key, whatever its type.
  const std::vector<std::function<void()>> reads = {
      [&] { (void)params.get_string("missing"); },
      [&] { (void)params.get_size("missing"); },
      [&] { (void)params.get_double("missing"); },
      [&] { (void)params.get_bool("missing"); },
      [&] { (void)params.get_size_list("missing"); },
  };
  for (const auto& read : reads) {
    try {
      read();
      ADD_FAILURE() << "expected a throw";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()), "parameter 'missing' is not set");
    }
  }
}

TEST(ParamMap, WithDefaultsFillsOnlyUnsetDeclaredDefaults) {
  const ParamSchema schema{{
      {"chunks", ParamType::kSize, "9", ""},
      {"cache_bytes", ParamType::kSize, "10MB", ""},
      {"proxy_ms", ParamType::kDouble, "", "computed when unset"},
  }};
  ParamMap params;
  params.set("chunks", "5");
  params.set("other", "x");
  const ParamMap filled = params.with_defaults(schema);
  EXPECT_EQ(filled.get_size("chunks"), 5u);  // the caller's value wins
  EXPECT_EQ(filled.get_size("cache_bytes"), 10_MB);
  EXPECT_FALSE(filled.has("proxy_ms"));  // empty default: stays unset
  EXPECT_EQ(filled.get_string("other"), "x");
  EXPECT_FALSE(params.has("cache_bytes"));  // the source is unchanged
}

TEST(ParamMap, FormatDoubleIsShortestRoundTrip) {
  // What "%g" printed for up to six significant digits...
  for (const auto& [value, text] :
       std::vector<std::pair<double, std::string>>{
           {0.0, "0"}, {30.0, "30"}, {0.5, "0.5"}, {100000.0, "100000"},
           {1e6, "1e+06"}, {0.0001, "0.0001"}, {1e-5, "1e-05"}}) {
    EXPECT_EQ(format_double(value), text);
  }
  // ...and every digit a longer value needs.
  for (const double value : {1234567.0, 10.1234567, 12.34567891,
                             12.34567899, 0.1 + 0.2, 1e-300}) {
    EXPECT_EQ(parse_double(format_double(value)), value)
        << format_double(value);
  }
}

TEST(ParamMap, SizeSuffixesAndCase) {
  EXPECT_EQ(parse_size("4096"), 4096u);
  EXPECT_EQ(parse_size("512KB"), 512_KB);
  EXPECT_EQ(parse_size("10mb"), 10_MB);
  EXPECT_EQ(parse_size("1G"), 1024 * 1_MB);
  EXPECT_THROW((void)parse_size("ten"), std::invalid_argument);
  EXPECT_THROW((void)parse_size("10XB"), std::invalid_argument);
  // stoull would happily wrap negatives to huge values; sizes must not.
  EXPECT_THROW((void)parse_size("-1"), std::invalid_argument);
  EXPECT_THROW((void)parse_size("-10MB"), std::invalid_argument);
  EXPECT_THROW((void)parse_size("+5"), std::invalid_argument);
}

TEST(ParamMap, SizeAboveSizeMaxIsTooLarge) {
  // 2^34 GB is 2^64 bytes: the product must not wrap to a 0-byte size.
  for (const char* text : {"17179869184GB", "17179869185GB"}) {
    try {
      (void)parse_size(text);
      FAIL() << text << ": expected throw";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()),
                "'" + std::string(text) + "' is too large");
    }
  }
  EXPECT_EQ(parse_size("18446744073709551615"),
            std::numeric_limits<std::size_t>::max());
  EXPECT_EQ(parse_size("17179869183GB"),
            std::numeric_limits<std::size_t>::max() - (1024 * 1_MB - 1));
}

TEST(ParamMap, MalformedValueNamesTheKey) {
  ParamMap params;
  params.set("chunks", "banana");
  try {
    (void)params.get_size("chunks");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("chunks"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("banana"), std::string::npos);
  }
}

TEST(ParamMap, SplitPairRejectsMalformedInput) {
  EXPECT_THROW((void)split_pair("no-equals"), std::invalid_argument);
  EXPECT_THROW((void)split_pair("=value"), std::invalid_argument);
  const auto [k, v] = split_pair("a=b=c");
  EXPECT_EQ(k, "a");
  EXPECT_EQ(v, "b=c");
}

TEST(ParamMap, ValidateRejectsUnknownKeysWithAcceptedList) {
  const ParamSchema schema{{{"chunks", ParamType::kSize, "9", ""}}};
  ParamMap params;
  params.set("chunkz", "5");
  try {
    params.validate(schema, "system 'lru'");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("chunkz"), std::string::npos);
    EXPECT_NE(what.find("chunks"), std::string::npos);  // accepted list
    EXPECT_NE(what.find("system 'lru'"), std::string::npos);
  }
}

TEST(ParamMap, ValidateTypeChecksDeclaredParams) {
  const ParamSchema schema{{{"chunks", ParamType::kSize, "9", ""}}};
  ParamMap params;
  params.set("chunks", "not-a-number");
  EXPECT_THROW(params.validate(schema, "test"), std::invalid_argument);
}

// ------------------------------------------------------------ registries

TEST(Registry, BuiltinEnginesAreRegistered) {
  const auto names = EngineRegistry::instance().names();
  for (const char* expected : {"arc", "lfu", "lru", "tinylfu"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
  // Sorted for stable --list output.
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(Registry, BuiltinStrategiesAreRegistered) {
  const auto names = StrategyRegistry::instance().names();
  for (const char* expected :
       {"agar", "backend", "fixed-chunks", "lfu", "lfu-eviction"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
}

TEST(Registry, UnknownNameErrorCarriesKnownNames) {
  try {
    (void)EngineRegistry::instance().at("no-such-engine");
    FAIL() << "expected throw";
  } catch (const UnknownNameError& e) {
    EXPECT_NE(std::string(e.what()).find("no-such-engine"),
              std::string::npos);
    EXPECT_FALSE(e.known_names().empty());
  }
}

TEST(Registry, DuplicateRegistrationThrows) {
  EngineRegistry::Entry entry;
  entry.name = "lru";  // already registered by the real LRU engine
  entry.factory = [](const EngineContext&, const ParamMap&) {
    return std::unique_ptr<cache::CacheEngine>{};
  };
  EXPECT_THROW(EngineRegistry::instance().add(std::move(entry)),
               std::invalid_argument);
}

TEST(Registry, EntriesWithoutFactoryAreRejected) {
  EngineRegistry::Entry entry;
  entry.name = "broken";
  EXPECT_THROW(EngineRegistry::instance().add(std::move(entry)),
               std::invalid_argument);
}

TEST(Registry, NoneBuildsNothing) {
  // "none" is a valid fetch policy and collab tier, but it builds no
  // object: callers read a null product as "off".
  EXPECT_EQ(FetchPolicyRegistry::instance().create(
                "none", FetchPolicyContext{}, ParamMap{}),
            nullptr);
  EXPECT_EQ(
      CollabRegistry::instance().create("none", CollabContext{}, ParamMap{}),
      nullptr);
}

TEST(Registry, EngineFactoryHonoursCapacity) {
  const auto engine = EngineRegistry::instance().create(
      "lru", EngineContext{4096}, ParamMap{});
  ASSERT_NE(engine, nullptr);
  EXPECT_EQ(engine->capacity_bytes(), 4096u);
}

/// For every entry of `registry`: the label of no params is the label of
/// every non-empty schema default spelled out.
template <typename Registry>
void expect_spelled_out_defaults_label_alike(const Registry& registry) {
  for (const auto& name : registry.names()) {
    ParamMap spelled;
    for (const auto& p : registry.at(name).schema.params) {
      if (!p.default_value.empty()) spelled.set(p.name, p.default_value);
    }
    EXPECT_EQ(registry.label(name, ParamMap{}), registry.label(name, spelled))
        << name;
  }
}

TEST(Registry, DocumentedDefaultsAreEveryEntrysDefaults) {
  expect_spelled_out_defaults_label_alike(EngineRegistry::instance());
  expect_spelled_out_defaults_label_alike(StrategyRegistry::instance());
  expect_spelled_out_defaults_label_alike(PlannerRegistry::instance());
  expect_spelled_out_defaults_label_alike(EstimatorRegistry::instance());
  expect_spelled_out_defaults_label_alike(FetchPolicyRegistry::instance());
  expect_spelled_out_defaults_label_alike(CollabRegistry::instance());
}

TEST(Registry, LabelsDeriveFromNameAndParams) {
  ParamMap chunks5;
  chunks5.set("chunks", "5");
  EXPECT_EQ(StrategyRegistry::instance().label("lfu", chunks5), "LFU-5");
  EXPECT_EQ(StrategyRegistry::instance().label("backend", ParamMap{}),
            "Backend");
  EXPECT_EQ(StrategyRegistry::instance().label("agar", ParamMap{}), "Agar");
  // Fixed-chunks labels come from the engine's display stem.
  ParamMap arc;
  arc.set("engine", "arc");
  arc.set("chunks", "7");
  EXPECT_EQ(StrategyRegistry::instance().label("fixed-chunks", arc), "ARC-7");
}

// -------------------------------------------- engine fallback resolution

TEST(Resolve, StrategiesPassThrough) {
  const auto [name, params] = resolve_system("agar", ParamMap{});
  EXPECT_EQ(name, "agar");
  EXPECT_TRUE(params.empty());
}

TEST(Resolve, EngineNamesBecomeFixedChunksSystems) {
  ParamMap params;
  params.set("chunks", "3");
  const auto [name, effective] = resolve_system("arc", params);
  EXPECT_EQ(name, "fixed-chunks");
  EXPECT_EQ(effective.get_string("engine"), "arc");
  EXPECT_EQ(effective.get_size("chunks"), 3u);
}

TEST(Resolve, StrategyNameShadowsEngineName) {
  // "lfu" is both a strategy (periodic baseline) and an engine; the
  // strategy must win, as it did under the old enum.
  const auto [name, effective] = resolve_system("lfu", ParamMap{});
  EXPECT_EQ(name, "lfu");
  EXPECT_FALSE(effective.has("engine"));
}

TEST(Resolve, UnknownSystemListsEverythingRunnable) {
  try {
    (void)resolve_system("nope", ParamMap{});
    FAIL() << "expected throw";
  } catch (const UnknownNameError& e) {
    const auto& known = e.known_names();
    // Strategies and engines both runnable.
    EXPECT_NE(std::find(known.begin(), known.end(), "agar"), known.end());
    EXPECT_NE(std::find(known.begin(), known.end(), "arc"), known.end());
  }
}

TEST(Resolve, RunnableSystemsAreSortedAndDeduplicated) {
  const auto names = runnable_systems();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  EXPECT_EQ(std::adjacent_find(names.begin(), names.end()), names.end());
  // "lfu" appears once even though both registries know it.
  EXPECT_EQ(std::count(names.begin(), names.end(), std::string("lfu")), 1);
}

}  // namespace
}  // namespace agar::api
