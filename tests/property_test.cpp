// Cross-module property tests: invariants that must hold for ANY cache
// engine, any option-generator input, any codec geometry, and for the
// simulation as a whole (determinism).
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "cache/arc_cache.hpp"
#include "cache/lfu_cache.hpp"
#include "cache/lru_cache.hpp"
#include "cache/static_cache.hpp"
#include "client/runner.hpp"
#include "common/rng.hpp"
#include "core/option_generator.hpp"
#include "store/repair.hpp"

namespace agar {
namespace {

// ---------------------------------------------------------------------------
// Cache-engine invariants, parameterized over (registered engine name,
// capacity) — every engine in the api registry is covered automatically,
// including ones added later (ARC proved this).

struct EngineParam {
  std::string name;
  std::size_t capacity;
};

std::ostream& operator<<(std::ostream& os, const EngineParam& p) {
  return os << p.name << "/" << p.capacity;
}

/// Object keys by id, "object0".."object99" (more objects than any test
/// here touches), for the engines that hash chunks by name.
const std::vector<ObjectKey>& object_keys() {
  static const std::vector<ObjectKey> keys = [] {
    std::vector<ObjectKey> out;
    for (int i = 0; i < 100; ++i) out.push_back("object" + std::to_string(i));
    return out;
  }();
  return keys;
}

std::unique_ptr<cache::CacheEngine> make_engine(const EngineParam& p) {
  return api::EngineRegistry::instance().create(
      p.name, api::EngineContext{p.capacity, &object_keys()},
      api::ParamMap{});
}

std::vector<EngineParam> all_engine_params() {
  std::vector<EngineParam> out;
  for (const auto& name : api::EngineRegistry::instance().names()) {
    out.push_back(EngineParam{name, 256});
    out.push_back(EngineParam{name, 1024});
    out.push_back(EngineParam{name, 4096});
  }
  return out;
}

class EngineInvariants : public ::testing::TestWithParam<EngineParam> {};

TEST_P(EngineInvariants, CapacityNeverExceededUnderChurn) {
  auto engine = make_engine(GetParam());
  Rng rng(101);
  for (int i = 0; i < 5000; ++i) {
    const ChunkKey key =
        ChunkId{static_cast<ObjectId>(rng.next_below(97)), 0}.key();
    if (rng.next_below(2) == 0) {
      engine->put(key, Bytes(1 + rng.next_below(61), 0xAA));
    } else {
      (void)engine->get(key);
    }
    ASSERT_LE(engine->used_bytes(), engine->capacity_bytes());
  }
}

TEST_P(EngineInvariants, UsedBytesMatchesResidentEntries) {
  auto engine = make_engine(GetParam());
  Rng rng(102);
  for (int i = 0; i < 1000; ++i) {
    engine->put(ChunkId{static_cast<ObjectId>(rng.next_below(37)), 0}.key(),
                Bytes(1 + rng.next_below(31), 1));
  }
  std::size_t total = 0;
  for (const auto& key : engine->keys()) {
    const auto v = engine->get(key);
    ASSERT_TRUE(v.has_value()) << key;
    total += v->size();
  }
  EXPECT_EQ(total, engine->used_bytes());
}

TEST_P(EngineInvariants, GetAfterPutReturnsLatestValue) {
  auto engine = make_engine(GetParam());
  const ChunkKey key = ChunkId{1, 2}.key();
  engine->put(key, Bytes(10, 1));
  engine->put(key, Bytes(20, 2));
  const auto v = engine->get(key);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->size(), 20u);
  EXPECT_EQ((*v)[0], 2);
}

/// Folds 64-bit words into one (FNV-1a over words).
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) { h = (h ^ v) * 0x100000001b3ULL; }
};

/// One operation of `churn`, after it ran.
struct ChurnOp {
  std::uint64_t n = 0;  ///< 0-based position in the churn
  ChunkKey key = 0;
  bool is_put = false;
  bool stored = false;             ///< a put's result
  std::optional<SharedBytes> got;  ///< a get's result
};

/// A seeded mixed-size churn: 20,000 operations over 192 chunk keys, each
/// a get or a put by a fair coin, the puts of 1-120 bytes, so overwrites
/// grow and shrink entries. `after` sees each operation once it ran.
void churn(cache::CacheEngine& engine,
           const std::function<void(const ChurnOp&)>& after) {
  Rng rng(4242);
  ChurnOp op;
  for (op.n = 0; op.n < 20000; ++op.n) {
    op.key = ChunkId{static_cast<ObjectId>(rng.next_below(64)),
                     static_cast<ChunkIndex>(rng.next_below(3))}
                 .key();
    op.is_put = rng.next_below(2) != 0;
    if (op.is_put) {
      const std::size_t size = 1 + rng.next_below(120);
      op.stored =
          engine.put(op.key, Bytes(size, static_cast<std::uint8_t>(op.n)));
      op.got.reset();
    } else {
      op.got = engine.get(op.key);
    }
    after(op);
  }
}

/// Every observable of one engine under `churn`: each get's hit and size,
/// each put's result, `used_bytes`, `keys()` in order every 97 ops, the
/// stats, and the engine's own gauges (ARC's list bytes and target, LFU's
/// frequency and next victim, LRU's next victim).
std::uint64_t churn_digest(cache::CacheEngine& engine) {
  const auto* arc = dynamic_cast<const cache::ArcCache*>(&engine);
  const auto* lfu = dynamic_cast<const cache::LfuCache*>(&engine);
  const auto* lru = dynamic_cast<const cache::LruCache*>(&engine);
  const auto add_candidate = [](Digest& d, std::optional<ChunkKey> key) {
    d.add(key.has_value() ? *key + 1 : 0);
  };
  Digest d;
  churn(engine, [&](const ChurnOp& op) {
    if (op.is_put) {
      d.add(op.stored ? 1 : 2);
    } else {
      const auto& v = op.got;
      d.add(v.has_value() ? 1 + v->size() + (std::uint64_t{(*v)[0]} << 8)
                          : 0);
    }
    d.add(engine.used_bytes());
    if (op.n % 97 == 0) {
      for (const ChunkKey k : engine.keys()) d.add(k);
    }
    if (arc != nullptr) {
      d.add(arc->t1_bytes());
      d.add(arc->t2_bytes());
      d.add(arc->ghost_bytes());
      d.add(arc->target_t1_bytes());
    }
    if (lfu != nullptr) {
      d.add(lfu->frequency(op.key));
      add_candidate(d, lfu->eviction_candidate());
    }
    if (lru != nullptr) add_candidate(d, lru->eviction_candidate());
  });
  const cache::CacheStats& s = engine.stats();
  for (const std::uint64_t v :
       {s.hits, s.misses, s.puts, s.admissions, s.rejections, s.evictions}) {
    d.add(v);
  }
  return d.h;
}

TEST_P(EngineInvariants, StoredPutLeavesItsKeyResident) {
  // CacheEngine::put's contract: true means the value resides in the cache
  // after the call. An overwrite that grows an entry evicts other entries,
  // never the one it wrote.
  auto engine = make_engine(GetParam());
  std::size_t lost = 0;
  churn(*engine, [&](const ChurnOp& op) {
    if (op.is_put && op.stored && !engine->contains(op.key)) ++lost;
  });
  EXPECT_EQ(lost, 0u) << "puts that returned true without their key";
}

TEST_P(EngineInvariants, ChurnDigestIsPinned) {
  // One digest per engine and capacity. A change to an engine's eviction
  // order, keys() order, counters or gauges moves it; a change meant to
  // move it updates the pin and says why.
  static const std::map<std::string, std::uint64_t> kPinned = {
      {"arc_256", 0x9be55032438930f9ULL},
      {"arc_1024", 0x68581480af12abeeULL},
      {"arc_4096", 0x766c706e4dacac64ULL},
      {"lfu_256", 0x55605462463d0ba3ULL},
      {"lfu_1024", 0x2e5d803a2afa4324ULL},
      {"lfu_4096", 0x32edc627a09accecULL},
      {"lru_256", 0xbf0fd4df073b8486ULL},
      {"lru_1024", 0x92afa8d3aaf969e9ULL},
      {"lru_4096", 0x4b0855b6a1ec3885ULL},
      {"tinylfu_256", 0x3cf3ff67d5484fbeULL},
      {"tinylfu_1024", 0x950b6dff8090ca51ULL},
      {"tinylfu_4096", 0x064df1ec5ff041eaULL},
  };
  const EngineParam& p = GetParam();
  auto engine = make_engine(p);
  const std::uint64_t digest = churn_digest(*engine);
  const auto it = kPinned.find(p.name + "_" + std::to_string(p.capacity));
  ASSERT_NE(it, kPinned.end())
      << "no pinned digest for " << p << "; it is 0x" << std::hex << digest;
  EXPECT_EQ(digest, it->second) << std::hex << "0x" << digest;
}

INSTANTIATE_TEST_SUITE_P(
    Engines, EngineInvariants, ::testing::ValuesIn(all_engine_params()),
    [](const ::testing::TestParamInfo<EngineParam>& param_info) {
      return param_info.param.name + "_" + std::to_string(param_info.param.capacity);
    });

// ---------------------------------------------------------------------------
// Option-generator invariants over randomized latency landscapes.

class OptionProperties : public ::testing::TestWithParam<int> {};

TEST_P(OptionProperties, InvariantsOnRandomLatencies) {
  Rng rng(500 + static_cast<std::uint64_t>(GetParam()));
  core::OptionGeneratorParams params;
  params.k = 9;
  params.m = 3;
  params.cache_latency_ms = 50.0;
  const core::OptionGenerator gen(params);

  for (int trial = 0; trial < 50; ++trial) {
    std::vector<core::ChunkCost> costs;
    for (ChunkIndex i = 0; i < 12; ++i) {
      costs.push_back(core::ChunkCost{
          i, i % 6, 60.0 + static_cast<double>(rng.next_below(2000))});
    }
    const double pop = 1.0 + static_cast<double>(rng.next_below(100));
    core::LayoutOptions layout;
    gen.value_layout(costs, layout);
    std::vector<core::CachingOption> options;
    gen.write_options(layout, 0, pop, options);

    // The layout's k needed chunks are distinct; an option of weight w
    // caches the first w of them, so options nest by construction.
    ASSERT_EQ(layout.chunks.size(), 9u);
    const std::set<ChunkIndex> unique(layout.chunks.begin(),
                                      layout.chunks.end());
    ASSERT_EQ(unique.size(), layout.chunks.size());

    ASSERT_EQ(options.size(), 9u);
    double prev_value = -1.0;
    for (const auto& opt : options) {
      // Values are non-negative and monotone non-decreasing in weight.
      ASSERT_GE(opt.value, 0.0);
      ASSERT_GE(opt.value, prev_value);
      prev_value = opt.value;
      // Options never exceed k chunks.
      ASSERT_LE(opt.weight, layout.chunks.size());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptionProperties, ::testing::Range(0, 4));

// ---------------------------------------------------------------------------
// End-to-end determinism: identical specs give bit-identical results for
// every runnable system — strategies AND engines running through the
// fixed-chunks adapter, straight from registry introspection.

class Determinism : public ::testing::TestWithParam<std::string> {};

TEST_P(Determinism, RepeatRunsAreIdentical) {
  api::ExperimentSpec spec;
  spec.experiment.deployment.num_objects = 25;
  spec.experiment.deployment.object_size_bytes = 9000;
  spec.experiment.deployment.seed = 31337;
  spec.experiment.ops_per_run = 150;
  spec.experiment.runs = 1;
  spec.experiment.reconfig_period_ms = 10'000.0;

  spec.system = GetParam();
  const auto& schema =
      api::StrategyRegistry::instance()
          .at(api::resolve_system(spec.system, spec.params).first)
          .schema;
  if (schema.has("chunks")) spec.params.set("chunks", "5");
  if (schema.has("cache_bytes")) spec.params.set("cache_bytes", "64KB");

  const auto a = api::run(spec).result;
  const auto b = api::run(spec).result;
  EXPECT_DOUBLE_EQ(a.mean_latency_ms(), b.mean_latency_ms());
  EXPECT_EQ(a.runs[0].full_hits, b.runs[0].full_hits);
  EXPECT_EQ(a.runs[0].partial_hits, b.runs[0].partial_hits);
  EXPECT_DOUBLE_EQ(a.percentile_ms(95), b.percentile_ms(95));
}

INSTANTIATE_TEST_SUITE_P(
    AllSystems, Determinism,
    ::testing::ValuesIn(api::runnable_systems()),
    [](const ::testing::TestParamInfo<std::string>& param_info) {
      std::string name = param_info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// ---------------------------------------------------------------------------
// Random damage + repair: for ANY damage pattern of <= m chunks per object,
// repair restores byte-identical content.

class RepairProperty : public ::testing::TestWithParam<int> {};

TEST_P(RepairProperty, RandomDamageUpToMIsAlwaysRepairable) {
  Rng rng(900 + static_cast<std::uint64_t>(GetParam()));
  store::BackendCluster backend(6, ec::CodecParams{9, 3},
                                ec::RoundRobinPlacement(false));
  store::populate_working_set(backend, 4, 4500);

  for (int trial = 0; trial < 10; ++trial) {
    // Damage each object in a random pattern of 1..3 chunks.
    for (int obj = 0; obj < 4; ++obj) {
      const ObjectKey key = "object" + std::to_string(obj);
      const std::size_t losses = 1 + rng.next_below(3);
      std::set<ChunkIndex> dropped;
      while (dropped.size() < losses) {
        dropped.insert(static_cast<ChunkIndex>(rng.next_below(12)));
      }
      for (const ChunkIndex idx : dropped) {
        const RegionId region = backend.placement().region_of(key, idx, 6);
        backend.bucket(region).erase(ChunkId{backend.id_of(key), idx});
      }
    }
    const store::RepairReport report = store::repair_all(backend);
    ASSERT_EQ(report.objects_unrecoverable, 0u);
    for (int obj = 0; obj < 4; ++obj) {
      const ObjectKey key = "object" + std::to_string(obj);
      ASSERT_TRUE(store::missing_chunks(backend, key).empty());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RepairProperty, ::testing::Range(0, 3));

}  // namespace
}  // namespace agar
