// Cache-engine microbenchmarks: get/put throughput of every engine in the
// api registry under a zipfian key stream, plus the static (Agar) cache.
//
// Benchmarks are registered dynamically from api::EngineRegistry, so a
// newly registered engine (ARC, ...) shows up here with no edits.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "api/registry.hpp"
#include "cache/static_cache.hpp"
#include "client/workload.hpp"

namespace {

using namespace agar;

constexpr std::size_t kChunk = 1024;
constexpr std::size_t kUniverse = 1000;

/// Chunk 0 of objects 0..kUniverse-1.
std::vector<ChunkKey> make_keys() {
  std::vector<ChunkKey> keys;
  keys.reserve(kUniverse);
  for (std::size_t i = 0; i < kUniverse; ++i) {
    keys.push_back(ChunkId{static_cast<ObjectId>(i), 0}.key());
  }
  return keys;
}

void run_mixed(benchmark::State& state, cache::CacheEngine& engine) {
  const auto keys = make_keys();
  client::ZipfianGenerator gen(kUniverse, 1.1);
  Rng rng(42);
  for (auto _ : state) {
    const ChunkKey key = keys[gen.next_index(rng)];
    auto hit = engine.get(key);
    if (!hit.has_value()) {
      engine.put(key, Bytes(kChunk, 0));
    }
    benchmark::DoNotOptimize(hit);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

/// Names of objects 0..kUniverse-1, for the engines that hash chunks by
/// name.
std::vector<ObjectKey> make_object_keys() {
  std::vector<ObjectKey> keys;
  keys.reserve(kUniverse);
  for (std::size_t i = 0; i < kUniverse; ++i) {
    keys.push_back("object" + std::to_string(i));
  }
  return keys;
}

void bm_engine_mixed(benchmark::State& state, const std::string& name) {
  const std::vector<ObjectKey> object_keys = make_object_keys();
  const auto engine = api::EngineRegistry::instance().create(
      name,
      api::EngineContext{static_cast<std::size_t>(state.range(0)) * kChunk,
                         &object_keys},
      api::ParamMap{});
  run_mixed(state, *engine);
}

void bm_static_cache_mixed(benchmark::State& state) {
  cache::StaticConfigCache engine(
      static_cast<std::size_t>(state.range(0)) * kChunk);
  // Configure the hot prefix (what the knapsack would pick).
  const auto keys = make_keys();
  const auto hot = static_cast<std::ptrdiff_t>(state.range(0));
  engine.install_configuration(
      std::vector<ChunkKey>(keys.begin(), keys.begin() + hot));
  run_mixed(state, engine);
}

void bm_static_cache_reconfigure(benchmark::State& state) {
  // Cost of installing a new configuration over a populated cache.
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  cache::StaticConfigCache engine((n + 1) * kChunk);
  const auto keys = make_keys();
  std::vector<ChunkKey> even, odd;
  for (std::size_t i = 0; i < n && i < keys.size(); ++i) {
    (i % 2 == 0 ? even : odd).push_back(keys[i]);
  }
  bool flip = false;
  for (auto _ : state) {
    engine.install_configuration(flip ? even : odd);
    flip = !flip;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

}  // namespace

int main(int argc, char** argv) {
  for (const auto& name : agar::api::EngineRegistry::instance().names()) {
    benchmark::RegisterBenchmark(
        ("BM_EngineMixed/" + name).c_str(),
        [name](benchmark::State& state) { bm_engine_mixed(state, name); })
        ->Arg(100)
        ->Arg(500);
  }
  benchmark::RegisterBenchmark("BM_StaticCacheMixed", bm_static_cache_mixed)
      ->Arg(100)
      ->Arg(500);
  benchmark::RegisterBenchmark("BM_StaticCacheReconfigure",
                               bm_static_cache_reconfigure)
      ->Arg(100)
      ->Arg(900);

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
