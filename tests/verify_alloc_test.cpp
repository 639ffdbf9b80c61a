// Heap allocations of steady-state reads at the paper configuration: the
// verify-mode read, the latency-only read (the benchmark's `paper`
// workload), the uncached backend read and a read of each fixed-chunks
// engine. This binary replaces the global
// operator new/delete and counts calls, bytes and allocations of 128 KiB or
// more while a window is open. The simulation is deterministic, so the
// counts repeat exactly from run to run and the test can pin them where a
// wall-clock timing could not.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "client/runner.hpp"
#include "client/workload.hpp"

namespace {

constexpr std::size_t kLargeBytes = 128 * 1024;

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_calls{0};
std::atomic<std::uint64_t> g_bytes{0};
std::atomic<std::uint64_t> g_large{0};

void* counted_alloc(std::size_t size, std::size_t align) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_calls.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(size, std::memory_order_relaxed);
    if (size >= kLargeBytes) g_large.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(size == 0 ? 1 : size);
  } else {
    // aligned_alloc wants a size that is a non-zero multiple of align.
    p = std::aligned_alloc(align, (size / align + 1) * align);
  }
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

// Every replaceable form the build uses: plain, array, aligned, and the
// sized deletes. All deletes are free(), matching malloc/aligned_alloc.
void* operator new(std::size_t size) { return counted_alloc(size, 0); }
void* operator new[](std::size_t size) { return counted_alloc(size, 0); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace agar::client {
namespace {

struct Window {
  std::uint64_t reads = 0;
  std::uint64_t verified = 0;
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;
  std::uint64_t large = 0;
};

/// One strategy of `pairs` (plus the paper configuration's shared keys),
/// warmed up and its control plane started, then 500 reads to let decode
/// plans, cache contents, pools and buffer capacities settle, then the
/// counted window of 1,000 reads. Periodic reconfigurations fall inside
/// both.
Window count_window(const char* name, std::vector<std::string> pairs) {
  for (const char* shared :
       {"objects=300", "object_bytes=1MB", "rs_k=9", "rs_m=3",
        "workload=zipf:1.1", "period_s=30", "region=frankfurt", "seed=42"}) {
    pairs.emplace_back(shared);
  }
  const auto spec = api::ExperimentSpec::from_pairs(pairs);
  const ExperimentConfig& config = spec.experiment;
  DeploymentConfig dep_config = config.deployment;
  dep_config.store_payloads = config.verify_data;
  Deployment deployment(dep_config);
  sim::EventLoop loop;
  deployment.network().bind_loop(&loop);
  const auto strategy = api::make_strategy_factory(spec)(
      config, deployment, config.client_region, &loop);
  strategy->warm_up();
  strategy->start_control_plane();
  Workload workload(config.workload, config.deployment.num_objects,
                    config.deployment.seed);
  const auto next = [&workload, &deployment] {
    return deployment.object_id(workload.next_object());
  };

  for (int i = 0; i < 500; ++i) (void)strategy->read(next());

  Window w;
  w.reads = 1000;
  g_calls.store(0);
  g_bytes.store(0);
  g_large.store(0);
  g_counting.store(true);
  for (std::uint64_t i = 0; i < w.reads; ++i) {
    w.verified += strategy->read(next()).verified ? 1 : 0;
  }
  g_counting.store(false);
  w.calls = g_calls.load();
  w.bytes = g_bytes.load();
  w.large = g_large.load();
  std::printf(
      "%s reads: %llu/%llu verified; per read: %.1f allocations, %.0f B; "
      "allocations >= 128 KiB: %llu\n",
      name, static_cast<unsigned long long>(w.verified),
      static_cast<unsigned long long>(w.reads),
      static_cast<double>(w.calls) / static_cast<double>(w.reads),
      static_cast<double>(w.bytes) / static_cast<double>(w.reads),
      static_cast<unsigned long long>(w.large));
  return w;
}

TEST(VerifyAlloc, SteadyStateVerifyReadAllocatesNoObjectBuffers) {
  // The decode runs on the lane's buffer and its codec's scratch lists, so
  // a verify read allocates no more than a paper read: the control
  // plane's share.
  const Window w = count_window(
      "verify", {"system=agar", "planner=knapsack-dp", "monitor=exact-ewma",
                 "cache_bytes=10MB", "verify=true"});
  EXPECT_EQ(w.verified, w.reads);
  EXPECT_EQ(w.large, 0u);
  EXPECT_LT(w.bytes / w.reads, 64u * 1024u);
  EXPECT_LE(2 * w.calls, w.reads);
}

TEST(VerifyAlloc, PaperReadAllocatesAtMostTheControlPlanesShare) {
  // Reads allocate nothing; what remains is the once-per-period control
  // plane, amortized over the reads of a 30 s period. Option groups, the
  // DP's table and the configuration's chunk list are kept from period to
  // period, and an option is plain data, so a reconfiguration allocates
  // the estimator's snapshot, the planner's vector of chosen options and
  // the groups of keys planned beyond the period before: about 0.2 per
  // read in all.
  const Window w = count_window(
      "paper", {"system=agar", "planner=knapsack-dp", "monitor=exact-ewma",
                "cache_bytes=10MB", "verify=false"});
  EXPECT_EQ(w.large, 0u);
  EXPECT_LE(2 * w.calls, w.reads);
}

TEST(VerifyAlloc, BackendReadAllocatesNothing) {
  // The shared executor, the coalescing table and the network alone.
  const Window w = count_window("backend", {"system=backend", "verify=false"});
  EXPECT_EQ(w.large, 0u);
  EXPECT_LE(w.calls, w.reads);
}

// A fixed-chunks read: the backend read plus one engine's get and, on a
// miss, its puts. Each engine keeps its entries in pooled records, so
// once the cache has filled nothing allocates.
TEST(VerifyAlloc, FixedChunksReadsAllocateNothing) {
  for (const char* system : {"lru", "lfu-eviction", "arc", "tinylfu"}) {
    const Window w = count_window(
        system, {std::string("system=") + system, "verify=false"});
    EXPECT_EQ(w.calls, 0u) << system;
  }
}

}  // namespace
}  // namespace agar::client
