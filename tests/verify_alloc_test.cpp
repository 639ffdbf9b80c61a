// Heap allocations of a steady-state verify-mode read at the paper
// configuration. This binary replaces the global operator new/delete and
// counts calls, bytes and allocations of 128 KiB or more while a window is
// open. The simulation is deterministic, so the counts repeat exactly from
// run to run and the test can pin them where a wall-clock timing could not.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

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

TEST(VerifyAlloc, SteadyStateVerifyReadAllocatesNoObjectBuffers) {
  const auto spec = api::ExperimentSpec::from_pairs(
      {"system=agar", "planner=knapsack-dp", "monitor=exact-ewma",
       "objects=300", "object_bytes=1MB", "rs_k=9", "rs_m=3",
       "workload=zipf:1.1", "cache_bytes=10MB", "period_s=30",
       "region=frankfurt", "verify=true", "seed=42"});
  const ExperimentConfig& config = spec.experiment;
  Deployment deployment(config.deployment);
  sim::EventLoop loop;
  deployment.network().bind_loop(&loop);
  const auto strategy = api::make_strategy_factory(spec)(
      config, deployment, config.client_region, &loop);
  strategy->warm_up();
  strategy->start_control_plane();
  Workload workload(config.workload, config.deployment.num_objects,
                    config.deployment.seed);

  // Warm-up: decode plans, cache contents and buffer capacities settle.
  for (int i = 0; i < 500; ++i) (void)strategy->read(workload.next_key());

  constexpr std::uint64_t kReads = 1000;
  std::uint64_t verified = 0;
  g_counting.store(true);
  for (std::uint64_t i = 0; i < kReads; ++i) {
    verified += strategy->read(workload.next_key()).verified ? 1 : 0;
  }
  g_counting.store(false);

  const std::uint64_t calls = g_calls.load();
  const std::uint64_t bytes = g_bytes.load();
  const std::uint64_t large = g_large.load();
  std::printf(
      "verify reads: %llu/%llu verified; per read: %.1f allocations, "
      "%.0f B; allocations >= 128 KiB: %llu\n",
      static_cast<unsigned long long>(verified),
      static_cast<unsigned long long>(kReads),
      static_cast<double>(calls) / kReads,
      static_cast<double>(bytes) / kReads,
      static_cast<unsigned long long>(large));

  EXPECT_EQ(verified, kReads);
  EXPECT_EQ(large, 0u);
  EXPECT_LT(bytes / kReads, 64u * 1024u);
}

}  // namespace
}  // namespace agar::client
