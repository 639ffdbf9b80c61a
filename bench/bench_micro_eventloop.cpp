// Simulation-core throughput harness: event dispatch through the rebuilt
// loop (one reserved 4-ary heap for one-shots and timer firings, move-only
// pops) against a verbatim copy of the seed's priority_queue loop, the
// periodic-timer path, and the sharded engine's aggregate dispatch rate at
// 1/2/4 worker threads. End-to-end reads/second is the benchmark's `paper`
// workload (benchmark/run.py).
//
// The dispatch workload replays the production event mix: self-rescheduling
// one-shot events plus a standing set of periodic timers (network probes,
// reconfiguration). Its closures come in two sizes. Oversized closures
// capture three words, over std::function's 16-byte buffer, so every
// schedule allocates; every row but `serial-inline` runs them, and on the
// seed loop they also pay its other real costs — a full Event COPY out of
// priority_queue::top() per dispatch and a make_shared rebind per periodic
// firing. Inline closures capture one pointer and fit the buffer, as the
// read path's do (a pooled record's slot plus at most 8 more bytes):
// `serial-inline` runs the rebuilt serial loop on them.
//
// Self-contained (no Google Benchmark) so CI can always build and run it.
// Default output is an aligned table; --json emits a JSON array for CI's
// artifact upload. --quick shrinks the workloads for smoke runs.
#include <chrono>
#include <cstdio>
#include <functional>
#include <iostream>
#include <memory>
#include <queue>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "sim/event_loop.hpp"
#include "sim/sharded_engine.hpp"

namespace {

using namespace agar;
using Clock = std::chrono::steady_clock;

bool g_quick = false;

struct Result {
  std::string bench;
  std::string config;
  std::uint64_t events = 0;     ///< dispatches (or reads) measured
  double events_per_s = 0.0;
  double ns_per_event = 0.0;
  std::string note;
};

std::vector<Result>& results() {
  static std::vector<Result> r;
  return r;
}

void record(const std::string& bench, const std::string& config,
            std::uint64_t events, double seconds, std::string note = "") {
  Result r;
  r.bench = bench;
  r.config = config;
  r.events = events;
  r.events_per_s = seconds <= 0.0 ? 0.0
                                  : static_cast<double>(events) / seconds;
  r.ns_per_event =
      events == 0 ? 0.0 : seconds * 1e9 / static_cast<double>(events);
  r.note = std::move(note);
  results().push_back(r);
}

template <typename Fn>
double wall_seconds(Fn&& fn) {
  const auto start = Clock::now();
  fn();
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ------------------------------------------------------- seed event loop
//
// The pre-refactor loop, reproduced verbatim (renamed only): one
// priority_queue, a copy of the full Event out of top() per dispatch, and
// periodic timers re-armed by wrapping the callback in a shared_ptr and a
// fresh closure every firing. This is the baseline the new core is
// measured against.

namespace seed {

class EventLoop {
 public:
  using Callback = std::function<void()>;
  using TimerId = std::uint64_t;

  [[nodiscard]] SimTimeMs now() const { return now_; }

  void schedule_at(SimTimeMs when, Callback fn) {
    queue_.push(Event{std::max(when, now_), next_seq_++, std::move(fn)});
  }
  void schedule_in(SimTimeMs delay, Callback fn) {
    schedule_at(now_ + std::max(delay, 0.0), std::move(fn));
  }
  TimerId schedule_periodic(SimTimeMs period, std::function<bool()> fn) {
    const TimerId id = next_timer_++;
    active_timers_.insert(id);
    arm_periodic(id, period,
                 std::make_shared<std::function<bool()>>(std::move(fn)));
    return id;
  }
  bool cancel(TimerId id) { return active_timers_.erase(id) > 0; }
  void run_until(SimTimeMs horizon) {
    while (!queue_.empty() && queue_.top().when <= horizon) pop_and_run();
    now_ = std::max(now_, horizon);
  }
  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }

 private:
  struct Event {
    SimTimeMs when;
    std::uint64_t seq;
    Callback fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  void arm_periodic(TimerId id, SimTimeMs period,
                    std::shared_ptr<std::function<bool()>> fn) {
    schedule_in(period, [this, id, period, fn = std::move(fn)]() mutable {
      if (!active_timers_.contains(id)) return;
      const bool keep = (*fn)();
      if (!keep || !active_timers_.contains(id)) {
        active_timers_.erase(id);
        return;
      }
      arm_periodic(id, period, std::move(fn));
    });
  }
  void pop_and_run() {
    Event ev = queue_.top();  // the seed's per-dispatch copy
    queue_.pop();
    now_ = ev.when;
    ++executed_;
    ev.fn();
  }

  SimTimeMs now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  TimerId next_timer_ = 1;
  std::unordered_set<TimerId> active_timers_;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
};

}  // namespace seed

// ------------------------------------------------------------- dispatch
//
// Self-rescheduling event chains: every dispatch does ~40 ns of xorshift
// work (a stand-in for strategy bookkeeping) and re-arms itself at a
// pseudo-random 0.5-4.5 ms offset, so the heap sees realistic churn.
// Alongside, 8 periodic timers per lane with periods of 1-16 ms fire
// through whatever periodic machinery the loop under test has.

constexpr std::size_t kLanes = 8;
constexpr std::size_t kChainsPerLane = 4;
constexpr std::size_t kTimersPerLane = 8;

std::uint64_t spin(std::uint64_t x) {
  for (int i = 0; i < 8; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

/// How big a chain's self-rescheduling closure is.
enum class Closure {
  kInline,     ///< captures the chain pointer only: stored inline
  kOversized,  ///< chain pointer plus two words: heap-allocated per schedule
};

template <typename Loop>
struct Chain {
  Loop* loop = nullptr;
  sim::ShardedEngine* engine = nullptr;
  std::size_t lane = 0;
  std::uint64_t lcg = 0;
  std::uint64_t salt_a = 0;
  std::uint64_t salt_b = 0;
  std::uint64_t fired = 0;
  std::function<void()> next;
  std::function<void()> hop;  ///< one-shot cross-lane event body

  /// One dispatch: spin, then re-arm `next` (and sometimes post a hop).
  void step(std::uint64_t a, std::uint64_t b) {
    const std::uint64_t x = spin(lcg ^ a);
    lcg = x + b;
    ++fired;
    const SimTimeMs delay =
        0.5 + static_cast<double>(x % 1024) / 256.0;  // 0.5 - 4.5 ms
    if (engine != nullptr && (x & 15U) == 0) {
      engine->post((lane + 1) % kLanes, loop->now() + delay, hop);
    }
    loop->schedule_in(delay, next);
  }
};

/// Arm the standard workload on `lane_loop`: kChainsPerLane chains and
/// kTimersPerLane periodic timers for the given lane. With an engine, 1/16
/// of chain dispatches additionally post a one-shot event to the next lane
/// (through an outbox when the lanes live on different shards).
template <typename Loop>
void arm_lane(Loop& lane_loop, sim::ShardedEngine* engine, std::size_t lane,
              Closure closure,
              std::vector<std::unique_ptr<Chain<Loop>>>& chains) {
  for (std::size_t c = 0; c < kChainsPerLane; ++c) {
    chains.push_back(std::make_unique<Chain<Loop>>());
    Chain<Loop>* chain = chains.back().get();
    chain->loop = &lane_loop;
    chain->engine = engine;
    chain->lane = lane;
    chain->lcg = 0x9E3779B97F4A7C15ULL * (lane * kChainsPerLane + c + 1);
    // The hop body runs on the DESTINATION lane's shard thread, so it
    // must not touch this chain's state — pure stack work only.
    chain->hop = [] {
      volatile std::uint64_t sink = spin(0x243F6A8885A308D3ULL);
      (void)sink;
    };
    chain->salt_a = chain->lcg * 3;
    chain->salt_b = chain->lcg * 7;
    if (closure == Closure::kInline) {
      // One pointer, the salts read from the chain: stored inline.
      chain->next = [chain] { chain->step(chain->salt_a, chain->salt_b); };
    } else {
      // The salts ride in the closure, over the small buffer: scheduling
      // it allocates, and the seed loop copies it AGAIN out of top() on
      // dispatch.
      chain->next = [chain, a = chain->salt_a, b = chain->salt_b] {
        chain->step(a, b);
      };
    }
    lane_loop.schedule_in(0.0, chain->next);
  }
  for (std::size_t t = 0; t < kTimersPerLane; ++t) {
    const SimTimeMs period = 1.0 + static_cast<double>((lane + t * 3) % 16);
    lane_loop.schedule_periodic(period, [] { return true; });
  }
}

template <typename Loop>
void bench_serial_dispatch(const std::string& config, Closure closure,
                           std::uint64_t target, const std::string& note) {
  Loop loop;
  std::vector<std::unique_ptr<Chain<Loop>>> chains;
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    arm_lane(loop, nullptr, lane, closure, chains);
  }
  const double sec = wall_seconds([&] {
    while (loop.events_executed() < target) {
      loop.run_until(loop.now() + 1000.0);
    }
  });
  record("event_dispatch", config, loop.events_executed(), sec, note);
}

void bench_sharded_dispatch(std::size_t shards, std::uint64_t target) {
  sim::ShardedEngine engine(shards, kLanes);
  std::vector<std::unique_ptr<Chain<sim::EventLoop>>> chains;
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    sim::EventLoop& loop = engine.loop_of_lane(lane);
    loop.reserve(1024);
    arm_lane(loop, &engine, lane, Closure::kOversized, chains);
  }
  const double sec = wall_seconds([&] {
    engine.run_windows(1000.0,
                       [&] { return engine.events_executed() >= target; });
  });
  std::ostringstream note;
  note << engine.cross_shard_messages() << " cross-shard messages";
  record("event_dispatch", "shards=" + std::to_string(shards),
         engine.events_executed(), sec, note.str());
}

// --------------------------------------------------------------- timers
//
// Periodic firings in isolation: the loop's re-arm (one heap push of an
// inline [this, id] thunk) against the seed's shared_ptr-rebind-per-firing.

template <typename Loop>
void bench_periodic_timers(const std::string& config, std::uint64_t target,
                           const std::string& note) {
  Loop loop;
  std::uint64_t fired = 0;
  constexpr std::size_t kTimers = 64;
  for (std::size_t t = 0; t < kTimers; ++t) {
    // Periods spread from 1 ms to ~1 s.
    const SimTimeMs period = 1.0 + static_cast<double>((t * 17) % 997);
    loop.schedule_periodic(period, [&fired] {
      ++fired;
      return true;
    });
  }
  const double sec = wall_seconds([&] {
    while (fired < target) loop.run_until(loop.now() + 10'000.0);
  });
  record("periodic_timers", config, fired, sec, note);
}

// -------------------------------------------------------------- output

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

double dispatch_rate(const std::string& config) {
  for (const Result& r : results()) {
    if (r.bench == "event_dispatch" && r.config == config) {
      return r.events_per_s;
    }
  }
  return 0.0;
}

void print_json() {
  std::ostringstream os;
  os << "[\n";
  for (std::size_t i = 0; i < results().size(); ++i) {
    const Result& r = results()[i];
    os << "  {\"bench\": \"" << json_escape(r.bench) << "\", \"config\": \""
       << json_escape(r.config) << "\", \"events\": " << r.events
       << ", \"events_per_s\": " << r.events_per_s
       << ", \"ns_per_event\": " << r.ns_per_event;
    if (!r.note.empty()) os << ", \"note\": \"" << json_escape(r.note) << "\"";
    os << "}" << (i + 1 < results().size() ? "," : "") << "\n";
  }
  os << "]\n";
  std::cout << os.str();
}

void print_table() {
  std::printf("%-18s %-14s %12s %16s %12s\n", "bench", "config", "events",
              "events/s", "ns/event");
  for (const Result& r : results()) {
    std::printf("%-18s %-14s %12llu %16.0f %12.1f  %s\n", r.bench.c_str(),
                r.config.c_str(), static_cast<unsigned long long>(r.events),
                r.events_per_s, r.ns_per_event, r.note.c_str());
  }
  const double seed_rate = dispatch_rate("seed-serial");
  const double four = dispatch_rate("shards=4");
  if (seed_rate > 0.0 && four > 0.0) {
    std::printf("\ndispatch speedup, 4 shards vs seed serial loop: %.2fx\n",
                four / seed_rate);
  }
  const double oversized = dispatch_rate("serial");
  const double inline_rate = dispatch_rate("serial-inline");
  if (oversized > 0.0 && inline_rate > 0.0) {
    std::printf("dispatch speedup, inline vs oversized closures, serial "
                "loop: %.2fx\n",
                inline_rate / oversized);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--quick") {
      g_quick = true;
    } else {
      std::cerr << "usage: bench_micro_eventloop [--json] [--quick]\n";
      return 2;
    }
  }

  const std::uint64_t dispatch_events = g_quick ? 300'000 : 2'000'000;
  const std::uint64_t timer_events = g_quick ? 200'000 : 1'000'000;
  const std::string host_note =
      std::to_string(std::thread::hardware_concurrency()) +
      " hardware threads";

  bench_serial_dispatch<seed::EventLoop>(
      "seed-serial", Closure::kOversized, dispatch_events,
      "pre-refactor priority_queue loop, copy per dispatch");
  bench_serial_dispatch<sim::EventLoop>(
      "serial", Closure::kOversized, dispatch_events,
      "rebuilt loop, one 4-ary heap; oversized closures");
  bench_serial_dispatch<sim::EventLoop>(
      "serial-inline", Closure::kInline, dispatch_events,
      "rebuilt loop, one 4-ary heap; inline closures, as reads'");
  for (const int shards : {1, 2, 4}) {
    bench_sharded_dispatch(static_cast<std::size_t>(shards), dispatch_events);
  }
  bench_periodic_timers<seed::EventLoop>(
      "seed", timer_events, "shared_ptr rebind per firing");
  bench_periodic_timers<sim::EventLoop>("heap", timer_events,
                                        "64 timers, periods 1 ms - 1 s");
  if (!json) std::cout << "\nhost: " << host_note << "\n";

  if (json) {
    print_json();
  } else {
    print_table();
  }
  return 0;
}
