// The fault-tolerant fetch policy — the client-side answer to gray
// failures.
//
// A FetchPolicy sits between the strategies' coalescing table
// (core::FetchCoordinator) and sim::Network. The `fetch=` registry picks
// it: "retry" and "hedge" build one, and the baseline "none" builds none,
// so the coordinator calls the raw network and keeps the historical
// fail-fast semantics byte for byte. The policy wraps every wire fetch in
// a state machine:
//
//   * per-fetch timeout — a one-shot event races the network completion;
//     whichever fires first wins, the loser is ignored;
//   * bounded retries with exponential backoff plus multiplicative jitter
//     (deterministic: the jitter RNG is seeded per lane);
//   * optional hedging — after hedge_after_mult x the expected latency, a
//     duplicate request is issued and the first response wins, the loser's
//     completion is dropped on the floor and counted as wasted work.
//
// Discovering a down region now costs a timeout: where the raw network
// refuses synchronously (begin_fetch returns false), the policy accepts
// the fetch and delivers the failure only after the timeout would have
// expired — real clients do not learn about dead peers for free.
//
// Placement note: chunks are round-robin placed with exactly one home
// region per chunk (no replicas), so a hedge cannot go to a "next-best
// region" for the same chunk — it re-asks the same region and draws an
// independent latency sample, modeling a second server behind the
// regional endpoint. With straggle fraction f, both copies straggle with
// probability f², which is what cuts the tail. Cross-region diversity
// comes from the strategies' degraded-read fallback path instead.
//
// The policy tracks a per-destination-region success EWMA (1 = healthy)
// plus counters (timeouts, retries, hedges issued/won/wasted, exhausted
// fetches) that the runner merges into RunResult.
//
// Each logical fetch is a record in a SlotPool; its timers and wire
// callbacks capture (this, slot, epoch), 16 bytes that std::function keeps
// inline, so a fetch allocates nothing.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "common/slot_pool.hpp"
#include "common/types.hpp"
#include "sim/network.hpp"
#include "stats/ewma.hpp"

namespace agar::client {

struct FetchPolicyStats {
  std::uint64_t attempts = 0;       ///< wire fetches issued (incl. retries/hedges)
  std::uint64_t timeouts = 0;       ///< attempts abandoned by the timeout timer
  std::uint64_t retries = 0;        ///< re-issues after a failed/timed-out attempt
  std::uint64_t hedges_issued = 0;  ///< duplicate requests sent
  std::uint64_t hedges_won = 0;     ///< hedge finished first
  std::uint64_t hedges_wasted = 0;  ///< primary won with the hedge in flight
  std::uint64_t exhausted = 0;      ///< fetches that gave up (caller hears nullopt)

  /// Add another lane's policy counts.
  void merge(const FetchPolicyStats& other) {
    attempts += other.attempts;
    timeouts += other.timeouts;
    retries += other.retries;
    hedges_issued += other.hedges_issued;
    hedges_won += other.hedges_won;
    hedges_wasted += other.hedges_wasted;
    exhausted += other.exhausted;
  }
};

struct FetchPolicyParams {
  /// Timeout = max(timeout_min_ms, timeout_mult x expected latency).
  double timeout_mult = 3.0;
  double timeout_min_ms = 10.0;
  /// Re-issues after the first attempt (attempts = retries + 1).
  std::size_t retries = 2;
  /// Backoff before retry n is backoff_ms x backoff_mult^(n-1), scaled by
  /// a uniform jitter factor in [1 - jitter, 1 + jitter).
  double backoff_ms = 5.0;
  double backoff_mult = 2.0;
  double jitter = 0.5;
  /// > 0 arms hedging: the duplicate goes out hedge_after_mult x the
  /// expected latency after the primary (0 disables).
  double hedge_after_mult = 0.0;
  /// EWMA weight for the per-region success estimate.
  double ewma_alpha = 0.2;
};

/// Timeout + retry + backoff (+ optional hedging) state machine. One
/// instance serves one lane, so its jitter RNG stream is deterministic
/// for any shard count.
class FetchPolicy {
 public:
  using FetchCallback = sim::Network::FetchCallback;

  FetchPolicy(sim::Network* network, std::uint64_t seed,
              FetchPolicyParams params);
  // Timers and wire callbacks hold `this`.
  FetchPolicy(const FetchPolicy&) = delete;
  FetchPolicy& operator=(const FetchPolicy&) = delete;

  /// Same contract as Network::begin_fetch: returns false only when the
  /// caller should substitute a fallback immediately; otherwise `cb` fires
  /// exactly once on the loop with the outcome. This policy always
  /// accepts.
  bool begin_fetch(RegionId from, RegionId to, std::size_t bytes,
                   FetchCallback cb);

  [[nodiscard]] const FetchPolicyStats& stats() const { return stats_; }
  [[nodiscard]] const FetchPolicyParams& params() const { return params_; }

  /// Success EWMA of fetches to `r` (1 = every fetch lands). Starts at 1.
  [[nodiscard]] double region_success_ewma(RegionId r) const {
    return success_.at(r).value();
  }
  [[nodiscard]] std::uint64_t region_samples(RegionId r) const {
    return samples_.at(r);
  }
  [[nodiscard]] std::size_t num_regions() const { return success_.size(); }

 private:
  /// One logical fetch moving through the retry state machine. `epoch`
  /// names the current attempt with a number no other attempt gets:
  /// abandoning an attempt draws a new one, so a completion or timer
  /// captured under an older epoch finds the mismatch and becomes a no-op
  /// — nothing needs to chase down in-flight wire events. A free record
  /// holds 0, which no attempt gets, so events of a slot's earlier fetch
  /// stay stale after the slot is freed or reused.
  struct Pending {
    RegionId from = 0;
    RegionId to = 0;
    std::size_t bytes = 0;
    FetchCallback cb;
    std::size_t attempt = 0;  // 1-based once start_attempt runs
    std::uint32_t epoch = 0;
    bool primary_outstanding = false;
    bool hedge_outstanding = false;
  };

  void start_attempt(std::uint32_t p);
  void on_wire_result(std::uint32_t p, std::uint32_t epoch, bool is_hedge,
                      std::optional<SimTimeMs> latency);
  void on_timeout(std::uint32_t p, std::uint32_t epoch);
  void on_hedge_fire(std::uint32_t p, std::uint32_t epoch);
  /// The current attempt (primary + any hedge) is dead: retry or exhaust.
  void attempt_failed(std::uint32_t p);
  /// Invalidate the in-flight attempt: a new epoch, so its stale
  /// completions and timer firings are dropped.
  void abandon_attempt(Pending& p);
  /// The next attempt number (never 0).
  [[nodiscard]] std::uint32_t next_epoch();
  /// Free the slot, then tell the caller.
  void complete(std::uint32_t p, std::optional<SimTimeMs> result);
  /// Fold one fetch outcome into the per-region health tracking.
  void observe(RegionId to, bool success);

  [[nodiscard]] sim::EventLoop* loop() const;
  [[nodiscard]] SimTimeMs timeout_ms(const Pending& p) const;

  sim::Network* network_;  // non-owning
  FetchPolicyParams params_;
  Rng rng_;
  FetchPolicyStats stats_;
  std::vector<stats::Ewma> success_;
  std::vector<std::uint64_t> samples_;
  SlotPool<Pending> pending_;
  std::uint32_t epochs_ = 0;  ///< the last attempt number handed out
};

}  // namespace agar::client
