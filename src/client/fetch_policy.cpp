#include "client/fetch_policy.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "api/registry.hpp"

namespace agar::client {

FetchPolicy::FetchPolicy(sim::Network* network, std::uint64_t seed,
                         FetchPolicyParams params)
    : network_(network), params_(params), rng_(seed) {
  if (network_ == nullptr) {
    throw std::invalid_argument("FetchPolicy: null network");
  }
  if (params_.timeout_mult <= 0.0 || params_.timeout_min_ms <= 0.0) {
    throw std::invalid_argument(
        "FetchPolicy: timeout_mult and timeout_min_ms must be positive");
  }
  if (params_.backoff_ms < 0.0 || params_.backoff_mult < 1.0) {
    throw std::invalid_argument(
        "FetchPolicy: backoff_ms must be >= 0 and backoff_mult >= 1");
  }
  if (params_.jitter < 0.0 || params_.jitter >= 1.0) {
    throw std::invalid_argument("FetchPolicy: jitter must be in [0, 1)");
  }
  if (params_.hedge_after_mult < 0.0) {
    throw std::invalid_argument("FetchPolicy: hedge_after_mult must be >= 0");
  }
  const std::size_t regions = network_->topology().num_regions();
  success_.assign(regions, stats::Ewma(params_.ewma_alpha, 1.0));
  samples_.assign(regions, 0);
}

void FetchPolicy::observe(RegionId to, bool success) {
  success_[to].update(success ? 1.0 : 0.0);
  ++samples_[to];
}

sim::EventLoop* FetchPolicy::loop() const {
  sim::EventLoop* const loop = network_->loop();
  if (loop == nullptr) {
    throw std::logic_error("FetchPolicy: network has no bound loop");
  }
  return loop;
}

SimTimeMs FetchPolicy::timeout_ms(const Pending& p) const {
  const SimTimeMs expected =
      network_->model().expected_backend_fetch_ms(p.from, p.to, p.bytes);
  return std::max(params_.timeout_min_ms, params_.timeout_mult * expected);
}

bool FetchPolicy::begin_fetch(RegionId from, RegionId to, std::size_t bytes,
                              FetchCallback cb) {
  const std::uint32_t slot = pending_.acquire();
  Pending& p = pending_[slot];
  p.from = from;
  p.to = to;
  p.bytes = bytes;
  p.cb = std::move(cb);
  p.epoch = next_epoch();
  start_attempt(slot);
  // Always accepted: even a down destination is only *discovered* down
  // after a timeout, so the caller never gets the synchronous refusal the
  // raw network hands out.
  return true;
}

void FetchPolicy::start_attempt(std::uint32_t slot) {
  Pending& p = pending_[slot];
  ++p.attempt;
  ++stats_.attempts;
  const std::uint32_t epoch = p.epoch;
  const SimTimeMs timeout = timeout_ms(p);
  const bool accepted = network_->begin_fetch(
      p.from, p.to, p.bytes,
      [this, slot, epoch](std::optional<SimTimeMs> l) {
        on_wire_result(slot, epoch, /*is_hedge=*/false, l);
      });
  p.primary_outstanding = accepted;
  loop()->schedule_in(timeout,
                      [this, slot, epoch] { on_timeout(slot, epoch); });
  // Hedge only races a request that actually went out; a refused (down)
  // destination has nothing worth duplicating.
  if (accepted && params_.hedge_after_mult > 0.0) {
    const SimTimeMs hedge_delay =
        params_.hedge_after_mult *
        network_->model().expected_backend_fetch_ms(p.from, p.to, p.bytes);
    if (hedge_delay > 0.0 && hedge_delay < timeout) {
      loop()->schedule_in(hedge_delay,
                          [this, slot, epoch] { on_hedge_fire(slot, epoch); });
    }
  }
}

void FetchPolicy::on_hedge_fire(std::uint32_t slot, std::uint32_t epoch) {
  Pending& p = pending_[slot];
  if (epoch != p.epoch) return;
  if (!p.primary_outstanding) return;  // primary already failed; retry path owns it
  const bool accepted = network_->begin_fetch(
      p.from, p.to, p.bytes,
      [this, slot, epoch](std::optional<SimTimeMs> l) {
        on_wire_result(slot, epoch, /*is_hedge=*/true, l);
      });
  if (accepted) {
    ++stats_.attempts;
    ++stats_.hedges_issued;
    p.hedge_outstanding = true;
  }
}

void FetchPolicy::on_wire_result(std::uint32_t slot, std::uint32_t epoch,
                                 bool is_hedge,
                                 std::optional<SimTimeMs> latency) {
  Pending& p = pending_[slot];
  if (epoch != p.epoch) return;  // raced a winner or a timeout
  if (latency.has_value()) {
    if (is_hedge) {
      ++stats_.hedges_won;
    } else if (p.hedge_outstanding) {
      ++stats_.hedges_wasted;  // duplicate still on the wire, now pointless
    }
    observe(p.to, true);
    complete(slot, latency);
    return;
  }
  // One arm failed (abort, queue failure, or gray drop). If the other arm
  // is still racing the timeout, let it run; otherwise the attempt is dead.
  if (is_hedge) {
    p.hedge_outstanding = false;
  } else {
    p.primary_outstanding = false;
  }
  if (p.primary_outstanding || p.hedge_outstanding) return;
  abandon_attempt(p);
  attempt_failed(slot);
}

void FetchPolicy::on_timeout(std::uint32_t slot, std::uint32_t epoch) {
  Pending& p = pending_[slot];
  if (epoch != p.epoch) return;
  ++stats_.timeouts;
  abandon_attempt(p);
  attempt_failed(slot);
}

void FetchPolicy::abandon_attempt(Pending& p) {
  p.epoch = next_epoch();  // stale completions and timers become no-ops
  p.primary_outstanding = false;
  p.hedge_outstanding = false;
}

std::uint32_t FetchPolicy::next_epoch() {
  if (++epochs_ == 0) epochs_ = 1;  // 0 marks a free record
  return epochs_;
}

void FetchPolicy::attempt_failed(std::uint32_t slot) {
  Pending& p = pending_[slot];
  observe(p.to, false);
  if (p.attempt > params_.retries) {  // attempts = retries + 1
    ++stats_.exhausted;
    complete(slot, std::nullopt);
    return;
  }
  ++stats_.retries;
  const double jitter =
      params_.jitter > 0.0
          ? rng_.uniform(1.0 - params_.jitter, 1.0 + params_.jitter)
          : 1.0;
  const SimTimeMs backoff =
      params_.backoff_ms *
      std::pow(params_.backoff_mult, static_cast<double>(p.attempt - 1)) *
      jitter;
  loop()->schedule_in(backoff, [this, slot, epoch = p.epoch] {
    if (pending_[slot].epoch == epoch) start_attempt(slot);
  });
}

void FetchPolicy::complete(std::uint32_t slot,
                           std::optional<SimTimeMs> result) {
  // Freed, the record holds epoch 0: late arrivals and timers drop on it.
  // The caller's continuation may start fetches that reuse this slot.
  FetchCallback cb = std::move(pending_[slot].cb);
  pending_.release(slot);
  cb(result);
}

// ---------------------------------------------------------------------------
// Registrations

namespace {

FetchPolicyParams params_from(const api::ParamMap& params, bool hedged) {
  FetchPolicyParams out;
  out.timeout_mult = params.get_double("timeout_mult");
  out.timeout_min_ms = params.get_double("timeout_min_ms");
  out.retries = params.get_size("retries");
  out.backoff_ms = params.get_double("backoff_ms");
  out.backoff_mult = params.get_double("backoff_mult");
  out.jitter = params.get_double("jitter");
  out.hedge_after_mult = hedged ? params.get_double("hedge_after_mult") : 0.0;
  out.ewma_alpha = params.get_double("ewma_alpha");
  return out;
}

api::ParamSchema retry_schema(bool hedged) {
  api::ParamSchema schema{{
      {"timeout_mult", api::ParamType::kDouble, "3",
       "per-fetch timeout as a multiple of the expected transfer latency"},
      {"timeout_min_ms", api::ParamType::kDouble, "10",
       "floor on the per-fetch timeout (ms)"},
      {"retries", api::ParamType::kSize, "2",
       "re-issues after the first attempt before giving up"},
      {"backoff_ms", api::ParamType::kDouble, "5",
       "base backoff before the first retry (ms)"},
      {"backoff_mult", api::ParamType::kDouble, "2",
       "backoff growth factor per retry"},
      {"jitter", api::ParamType::kDouble, "0.5",
       "backoff jitter: uniform factor in [1-j, 1+j)"},
      {"ewma_alpha", api::ParamType::kDouble, "0.2",
       "weight of the per-region fetch-success EWMA"},
  }};
  if (hedged) {
    schema.params.push_back(
        {"hedge_after_mult", api::ParamType::kDouble, "2",
         "issue the duplicate after this multiple of the expected latency"});
  }
  return schema;
}

const api::FetchPolicyRegistration kNone{{
    "none",
    "",
    "fail-fast pass-through: no timeouts, retries or hedging (the historical "
    "read path, byte for byte)",
    api::ParamSchema{},
    [](const api::FetchPolicyContext&,
       const api::ParamMap&) -> std::unique_ptr<FetchPolicy> {
      return nullptr;
    },
    {}}};

const api::FetchPolicyRegistration kRetry{{
    "retry",
    "retry",
    "per-fetch timeout with bounded retries and jittered exponential backoff; "
    "down regions cost a timeout to discover",
    retry_schema(/*hedged=*/false),
    [](const api::FetchPolicyContext& ctx, const api::ParamMap& params) {
      return std::make_unique<FetchPolicy>(
          ctx.network, ctx.seed, params_from(params, /*hedged=*/false));
    },
    {}}};

const api::FetchPolicyRegistration kHedge{{
    "hedge",
    "hedge",
    "retry policy plus tail hedging: a duplicate request races the laggard "
    "and the first response wins",
    retry_schema(/*hedged=*/true),
    [](const api::FetchPolicyContext& ctx, const api::ParamMap& params) {
      return std::make_unique<FetchPolicy>(
          ctx.network, ctx.seed, params_from(params, /*hedged=*/true));
    },
    {}}};

}  // namespace

}  // namespace agar::client
