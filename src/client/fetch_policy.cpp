#include "client/fetch_policy.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "api/registry.hpp"

namespace agar::client {

/// One logical fetch moving through the retry state machine. Held by
/// shared_ptr so timer and wire closures outlive any individual attempt.
/// `epoch` names the current attempt: abandoning an attempt bumps it, so a
/// completion or timer captured under an older epoch finds the mismatch and
/// becomes a no-op — nothing needs to chase down in-flight wire events.
struct FetchPolicy::Pending {
  RegionId from = 0;
  RegionId to = 0;
  std::size_t bytes = 0;
  FetchCallback cb;
  std::size_t attempt = 0;  // 1-based once start_attempt runs
  std::uint64_t epoch = 0;
  bool done = false;
  bool primary_outstanding = false;
  bool hedge_outstanding = false;
};

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
  auto p = std::make_shared<Pending>();
  p->from = from;
  p->to = to;
  p->bytes = bytes;
  p->cb = std::move(cb);
  start_attempt(p);
  // Always accepted: even a down destination is only *discovered* down
  // after a timeout, so the caller never gets the synchronous refusal the
  // raw network hands out.
  return true;
}

void FetchPolicy::start_attempt(const std::shared_ptr<Pending>& p) {
  ++p->attempt;
  ++stats_.attempts;
  const std::uint64_t epoch = p->epoch;
  const SimTimeMs timeout = timeout_ms(*p);
  const bool accepted = network_->begin_fetch(
      p->from, p->to, p->bytes, [this, p, epoch](std::optional<SimTimeMs> l) {
        on_wire_result(p, epoch, /*is_hedge=*/false, l);
      });
  p->primary_outstanding = accepted;
  loop()->schedule_in(timeout, [this, p, epoch] { on_timeout(p, epoch); });
  // Hedge only races a request that actually went out; a refused (down)
  // destination has nothing worth duplicating.
  if (accepted && params_.hedge_after_mult > 0.0) {
    const SimTimeMs hedge_delay =
        params_.hedge_after_mult *
        network_->model().expected_backend_fetch_ms(p->from, p->to, p->bytes);
    if (hedge_delay > 0.0 && hedge_delay < timeout) {
      loop()->schedule_in(hedge_delay,
                          [this, p, epoch] { on_hedge_fire(p, epoch); });
    }
  }
}

void FetchPolicy::on_hedge_fire(const std::shared_ptr<Pending>& p,
                                std::uint64_t epoch) {
  if (p->done || epoch != p->epoch) return;
  if (!p->primary_outstanding) return;  // primary already failed; retry path owns it
  const bool accepted = network_->begin_fetch(
      p->from, p->to, p->bytes, [this, p, epoch](std::optional<SimTimeMs> l) {
        on_wire_result(p, epoch, /*is_hedge=*/true, l);
      });
  if (accepted) {
    ++stats_.attempts;
    ++stats_.hedges_issued;
    p->hedge_outstanding = true;
  }
}

void FetchPolicy::on_wire_result(const std::shared_ptr<Pending>& p,
                                 std::uint64_t epoch, bool is_hedge,
                                 std::optional<SimTimeMs> latency) {
  if (p->done || epoch != p->epoch) return;  // raced a winner or a timeout
  if (latency.has_value()) {
    if (is_hedge) {
      ++stats_.hedges_won;
    } else if (p->hedge_outstanding) {
      ++stats_.hedges_wasted;  // duplicate still on the wire, now pointless
    }
    observe(p->to, true);
    complete(p, latency);
    return;
  }
  // One arm failed (abort, queue failure, or gray drop). If the other arm
  // is still racing the timeout, let it run; otherwise the attempt is dead.
  if (is_hedge) {
    p->hedge_outstanding = false;
  } else {
    p->primary_outstanding = false;
  }
  if (p->primary_outstanding || p->hedge_outstanding) return;
  abandon_attempt(p);
  attempt_failed(p);
}

void FetchPolicy::on_timeout(const std::shared_ptr<Pending>& p,
                             std::uint64_t epoch) {
  if (p->done || epoch != p->epoch) return;
  ++stats_.timeouts;
  abandon_attempt(p);
  attempt_failed(p);
}

void FetchPolicy::abandon_attempt(const std::shared_ptr<Pending>& p) {
  ++p->epoch;  // stale wire completions and timer firings become no-ops
  p->primary_outstanding = false;
  p->hedge_outstanding = false;
}

void FetchPolicy::attempt_failed(const std::shared_ptr<Pending>& p) {
  observe(p->to, false);
  if (p->attempt > params_.retries) {  // attempts = retries + 1
    ++stats_.exhausted;
    complete(p, std::nullopt);
    return;
  }
  ++stats_.retries;
  const double jitter =
      params_.jitter > 0.0
          ? rng_.uniform(1.0 - params_.jitter, 1.0 + params_.jitter)
          : 1.0;
  const SimTimeMs backoff =
      params_.backoff_ms *
      std::pow(params_.backoff_mult, static_cast<double>(p->attempt - 1)) *
      jitter;
  loop()->schedule_in(backoff, [this, p] {
    if (!p->done) start_attempt(p);
  });
}

void FetchPolicy::complete(const std::shared_ptr<Pending>& p,
                           std::optional<SimTimeMs> result) {
  abandon_attempt(p);  // late arrivals and timers drop on the epoch
  p->done = true;
  // Pending outlives this call in the armed timers' closures; they must
  // not keep the read's continuation alive.
  FetchCallback cb = std::move(p->cb);
  cb(result);
}

// ---------------------------------------------------------------------------
// Registrations

namespace {

FetchPolicyParams params_from(const api::ParamMap& params, bool hedged) {
  FetchPolicyParams out;
  out.timeout_mult = params.get_double("timeout_mult", out.timeout_mult);
  out.timeout_min_ms = params.get_double("timeout_min_ms", out.timeout_min_ms);
  out.retries = params.get_size("retries", out.retries);
  out.backoff_ms = params.get_double("backoff_ms", out.backoff_ms);
  out.backoff_mult = params.get_double("backoff_mult", out.backoff_mult);
  out.jitter = params.get_double("jitter", out.jitter);
  out.hedge_after_mult =
      hedged ? params.get_double("hedge_after_mult", 2.0) : 0.0;
  out.ewma_alpha = params.get_double("ewma_alpha", out.ewma_alpha);
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
