#include "client/backend_strategy.hpp"

#include <memory>

#include "api/registry.hpp"

namespace agar::client {

namespace {

const api::StrategyRegistration kBackend{{
    "backend",
    "Backend",
    "no cache: fetch the k cheapest chunks straight from the backend",
    api::ParamSchema{},
    [](const api::StrategyContext& ctx, const api::ParamMap&) {
      return std::make_unique<BackendStrategy>(*ctx.client);
    },
    {}}};

}  // namespace

void BackendStrategy::plan(ObjectId object, ReadPlan& out) {
  const auto k = static_cast<std::ptrdiff_t>(ctx_.backend->codec().k());
  const auto& ranking = chunks_by_expected_latency(object);
  out.from_backend.assign(ranking.begin(), ranking.begin() + k);
  out.fallbacks.assign(ranking.begin() + k, ranking.end());
}

}  // namespace agar::client
