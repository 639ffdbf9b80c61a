// Backend strategy (paper §V-A "Backend"): no caching layer at all — every
// read plans the k cheapest chunks straight from the regional buckets and
// decodes, through the same executor as every caching system. The floor
// (or ceiling, latency-wise) every caching system is compared against.
#pragma once

#include "client/strategy.hpp"

namespace agar::client {

class BackendStrategy final : public ReadStrategy {
 public:
  explicit BackendStrategy(ClientContext ctx) : ReadStrategy(ctx) {}

  /// The k cheapest chunks by expected latency, all from the backend; the
  /// rest are the fallbacks.
  void plan(ObjectId object, ReadPlan& out) override;
};

}  // namespace agar::client
