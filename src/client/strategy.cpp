#include "client/strategy.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace agar::client {

ReadStrategy::ReadStrategy(ClientContext ctx) : ctx_(ctx), fetcher_(ctx.network) {
  if (ctx_.backend == nullptr || ctx_.network == nullptr ||
      ctx_.loop == nullptr) {
    throw std::invalid_argument("ReadStrategy: null backend/network/loop");
  }
  if (ctx_.fetch_policy != nullptr) {
    // Install the policy *under* the coalescing table: one in-flight entry
    // per chunk regardless of how many retries/hedges the policy spends.
    fetcher_.set_transport(
        [policy = ctx_.fetch_policy.get()](
            const ChunkId&, RegionId from, RegionId to, std::size_t bytes,
            core::FetchCoordinator::Callback cb) {
          return policy->begin_fetch(from, to, bytes, std::move(cb));
        });
  }
}

void ReadStrategy::enable_collab(CollabRoute route, CollabDone done) {
  // Layering per wire fetch: coalescing table -> collab routing (pick the
  // peer or the home region) -> fetch policy (retry/hedge/timeout against
  // the chosen target) -> network. The accounting wrapper observes the
  // final outcome, after any retries, so a peer hit means the transfer
  // actually landed.
  fetcher_.set_transport(
      [this, route = std::move(route), done = std::move(done)](
          const ChunkId& chunk, RegionId from, RegionId to, std::size_t bytes,
          core::FetchCoordinator::Callback cb) {
        const RegionId target = route ? route(chunk, to, bytes) : to;
        core::FetchCoordinator::Callback wrapped =
            [done, target, to, bytes,
             cb = std::move(cb)](std::optional<SimTimeMs> latency) {
              if (done) done(target, to, bytes, latency.has_value());
              cb(latency);
            };
        if (ctx_.fetch_policy != nullptr) {
          return ctx_.fetch_policy->begin_fetch(from, target, bytes,
                                                std::move(wrapped));
        }
        return ctx_.network->begin_fetch(from, target, bytes,
                                         std::move(wrapped));
      });
}

ReadResult ReadStrategy::read(const ObjectKey& key) {
  ReadResult out;
  bool done = false;
  start_read(key, [&](const ReadResult& r) {
    out = r;
    done = true;
  });
  // Drive the shared loop one event at a time; other events (timers,
  // populations, other clients' fetches) interleave as they would in a
  // real run.
  while (!done && ctx_.loop->step()) {
  }
  return out;
}

// ------------------------------------------------------------ read executor

struct ReadStrategy::BatchState {
  ObjectKey key;
  std::size_t chunk_bytes = 0;
  std::size_t want = 0;      // backend arms we aim to keep in flight
  std::size_t accepted = 0;  // backend arms issued so far
  std::size_t pending = 0;   // arms (backend + cache) not yet landed
  bool issued_all = false;   // initial issue pass finished
  std::vector<std::pair<ChunkIndex, RegionId>> on_path;
  std::size_t next_on_path = 0;
  std::vector<std::pair<ChunkIndex, RegionId>> fallbacks;
  std::size_t next_fallback = 0;
  std::size_t failed_arms = 0;  // arms whose fetch came back nullopt
  std::size_t down_skips = 0;   // arms refused synchronously (region down)
  std::vector<ChunkIndex> fetched;
  ReadResult result;
  SimTimeMs start = 0.0;
  SimTimeMs extra = 0.0;  // decode + monitor, after the batch
  /// Fires once every arm has landed and `extra` has passed: the result
  /// with its latency set, and the fetched chunk indices in arrival order.
  std::function<void(ReadResult, std::vector<ChunkIndex>)> done;
};

std::vector<std::pair<ChunkIndex, RegionId>> chunks_by_expected_latency(
    const ClientContext& ctx, const ObjectKey& key) {
  const store::ObjectInfo info = ctx.backend->object_info(key);
  struct Entry {
    ChunkIndex index;
    RegionId region;
    double expected_ms;
  };
  std::vector<Entry> entries;
  entries.reserve(info.locations.size());
  for (const auto& loc : info.locations) {
    entries.push_back(Entry{
        loc.index, loc.region,
        ctx.network->model().expected_backend_fetch_ms(
            ctx.region, loc.region, info.chunk_size)});
  }
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    if (a.expected_ms != b.expected_ms) return a.expected_ms < b.expected_ms;
    if (a.region != b.region) return a.region < b.region;
    return a.index < b.index;
  });
  std::vector<std::pair<ChunkIndex, RegionId>> out;
  out.reserve(entries.size());
  for (const auto& e : entries) out.emplace_back(e.index, e.region);
  return out;
}

double ReadStrategy::decode_ms(std::size_t object_bytes) const {
  return ctx_.decode_ms_per_mb * static_cast<double>(object_bytes) /
         static_cast<double>(1_MB);
}

void ReadStrategy::start_plan(const ObjectKey& key, ReadPlan plan,
                              cache::CacheEngine* cache, ReadCallback done) {
  sim::EventLoop* const loop = ctx_.loop;
  const store::ObjectInfo info = ctx_.backend->object_info(key);
  const std::size_t k = ctx_.backend->codec().k();

  auto st = std::make_shared<BatchState>();
  st->key = key;
  st->chunk_bytes = info.chunk_size;
  st->start = loop->now();
  st->extra = decode_ms(info.object_size) + plan.monitor_overhead_ms;
  std::vector<SimTimeMs> cache_latencies;
  std::vector<ec::Chunk> chunks;  // verify mode: cache hits, then fetched

  // Cache chunks, fetched in parallel with the backend arms. One that is
  // not resident goes on the read path from its home region instead.
  st->on_path = plan.from_backend;
  for (const ChunkIndex idx : plan.from_cache) {
    const auto hit = cache->get(ChunkId{key, idx}.cache_key());
    if (!hit.has_value()) {
      st->on_path.emplace_back(idx, info.locations[idx].region);
      continue;
    }
    cache_latencies.push_back(ctx_.network->cache_fetch(info.chunk_size));
    ++st->result.cache_chunks;
    if (ctx_.verify_data) {
      chunks.push_back(ec::Chunk{idx, *hit});  // shared, no copy
    }
  }

  // Every other chunk (cheapest-first) is a fallback in case a region is
  // down or a fetch fails.
  for (const auto& cand : chunks_by_expected_latency(ctx_, key)) {
    const bool planned =
        std::any_of(plan.from_backend.begin(), plan.from_backend.end(),
                    [&](const auto& p) { return p.first == cand.first; }) ||
        std::any_of(plan.from_cache.begin(), plan.from_cache.end(),
                    [&](ChunkIndex i) { return i == cand.first; });
    if (!planned) st->fallbacks.push_back(cand);
  }
  st->want = k - st->result.cache_chunks;

  st->done = [this, key, plan = std::move(plan), cache,
              chunks = std::move(chunks), k, info, done = std::move(done)](
                 ReadResult result, std::vector<ChunkIndex> fetched) mutable {
    result.backend_chunks = fetched.size();
    result.full_hit = result.cache_chunks == k;
    result.partial_hit = result.cache_chunks > 0;

    // Populate the cache per plan (asynchronous in the prototype: a
    // separate thread pool performs the writes, so no latency charged).
    for (const ChunkIndex idx : plan.populate_after_read) {
      SharedBytes payload = population_payload(key, idx, info.chunk_size);
      if (ctx_.verify_data && payload.empty()) continue;
      cache->put(ChunkId{key, idx}.cache_key(), std::move(payload));
    }
    for (const ChunkIndex idx : plan.async_populate) {
      // Population fetch crosses the network as a background event
      // (traffic counted; coalesces with any in-flight read of the
      // same chunk); its latency is off the read path.
      populate_chunk_async(key, idx, *cache);
    }

    if (ctx_.verify_data && !result.failed) {
      for (const ChunkIndex idx : fetched) {
        const auto bytes = ctx_.backend->get_chunk(ChunkId{key, idx});
        if (bytes.has_value()) chunks.push_back(ec::Chunk{idx, *bytes});
      }
      result.verified = verify_payload(key, info.object_size, chunks);
    }
    done(result);
  };

  if (!cache_latencies.empty()) {
    ++st->pending;
    loop->schedule_in(sim::Network::parallel_batch_ms(cache_latencies),
                      [this, st] { batch_arm_done(st); });
  }
  batch_issue(st);
  st->issued_all = true;
  if (st->pending == 0) {
    // Nothing to wait for (all regions down, or a zero-latency full hit):
    // complete asynchronously so `done` still fires on the loop.
    loop->schedule_in(0.0, [this, st] { batch_arm_done(st); });
    ++st->pending;
  }
}

void ReadStrategy::batch_issue(const std::shared_ptr<BatchState>& st) {
  auto try_issue = [&](const std::pair<ChunkIndex, RegionId>& target) {
    const auto [index, region] = target;
    const core::FetchStart started = fetcher_.fetch(
        ChunkId{st->key, index}, ctx_.region, region, st->chunk_bytes,
        [this, st, index](std::optional<SimTimeMs> latency) {
          if (latency.has_value()) {
            st->fetched.push_back(index);
          } else {
            // Failed in flight (outage, queue abort, or the fetch policy
            // exhausted its retries): replace with the next fallback.
            ++st->failed_arms;
            --st->accepted;
            batch_issue(st);
          }
          batch_arm_done(st);
        });
    if (started == core::FetchStart::kDown) {
      ++st->down_skips;
      return false;  // region down right now; caller falls back
    }
    if (started == core::FetchStart::kJoined) ++st->result.coalesced_chunks;
    ++st->accepted;
    ++st->pending;
    return true;
  };

  while (st->accepted < st->want && st->next_on_path < st->on_path.size()) {
    (void)try_issue(st->on_path[st->next_on_path++]);
  }
  // Failure fallback: pull replacement chunks (typically parity from the
  // regions the planner discarded) until the batch is complete.
  while (st->accepted < st->want && st->next_fallback < st->fallbacks.size()) {
    (void)try_issue(st->fallbacks[st->next_fallback++]);
  }
}

void ReadStrategy::batch_arm_done(const std::shared_ptr<BatchState>& st) {
  --st->pending;
  if (st->pending != 0 || !st->issued_all) return;
  sim::EventLoop* const loop = ctx_.loop;
  // Every fallback exhausted before `want` backend arms landed (a mid-run
  // outage took out the remaining sources): the read cannot assemble k
  // chunks. Complete it as a counted failure — no decode happens, so no
  // decode time is charged and no decoder throws from a completion event.
  st->result.failed = st->fetched.size() < st->want;
  // A read that assembled k chunks but not the planned k is a degraded
  // read: it succeeded off its fallback path (and paid for it in latency).
  st->result.degraded =
      !st->result.failed && (st->failed_arms > 0 || st->down_skips > 0);
  loop->schedule_in(st->result.failed ? 0.0 : st->extra, [loop, st] {
    st->result.latency_ms = loop->now() - st->start;
    st->done(std::move(st->result), std::move(st->fetched));
  });
}

// ------------------------------------------------------------- population

SharedBytes ReadStrategy::population_payload(const ObjectKey& key,
                                             ChunkIndex index,
                                             std::size_t chunk_size) const {
  if (ctx_.verify_data) {
    // Share the backend's buffer; empty handle if the bytes were never
    // materialized (latency-only objects).
    const auto bytes = ctx_.backend->get_chunk(ChunkId{key, index});
    return bytes.has_value() ? *bytes : SharedBytes{};
  }
  // Latency-only mode: only the size matters to the cache, so every
  // populated chunk of a given size shares one zero buffer.
  if (zero_payload_.size() != chunk_size) {
    zero_payload_ = SharedBytes(Bytes(chunk_size, 0));
  }
  return zero_payload_;
}

void ReadStrategy::populate_chunk_async(const ObjectKey& key, ChunkIndex index,
                                        cache::CacheEngine& cache) {
  const std::string ck = ChunkId{key, index}.cache_key();
  if (cache.contains(ck)) return;
  const store::ObjectInfo info = ctx_.backend->object_info(key);
  const RegionId region = ctx_.backend->placement().region_of(
      key, index, ctx_.backend->num_regions());
  (void)fetcher_.fetch(
      ChunkId{key, index}, ctx_.region, region, info.chunk_size,
      [this, key, index, &cache,
       chunk_size = info.chunk_size](std::optional<SimTimeMs> latency) {
        if (!latency.has_value()) return;  // region down; retry next period
        SharedBytes payload = population_payload(key, index, chunk_size);
        if (ctx_.verify_data && payload.empty()) return;  // no backend bytes
        cache.put(ChunkId{key, index}.cache_key(), std::move(payload));
      });
}

bool ReadStrategy::verify_payload(const ObjectKey& key,
                                  std::size_t object_size,
                                  const std::vector<ec::Chunk>& chunks) {
  const ec::ObjectCodec& codec =
      ctx_.codec != nullptr ? *ctx_.codec : ctx_.backend->codec();
  // Zero every byte first: nothing left from an earlier read of the same
  // key can pass the check.
  decode_buffer_.assign(object_size, 0);
  codec.decode(chunks, BytesSpan(decode_buffer_));
  // The code is systematic, so the store's data chunks are the payload
  // (store::populate_working_set checked them against it at set-up):
  // row d of the object must equal data chunk d, cut at the object's end.
  const std::size_t chunk_size = codec.chunk_size(object_size);
  ChunkId reference{key, 0};
  for (std::size_t begin = 0; begin < object_size; begin += chunk_size) {
    const auto bytes = ctx_.backend->get_chunk(reference);
    const std::size_t len = std::min(chunk_size, object_size - begin);
    if (!bytes.has_value() || bytes->size() < len ||
        std::memcmp(decode_buffer_.data() + begin, bytes->data(), len) != 0) {
      return false;
    }
    ++reference.index;
  }
  return true;
}

}  // namespace agar::client
