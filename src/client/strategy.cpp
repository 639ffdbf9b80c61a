#include "client/strategy.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace agar::client {

// One read's fetch batch, defined ahead of the constructor and destructor,
// which instantiate the batch pool's.
struct ReadStrategy::BatchState {
  ObjectId object = 0;
  ReadPlan plan;
  ReadCallback done;
  std::size_t want = 0;      // backend arms we aim to keep in flight
  std::size_t accepted = 0;  // backend arms issued so far
  std::size_t pending = 0;   // arms (backend + cache) not yet landed
  bool issued_all = false;   // initial issue pass finished
  std::vector<std::pair<ChunkIndex, RegionId>> on_path;
  std::size_t next_on_path = 0;
  std::size_t next_fallback = 0;  // into plan.fallbacks
  std::size_t failed_arms = 0;  // arms whose fetch came back nullopt
  std::size_t down_skips = 0;   // arms refused synchronously (region down)
  std::vector<ChunkIndex> fetched;  // in arrival order
  std::vector<ec::Chunk> chunks;    // verify mode: cache hits, then fetched
  ReadResult result;
  SimTimeMs start = 0.0;
  SimTimeMs extra = 0.0;  // decode + monitor, after the batch

  /// Reset for the next read, keeping the lists' capacity (the pool's
  /// release calls this).
  void clear() {
    plan.clear();
    done = nullptr;
    want = accepted = pending = 0;
    issued_all = false;
    on_path.clear();
    next_on_path = 0;
    next_fallback = 0;
    failed_arms = down_skips = 0;
    fetched.clear();
    chunks.clear();
    result = ReadResult{};
  }
};

ReadStrategy::ReadStrategy(ClientContext ctx)
    : ctx_(ctx),
      fetcher_([this](const ChunkId& chunk, RegionId from, RegionId to,
                      std::size_t bytes, core::FetchCoordinator::Callback cb) {
        return wire_fetch(chunk, from, to, bytes, std::move(cb));
      }) {
  if (ctx_.backend == nullptr || ctx_.network == nullptr ||
      ctx_.loop == nullptr) {
    throw std::invalid_argument("ReadStrategy: null backend/network/loop");
  }
}

ReadStrategy::~ReadStrategy() = default;

void ReadPlan::clear() {
  from_cache.clear();
  from_backend.clear();
  fallbacks.clear();
  async_populate.clear();
  populate_after_read.clear();
  populate_resident = true;
  monitor_overhead_ms = 0.0;
}

void ReadStrategy::enable_collab(CollabRoute route, CollabDone done) {
  collab_route_ = std::move(route);
  collab_done_ = std::move(done);
}

bool ReadStrategy::wire_fetch(const ChunkId& chunk, RegionId from,
                              RegionId to, std::size_t bytes,
                              core::FetchCoordinator::Callback cb) {
  std::uint32_t slot = kNoSlot;
  if (collab_route_) {
    const RegionId target = collab_route_(chunk, to, bytes);
    slot = routed_fetches_.acquire();
    routed_fetches_[slot] = RoutedFetch{std::move(cb), target, to, bytes};
    cb = [this, slot](std::optional<SimTimeMs> latency) {
      collab_landed(slot, latency);
    };
    to = target;
  }
  const bool accepted =
      ctx_.fetch_policy != nullptr
          ? ctx_.fetch_policy->begin_fetch(from, to, bytes, std::move(cb))
          : ctx_.network->begin_fetch(from, to, bytes, std::move(cb));
  if (!accepted && slot != kNoSlot) routed_fetches_.release(slot);
  return accepted;
}

void ReadStrategy::collab_landed(std::uint32_t slot,
                                 std::optional<SimTimeMs> latency) {
  RoutedFetch fetch = std::move(routed_fetches_[slot]);
  routed_fetches_.release(slot);
  if (collab_done_) {
    collab_done_(fetch.target, fetch.home, fetch.bytes, latency.has_value());
  }
  fetch.cb(latency);
}

void ReadStrategy::start_read(const ObjectKey& key, ReadCallback done) {
  start_read(ctx_.backend->id_of(key), std::move(done));
}

ReadResult ReadStrategy::read(const ObjectKey& key) {
  return read(ctx_.backend->id_of(key));
}

ReadResult ReadStrategy::read(ObjectId object) {
  ReadResult out;
  bool done = false;
  start_read(object, [&out, &done](const ReadResult& r) {
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

const std::vector<std::pair<ChunkIndex, RegionId>>&
ReadStrategy::chunks_by_expected_latency(ObjectId object) {
  const store::ObjectInfo& info = ctx_.backend->object_info(object);
  // The estimate depends on the chunk's region only: one per region.
  region_ms_.resize(ctx_.backend->num_regions());
  for (RegionId r = 0; r < region_ms_.size(); ++r) {
    region_ms_[r] = ctx_.network->model().expected_backend_fetch_ms(
        ctx_.region, r, info.chunk_size);
  }
  candidates_.clear();
  for (const auto& loc : info.locations) {
    candidates_.emplace_back(loc.index, loc.region);
  }
  std::sort(candidates_.begin(), candidates_.end(),
            [this](const auto& a, const auto& b) {
              const SimTimeMs ma = region_ms_[a.second];
              const SimTimeMs mb = region_ms_[b.second];
              if (ma != mb) return ma < mb;
              if (a.second != b.second) return a.second < b.second;
              return a.first < b.first;
            });
  return candidates_;
}

double ReadStrategy::decode_ms(std::size_t object_bytes) const {
  return ctx_.decode_ms_per_mb * static_cast<double>(object_bytes) /
         static_cast<double>(1_MB);
}

void ReadStrategy::start_read(ObjectId object, ReadCallback done) {
  sim::EventLoop* const loop = ctx_.loop;
  const store::ObjectInfo& info = ctx_.backend->object_info(object);
  const std::size_t k = ctx_.backend->codec().k();

  const std::uint32_t b = batches_.acquire();
  BatchState& st = batches_[b];
  plan(object, st.plan);  // a free batch's plan is empty
  st.object = object;
  st.done = std::move(done);
  st.start = loop->now();
  st.extra = decode_ms(info.object_size) + st.plan.monitor_overhead_ms;

  // Cache chunks, fetched in parallel with the backend arms. One that is
  // not resident goes on the read path from its home region instead.
  cache_latencies_.clear();
  st.on_path.assign(st.plan.from_backend.begin(), st.plan.from_backend.end());
  for (const ChunkIndex idx : st.plan.from_cache) {
    const auto hit = engine_->get(ChunkId{object, idx}.key());
    if (!hit.has_value()) {
      st.on_path.emplace_back(idx, info.locations[idx].region);
      continue;
    }
    cache_latencies_.push_back(ctx_.network->cache_fetch(info.chunk_size));
    ++st.result.cache_chunks;
    if (ctx_.verify_data) {
      st.chunks.push_back(ec::Chunk{idx, *hit});  // shared, no copy
    }
  }
  st.want = k - st.result.cache_chunks;

  // The cache arm lands with the slowest of its chunks.
  if (!cache_latencies_.empty()) {
    ++st.pending;
    loop->schedule_in(sim::Network::parallel_batch_ms(cache_latencies_),
                      [this, b] { batch_arm_done(b); });
  }
  batch_issue(b);
  st.issued_all = true;
  if (st.pending == 0) {
    // Nothing to wait for (all regions down, or a zero-latency full hit):
    // complete asynchronously so `done` still fires on the loop.
    loop->schedule_in(0.0, [this, b] { batch_arm_done(b); });
    ++st.pending;
  }
}

void ReadStrategy::batch_issue(std::uint32_t b) {
  BatchState& st = batches_[b];
  auto try_issue = [&](const std::pair<ChunkIndex, RegionId>& target) {
    const auto [index, region] = target;
    const core::FetchStart started = fetcher_.fetch(
        ChunkId{st.object, index}, ctx_.region, region,
        ctx_.backend->object_info(st.object).chunk_size,
        [this, b, index](std::optional<SimTimeMs> latency) {
          batch_arm_landed(b, index, latency);
        });
    if (started == core::FetchStart::kDown) {
      ++st.down_skips;
      return false;  // region down right now; caller falls back
    }
    if (started == core::FetchStart::kJoined) ++st.result.coalesced_chunks;
    ++st.accepted;
    ++st.pending;
    return true;
  };

  while (st.accepted < st.want && st.next_on_path < st.on_path.size()) {
    (void)try_issue(st.on_path[st.next_on_path++]);
  }
  // Failure fallback: pull replacement chunks (typically parity from the
  // regions the planner discarded) until the batch is complete.
  const auto& fallbacks = st.plan.fallbacks;
  while (st.accepted < st.want && st.next_fallback < fallbacks.size()) {
    (void)try_issue(fallbacks[st.next_fallback++]);
  }
}

void ReadStrategy::batch_arm_landed(std::uint32_t b, ChunkIndex index,
                                    std::optional<SimTimeMs> latency) {
  BatchState& st = batches_[b];
  if (latency.has_value()) {
    st.fetched.push_back(index);
  } else {
    // Failed in flight (outage, queue abort, or the fetch policy exhausted
    // its retries): replace with the next fallback.
    ++st.failed_arms;
    --st.accepted;
    batch_issue(b);
  }
  batch_arm_done(b);
}

void ReadStrategy::batch_arm_done(std::uint32_t b) {
  BatchState& st = batches_[b];
  --st.pending;
  if (st.pending != 0 || !st.issued_all) return;
  // Every fallback exhausted before `want` backend arms landed (a mid-run
  // outage took out the remaining sources): the read cannot assemble k
  // chunks. Complete it as a counted failure — no decode happens, so no
  // decode time is charged and no decoder throws from a completion event.
  st.result.failed = st.fetched.size() < st.want;
  // A read that assembled k chunks but not the planned k is a degraded
  // read: it succeeded off its fallback path (and paid for it in latency).
  st.result.degraded =
      !st.result.failed && (st.failed_arms > 0 || st.down_skips > 0);
  ctx_.loop->schedule_in(st.result.failed ? 0.0 : st.extra,
                         [this, b] { batch_finish(b); });
}

void ReadStrategy::batch_finish(std::uint32_t b) {
  BatchState& st = batches_[b];
  const store::ObjectInfo& info = ctx_.backend->object_info(st.object);
  const std::size_t k = ctx_.backend->codec().k();
  ReadResult result = st.result;
  result.latency_ms = ctx_.loop->now() - st.start;
  result.backend_chunks = st.fetched.size();
  result.full_hit = result.cache_chunks == k;
  result.partial_hit = result.cache_chunks > 0;

  // Populate the cache per plan (asynchronous in the prototype: a separate
  // thread pool performs the writes, so no latency charged).
  for (const ChunkIndex idx : st.plan.populate_after_read) {
    const ChunkId chunk{st.object, idx};
    if (!st.plan.populate_resident && engine_->contains(chunk.key())) {
      continue;  // a hit earlier; the engine keeps its recency
    }
    SharedBytes payload = population_payload(chunk, info.chunk_size);
    if (ctx_.verify_data && payload.empty()) continue;
    engine_->put(chunk.key(), std::move(payload));
  }
  for (const ChunkIndex idx : st.plan.async_populate) {
    // Population fetch crosses the network as a background event (traffic
    // counted; coalesces with any in-flight read of the same chunk); its
    // latency is off the read path.
    populate_chunk_async(ChunkId{st.object, idx});
  }

  if (ctx_.verify_data && !result.failed) {
    for (const ChunkIndex idx : st.fetched) {
      const auto bytes = ctx_.backend->get_chunk(ChunkId{st.object, idx});
      if (bytes.has_value()) st.chunks.push_back(ec::Chunk{idx, *bytes});
    }
    result.verified = verify_payload(st.object, info.object_size, st.chunks);
  }

  // Back to the pool before `done`, which may start the next read.
  ReadCallback done = std::move(st.done);
  batches_.release(b);
  done(result);
}

// ------------------------------------------------------------- population

SharedBytes ReadStrategy::population_payload(const ChunkId& chunk,
                                             std::size_t chunk_size) const {
  if (ctx_.verify_data) {
    // Share the backend's buffer; empty handle if the bytes were never
    // materialized (latency-only objects).
    const auto bytes = ctx_.backend->get_chunk(chunk);
    return bytes.has_value() ? *bytes : SharedBytes{};
  }
  // Latency-only mode: only the size matters to the cache, so every
  // populated chunk of a given size shares one zero buffer.
  if (zero_payload_.size() != chunk_size) {
    zero_payload_ = SharedBytes(Bytes(chunk_size, 0));
  }
  return zero_payload_;
}

void ReadStrategy::populate_chunk_async(const ChunkId& chunk) {
  if (engine_->contains(chunk.key())) return;
  const store::ObjectInfo& info = ctx_.backend->object_info(chunk.object);
  (void)fetcher_.fetch(
      chunk, ctx_.region, info.locations[chunk.index].region, info.chunk_size,
      [this, chunk](std::optional<SimTimeMs> latency) {
        if (!latency.has_value()) return;  // region down; retry next period
        population_landed(chunk);
      });
}

void ReadStrategy::population_landed(const ChunkId& chunk) {
  SharedBytes payload = population_payload(
      chunk, ctx_.backend->object_info(chunk.object).chunk_size);
  if (ctx_.verify_data && payload.empty()) return;  // no backend bytes
  engine_->put(chunk.key(), std::move(payload));
}

bool ReadStrategy::verify_payload(ObjectId object, std::size_t object_size,
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
  ChunkId reference{object, 0};
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
