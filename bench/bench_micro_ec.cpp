// EC data-plane throughput harness: the GF(256) dot kernel (every runtime
// backend), Reed-Solomon encode/decode for the
// paper's RS(9,3), the decode-plan cache (cold vs memoized inversion), a
// verify-mode read's tiled decode and check, and the deterministic payload
// generator's scalar and vector paths.
//
// Each measurement runs several timed rounds of the same iteration count
// and reports the median round with the fastest and slowest.
//
// Self-contained (no Google Benchmark) so CI can always build and run it.
// Default output is an aligned table; --json emits a JSON array ("BENCH
// JSON") for artifact upload and trend tracking. --quick shrinks the
// per-round budget and the round count for smoke runs.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "ec/object_codec.hpp"
#include "ec/reed_solomon.hpp"
#include "gf/gf256.hpp"

namespace {

using namespace agar;
using Clock = std::chrono::steady_clock;

double g_budget_ms = 30.0;  // per round; --quick lowers it
std::size_t g_rounds = 7;   // per measurement; --quick lowers it

struct Result {
  std::string bench;
  std::string backend;
  std::size_t bytes = 0;       ///< payload bytes processed per iteration
  double mb_per_s = 0.0;       ///< at the median round
  double ns_per_op = 0.0;      ///< median round
  double ns_per_op_min = 0.0;  ///< fastest round
  double ns_per_op_max = 0.0;  ///< slowest round
  std::string note;
};

std::vector<Result>& results() {
  static std::vector<Result> r;
  return r;
}

/// Seconds per iteration of `iters` calls of fn.
template <typename Fn>
double time_iters(Fn& fn, std::uint64_t iters) {
  const auto start = Clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) fn();
  return std::chrono::duration<double>(Clock::now() - start).count() /
         static_cast<double>(iters);
}

/// Seconds per iteration of each of g_rounds rounds, sorted. The iteration
/// count is first grown until one round takes the per-round budget.
template <typename Fn>
std::vector<double> time_rounds(Fn& fn) {
  fn();  // warm-up / first-touch
  std::uint64_t iters = 1;
  for (;;) {
    const double ms = time_iters(fn, iters) * 1e3 * static_cast<double>(iters);
    if (ms >= g_budget_ms || iters > (1ULL << 30)) break;
    const double target = g_budget_ms * 1.2;
    const std::uint64_t next =
        ms <= 0.01 ? iters * 32
                   : static_cast<std::uint64_t>(
                         static_cast<double>(iters) * target / ms) +
                         1;
    iters = std::max(next, iters + 1);
  }
  std::vector<double> rounds;
  for (std::size_t r = 0; r < g_rounds; ++r) {
    rounds.push_back(time_iters(fn, iters));
  }
  std::sort(rounds.begin(), rounds.end());
  return rounds;
}

template <typename Fn>
void record(const std::string& bench, const std::string& backend,
            std::size_t bytes_per_iter, Fn&& fn, std::string note = "") {
  const std::vector<double> rounds = time_rounds(fn);
  const double sec = rounds[rounds.size() / 2];
  Result r;
  r.bench = bench;
  r.backend = backend;
  r.bytes = bytes_per_iter;
  r.mb_per_s = bytes_per_iter == 0
                   ? 0.0
                   : static_cast<double>(bytes_per_iter) / sec / 1e6;
  r.ns_per_op = sec * 1e9;
  r.ns_per_op_min = rounds.front() * 1e9;
  r.ns_per_op_max = rounds.back() * 1e9;
  r.note = std::move(note);
  results().push_back(r);
}

Bytes random_bytes(std::size_t n, std::uint64_t seed) {
  Bytes out(n);
  Rng rng(seed);
  rng.fill_bytes(out.data(), out.size());
  return out;
}

// ------------------------------------------------------------ gf kernels

void bench_kernels() {
  const std::vector<std::size_t> sizes = {4096, 114 * 1024, 1024 * 1024};
  for (const gf::Backend b : gf::supported_backends()) {
    if (!gf::set_backend(b)) continue;
    const std::string name = gf::backend_name(b);
    for (const std::size_t n : sizes) {
      Bytes dst = random_bytes(n, 2);
      // One source, then the paper's k = 9 (an RS(9,3) row).
      for (const std::size_t k : {std::size_t{1}, std::size_t{9}}) {
        std::vector<Bytes> srcs;
        std::vector<BytesView> views;
        std::vector<std::uint8_t> coeffs;
        for (std::size_t j = 0; j < k; ++j) {
          srcs.push_back(random_bytes(n, 10 + j));
          coeffs.push_back(static_cast<std::uint8_t>(0x57 + 2 * j));
        }
        for (const auto& s : srcs) views.emplace_back(s);
        record("dot_k" + std::to_string(k), name, n * k,
               [&] { gf::dot(coeffs, views, dst); });
      }
    }
  }
  gf::reset_backend();
}

// --------------------------------------------------------- reed-solomon

void bench_rs() {
  const std::size_t chunk = 114 * 1024;
  const ec::ReedSolomon rs(ec::CodecParams{9, 3});
  std::vector<Bytes> data;
  std::vector<BytesView> views;
  for (std::size_t i = 0; i < 9; ++i) data.push_back(random_bytes(chunk, 20 + i));
  for (const auto& d : data) views.emplace_back(d);
  const auto parity = rs.encode(views);

  for (const gf::Backend b : gf::supported_backends()) {
    if (!gf::set_backend(b)) continue;
    const std::string name = gf::backend_name(b);
    record("rs_encode_9_3", name, chunk * 9,
           [&] { auto p = rs.encode(views); });
  }
  gf::reset_backend();

  // Decode paths on the active (best) backend, into one reused buffer.
  const std::string active = gf::backend_name(gf::active_backend());
  Bytes out(chunk * 9);
  std::vector<std::pair<std::uint32_t, BytesView>> all_data;
  for (std::uint32_t i = 0; i < 9; ++i) all_data.emplace_back(i, data[i]);
  record("rs_decode_all_data", active, chunk * 9,
         [&] { rs.reconstruct_data(all_data, BytesSpan(out)); });

  for (const std::size_t missing : {std::size_t{1}, std::size_t{3}}) {
    std::vector<std::pair<std::uint32_t, BytesView>> degraded;
    for (std::uint32_t i = static_cast<std::uint32_t>(missing); i < 9; ++i) {
      degraded.emplace_back(i, data[i]);
    }
    for (std::uint32_t p = 0; p < missing; ++p) {
      degraded.emplace_back(9 + p, parity[p]);
    }
    const std::string tag = "rs_decode_missing" + std::to_string(missing);
    record(tag + "_cold_plan", active, chunk * 9, [&] {
      rs.clear_decode_plan_cache();
      rs.reconstruct_data(degraded, BytesSpan(out));
    });
    record(tag + "_cached_plan", active, chunk * 9,
           [&] { rs.reconstruct_data(degraded, BytesSpan(out)); });
  }

  // Decode-plan setup cost in isolation: 64-byte chunks make the GF work
  // negligible, so cold-vs-cached is (almost) pure matrix-inversion time.
  std::vector<Bytes> tiny;
  std::vector<BytesView> tiny_views;
  for (std::size_t i = 0; i < 9; ++i) tiny.push_back(random_bytes(64, 40 + i));
  for (const auto& t : tiny) tiny_views.emplace_back(t);
  const auto tiny_parity = rs.encode(tiny_views);
  std::vector<std::pair<std::uint32_t, BytesView>> tiny_degraded;
  for (std::uint32_t i = 3; i < 9; ++i) tiny_degraded.emplace_back(i, tiny[i]);
  for (std::uint32_t p = 0; p < 3; ++p) {
    tiny_degraded.emplace_back(9 + p, tiny_parity[p]);
  }
  Bytes tiny_out(64 * 9);
  record("plan_setup_cold", active, 0, [&] {
    rs.clear_decode_plan_cache();
    rs.reconstruct_data(tiny_degraded, BytesSpan(tiny_out));
  }, "64 B chunks: ~pure inversion cost");
  record("plan_setup_cached", active, 0,
         [&] { rs.reconstruct_data(tiny_degraded, BytesSpan(tiny_out)); },
         "64 B chunks: inversion memoized");
}

void bench_codec() {
  const ec::ObjectCodec codec(ec::CodecParams{9, 3});
  const Bytes payload = deterministic_payload("bench", 1_MB);
  const std::string active = gf::backend_name(gf::active_backend());
  record("object_codec_round_trip", active, 1_MB, [&] {
    auto encoded = codec.encode(BytesView(payload));
    auto decoded = codec.decode(encoded.object_size, encoded.chunks);
  });
}

// ------------------------------------------------------------ verify read

/// A verify-mode read of one 1 MB object as ReadStrategy::verify_payload
/// runs it: ObjectCodec::decode_matches from 7 data and 2 parity chunks
/// (two rows computed) against the store's data chunks, one
/// ec::kVerifyTileBytes tile at a time. One row per backend.
void bench_verify_read() {
  const ec::ObjectCodec codec(ec::CodecParams{9, 3});
  const std::size_t size = 1_MB;
  const Bytes payload = deterministic_payload("bench", size);
  const ec::EncodedObject encoded = codec.encode(BytesView(payload));
  const std::vector<ec::Chunk> chunks(encoded.chunks.begin() + 2,
                                      encoded.chunks.begin() + 11);
  const std::span<const ec::Chunk> data(encoded.chunks.data(), codec.k());
  Bytes tile(ec::kVerifyTileBytes);
  for (const gf::Backend b : gf::supported_backends()) {
    if (!gf::set_backend(b)) continue;
    record("verify_read", gf::backend_name(b), size, [&] {
      if (!codec.decode_matches(chunks, data, size, BytesSpan(tile))) {
        throw std::runtime_error("verify_read: decoded object differs");
      }
    }, "tiled 2-missing-row decode + store compare");
  }
  gf::reset_backend();
}

// ---------------------------------------------------- payload generator

/// One 1 MB payload into a reused buffer, on each path the host has.
void bench_payload() {
  const std::string key = "object0";
  Bytes out(1_MB);
  record("payload_1mb", "scalar", out.size(),
         [&] { detail::fill_payload_scalar(key, BytesSpan(out)); },
         "one SplitMix64 word per step");
  if (detail::fill_payload_vector(key, BytesSpan(out))) {
    record("payload_1mb", "avx512", out.size(),
           [&] { (void)detail::fill_payload_vector(key, BytesSpan(out)); },
           "eight words per step");
  }
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

void print_json() {
  std::ostringstream os;
  os << "[\n";
  for (std::size_t i = 0; i < results().size(); ++i) {
    const Result& r = results()[i];
    os << "  {\"bench\": \"" << json_escape(r.bench) << "\", \"backend\": \""
       << json_escape(r.backend) << "\", \"bytes\": " << r.bytes
       << ", \"mb_per_s\": " << r.mb_per_s
       << ", \"ns_per_op\": " << r.ns_per_op
       << ", \"ns_per_op_min\": " << r.ns_per_op_min
       << ", \"ns_per_op_max\": " << r.ns_per_op_max
       << ", \"rounds\": " << g_rounds;
    if (!r.note.empty()) os << ", \"note\": \"" << json_escape(r.note) << "\"";
    os << "}" << (i + 1 < results().size() ? "," : "") << "\n";
  }
  os << "]\n";
  std::cout << os.str();
}

void print_table() {
  std::printf("median of %zu rounds, with the fastest and slowest\n", g_rounds);
  std::printf("%-28s %-11s %9s %10s %12s %23s\n", "bench", "backend", "bytes",
              "MB/s", "ns/op", "min-max ns/op");
  for (const Result& r : results()) {
    char spread[48];
    std::snprintf(spread, sizeof(spread), "%.1f-%.1f", r.ns_per_op_min,
                  r.ns_per_op_max);
    std::printf("%-28s %-11s %9zu %10.1f %12.1f %23s  %s\n", r.bench.c_str(),
                r.backend.c_str(), r.bytes, r.mb_per_s, r.ns_per_op, spread,
                r.note.c_str());
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
      g_budget_ms = 5.0;
      g_rounds = 3;
    } else {
      std::cerr << "usage: bench_micro_ec [--json] [--quick]\n";
      return 2;
    }
  }

  if (!json) {
    std::cout << "gf backend (auto): "
              << gf::backend_name(gf::active_backend()) << "\n";
  }
  bench_kernels();
  bench_rs();
  bench_codec();
  bench_verify_read();
  bench_payload();
  if (json) {
    print_json();
  } else {
    print_table();
  }
  return 0;
}
