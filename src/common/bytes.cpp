#include "common/bytes.hpp"

#include <array>
#include <cstdio>
#include <cstring>

#include "common/rng.hpp"

#if defined(__x86_64__) && !defined(AGAR_DISABLE_SIMD) && \
    (defined(__GNUC__) || defined(__clang__))
#define AGAR_PAYLOAD_AVX512 1
#endif

namespace agar {

namespace {

std::uint64_t payload_seed(const std::string& key) {
  return fnv1a(key) ^ 0xa5a5a5a55a5a5a5aULL;
}

/// Words first, first + 1, ... (from 0) of the SplitMix64 stream seeded
/// with `seed` over out, one per 8 bytes; a last partial word is cut short.
void fill_words(std::uint64_t seed, std::size_t first, BytesSpan out) {
  SplitMix64 sm(seed + first * SplitMix64::kGamma);
  std::size_t off = 0;
  for (; off + 8 <= out.size(); off += 8) {
    const std::uint64_t v = sm.next();
    std::memcpy(out.data() + off, &v, 8);
  }
  if (off < out.size()) {
    const std::uint64_t v = sm.next();
    std::memcpy(out.data() + off, &v, out.size() - off);
  }
}

#ifdef AGAR_PAYLOAD_AVX512

/// Eight stream words, one per 64-bit lane (a GCC vector).
using Words8 = std::uint64_t __attribute__((vector_size(64)));

/// Words [0, 8 * blocks) of the stream seeded with `seed`, eight per step:
/// lane j holds word 8b + j and its state advances by 8 * kGamma. The mix
/// is SplitMix64::next's on every lane at once; under this target the
/// lane multiplies are vpmullq (AVX-512DQ).
__attribute__((target("avx512f,avx512dq"))) void fill_blocks_avx512(
    std::uint64_t seed, std::uint8_t* out, std::size_t blocks) {
  Words8 state{};
  for (std::size_t j = 0; j < 8; ++j) {
    state[j] = seed + (j + 1) * SplitMix64::kGamma;
  }
  for (std::size_t b = 0; b < blocks; ++b) {
    Words8 z = state;
    z = (z ^ (z >> 30)) * SplitMix64::kMul1;
    z = (z ^ (z >> 27)) * SplitMix64::kMul2;
    z ^= z >> 31;
    std::memcpy(out + 64 * b, &z, 64);
    state += 8 * SplitMix64::kGamma;
  }
}

#endif

}  // namespace

namespace detail {

void fill_payload_scalar(const std::string& key, BytesSpan out) {
  fill_words(payload_seed(key), 0, out);
}

bool fill_payload_vector(const std::string& key, BytesSpan out) {
#ifdef AGAR_PAYLOAD_AVX512
  static const bool supported =
      __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq");
  if (!supported) return false;
  const std::uint64_t seed = payload_seed(key);
  const std::size_t blocks = out.size() / 64;
  fill_blocks_avx512(seed, out.data(), blocks);
  fill_words(seed, 8 * blocks, out.subspan(64 * blocks));
  return true;
#else
  (void)key;
  (void)out;
  return false;
#endif
}

}  // namespace detail

void fill_deterministic_payload(const std::string& key, BytesSpan out) {
  if (!detail::fill_payload_vector(key, out)) {
    detail::fill_payload_scalar(key, out);
  }
}

Bytes deterministic_payload(const std::string& key, std::size_t size) {
  Bytes out(size);
  fill_deterministic_payload(key, BytesSpan(out));
  return out;
}

std::uint64_t fnv1a(BytesView data) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : data) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t fnv1a(const std::string& s) {
  return fnv1a(BytesView(reinterpret_cast<const std::uint8_t*>(s.data()),
                         s.size()));
}

std::uint64_t fnv1a_chunk(const std::string& key, std::uint32_t index) {
  std::uint64_t h = fnv1a(key);
  const auto fold = [&h](char c) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  };
  fold('#');
  char digits[10];
  std::size_t n = 0;
  do {
    digits[n++] = static_cast<char>('0' + index % 10);
    index /= 10;
  } while (index != 0);
  while (n > 0) fold(digits[--n]);
  return h;
}

std::string format_bytes(std::size_t n) {
  static constexpr std::array<const char*, 5> kUnits = {"B", "KB", "MB", "GB",
                                                        "TB"};
  double v = static_cast<double>(n);
  std::size_t unit = 0;
  while (v >= 1024.0 && unit + 1 < kUnits.size()) {
    v /= 1024.0;
    ++unit;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f %s", v, kUnits[unit]);
  return buf;
}

}  // namespace agar
