#include "common/bytes.hpp"

#include <array>
#include <cstdio>
#include <cstring>

#include "common/rng.hpp"

namespace agar {

namespace {

/// The payload stream of `key`, the one definition deterministic_payload
/// and matches_deterministic_payload share: one SplitMix64 word per 8 bytes,
/// stored in memcpy order. `word(offset, value, n)` gets each word and the
/// n <= 8 bytes it covers (8 for every word but a short last one, so the
/// per-word memcpy/memcmp compile to single loads and stores); the walk
/// stops at the first false return.
template <typename Word>
bool walk_payload(const std::string& key, std::size_t size, Word word) {
  SplitMix64 sm(fnv1a(key) ^ 0xa5a5a5a55a5a5a5aULL);
  std::size_t off = 0;
  for (; off + 8 <= size; off += 8) {
    if (!word(off, sm.next(), 8)) return false;
  }
  return off == size || word(off, sm.next(), size - off);
}

}  // namespace

Bytes deterministic_payload(const std::string& key, std::size_t size) {
  // Word-at-a-time keeps working-set population (hundreds of MB for the
  // large-object scenarios) off the wall-clock critical path of tests and
  // benches.
  Bytes out(size);
  walk_payload(key, size,
               [p = out.data()](std::size_t off, std::uint64_t v,
                                std::size_t n) {
                 std::memcpy(p + off, &v, n);
                 return true;
               });
  return out;
}

bool matches_deterministic_payload(const std::string& key, BytesView data) {
  return walk_payload(key, data.size(),
                      [p = data.data()](std::size_t off, std::uint64_t v,
                                        std::size_t n) {
                        return std::memcmp(p + off, &v, n) == 0;
                      });
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
