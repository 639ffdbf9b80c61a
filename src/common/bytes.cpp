#include "common/bytes.hpp"

#include <array>
#include <cstdio>
#include <cstring>

#include "common/rng.hpp"

namespace agar {

Bytes deterministic_payload(const std::string& key, std::size_t size) {
  // One SplitMix64 word per 8 bytes, stored in memcpy order. Word-at-a-time
  // keeps working-set population (hundreds of MB for the large-object
  // scenarios) off the wall-clock critical path of tests and benches.
  Bytes out(size);
  SplitMix64 sm(fnv1a(key) ^ 0xa5a5a5a55a5a5a5aULL);
  std::size_t off = 0;
  for (; off + 8 <= size; off += 8) {
    const std::uint64_t v = sm.next();
    std::memcpy(out.data() + off, &v, 8);
  }
  if (off < size) {
    const std::uint64_t v = sm.next();
    std::memcpy(out.data() + off, &v, size - off);
  }
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
