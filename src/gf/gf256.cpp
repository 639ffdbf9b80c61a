#include "gf/gf256.hpp"

#include <cstring>
#include <stdexcept>

#include "gf/gf256_kernels.hpp"

namespace agar::gf {

namespace detail {

Tables::Tables() {
  std::uint16_t x = 1;
  for (int i = 0; i < 255; ++i) {
    exp_[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(x);
    exp_[static_cast<std::size_t>(i) + 255] = static_cast<std::uint8_t>(x);
    log_[static_cast<std::uint8_t>(x)] = static_cast<std::uint8_t>(i);
    x <<= 1;
    if (x & 0x100) x ^= kPolynomial;
  }
  exp_[510] = exp_[0];
  exp_[511] = exp_[1];
  log_[0] = 0;  // never consulted for 0; guarded by callers.

  for (int a = 0; a < 256; ++a) {
    for (int b = 0; b < 256; ++b) {
      if (a == 0 || b == 0) {
        mul_[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)] = 0;
      } else {
        mul_[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)] =
            exp_[static_cast<std::size_t>(log_[static_cast<std::size_t>(a)]) +
                 static_cast<std::size_t>(log_[static_cast<std::size_t>(b)])];
      }
    }
  }

  // Split-nibble tables derive from the full table: every byte b is
  // (b & 15) ^ (b & 0xF0), and multiplication is linear over GF(2).
  for (std::size_t c = 0; c < 256; ++c) {
    for (std::size_t x4 = 0; x4 < 16; ++x4) {
      lo_[c][x4] = mul_[c][x4];
      hi_[c][x4] = mul_[c][x4 << 4];
    }
  }

  // Affine matrices derive from the full table too: column j of c's
  // matrix is c * 2^j.
  for (std::size_t c = 0; c < 256; ++c) {
    std::uint64_t matrix = 0;
    for (std::size_t i = 0; i < 8; ++i) {
      std::uint64_t row = 0;
      for (std::size_t j = 0; j < 8; ++j) {
        row |= static_cast<std::uint64_t>((mul_[c][1u << j] >> i) & 1u) << j;
      }
      matrix |= row << (8 * (7 - i));
    }
    affine_[c] = matrix;
  }
}

const Tables& tables() {
  static const Tables t;
  return t;
}

namespace {

// ---------------------------------------------------- portable 64-bit kernel
//
// Still table lookups per byte, but eight products are composed into one
// 64-bit word so loads and stores happen word-at-a-time. This is the
// fallback when no SIMD unit is available.

inline std::uint64_t mul_word(const std::array<std::uint8_t, 256>& row,
                              std::uint64_t s) {
  return static_cast<std::uint64_t>(row[s & 0xFF]) |
         static_cast<std::uint64_t>(row[(s >> 8) & 0xFF]) << 8 |
         static_cast<std::uint64_t>(row[(s >> 16) & 0xFF]) << 16 |
         static_cast<std::uint64_t>(row[(s >> 24) & 0xFF]) << 24 |
         static_cast<std::uint64_t>(row[(s >> 32) & 0xFF]) << 32 |
         static_cast<std::uint64_t>(row[(s >> 40) & 0xFF]) << 40 |
         static_cast<std::uint64_t>(row[(s >> 48) & 0xFF]) << 48 |
         static_cast<std::uint64_t>(row[(s >> 56) & 0xFF]) << 56;
}

void dot_portable(const std::uint8_t* coeffs, const std::uint8_t* const* srcs,
                  std::size_t nsrc, std::uint8_t* dst, std::size_t n) {
  const Tables& t = tables();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t d = 0;
    for (std::size_t j = 0; j < nsrc; ++j) {
      std::uint64_t s;
      std::memcpy(&s, srcs[j] + i, 8);
      d ^= mul_word(t.mul_[coeffs[j]], s);
    }
    std::memcpy(dst + i, &d, 8);
  }
  dot_tail(t, coeffs, srcs, nsrc, dst, i, n);
}

}  // namespace

const KernelTable kPortable64Kernels{dot_portable};

}  // namespace detail

// ----------------------------------------------------------- field scalars

namespace {

/// Reduce an exponent modulo 255 without division: 256 == 1 (mod 255), so
/// folding the high byte onto the low byte preserves the residue. Converges
/// to < 510 in a handful of iterations, which the 512-entry antilog table
/// indexes directly.
inline std::uint64_t fold255(std::uint64_t n) {
  while (n >= 510) n = (n >> 8) + (n & 0xFF);
  return n;
}

}  // namespace

std::uint8_t mul(std::uint8_t a, std::uint8_t b) {
  return detail::tables().mul_[a][b];
}

std::uint8_t div(std::uint8_t a, std::uint8_t b) {
  if (b == 0) throw std::domain_error("gf256: division by zero");
  if (a == 0) return 0;
  const auto& t = detail::tables();
  const int diff = static_cast<int>(t.log_[a]) - static_cast<int>(t.log_[b]);
  return t.exp_[static_cast<std::size_t>(diff < 0 ? diff + 255 : diff)];
}

std::uint8_t inv(std::uint8_t a) {
  if (a == 0) throw std::domain_error("gf256: inverse of zero");
  const auto& t = detail::tables();
  return t.exp_[static_cast<std::size_t>(255 - t.log_[a])];
}

std::uint8_t pow(std::uint8_t a, unsigned n) {
  if (n == 0) return 1;
  if (a == 0) return 0;
  const auto& t = detail::tables();
  const std::uint64_t e =
      static_cast<std::uint64_t>(t.log_[a]) * fold255(n);
  return t.exp_[fold255(e)];
}

std::uint8_t exp(unsigned n) { return detail::tables().exp_[fold255(n)]; }

std::uint8_t log(std::uint8_t a) {
  if (a == 0) throw std::domain_error("gf256: log of zero");
  return detail::tables().log_[a];
}

// -------------------------------------------------------------- dispatch

namespace {

const detail::KernelTable* backend_table(Backend b) {
  switch (b) {
    case Backend::kPortable64:
      return &detail::kPortable64Kernels;
    case Backend::kSsse3:
      return detail::ssse3_kernels();
    case Backend::kAvx2:
      return detail::avx2_kernels();
    case Backend::kGfni:
      return detail::gfni_kernels();
  }
  return nullptr;
}

Backend best_backend() {
  if (detail::gfni_kernels() != nullptr) return Backend::kGfni;
  if (detail::avx2_kernels() != nullptr) return Backend::kAvx2;
  if (detail::ssse3_kernels() != nullptr) return Backend::kSsse3;
  return Backend::kPortable64;
}

struct Dispatch {
  Backend backend;
  const detail::KernelTable* table;
};

Dispatch& dispatch() {
  // agar-lint: global-ok(runtime kernel dispatch; every backend computes
  // identical bytes, and set_backend re-pinning is test/bench-only)
  static Dispatch d{best_backend(), backend_table(best_backend())};
  return d;
}

}  // namespace

const char* backend_name(Backend b) {
  switch (b) {
    case Backend::kPortable64:
      return "portable64";
    case Backend::kSsse3:
      return "ssse3";
    case Backend::kAvx2:
      return "avx2";
    case Backend::kGfni:
      return "gfni";
  }
  return "unknown";
}

bool backend_supported(Backend b) { return backend_table(b) != nullptr; }

std::vector<Backend> supported_backends() {
  std::vector<Backend> out;
  for (const Backend b : {Backend::kPortable64, Backend::kSsse3,
                          Backend::kAvx2, Backend::kGfni}) {
    if (backend_supported(b)) out.push_back(b);
  }
  return out;
}

Backend active_backend() { return dispatch().backend; }

bool set_backend(Backend b) {
  const detail::KernelTable* table = backend_table(b);
  if (table == nullptr) return false;
  dispatch() = Dispatch{b, table};
  return true;
}

void reset_backend() { (void)set_backend(best_backend()); }

// ----------------------------------------------------------- bulk wrapper

void dot(std::span<const std::uint8_t> coeffs,
         std::span<const std::span<const std::uint8_t>> srcs,
         std::span<std::uint8_t> dst) {
  if (coeffs.size() != srcs.size()) {
    throw std::invalid_argument("gf256: dot count mismatch");
  }
  for (const auto& s : srcs) {
    if (s.size() != dst.size()) {
      throw std::invalid_argument("gf256: dot size mismatch");
    }
  }
  if (dst.empty()) return;

  // Strip zero coefficients so kernels never see them.
  constexpr std::size_t kMaxInline = 32;
  std::uint8_t coeff_buf[kMaxInline];
  const std::uint8_t* src_buf[kMaxInline];
  std::vector<std::uint8_t> coeff_heap;
  std::vector<const std::uint8_t*> src_heap;
  std::uint8_t* cs = coeff_buf;
  const std::uint8_t** ss = src_buf;
  if (coeffs.size() > kMaxInline) {
    coeff_heap.resize(coeffs.size());
    src_heap.resize(coeffs.size());
    cs = coeff_heap.data();
    ss = src_heap.data();
  }
  std::size_t nsrc = 0;
  for (std::size_t j = 0; j < coeffs.size(); ++j) {
    if (coeffs[j] == 0) continue;
    cs[nsrc] = coeffs[j];
    ss[nsrc] = srcs[j].data();
    ++nsrc;
  }
  if (nsrc == 0) {
    std::memset(dst.data(), 0, dst.size());
    return;
  }
  if (nsrc == 1 && cs[0] == 1) {
    std::memcpy(dst.data(), ss[0], dst.size());
    return;
  }
  dispatch().table->dot(cs, ss, nsrc, dst.data(), dst.size());
}

}  // namespace agar::gf
