// SSSE3 / AVX2 split-nibble GF(256) dot kernels (Longhair / ISA-L
// technique) and the GFNI affine dot kernel.
//
// A byte b is (b & 0x0F) ^ (high nibble), and GF multiplication by a fixed
// c is GF(2)-linear, so c*b == lo_table[b & 15] ^ hi_table[b >> 4]. The two
// 16-entry tables fit exactly one pshufb register each: 16 (SSSE3) or 2x16
// (AVX2) products per shuffle pair, versus one per lookup in the portable
// kernel. The same linearity makes c*b an 8x8 bit-matrix product, which GFNI
// computes for 32 bytes in one vgf2p8affineqb.
//
// Functions carry `target` attributes so this file builds with the default
// compiler flags; the dispatcher in gf256.cpp only installs a kernel
// after __builtin_cpu_supports verifies the CPU at startup. Unaligned
// loads/stores throughout — callers pass arbitrary chunk buffers.
#include "gf/gf256_kernels.hpp"

#if defined(__x86_64__) && !defined(AGAR_DISABLE_SIMD) && \
    (defined(__GNUC__) || defined(__clang__))

#include <immintrin.h>

namespace agar::gf::detail {
namespace {

// Every kernel computes each block of dst from zero, XORs in one product
// per source and stores the block once: a row is written once and never
// read, whatever the source count.

// ------------------------------------------------------------------ SSSE3

__attribute__((target("ssse3"))) inline __m128i mul_block_128(
    __m128i lo, __m128i hi, __m128i mask, __m128i s) {
  const __m128i l = _mm_shuffle_epi8(lo, _mm_and_si128(s, mask));
  const __m128i h =
      _mm_shuffle_epi8(hi, _mm_and_si128(_mm_srli_epi64(s, 4), mask));
  return _mm_xor_si128(l, h);
}

__attribute__((target("ssse3"))) void dot_ssse3(
    const std::uint8_t* coeffs, const std::uint8_t* const* srcs,
    std::size_t nsrc, std::uint8_t* dst, std::size_t n) {
  const Tables& t = tables();
  const __m128i mask = _mm_set1_epi8(0x0F);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m128i d = _mm_setzero_si128();
    for (std::size_t j = 0; j < nsrc; ++j) {
      const std::uint8_t c = coeffs[j];
      const __m128i lo =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(t.lo_[c].data()));
      const __m128i hi =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(t.hi_[c].data()));
      const __m128i s =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(srcs[j] + i));
      d = _mm_xor_si128(d, mul_block_128(lo, hi, mask, s));
    }
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), d);
  }
  dot_tail(t, coeffs, srcs, nsrc, dst, i, n);
}

// ------------------------------------------------------------------- AVX2

__attribute__((target("avx2"))) inline __m256i mul_block_256(__m256i lo,
                                                             __m256i hi,
                                                             __m256i mask,
                                                             __m256i s) {
  const __m256i l = _mm256_shuffle_epi8(lo, _mm256_and_si256(s, mask));
  const __m256i h =
      _mm256_shuffle_epi8(hi, _mm256_and_si256(_mm256_srli_epi64(s, 4), mask));
  return _mm256_xor_si256(l, h);
}

__attribute__((target("avx2"))) inline __m256i load_nibble_table(
    const std::uint8_t* table16) {
  return _mm256_broadcastsi128_si256(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(table16)));
}

__attribute__((target("avx2"))) void dot_avx2(const std::uint8_t* coeffs,
                                              const std::uint8_t* const* srcs,
                                              std::size_t nsrc,
                                              std::uint8_t* dst,
                                              std::size_t n) {
  const Tables& t = tables();
  const __m256i mask = _mm256_set1_epi8(0x0F);
  std::size_t i = 0;
  // The per-source nibble-table loads stay hot in L1 across blocks.
  for (; i + 32 <= n; i += 32) {
    __m256i d = _mm256_setzero_si256();
    for (std::size_t j = 0; j < nsrc; ++j) {
      const std::uint8_t c = coeffs[j];
      const __m256i lo = load_nibble_table(t.lo_[c].data());
      const __m256i hi = load_nibble_table(t.hi_[c].data());
      const __m256i s =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(srcs[j] + i));
      d = _mm256_xor_si256(d, mul_block_256(lo, hi, mask, s));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), d);
  }
  dot_tail(t, coeffs, srcs, nsrc, dst, i, n);
}

// ------------------------------------------------------------------- GFNI
//
// vgf2p8mulb is fixed to AES's polynomial 0x11B, so the kernel multiplies
// through vgf2p8affineqb with c's bit matrix for this field's 0x11D
// (Tables::affine_) instead.

__attribute__((target("avx2,gfni"))) inline __m256i affine_matrix(
    const Tables& t, std::uint8_t c) {
  return _mm256_set1_epi64x(static_cast<long long>(t.affine_[c]));
}

__attribute__((target("avx2,gfni"))) inline __m256i mul_block_gfni(
    __m256i matrix, const std::uint8_t* src) {
  return _mm256_gf2p8affine_epi64_epi8(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src)), matrix, 0);
}

__attribute__((target("avx2,gfni"))) void dot_gfni(
    const std::uint8_t* coeffs, const std::uint8_t* const* srcs,
    std::size_t nsrc, std::uint8_t* dst, std::size_t n) {
  const Tables& t = tables();
  std::size_t i = 0;
  // Two blocks per pass: each source's matrix is loaded once per 64 bytes.
  for (; i + 64 <= n; i += 64) {
    __m256i d0 = _mm256_setzero_si256();
    __m256i d1 = _mm256_setzero_si256();
    for (std::size_t j = 0; j < nsrc; ++j) {
      const __m256i matrix = affine_matrix(t, coeffs[j]);
      d0 = _mm256_xor_si256(d0, mul_block_gfni(matrix, srcs[j] + i));
      d1 = _mm256_xor_si256(d1, mul_block_gfni(matrix, srcs[j] + i + 32));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), d0);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i + 32), d1);
  }
  for (; i + 32 <= n; i += 32) {
    __m256i d = _mm256_setzero_si256();
    for (std::size_t j = 0; j < nsrc; ++j) {
      d = _mm256_xor_si256(d,
                           mul_block_gfni(affine_matrix(t, coeffs[j]),
                                          srcs[j] + i));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), d);
  }
  dot_tail(t, coeffs, srcs, nsrc, dst, i, n);
}

}  // namespace

const KernelTable* ssse3_kernels() {
  static const KernelTable table{dot_ssse3};
  static const bool supported = __builtin_cpu_supports("ssse3");
  return supported ? &table : nullptr;
}

const KernelTable* avx2_kernels() {
  static const KernelTable table{dot_avx2};
  static const bool supported = __builtin_cpu_supports("avx2");
  return supported ? &table : nullptr;
}

const KernelTable* gfni_kernels() {
  static const KernelTable table{dot_gfni};
  static const bool supported =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("gfni");
  return supported ? &table : nullptr;
}

}  // namespace agar::gf::detail

#else  // SIMD compiled out: portable dispatch only.

namespace agar::gf::detail {

const KernelTable* ssse3_kernels() { return nullptr; }
const KernelTable* avx2_kernels() { return nullptr; }
const KernelTable* gfni_kernels() { return nullptr; }

}  // namespace agar::gf::detail

#endif
