// Internal kernel plumbing shared by gf256.cpp (portable kernel, dispatch)
// and gf256_simd.cpp (SSSE3/AVX2/GFNI kernels). Not part of the public
// gf:: API — include gf/gf256.hpp instead.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace agar::gf::detail {

/// One kernel family. Shapes are pre-validated by gf::dot, which also
/// takes the no-source and lone c == 1 paths, so a kernel sees nsrc >= 1,
/// every coeffs[j] >= 1, and n bytes in each src and in dst.
struct KernelTable {
  /// dst[i] = XOR_j coeffs[j] * srcs[j][i]; each block of dst is
  /// computed from zero and written once, never read.
  void (*dot)(const std::uint8_t* coeffs, const std::uint8_t* const* srcs,
              std::size_t nsrc, std::uint8_t* dst, std::size_t n);
};

/// Precomputed multiplication tables.
struct Tables {
  /// exp_ has 512 entries so mul can index log[a]+log[b] without a mod.
  std::array<std::uint8_t, 512> exp_{};
  std::array<std::uint8_t, 256> log_{};
  /// 256x256 full multiplication table: 64 KiB, fits in L2 and serves the
  /// portable kernel and every kernel's tail.
  std::array<std::array<std::uint8_t, 256>, 256> mul_{};
  /// Split-nibble tables for pshufb kernels (ISA-L gf_vect_mul_init
  /// layout): lo_[c][x] = c * x, hi_[c][x] = c * (x << 4) for x in
  /// [0, 16). A byte product is lo_[c][b & 15] ^ hi_[c][b >> 4].
  alignas(64) std::array<std::array<std::uint8_t, 16>, 256> lo_{};
  alignas(64) std::array<std::array<std::uint8_t, 16>, 256> hi_{};
  /// Multiplication by c as an 8x8 GF(2) bit matrix in vgf2p8affineqb
  /// layout: byte 7 - i of affine_[c] has bit j set when bit i of
  /// c * 2^j is set, so the affine product of a byte b is c * b.
  std::array<std::uint64_t, 256> affine_{};

  Tables();
};

const Tables& tables();

/// The bytes [i, n) of a dot product, one table lookup per byte and
/// source: the tail every kernel leaves after its last whole block.
inline void dot_tail(const Tables& t, const std::uint8_t* coeffs,
                     const std::uint8_t* const* srcs, std::size_t nsrc,
                     std::uint8_t* dst, std::size_t i, std::size_t n) {
  for (; i < n; ++i) {
    std::uint8_t b = 0;
    for (std::size_t j = 0; j < nsrc; ++j) b ^= t.mul_[coeffs[j]][srcs[j][i]];
    dst[i] = b;
  }
}

// Defined in gf256.cpp.
extern const KernelTable kPortable64Kernels;

// Kernel sets defined in gf256_simd.cpp. Null when the SIMD translation
// unit is compiled out (AGAR_DISABLE_SIMD or a non-x86 target); when
// non-null the CPU has been verified to support them at startup.
const KernelTable* ssse3_kernels();
const KernelTable* avx2_kernels();
const KernelTable* gfni_kernels();

}  // namespace agar::gf::detail
