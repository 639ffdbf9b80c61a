// Arithmetic over GF(2^8), the Galois field with 256 elements.
//
// The field is constructed as GF(2)[x] / (x^8 + x^4 + x^3 + x^2 + 1),
// i.e. the reducing polynomial 0x11D used by standard Reed-Solomon codes
// (the same field as ISA-L, Jerasure and Longhair's default tables).
//
// Addition is XOR. Multiplication/division/inversion use log/antilog tables
// generated once at static-initialization time from the generator element 2.
//
// The one bulk operation, dot, is the hot path of the erasure codec: every
// Reed-Solomon encode and decode row is dst[i] = sum_j c_j * src_j[i] over
// whole chunk buffers. It is served by a runtime-dispatched kernel — GFNI
// affine SIMD or split-nibble pshufb SIMD on x86 (GFNI, AVX2 or SSSE3,
// picked once at startup) with a portable 64-bit-word fallback — all
// computing the same bytes as the scalar `mul`.
// `set_backend` pins a specific kernel (benchmarks, differential tests).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace agar::gf {

/// The reducing polynomial, sans the x^8 term: x^8 = x^4 + x^3 + x^2 + 1.
inline constexpr std::uint16_t kPolynomial = 0x11D;

/// Number of field elements.
inline constexpr int kFieldSize = 256;

/// Addition and subtraction coincide in characteristic 2.
[[nodiscard]] constexpr std::uint8_t add(std::uint8_t a, std::uint8_t b) {
  return a ^ b;
}
[[nodiscard]] constexpr std::uint8_t sub(std::uint8_t a, std::uint8_t b) {
  return a ^ b;
}

/// Multiply two field elements.
[[nodiscard]] std::uint8_t mul(std::uint8_t a, std::uint8_t b);

/// Divide a by b. Precondition: b != 0 (checked; throws std::domain_error).
[[nodiscard]] std::uint8_t div(std::uint8_t a, std::uint8_t b);

/// Multiplicative inverse. Precondition: a != 0 (checked).
[[nodiscard]] std::uint8_t inv(std::uint8_t a);

/// a raised to the integer power n (n may be 0; 0^0 == 1 by convention).
[[nodiscard]] std::uint8_t pow(std::uint8_t a, unsigned n);

/// The generator element (2) raised to the n-th power; n is reduced mod 255.
[[nodiscard]] std::uint8_t exp(unsigned n);

/// Discrete log base 2 of a nonzero element.
[[nodiscard]] std::uint8_t log(std::uint8_t a);

// ----------------------------------------------------------- bulk kernel

/// The Reed-Solomon row product (ISA-L gf_vect_dot_prod):
///   dst[i] = coeffs[0]*srcs[0][i] ^ coeffs[1]*srcs[1][i] ^ ...
/// Overwrites dst in one pass over it. coeffs and srcs must have equal
/// counts and every src dst's size (std::invalid_argument otherwise); dst
/// must not overlap a source. With no nonzero coefficient dst is zeroed.
void dot(std::span<const std::uint8_t> coeffs,
         std::span<const std::span<const std::uint8_t>> srcs,
         std::span<std::uint8_t> dst);

// ------------------------------------------------------ kernel dispatch

/// Kernel families, slowest to fastest. The best supported one serves
/// dot from first use.
enum class Backend : std::uint8_t {
  kPortable64,  ///< table lookups batched into 64-bit word loads/stores
  kSsse3,       ///< 16-byte split-nibble pshufb
  kAvx2,        ///< 32-byte split-nibble vpshufb
  kGfni,        ///< 32-byte vgf2p8affineqb, one bit matrix per coefficient
};

[[nodiscard]] const char* backend_name(Backend b);

/// Is this kernel family compiled in AND supported by the running CPU?
[[nodiscard]] bool backend_supported(Backend b);

/// Every supported backend, slowest first (always contains kPortable64).
[[nodiscard]] std::vector<Backend> supported_backends();

/// The backend currently serving dot.
[[nodiscard]] Backend active_backend();

/// Pin dot to one backend. Returns false (and changes nothing) if it is
/// not supported. Used by benchmarks and differential tests; production
/// code leaves the startup choice alone.
bool set_backend(Backend b);

/// Restore the automatic (best supported) choice.
void reset_backend();

}  // namespace agar::gf
