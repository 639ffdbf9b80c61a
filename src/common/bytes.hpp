// Byte-buffer helpers used by the erasure codec and the object store.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace agar {

/// Owning byte buffer. Chunks, objects and cache entries are Bytes.
using Bytes = std::vector<std::uint8_t>;

/// Non-owning views.
using BytesView = std::span<const std::uint8_t>;
using BytesSpan = std::span<std::uint8_t>;

/// Deterministic payload generator: produces the same bytes for the same
/// (key, size). Used to populate the simulated backend so tests can verify
/// end-to-end reads byte-for-byte without storing golden files.
Bytes deterministic_payload(const std::string& key, std::size_t size);

/// Write deterministic_payload(key, out.size())'s bytes into `out`.
void fill_deterministic_payload(const std::string& key, BytesSpan out);

namespace detail {

/// The generator's two paths, for its tests and benchmarks. The payload is
/// a SplitMix64 stream seeded from the key, one word per 8 bytes in memcpy
/// order. The scalar path computes one word at a time and is the
/// reference; the vector path computes eight at a time with AVX-512 and
/// returns false, writing nothing, where it is compiled out
/// (AGAR_DISABLE_SIMD) or the CPU lacks AVX-512F/DQ.
/// fill_deterministic_payload takes the vector path where it can.
void fill_payload_scalar(const std::string& key, BytesSpan out);
bool fill_payload_vector(const std::string& key, BytesSpan out);

}  // namespace detail

/// FNV-1a 64-bit hash over a byte range; used for payload fingerprints in
/// tests and for stable key->int mapping.
std::uint64_t fnv1a(BytesView data);
std::uint64_t fnv1a(const std::string& s);

/// FNV-1a of a chunk's string name "<key>#<index>" (e.g. "object42#3"),
/// computed without building the string: TinyLFU's count-min sketch
/// hashes chunks by it.
std::uint64_t fnv1a_chunk(const std::string& key, std::uint32_t index);

/// Render a byte count human-readably ("10.0 MB"); used by reports.
std::string format_bytes(std::size_t n);

}  // namespace agar
