// FNV-1a 64-bit hashing, shared by every digest in the library (graph
// digest, snapshot content digest/checksum, oracle-cache keys, wire frame
// checksum) so the constants and byte order are maintained in exactly one
// place.
#pragma once

#include <cstddef>
#include <cstdint>

namespace msrp::fnv {

inline constexpr std::uint64_t kOffset = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kPrime = 0x100000001b3ULL;

/// Folds `size` raw bytes into h.
constexpr std::uint64_t mix_bytes(std::uint64_t h, const std::uint8_t* data,
                                  std::size_t size) {
  for (std::size_t i = 0; i < size; ++i) h = (h ^ data[i]) * kPrime;
  return h;
}

/// Folds `size` raw bytes into h a little-endian 64-bit word at a time —
/// the wire frame checksum. Each word takes the FNV-1a step and then
/// h ^= h >> 32: a multiply only carries differences upward, so without
/// the fold a flip in bit 63 of one word and bit 63 of a later word cancel
/// (a plain word loop misses about 50 of the 130,816 two-bit flips of a
/// 64-byte payload, every top-bit pair among them; this one misses none —
/// tests/net_test.cpp sweeps both). The 0-7 tail bytes fold byte-wise. One
/// multiply per 8 bytes instead of per byte: about 5x faster than
/// mix_bytes over a 6 KB frame.
constexpr std::uint64_t mix_words(std::uint64_t h, const std::uint8_t* data,
                                  std::size_t size) {
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    const std::uint8_t* p = data + i;  // one 8-byte load once compiled
    const std::uint64_t w = std::uint64_t{p[0]} | (std::uint64_t{p[1]} << 8) |
                            (std::uint64_t{p[2]} << 16) | (std::uint64_t{p[3]} << 24) |
                            (std::uint64_t{p[4]} << 32) | (std::uint64_t{p[5]} << 40) |
                            (std::uint64_t{p[6]} << 48) | (std::uint64_t{p[7]} << 56);
    h = (h ^ w) * kPrime;
    h ^= h >> 32;
  }
  return mix_bytes(h, data + i, size - i);
}

/// Folds one 64-bit value into h, little-endian byte order.
constexpr std::uint64_t mix_u64(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ (v & 0xff)) * kPrime;
    v >>= 8;
  }
  return h;
}

}  // namespace msrp::fnv
