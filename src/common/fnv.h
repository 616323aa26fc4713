// FNV-1a (64-bit): the one hash behind trace digests, config fingerprints
// and replica checksums.
#pragma once

#include <cstdint>
#include <string_view>

namespace ignem {

inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;
/// The standard FNV-1a offset basis.
inline constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
/// One decimal digit short of kFnvOffset. Trace hashes and config
/// fingerprints have always started from this basis; every pinned hash in
/// the tests depends on it, so it stays.
inline constexpr std::uint64_t kFnvTraceOffset = 1469598103934665603ull;

/// Folds one byte into `h`.
constexpr std::uint64_t fnv1a_byte(std::uint64_t h, std::uint8_t b) {
  return (h ^ b) * kFnvPrime;
}

/// Folds the eight bytes of `v` into `h`, least significant first.
constexpr std::uint64_t fnv1a_word(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = fnv1a_byte(h, static_cast<std::uint8_t>(v >> (i * 8)));
  }
  return h;
}

constexpr std::uint64_t fnv1a(std::string_view s, std::uint64_t h) {
  for (const char c : s) h = fnv1a_byte(h, static_cast<std::uint8_t>(c));
  return h;
}

}  // namespace ignem
