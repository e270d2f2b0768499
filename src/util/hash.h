// 64-bit hashing utilities.
//
// Used for (a) hash-join / group-by keys and (b) the lineage-seeded
// pseudo-random sub-sampling of Section 7, which requires a deterministic
// high-quality map (seed, lineage id) -> [0,1).

#ifndef GUS_UTIL_HASH_H_
#define GUS_UTIL_HASH_H_

#include <cstdint>

namespace gus {

/// SplitMix64 finalizer: a fast, well-distributed 64-bit mixer.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Combines two 64-bit hashes (order-sensitive).
inline uint64_t HashCombine(uint64_t seed, uint64_t v) {
  return Mix64(seed ^ (v + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2)));
}

/// \brief Folds a byte span into a running FNV-1a 64-bit digest.
///
/// Seed with kFnv1aOffset (or chain calls for multi-part content). For
/// fingerprints only (state digests, content and query fingerprints),
/// whose values must stay stable; one implementation so the constants
/// never diverge between call sites. Byte checksums of stored or sent
/// data use Checksum64 (util/checksum.h), which is many times faster.
inline constexpr uint64_t kFnv1aOffset = 14695981039346656037ULL;

inline uint64_t HashBytes(uint64_t h, const void* data, unsigned long len) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (unsigned long i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

/// Maps a 64-bit hash to a double uniform in [0, 1).
inline double HashToUnit(uint64_t h) {
  // Take the top 53 bits for a full-precision double mantissa.
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// \brief Deterministic pseudo-random unit value for a lineage id.
///
/// This is the Section 7 primitive: the same (seed, id) pair always yields
/// the same value, so a tuple from a base relation receives one consistent
/// keep/drop decision across every result tuple it participates in.
inline double LineageUnitValue(uint64_t seed, uint64_t id) {
  return HashToUnit(Mix64(HashCombine(seed, id)));
}

}  // namespace gus

#endif  // GUS_UTIL_HASH_H_
