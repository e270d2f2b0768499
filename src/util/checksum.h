// The one byte checksum of the repository: `.gseg` segment pages, GUSB
// wire bundles and GUSF transport frames all verify with Checksum64.
// Content fingerprints hash values, not bytes, and use util/hash.h.
//
// Shape: the input is read as 8-byte little-endian words (memcpy loads,
// so unaligned and mmap'd pointers are fine). Word i goes to lane i % 4
// of four independent lanes, each stepping `lane = (lane ^ w) * kMul`.
// After the last whole 32-byte block, the 0-3 remaining whole words go to
// lanes 0, 1, 2 in order, and the final 1-7 bytes, zero-padded, go to
// lane 3. The finalizer folds the length and Mix64 of each lane, in lane
// order, through the same step, then returns Mix64 of the result.
//
// Why a single-bit flip is always caught: for a fixed length, a flip
// changes exactly one input word w. A lane step is a bijection of w for
// a fixed lane state (xor, then multiply by an odd constant), and a
// bijection of the lane state for a fixed w, so the changed word changes
// that lane's state and every later step keeps it changed. Mix64 is a
// bijection, and each fold step is a bijection of the lane term it takes
// in and of the running value, so the result differs. The same argument
// covers every change confined to one 8-byte word. `seed` enters lane 0
// only, so the result is also a bijection of the seed for fixed bytes:
// chaining `sum = Checksum64(page, len, sum)` over several pages still
// catches every single-word change in any of them.
//
// Four lanes keep four multiplies in flight instead of one dependent
// multiply per byte (FNV-1a), which is what makes it run at memory speed.
// It is portable scalar code; little-endian loads make the value
// host-independent.

#ifndef GUS_UTIL_CHECKSUM_H_
#define GUS_UTIL_CHECKSUM_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "util/hash.h"

namespace gus {

namespace checksum_internal {

inline constexpr uint64_t kMul = 0xff51afd7ed558ccdULL;  // odd
inline constexpr uint64_t kLaneInit[4] = {
    0x243f6a8885a308d3ULL, 0x13198a2e03707344ULL, 0xa4093822299f31d0ULL,
    0x082efa98ec4e6c89ULL};

inline uint64_t LoadLE64(const unsigned char* p) {
  uint64_t w;
  std::memcpy(&w, p, sizeof(w));
  if constexpr (std::endian::native == std::endian::big) {
    w = __builtin_bswap64(w);
  }
  return w;
}

inline uint64_t Step(uint64_t lane, uint64_t w) { return (lane ^ w) * kMul; }

}  // namespace checksum_internal

/// \brief Word-at-a-time 64-bit checksum of `len` bytes at `data`.
///
/// Detects every change confined to one aligned 8-byte word of the input
/// (in particular every single-bit flip) with certainty. Not a
/// fingerprint: use util/hash.h for hashing content.
inline uint64_t Checksum64(const void* data, size_t len, uint64_t seed = 0) {
  using checksum_internal::LoadLE64;
  using checksum_internal::Step;
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t lane[4] = {checksum_internal::kLaneInit[0] ^ seed,
                      checksum_internal::kLaneInit[1],
                      checksum_internal::kLaneInit[2],
                      checksum_internal::kLaneInit[3]};
  size_t n = len;
  for (; n >= 32; n -= 32, p += 32) {
    lane[0] = Step(lane[0], LoadLE64(p));
    lane[1] = Step(lane[1], LoadLE64(p + 8));
    lane[2] = Step(lane[2], LoadLE64(p + 16));
    lane[3] = Step(lane[3], LoadLE64(p + 24));
  }
  for (int i = 0; i < 3 && n >= 8; ++i, n -= 8, p += 8) {  // n < 32 here
    lane[i] = Step(lane[i], LoadLE64(p));
  }
  if (n > 0) {
    unsigned char tail[8] = {};
    std::memcpy(tail, p, n);
    lane[3] = Step(lane[3], LoadLE64(tail));
  }
  uint64_t h = static_cast<uint64_t>(len);
  for (const uint64_t l : lane) h = Step(h, Mix64(l));
  return Mix64(h);
}

}  // namespace gus

#endif  // GUS_UTIL_CHECKSUM_H_
