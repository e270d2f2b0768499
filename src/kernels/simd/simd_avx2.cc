// AVX2 kernel tier: 4 lanes of 64 bits per block, scalar reference tail.
//
// Bit-parity notes specific to this tier:
//   * AVX2 has no 64x64->64 multiply; Mul64 builds it from 32-bit partial
//     products — exact mod 2^64, so the vector Mix64 equals the scalar.
//   * AVX2 has no int64 -> double convert; CvtI64ToF64 uses the exact
//     split-and-recombine trick (one rounding, in the final add, exactly
//     where the hardware convert rounds) so promoted compares match the
//     scalar static_cast lane for lane across the full int64 range. The
//     randomized parity tests cover the 2^52/2^53/2^63 boundaries.
//   * Compaction uses a 16-entry permutation table indexed by the keep
//     mask; survivors stay in lane (= input) order.

#include "kernels/simd/simd_ops.h"

#if defined(__AVX2__)

#include <immintrin.h>

namespace gus::simd {

namespace {

constexpr long long kMixAdd = static_cast<long long>(0x9e3779b97f4a7c15ULL);
constexpr long long kMixMul1 = static_cast<long long>(0xbf58476d1ce4e5b9ULL);
constexpr long long kMixMul2 = static_cast<long long>(0x94d049bb133111ebULL);

/// 64x64 -> low 64 multiply from 32-bit partial products (exact mod 2^64).
inline __m256i Mul64(__m256i a, __m256i b) {
  const __m256i lo = _mm256_mul_epu32(a, b);
  const __m256i cross = _mm256_add_epi64(
      _mm256_mul_epu32(_mm256_srli_epi64(a, 32), b),
      _mm256_mul_epu32(a, _mm256_srli_epi64(b, 32)));
  return _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32));
}

/// Vector SplitMix64 finalizer (util/hash.h Mix64, 4 lanes).
inline __m256i Mix64x4(__m256i x) {
  x = _mm256_add_epi64(x, _mm256_set1_epi64x(kMixAdd));
  x = Mul64(_mm256_xor_si256(x, _mm256_srli_epi64(x, 30)),
            _mm256_set1_epi64x(kMixMul1));
  x = Mul64(_mm256_xor_si256(x, _mm256_srli_epi64(x, 27)),
            _mm256_set1_epi64x(kMixMul2));
  return _mm256_xor_si256(x, _mm256_srli_epi64(x, 31));
}

/// Exact full-range signed int64 -> double (single rounding in the final
/// add, matching the scalar cast's round-to-nearest).
inline __m256d CvtI64ToF64(__m256i v) {
  const __m256i magic_lo = _mm256_set1_epi64x(0x4330000000000000LL);
  const __m256i magic_hi = _mm256_set1_epi64x(0x4530000080000000LL);
  const __m256d magic_all =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x4530000080100000LL));
  const __m256i lo = _mm256_blend_epi32(magic_lo, v, 0b01010101);
  const __m256i hi =
      _mm256_xor_si256(_mm256_srli_epi64(v, 32), magic_hi);
  const __m256d hi_d = _mm256_sub_pd(_mm256_castsi256_pd(hi), magic_all);
  return _mm256_add_pd(hi_d, _mm256_castsi256_pd(lo));
}

inline __m256d LoadAsF64(const double* p) { return _mm256_loadu_pd(p); }
inline __m256d LoadAsF64(const int64_t* p) {
  return CvtI64ToF64(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)));
}

/// Keep mask for one comparison block, from the (a<b, a>b) masks — the
/// exact mask algebra of ScalarCmpKeeps (NaN: both false).
inline int CmpKeepMask4(CmpOp op, __m256d a, __m256d b) {
  const int lt = _mm256_movemask_pd(_mm256_cmp_pd(a, b, _CMP_LT_OQ));
  const int gt = _mm256_movemask_pd(_mm256_cmp_pd(a, b, _CMP_GT_OQ));
  switch (op) {
    case CmpOp::kEq: return ~(lt | gt) & 0xF;
    case CmpOp::kNe: return (lt | gt) & 0xF;
    case CmpOp::kLt: return lt;
    case CmpOp::kLe: return ~gt & 0xF;
    case CmpOp::kGt: return gt;
    case CmpOp::kGe: return ~lt & 0xF;
  }
  return 0;
}

/// mask -> dword permutation compacting the kept 64-bit lanes leftward in
/// lane order (lane k occupies dwords 2k, 2k+1).
struct Compress4Table {
  uint32_t v[16][8];
};

constexpr Compress4Table MakeCompress4Table() {
  Compress4Table t{};
  for (int m = 0; m < 16; ++m) {
    int w = 0;
    for (uint32_t lane = 0; lane < 4; ++lane) {
      if (m & (1 << lane)) {
        t.v[m][2 * w] = 2 * lane;
        t.v[m][2 * w + 1] = 2 * lane + 1;
        ++w;
      }
    }
    for (; w < 4; ++w) {
      t.v[m][2 * w] = 0;
      t.v[m][2 * w + 1] = 1;
    }
  }
  return t;
}

constexpr Compress4Table kCompress4 = MakeCompress4Table();

/// Compress-stores the masked lanes at out + w; returns the new w. The
/// full 4-lane store is safe: callers only run vector blocks while
/// w + 4 <= capacity(out) (w never exceeds the block's start index).
inline int64_t CompressStore4(int64_t* out, int64_t w, __m256i lanes,
                              int mask) {
  const __m256i perm = _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kCompress4.v[mask]));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + w),
                      _mm256_permutevar8x32_epi32(lanes, perm));
  return w + __builtin_popcount(static_cast<unsigned>(mask));
}

inline __m256i Iota4(int64_t base) {
  return _mm256_setr_epi64x(base, base + 1, base + 2, base + 3);
}

int64_t SelNonZeroI64Avx2(const int64_t* x, int64_t n, int64_t* out) {
  int64_t w = 0, i = 0;
  const __m256i zero = _mm256_setzero_si256();
  for (; i + 4 <= n; i += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i));
    const int zeros = _mm256_movemask_pd(
        _mm256_castsi256_pd(_mm256_cmpeq_epi64(v, zero)));
    w = CompressStore4(out, w, Iota4(i), ~zeros & 0xF);
  }
  for (; i < n; ++i) {
    out[w] = i;
    w += x[i] != 0;
  }
  return w;
}

int64_t SelNonZeroF64Avx2(const double* x, int64_t n, int64_t* out) {
  int64_t w = 0, i = 0;
  const __m256d zero = _mm256_setzero_pd();
  for (; i + 4 <= n; i += 4) {
    // NEQ_UQ: true for NaN, false for +-0 — the scalar `x[i] != 0.0`.
    const int mask = _mm256_movemask_pd(
        _mm256_cmp_pd(_mm256_loadu_pd(x + i), zero, _CMP_NEQ_UQ));
    w = CompressStore4(out, w, Iota4(i), mask);
  }
  for (; i < n; ++i) {
    out[w] = i;
    w += x[i] != 0.0;
  }
  return w;
}

template <typename L>
int64_t SelCmpLitAvx2(CmpOp op, const L* x, int64_t n, double lit,
                      int64_t* out) {
  int64_t w = 0, i = 0;
  const __m256d vlit = _mm256_set1_pd(lit);
  for (; i + 4 <= n; i += 4) {
    const int mask = CmpKeepMask4(op, LoadAsF64(x + i), vlit);
    w = CompressStore4(out, w, Iota4(i), mask);
  }
  for (; i < n; ++i) {
    out[w] = i;
    w += ScalarCmpKeeps(op, static_cast<double>(x[i]), lit);
  }
  return w;
}

template <typename L, typename R>
int64_t SelCmpAvx2(CmpOp op, const L* x, const R* y, int64_t n, int64_t* out) {
  int64_t w = 0, i = 0;
  for (; i + 4 <= n; i += 4) {
    const int mask = CmpKeepMask4(op, LoadAsF64(x + i), LoadAsF64(y + i));
    w = CompressStore4(out, w, Iota4(i), mask);
  }
  for (; i < n; ++i) {
    out[w] = i;
    w += ScalarCmpKeeps(op, static_cast<double>(x[i]),
                        static_cast<double>(y[i]));
  }
  return w;
}

void HashI64Avx2(const int64_t* v, int64_t n, uint64_t* out) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), Mix64x4(x));
  }
  for (; i < n; ++i) out[i] = Mix64(static_cast<uint64_t>(v[i]));
}

void HashI64GatherAvx2(const int64_t* vals, const int64_t* rows, int64_t n,
                       uint64_t* out) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i idx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rows + i));
    const __m256i v = _mm256_i64gather_epi64(
        reinterpret_cast<const long long*>(vals), idx, 8);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), Mix64x4(v));
  }
  for (; i < n; ++i) out[i] = Mix64(static_cast<uint64_t>(vals[rows[i]]));
}

void HashDictCodesAvx2(const uint64_t* dict_hashes, const uint32_t* codes,
                       int64_t n, uint64_t* out) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i c =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(codes + i));
    const __m256i h = _mm256_i32gather_epi64(
        reinterpret_cast<const long long*>(dict_hashes), c, 8);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), h);
  }
  for (; i < n; ++i) out[i] = dict_hashes[codes[i]];
}

void HashDictCodesGatherAvx2(const uint64_t* dict_hashes,
                             const uint32_t* codes, const int64_t* rows,
                             int64_t n, uint64_t* out) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i idx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rows + i));
    const __m128i c = _mm256_i64gather_epi32(
        reinterpret_cast<const int*>(codes), idx, 4);
    const __m256i h = _mm256_i32gather_epi64(
        reinterpret_cast<const long long*>(dict_hashes), c, 8);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), h);
  }
  for (; i < n; ++i) out[i] = dict_hashes[codes[rows[i]]];
}

/// Shared pair-compaction skeleton: EqMask4(k) yields the 4-bit equality
/// mask for pairs [k, k+4). In-place is safe: w <= k at every block start,
/// so the 4-lane stores never clobber unread pairs.
template <typename EqMaskFn, typename EqScalarFn>
int64_t CompactPairsAvx2(int64_t* probe_rows, int64_t* build_rows,
                         int64_t begin, int64_t n, const EqMaskFn& eq_mask,
                         const EqScalarFn& eq_scalar) {
  int64_t w = begin, k = begin;
  for (; k + 4 <= n; k += 4) {
    const __m256i pr =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(probe_rows + k));
    const __m256i br =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(build_rows + k));
    const int mask = eq_mask(pr, br);
    const int64_t w_next = CompressStore4(probe_rows, w, pr, mask);
    CompressStore4(build_rows, w, br, mask);
    w = w_next;
  }
  for (; k < n; ++k) {
    const int64_t i = probe_rows[k];
    const int64_t j = build_rows[k];
    if (eq_scalar(i, j)) {
      probe_rows[w] = i;
      build_rows[w] = j;
      ++w;
    }
  }
  return w;
}

int64_t CompactPairsI64Avx2(const int64_t* probe_vals,
                            const int64_t* build_vals, int64_t* probe_rows,
                            int64_t* build_rows, int64_t begin, int64_t n) {
  return CompactPairsAvx2(
      probe_rows, build_rows, begin, n,
      [&](__m256i pr, __m256i br) {
        const __m256i pv = _mm256_i64gather_epi64(
            reinterpret_cast<const long long*>(probe_vals), pr, 8);
        const __m256i bv = _mm256_i64gather_epi64(
            reinterpret_cast<const long long*>(build_vals), br, 8);
        return _mm256_movemask_pd(
            _mm256_castsi256_pd(_mm256_cmpeq_epi64(pv, bv)));
      },
      [&](int64_t i, int64_t j) { return probe_vals[i] == build_vals[j]; });
}

int64_t CompactPairsF64Avx2(const double* probe_vals, const double* build_vals,
                            int64_t* probe_rows, int64_t* build_rows,
                            int64_t begin, int64_t n) {
  return CompactPairsAvx2(
      probe_rows, build_rows, begin, n,
      [&](__m256i pr, __m256i br) {
        // Value equality (EQ_OQ): NaN matches nothing, -0.0 == +0.0.
        const __m256d pv = _mm256_castsi256_pd(_mm256_i64gather_epi64(
            reinterpret_cast<const long long*>(probe_vals), pr, 8));
        const __m256d bv = _mm256_castsi256_pd(_mm256_i64gather_epi64(
            reinterpret_cast<const long long*>(build_vals), br, 8));
        return _mm256_movemask_pd(_mm256_cmp_pd(pv, bv, _CMP_EQ_OQ));
      },
      [&](int64_t i, int64_t j) { return probe_vals[i] == build_vals[j]; });
}

int64_t CompactPairsU32Avx2(const uint32_t* probe_vals,
                            const uint32_t* build_vals, int64_t* probe_rows,
                            int64_t* build_rows, int64_t begin, int64_t n) {
  return CompactPairsAvx2(
      probe_rows, build_rows, begin, n,
      [&](__m256i pr, __m256i br) {
        const __m128i pv = _mm256_i64gather_epi32(
            reinterpret_cast<const int*>(probe_vals), pr, 4);
        const __m128i bv = _mm256_i64gather_epi32(
            reinterpret_cast<const int*>(build_vals), br, 4);
        return _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(pv, bv)));
      },
      [&](int64_t i, int64_t j) { return probe_vals[i] == build_vals[j]; });
}

/// id lanes -> keep mask: (Mix64(Mix64(seed ^ (id + K))) >> 11) < T with
/// K = HashCombine's seed-derived constant. Both sides are < 2^53, so the
/// signed cmpgt is a valid unsigned compare.
struct LineageHasher {
  explicit LineageHasher(uint64_t seed, uint64_t threshold)
      : xor_seed(_mm256_set1_epi64x(static_cast<long long>(seed))),
        add_k(_mm256_set1_epi64x(static_cast<long long>(
            0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2)))),
        thresh(_mm256_set1_epi64x(static_cast<long long>(threshold))) {}

  int KeepMask(__m256i ids) const {
    __m256i h = _mm256_xor_si256(xor_seed, _mm256_add_epi64(ids, add_k));
    h = Mix64x4(Mix64x4(h));
    const __m256i m = _mm256_srli_epi64(h, 11);
    return _mm256_movemask_pd(
        _mm256_castsi256_pd(_mm256_cmpgt_epi64(thresh, m)));
  }

  __m256i xor_seed, add_k, thresh;
};

int64_t LineageKeepDenseAvx2(uint64_t seed, uint64_t threshold,
                             const uint64_t* ids, int64_t stride,
                             int64_t begin, int64_t len, int64_t* out) {
  const LineageHasher hasher(seed, threshold);
  int64_t w = 0, i = 0;
  if (stride == 1) {
    for (; i + 4 <= len; i += 4) {
      const __m256i v =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ids + i));
      w = CompressStore4(out, w, Iota4(begin + i), hasher.KeepMask(v));
    }
  } else {
    // Strided gather: the index vector advances by 4*stride per block, so
    // no 64-bit multiply is needed in the loop.
    __m256i idx = _mm256_setr_epi64x(0, stride, 2 * stride, 3 * stride);
    const __m256i step = _mm256_set1_epi64x(4 * stride);
    for (; i + 4 <= len; i += 4) {
      const __m256i v = _mm256_i64gather_epi64(
          reinterpret_cast<const long long*>(ids), idx, 8);
      idx = _mm256_add_epi64(idx, step);
      w = CompressStore4(out, w, Iota4(begin + i), hasher.KeepMask(v));
    }
  }
  for (; i < len; ++i) {
    out[w] = begin + i;
    w += ScalarLineageKeeps(seed, threshold, ids[i * stride]);
  }
  return w;
}

int64_t LineageKeepGatherAvx2(uint64_t seed, uint64_t threshold,
                              const uint64_t* lineage, int64_t stride,
                              int64_t dim, const int64_t* sel, int64_t len,
                              int64_t* out) {
  const LineageHasher hasher(seed, threshold);
  int64_t w = 0, k = 0;
  const __m256i vstride = _mm256_set1_epi64x(stride);
  const __m256i vdim = _mm256_set1_epi64x(dim);
  for (; k + 4 <= len; k += 4) {
    const __m256i rows =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(sel + k));
    const __m256i idx = _mm256_add_epi64(Mul64(rows, vstride), vdim);
    const __m256i v = _mm256_i64gather_epi64(
        reinterpret_cast<const long long*>(lineage), idx, 8);
    w = CompressStore4(out, w, rows, hasher.KeepMask(v));
  }
  for (; k < len; ++k) {
    const int64_t r = sel[k];
    out[w] = r;
    w += ScalarLineageKeeps(seed, threshold, lineage[r * stride + dim]);
  }
  return w;
}

/// Emulated-multiply form of the AVX-512 kernel: blocks of 4 rows, kBlocks
/// at a time stage by stage. The unsigned compare flips the sign bit into
/// a signed one. Full 4-lane stores are safe for the same reason as in
/// CompressStore4.
int64_t WorPriorityFilterAvx2(uint64_t seed, uint64_t tau, int64_t begin,
                              int64_t len, uint64_t* prio_out,
                              int64_t* row_out) {
  constexpr int kBlocks = 4;
  const uint64_t m = Mix64(seed);
  const __m256i mixed_seed = _mm256_set1_epi64x(static_cast<long long>(m));
  const __m256i combine_k = _mm256_set1_epi64x(
      static_cast<long long>(0x9e3779b97f4a7c15ULL + (m << 6) + (m >> 2)));
  const __m256i two_gamma =
      _mm256_set1_epi64x(static_cast<long long>(2 * 0x9e3779b97f4a7c15ULL));
  const __m256i sign = _mm256_set1_epi64x(INT64_MIN);
  const __m256i vtau_s =
      _mm256_xor_si256(_mm256_set1_epi64x(static_cast<long long>(tau)), sign);
  const __m256i four = _mm256_set1_epi64x(4);
  __m256i next_rows = Iota4(begin);
  int64_t w = 0, i = 0;
  for (; i + 4 * kBlocks <= len; i += 4 * kBlocks) {
    __m256i rows[kBlocks], h[kBlocks];
    for (int b = 0; b < kBlocks; ++b) {
      rows[b] = next_rows;
      next_rows = _mm256_add_epi64(next_rows, four);
      h[b] = _mm256_add_epi64(Mix64x4(rows[b]), combine_k);
    }
    for (int b = 0; b < kBlocks; ++b) {
      h[b] = Mix64x4(_mm256_xor_si256(mixed_seed, h[b]));
    }
    for (int b = 0; b < kBlocks; ++b) h[b] = Mix64x4(h[b]);
    for (int b = 0; b < kBlocks; ++b) {
      h[b] = Mix64x4(_mm256_add_epi64(h[b], two_gamma));
    }
    for (int b = 0; b < kBlocks; ++b) {
      __m256i x = _mm256_add_epi64(_mm256_slli_epi64(h[b], 2), h[b]);
      x = _mm256_or_si256(_mm256_slli_epi64(x, 7), _mm256_srli_epi64(x, 57));
      x = _mm256_add_epi64(_mm256_slli_epi64(x, 3), x);
      // keep = !(x > tau), unsigned.
      const __m256i gt = _mm256_cmpgt_epi64(_mm256_xor_si256(x, sign), vtau_s);
      const int keep = ~_mm256_movemask_pd(_mm256_castsi256_pd(gt)) & 0xF;
      CompressStore4(reinterpret_cast<int64_t*>(prio_out), w, x, keep);
      w = CompressStore4(row_out, w, rows[b], keep);
    }
  }
  return w + ScalarWorPriorityFilter(seed, tau, begin + i, len - i,
                                     prio_out + w, row_out + w);
}

void GatherI64Avx2(const int64_t* src, const int64_t* idx, int64_t n,
                   int64_t* dst) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v = _mm256_i64gather_epi64(
        reinterpret_cast<const long long*>(src),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx + i)), 8);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), v);
  }
  for (; i < n; ++i) dst[i] = src[idx[i]];
}

void GatherF64Avx2(const double* src, const int64_t* idx, int64_t n,
                   double* dst) {
  GatherI64Avx2(reinterpret_cast<const int64_t*>(src), idx, n,
                reinterpret_cast<int64_t*>(dst));
}

void GatherU32Avx2(const uint32_t* src, const int64_t* idx, int64_t n,
                   uint32_t* dst) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i v = _mm256_i64gather_epi32(
        reinterpret_cast<const int*>(src),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx + i)), 4);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), v);
  }
  for (; i < n; ++i) dst[i] = src[idx[i]];
}

void GatherU64Avx2(const uint64_t* src, const int64_t* idx, int64_t n,
                   uint64_t* dst) {
  GatherI64Avx2(reinterpret_cast<const int64_t*>(src), idx, n,
                reinterpret_cast<int64_t*>(dst));
}

void I64ToF64Avx2(const int64_t* src, int64_t n, double* dst) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(dst + i,
                     CvtI64ToF64(_mm256_loadu_si256(
                         reinterpret_cast<const __m256i*>(src + i))));
  }
  for (; i < n; ++i) dst[i] = static_cast<double>(src[i]);
}

const SimdOps kAvx2Ops = {
    &SelNonZeroI64Avx2,
    &SelNonZeroF64Avx2,
    &SelCmpLitAvx2<int64_t>,
    &SelCmpLitAvx2<double>,
    &SelCmpAvx2<int64_t, int64_t>,
    &SelCmpAvx2<double, double>,
    &SelCmpAvx2<int64_t, double>,
    &SelCmpAvx2<double, int64_t>,
    &HashI64Avx2,
    &HashI64GatherAvx2,
    &HashDictCodesAvx2,
    &HashDictCodesGatherAvx2,
    &CompactPairsI64Avx2,
    &CompactPairsF64Avx2,
    &CompactPairsU32Avx2,
    &LineageKeepDenseAvx2,
    &LineageKeepGatherAvx2,
    &WorPriorityFilterAvx2,
    &GatherI64Avx2,
    &GatherF64Avx2,
    &GatherU32Avx2,
    &GatherU64Avx2,
    &I64ToF64Avx2,
};

}  // namespace

const SimdOps* Avx2Ops() { return &kAvx2Ops; }

}  // namespace gus::simd

#else  // !defined(__AVX2__)

namespace gus::simd {
const SimdOps* Avx2Ops() { return nullptr; }
}  // namespace gus::simd

#endif
