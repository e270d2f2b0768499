// AVX-512 kernel tier: 8 lanes of 64 bits per block, scalar reference
// tail. Requires F (masks, gathers) and DQ (64-bit mullo, int64 -> double
// convert); the dispatcher checks both CPUID bits before offering the
// tier.
//
// Bit parity is simpler than AVX2 here: the ISA has a native exact
// _mm512_cvtepi64_pd (same round-to-nearest as the scalar cast), a native
// 64x64 mullo, and mask compress-stores that keep survivors in lane
// (= input) order.

#include "kernels/simd/simd_ops.h"

#if defined(__AVX512F__) && defined(__AVX512DQ__)

#include <immintrin.h>

namespace gus::simd {

namespace {

constexpr long long kMixAdd = static_cast<long long>(0x9e3779b97f4a7c15ULL);
constexpr long long kMixMul1 = static_cast<long long>(0xbf58476d1ce4e5b9ULL);
constexpr long long kMixMul2 = static_cast<long long>(0x94d049bb133111ebULL);

/// Vector SplitMix64 finalizer (util/hash.h Mix64, 8 lanes).
inline __m512i Mix64x8(__m512i x) {
  x = _mm512_add_epi64(x, _mm512_set1_epi64(kMixAdd));
  x = _mm512_mullo_epi64(_mm512_xor_si512(x, _mm512_srli_epi64(x, 30)),
                         _mm512_set1_epi64(kMixMul1));
  x = _mm512_mullo_epi64(_mm512_xor_si512(x, _mm512_srli_epi64(x, 27)),
                         _mm512_set1_epi64(kMixMul2));
  return _mm512_xor_si512(x, _mm512_srli_epi64(x, 31));
}

inline __m512d LoadAsF64(const double* p) { return _mm512_loadu_pd(p); }
inline __m512d LoadAsF64(const int64_t* p) {
  return _mm512_cvtepi64_pd(_mm512_loadu_si512(p));
}

/// Keep mask for one comparison block — the mask algebra of
/// ScalarCmpKeeps (NaN: both lt and gt false).
inline __mmask8 CmpKeepMask8(CmpOp op, __m512d a, __m512d b) {
  const __mmask8 lt = _mm512_cmp_pd_mask(a, b, _CMP_LT_OQ);
  const __mmask8 gt = _mm512_cmp_pd_mask(a, b, _CMP_GT_OQ);
  switch (op) {
    case CmpOp::kEq: return static_cast<__mmask8>(~(lt | gt));
    case CmpOp::kNe: return static_cast<__mmask8>(lt | gt);
    case CmpOp::kLt: return lt;
    case CmpOp::kLe: return static_cast<__mmask8>(~gt);
    case CmpOp::kGt: return gt;
    case CmpOp::kGe: return static_cast<__mmask8>(~lt);
  }
  return 0;
}

/// Compress-stores the masked lanes at out + w; returns the new w.
/// compressstoreu writes only the surviving lanes, so no overrun slack is
/// needed.
inline int64_t CompressStore8(int64_t* out, int64_t w, __m512i lanes,
                              __mmask8 mask) {
  _mm512_mask_compressstoreu_epi64(out + w, mask, lanes);
  return w + __builtin_popcount(static_cast<unsigned>(mask));
}

inline __m512i Iota8(int64_t base) {
  return _mm512_add_epi64(_mm512_set1_epi64(base),
                          _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7));
}

int64_t SelNonZeroI64Avx512(const int64_t* x, int64_t n, int64_t* out) {
  int64_t w = 0, i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i v = _mm512_loadu_si512(x + i);
    w = CompressStore8(out, w, Iota8(i), _mm512_test_epi64_mask(v, v));
  }
  for (; i < n; ++i) {
    out[w] = i;
    w += x[i] != 0;
  }
  return w;
}

int64_t SelNonZeroF64Avx512(const double* x, int64_t n, int64_t* out) {
  int64_t w = 0, i = 0;
  const __m512d zero = _mm512_setzero_pd();
  for (; i + 8 <= n; i += 8) {
    // NEQ_UQ: true for NaN, false for +-0 — the scalar `x[i] != 0.0`.
    const __mmask8 mask =
        _mm512_cmp_pd_mask(_mm512_loadu_pd(x + i), zero, _CMP_NEQ_UQ);
    w = CompressStore8(out, w, Iota8(i), mask);
  }
  for (; i < n; ++i) {
    out[w] = i;
    w += x[i] != 0.0;
  }
  return w;
}

template <typename L>
int64_t SelCmpLitAvx512(CmpOp op, const L* x, int64_t n, double lit,
                        int64_t* out) {
  int64_t w = 0, i = 0;
  const __m512d vlit = _mm512_set1_pd(lit);
  for (; i + 8 <= n; i += 8) {
    const __mmask8 mask = CmpKeepMask8(op, LoadAsF64(x + i), vlit);
    w = CompressStore8(out, w, Iota8(i), mask);
  }
  for (; i < n; ++i) {
    out[w] = i;
    w += ScalarCmpKeeps(op, static_cast<double>(x[i]), lit);
  }
  return w;
}

template <typename L, typename R>
int64_t SelCmpAvx512(CmpOp op, const L* x, const R* y, int64_t n,
                     int64_t* out) {
  int64_t w = 0, i = 0;
  for (; i + 8 <= n; i += 8) {
    const __mmask8 mask = CmpKeepMask8(op, LoadAsF64(x + i), LoadAsF64(y + i));
    w = CompressStore8(out, w, Iota8(i), mask);
  }
  for (; i < n; ++i) {
    out[w] = i;
    w += ScalarCmpKeeps(op, static_cast<double>(x[i]),
                        static_cast<double>(y[i]));
  }
  return w;
}

void HashI64Avx512(const int64_t* v, int64_t n, uint64_t* out) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_si512(out + i, Mix64x8(_mm512_loadu_si512(v + i)));
  }
  for (; i < n; ++i) out[i] = Mix64(static_cast<uint64_t>(v[i]));
}

void HashI64GatherAvx512(const int64_t* vals, const int64_t* rows, int64_t n,
                         uint64_t* out) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i idx = _mm512_loadu_si512(rows + i);
    const __m512i v = _mm512_i64gather_epi64(idx, vals, 8);
    _mm512_storeu_si512(out + i, Mix64x8(v));
  }
  for (; i < n; ++i) out[i] = Mix64(static_cast<uint64_t>(vals[rows[i]]));
}

void HashDictCodesAvx512(const uint64_t* dict_hashes, const uint32_t* codes,
                         int64_t n, uint64_t* out) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i c =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(codes + i));
    const __m512i h = _mm512_i32gather_epi64(c, dict_hashes, 8);
    _mm512_storeu_si512(out + i, h);
  }
  for (; i < n; ++i) out[i] = dict_hashes[codes[i]];
}

void HashDictCodesGatherAvx512(const uint64_t* dict_hashes,
                               const uint32_t* codes, const int64_t* rows,
                               int64_t n, uint64_t* out) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i idx = _mm512_loadu_si512(rows + i);
    const __m256i c = _mm512_i64gather_epi32(idx, codes, 4);
    const __m512i h = _mm512_i32gather_epi64(c, dict_hashes, 8);
    _mm512_storeu_si512(out + i, h);
  }
  for (; i < n; ++i) out[i] = dict_hashes[codes[rows[i]]];
}

/// Shared pair-compaction skeleton; see the AVX2 TU for the in-place
/// safety argument (w <= k at every block start; compress-store writes
/// only surviving lanes, which is even tighter here).
template <typename EqMaskFn, typename EqScalarFn>
int64_t CompactPairsAvx512(int64_t* probe_rows, int64_t* build_rows,
                           int64_t begin, int64_t n, const EqMaskFn& eq_mask,
                           const EqScalarFn& eq_scalar) {
  int64_t w = begin, k = begin;
  for (; k + 8 <= n; k += 8) {
    const __m512i pr = _mm512_loadu_si512(probe_rows + k);
    const __m512i br = _mm512_loadu_si512(build_rows + k);
    const __mmask8 mask = eq_mask(pr, br);
    _mm512_mask_compressstoreu_epi64(probe_rows + w, mask, pr);
    _mm512_mask_compressstoreu_epi64(build_rows + w, mask, br);
    w += __builtin_popcount(static_cast<unsigned>(mask));
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

int64_t CompactPairsI64Avx512(const int64_t* probe_vals,
                              const int64_t* build_vals, int64_t* probe_rows,
                              int64_t* build_rows, int64_t begin, int64_t n) {
  return CompactPairsAvx512(
      probe_rows, build_rows, begin, n,
      [&](__m512i pr, __m512i br) {
        const __m512i pv = _mm512_i64gather_epi64(pr, probe_vals, 8);
        const __m512i bv = _mm512_i64gather_epi64(br, build_vals, 8);
        return _mm512_cmpeq_epi64_mask(pv, bv);
      },
      [&](int64_t i, int64_t j) { return probe_vals[i] == build_vals[j]; });
}

int64_t CompactPairsF64Avx512(const double* probe_vals,
                              const double* build_vals, int64_t* probe_rows,
                              int64_t* build_rows, int64_t begin, int64_t n) {
  return CompactPairsAvx512(
      probe_rows, build_rows, begin, n,
      [&](__m512i pr, __m512i br) {
        // Value equality (EQ_OQ): NaN matches nothing, -0.0 == +0.0.
        const __m512d pv = _mm512_castsi512_pd(
            _mm512_i64gather_epi64(pr, probe_vals, 8));
        const __m512d bv = _mm512_castsi512_pd(
            _mm512_i64gather_epi64(br, build_vals, 8));
        return _mm512_cmp_pd_mask(pv, bv, _CMP_EQ_OQ);
      },
      [&](int64_t i, int64_t j) { return probe_vals[i] == build_vals[j]; });
}

int64_t CompactPairsU32Avx512(const uint32_t* probe_vals,
                              const uint32_t* build_vals, int64_t* probe_rows,
                              int64_t* build_rows, int64_t begin, int64_t n) {
  return CompactPairsAvx512(
      probe_rows, build_rows, begin, n,
      [&](__m512i pr, __m512i br) {
        const __m256i pv = _mm512_i64gather_epi32(pr, probe_vals, 4);
        const __m256i bv = _mm512_i64gather_epi32(br, build_vals, 4);
        return static_cast<__mmask8>(
            _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpeq_epi32(pv, bv))));
      },
      [&](int64_t i, int64_t j) { return probe_vals[i] == build_vals[j]; });
}

/// id lanes -> keep mask; see the AVX2 TU. AVX-512 has a real unsigned
/// 64-bit compare, so the threshold test is direct.
struct LineageHasher {
  explicit LineageHasher(uint64_t seed, uint64_t threshold)
      : xor_seed(_mm512_set1_epi64(static_cast<long long>(seed))),
        add_k(_mm512_set1_epi64(static_cast<long long>(
            0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2)))),
        thresh(_mm512_set1_epi64(static_cast<long long>(threshold))) {}

  __mmask8 KeepMask(__m512i ids) const {
    __m512i h = _mm512_xor_si512(xor_seed, _mm512_add_epi64(ids, add_k));
    h = Mix64x8(Mix64x8(h));
    return _mm512_cmplt_epu64_mask(_mm512_srli_epi64(h, 11), thresh);
  }

  __m512i xor_seed, add_k, thresh;
};

int64_t LineageKeepDenseAvx512(uint64_t seed, uint64_t threshold,
                               const uint64_t* ids, int64_t stride,
                               int64_t begin, int64_t len, int64_t* out) {
  const LineageHasher hasher(seed, threshold);
  int64_t w = 0, i = 0;
  if (stride == 1) {
    for (; i + 8 <= len; i += 8) {
      const __m512i v = _mm512_loadu_si512(ids + i);
      w = CompressStore8(out, w, Iota8(begin + i), hasher.KeepMask(v));
    }
  } else {
    __m512i idx = _mm512_mullo_epi64(_mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7),
                                     _mm512_set1_epi64(stride));
    const __m512i step = _mm512_set1_epi64(8 * stride);
    for (; i + 8 <= len; i += 8) {
      const __m512i v = _mm512_i64gather_epi64(idx, ids, 8);
      idx = _mm512_add_epi64(idx, step);
      w = CompressStore8(out, w, Iota8(begin + i), hasher.KeepMask(v));
    }
  }
  for (; i < len; ++i) {
    out[w] = begin + i;
    w += ScalarLineageKeeps(seed, threshold, ids[i * stride]);
  }
  return w;
}

int64_t LineageKeepGatherAvx512(uint64_t seed, uint64_t threshold,
                                const uint64_t* lineage, int64_t stride,
                                int64_t dim, const int64_t* sel, int64_t len,
                                int64_t* out) {
  const LineageHasher hasher(seed, threshold);
  int64_t w = 0, k = 0;
  const __m512i vstride = _mm512_set1_epi64(stride);
  const __m512i vdim = _mm512_set1_epi64(dim);
  for (; k + 8 <= len; k += 8) {
    const __m512i rows = _mm512_loadu_si512(sel + k);
    const __m512i idx =
        _mm512_add_epi64(_mm512_mullo_epi64(rows, vstride), vdim);
    const __m512i v = _mm512_i64gather_epi64(idx, lineage, 8);
    w = CompressStore8(out, w, rows, hasher.KeepMask(v));
  }
  for (; k < len; ++k) {
    const int64_t r = sel[k];
    out[w] = r;
    w += ScalarLineageKeeps(seed, threshold, lineage[r * stride + dim]);
  }
  return w;
}

/// The closed-form key (four vector Mix64, the xoshiro output as
/// shift-adds and vprolq), an unsigned compare against tau, and an
/// in-register compress of keys and rows. Four independent 8-row blocks
/// per iteration, stage by stage, hide the vpmullq latency (~25% faster
/// than one block at a time). Full 8-lane stores are safe: w never exceeds
/// the block's start index, and every block ends at or before len.
int64_t WorPriorityFilterAvx512(uint64_t seed, uint64_t tau, int64_t begin,
                                int64_t len, uint64_t* prio_out,
                                int64_t* row_out) {
  constexpr int kBlocks = 4;
  const uint64_t m = Mix64(seed);
  const __m512i mixed_seed = _mm512_set1_epi64(static_cast<long long>(m));
  const __m512i combine_k = _mm512_set1_epi64(
      static_cast<long long>(0x9e3779b97f4a7c15ULL + (m << 6) + (m >> 2)));
  const __m512i two_gamma =
      _mm512_set1_epi64(static_cast<long long>(2 * 0x9e3779b97f4a7c15ULL));
  const __m512i vtau = _mm512_set1_epi64(static_cast<long long>(tau));
  const __m512i eight = _mm512_set1_epi64(8);
  __m512i next_rows = Iota8(begin);
  int64_t w = 0, i = 0;
  for (; i + 8 * kBlocks <= len; i += 8 * kBlocks) {
    __m512i rows[kBlocks], h[kBlocks];
    // HashCombine(m, Mix64(row)), then the outer Mix64 of ForkStream.
    for (int b = 0; b < kBlocks; ++b) {
      rows[b] = next_rows;
      next_rows = _mm512_add_epi64(next_rows, eight);
      h[b] = _mm512_add_epi64(Mix64x8(rows[b]), combine_k);
    }
    for (int b = 0; b < kBlocks; ++b) {
      h[b] = Mix64x8(_mm512_xor_si512(mixed_seed, h[b]));
    }
    for (int b = 0; b < kBlocks; ++b) h[b] = Mix64x8(h[b]);
    // State word 1 of Rng::Seed, then Next(): Rotl(s1 * 5, 7) * 9.
    for (int b = 0; b < kBlocks; ++b) {
      h[b] = Mix64x8(_mm512_add_epi64(h[b], two_gamma));
    }
    for (int b = 0; b < kBlocks; ++b) {
      __m512i x = _mm512_add_epi64(_mm512_slli_epi64(h[b], 2), h[b]);
      x = _mm512_rol_epi64(x, 7);
      x = _mm512_add_epi64(_mm512_slli_epi64(x, 3), x);
      const __mmask8 keep = _mm512_cmple_epu64_mask(x, vtau);
      _mm512_storeu_si512(prio_out + w, _mm512_maskz_compress_epi64(keep, x));
      _mm512_storeu_si512(row_out + w,
                          _mm512_maskz_compress_epi64(keep, rows[b]));
      w += __builtin_popcount(static_cast<unsigned>(keep));
    }
  }
  return w + ScalarWorPriorityFilter(seed, tau, begin + i, len - i,
                                     prio_out + w, row_out + w);
}

void GatherI64Avx512(const int64_t* src, const int64_t* idx, int64_t n,
                     int64_t* dst) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i v =
        _mm512_i64gather_epi64(_mm512_loadu_si512(idx + i), src, 8);
    _mm512_storeu_si512(dst + i, v);
  }
  for (; i < n; ++i) dst[i] = src[idx[i]];
}

void GatherF64Avx512(const double* src, const int64_t* idx, int64_t n,
                     double* dst) {
  GatherI64Avx512(reinterpret_cast<const int64_t*>(src), idx, n,
                  reinterpret_cast<int64_t*>(dst));
}

void GatherU32Avx512(const uint32_t* src, const int64_t* idx, int64_t n,
                     uint32_t* dst) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i v =
        _mm512_i64gather_epi32(_mm512_loadu_si512(idx + i), src, 4);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), v);
  }
  for (; i < n; ++i) dst[i] = src[idx[i]];
}

void GatherU64Avx512(const uint64_t* src, const int64_t* idx, int64_t n,
                     uint64_t* dst) {
  GatherI64Avx512(reinterpret_cast<const int64_t*>(src), idx, n,
                  reinterpret_cast<int64_t*>(dst));
}

void I64ToF64Avx512(const int64_t* src, int64_t n, double* dst) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(dst + i, _mm512_cvtepi64_pd(_mm512_loadu_si512(src + i)));
  }
  for (; i < n; ++i) dst[i] = static_cast<double>(src[i]);
}

const SimdOps kAvx512Ops = {
    &SelNonZeroI64Avx512,
    &SelNonZeroF64Avx512,
    &SelCmpLitAvx512<int64_t>,
    &SelCmpLitAvx512<double>,
    &SelCmpAvx512<int64_t, int64_t>,
    &SelCmpAvx512<double, double>,
    &SelCmpAvx512<int64_t, double>,
    &SelCmpAvx512<double, int64_t>,
    &HashI64Avx512,
    &HashI64GatherAvx512,
    &HashDictCodesAvx512,
    &HashDictCodesGatherAvx512,
    &CompactPairsI64Avx512,
    &CompactPairsF64Avx512,
    &CompactPairsU32Avx512,
    &LineageKeepDenseAvx512,
    &LineageKeepGatherAvx512,
    &WorPriorityFilterAvx512,
    &GatherI64Avx512,
    &GatherF64Avx512,
    &GatherU32Avx512,
    &GatherU64Avx512,
    &I64ToF64Avx512,
};

}  // namespace

const SimdOps* Avx512Ops() { return &kAvx512Ops; }

}  // namespace gus::simd

#else  // !(__AVX512F__ && __AVX512DQ__)

namespace gus::simd {
const SimdOps* Avx512Ops() { return nullptr; }
}  // namespace gus::simd

#endif
