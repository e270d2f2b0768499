// Internal to src/kernels/simd/: the per-tier function table and the
// scalar reference implementations.
//
// The scalar bodies here are THE semantics. The AVX2/AVX-512 translation
// units include this header and (a) install them unchanged for inputs too
// short to vectorize, (b) run them as the tail after the last full vector
// block. A vector block is only a reimplementation of ScalarX over W
// lanes; any divergence is a bug the parity tests are built to catch.

#ifndef GUS_KERNELS_SIMD_SIMD_OPS_H_
#define GUS_KERNELS_SIMD_SIMD_OPS_H_

#include <cstdint>

#include "kernels/sampling_kernels.h"
#include "kernels/simd/simd_dispatch.h"
#include "util/hash.h"

namespace gus::simd {

/// One entry per dispatched kernel; each tier provides a full table.
struct SimdOps {
  int64_t (*sel_nonzero_i64)(const int64_t*, int64_t, int64_t*);
  int64_t (*sel_nonzero_f64)(const double*, int64_t, int64_t*);
  int64_t (*sel_cmp_i64_lit)(CmpOp, const int64_t*, int64_t, double, int64_t*);
  int64_t (*sel_cmp_f64_lit)(CmpOp, const double*, int64_t, double, int64_t*);
  int64_t (*sel_cmp_i64_i64)(CmpOp, const int64_t*, const int64_t*, int64_t,
                             int64_t*);
  int64_t (*sel_cmp_f64_f64)(CmpOp, const double*, const double*, int64_t,
                             int64_t*);
  int64_t (*sel_cmp_i64_f64)(CmpOp, const int64_t*, const double*, int64_t,
                             int64_t*);
  int64_t (*sel_cmp_f64_i64)(CmpOp, const double*, const int64_t*, int64_t,
                             int64_t*);
  void (*hash_i64)(const int64_t*, int64_t, uint64_t*);
  void (*hash_i64_gather)(const int64_t*, const int64_t*, int64_t, uint64_t*);
  void (*hash_dict_codes)(const uint64_t*, const uint32_t*, int64_t,
                          uint64_t*);
  void (*hash_dict_codes_gather)(const uint64_t*, const uint32_t*,
                                 const int64_t*, int64_t, uint64_t*);
  int64_t (*compact_pairs_i64)(const int64_t*, const int64_t*, int64_t*,
                               int64_t*, int64_t, int64_t);
  int64_t (*compact_pairs_f64)(const double*, const double*, int64_t*,
                               int64_t*, int64_t, int64_t);
  int64_t (*compact_pairs_u32)(const uint32_t*, const uint32_t*, int64_t*,
                               int64_t*, int64_t, int64_t);
  int64_t (*lineage_keep_dense)(uint64_t, uint64_t, const uint64_t*, int64_t,
                                int64_t, int64_t, int64_t*);
  int64_t (*lineage_keep_gather)(uint64_t, uint64_t, const uint64_t*, int64_t,
                                 int64_t, const int64_t*, int64_t, int64_t*);
  int64_t (*wor_priority_filter)(uint64_t, uint64_t, int64_t, int64_t,
                                 uint64_t*, int64_t*);
  void (*gather_i64)(const int64_t*, const int64_t*, int64_t, int64_t*);
  void (*gather_f64)(const double*, const int64_t*, int64_t, double*);
  void (*gather_u32)(const uint32_t*, const int64_t*, int64_t, uint32_t*);
  void (*gather_u64)(const uint64_t*, const int64_t*, int64_t, uint64_t*);
  void (*i64_to_f64)(const int64_t*, int64_t, double*);
};

/// ISA tier tables; each returns nullptr when its TU was compiled without
/// the ISA (the dispatcher then never offers the tier). The scalar table
/// lives inside simd_dispatch.cc.
const SimdOps* Avx2Ops();
const SimdOps* Avx512Ops();

// ---- Scalar reference implementations ---------------------------------------

/// vector_eval's comparison decision: cmp from (a<b, a>b) — NaN yields
/// cmp == 0 — then the operator test.
inline bool ScalarCmpKeeps(CmpOp op, double a, double b) {
  const int cmp = a < b ? -1 : (a > b ? 1 : 0);
  switch (op) {
    case CmpOp::kEq: return cmp == 0;
    case CmpOp::kNe: return cmp != 0;
    case CmpOp::kLt: return cmp < 0;
    case CmpOp::kLe: return cmp <= 0;
    case CmpOp::kGt: return cmp > 0;
    case CmpOp::kGe: return cmp >= 0;
  }
  return false;
}

inline int64_t ScalarSelNonZeroI64(const int64_t* x, int64_t n, int64_t* out) {
  int64_t w = 0;
  for (int64_t i = 0; i < n; ++i) {
    out[w] = i;
    w += x[i] != 0;
  }
  return w;
}

inline int64_t ScalarSelNonZeroF64(const double* x, int64_t n, int64_t* out) {
  int64_t w = 0;
  for (int64_t i = 0; i < n; ++i) {
    out[w] = i;
    w += x[i] != 0.0;
  }
  return w;
}

template <typename L, typename R>
inline int64_t ScalarSelCmp(CmpOp op, const L* x, const R* y, int64_t n,
                            int64_t* out) {
  int64_t w = 0;
  for (int64_t i = 0; i < n; ++i) {
    out[w] = i;
    w += ScalarCmpKeeps(op, static_cast<double>(x[i]),
                        static_cast<double>(y[i]));
  }
  return w;
}

template <typename L>
inline int64_t ScalarSelCmpLit(CmpOp op, const L* x, int64_t n, double lit,
                               int64_t* out) {
  int64_t w = 0;
  for (int64_t i = 0; i < n; ++i) {
    out[w] = i;
    w += ScalarCmpKeeps(op, static_cast<double>(x[i]), lit);
  }
  return w;
}

inline void ScalarHashI64(const int64_t* v, int64_t n, uint64_t* out) {
  for (int64_t i = 0; i < n; ++i) out[i] = Mix64(static_cast<uint64_t>(v[i]));
}

inline void ScalarHashI64Gather(const int64_t* vals, const int64_t* rows,
                                int64_t n, uint64_t* out) {
  for (int64_t i = 0; i < n; ++i) {
    out[i] = Mix64(static_cast<uint64_t>(vals[rows[i]]));
  }
}

inline void ScalarHashDictCodes(const uint64_t* dict_hashes,
                                const uint32_t* codes, int64_t n,
                                uint64_t* out) {
  for (int64_t i = 0; i < n; ++i) out[i] = dict_hashes[codes[i]];
}

inline void ScalarHashDictCodesGather(const uint64_t* dict_hashes,
                                      const uint32_t* codes,
                                      const int64_t* rows, int64_t n,
                                      uint64_t* out) {
  for (int64_t i = 0; i < n; ++i) out[i] = dict_hashes[codes[rows[i]]];
}

template <typename T>
inline int64_t ScalarCompactPairs(const T* probe_vals, const T* build_vals,
                                  int64_t* probe_rows, int64_t* build_rows,
                                  int64_t begin, int64_t n) {
  int64_t w = begin;
  for (int64_t k = begin; k < n; ++k) {
    const int64_t i = probe_rows[k];
    const int64_t j = build_rows[k];
    if (probe_vals[i] == build_vals[j]) {
      probe_rows[w] = i;
      build_rows[w] = j;
      ++w;
    }
  }
  return w;
}

/// h >> 11 compared against LineageKeepThreshold(p): exactly the scalar
/// `LineageUnitValue(seed, id) < p` (see the header's proof).
inline bool ScalarLineageKeeps(uint64_t seed, uint64_t threshold,
                               uint64_t id) {
  return (Mix64(HashCombine(seed, id)) >> 11) < threshold;
}

inline int64_t ScalarLineageKeepDense(uint64_t seed, uint64_t threshold,
                                      const uint64_t* ids, int64_t stride,
                                      int64_t begin, int64_t len,
                                      int64_t* out) {
  int64_t w = 0;
  for (int64_t i = 0; i < len; ++i) {
    out[w] = begin + i;
    w += ScalarLineageKeeps(seed, threshold, ids[i * stride]);
  }
  return w;
}

inline int64_t ScalarLineageKeepGather(uint64_t seed, uint64_t threshold,
                                       const uint64_t* lineage, int64_t stride,
                                       int64_t dim, const int64_t* sel,
                                       int64_t len, int64_t* out) {
  int64_t w = 0;
  for (int64_t k = 0; k < len; ++k) {
    const int64_t r = sel[k];
    out[w] = r;
    w += ScalarLineageKeeps(seed, threshold, lineage[r * stride + dim]);
  }
  return w;
}

/// Keys come from the closed form in kernels/sampling_kernels.h, with the
/// seed's mix hoisted out of the loop. Branch-free append.
inline int64_t ScalarWorPriorityFilter(uint64_t seed, uint64_t tau,
                                       int64_t begin, int64_t len,
                                       uint64_t* prio_out, int64_t* row_out) {
  const uint64_t mixed_seed = Mix64(seed);
  int64_t w = 0;
  for (int64_t i = 0; i < len; ++i) {
    const int64_t row = begin + i;
    const uint64_t prio =
        WorPriorityMixed(mixed_seed, static_cast<uint64_t>(row));
    prio_out[w] = prio;
    row_out[w] = row;
    w += prio <= tau;
  }
  return w;
}

template <typename T>
inline void ScalarGather(const T* src, const int64_t* idx, int64_t n, T* dst) {
  for (int64_t i = 0; i < n; ++i) dst[i] = src[idx[i]];
}

inline void ScalarI64ToF64(const int64_t* src, int64_t n, double* dst) {
  for (int64_t i = 0; i < n; ++i) dst[i] = static_cast<double>(src[i]);
}

}  // namespace gus::simd

#endif  // GUS_KERNELS_SIMD_SIMD_OPS_H_
