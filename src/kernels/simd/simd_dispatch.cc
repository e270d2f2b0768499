#include "kernels/simd/simd_dispatch.h"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "kernels/simd/simd_ops.h"

namespace gus::simd {

namespace {

const SimdOps kScalarOps = {
    &ScalarSelNonZeroI64,
    &ScalarSelNonZeroF64,
    &ScalarSelCmpLit<int64_t>,
    &ScalarSelCmpLit<double>,
    &ScalarSelCmp<int64_t, int64_t>,
    &ScalarSelCmp<double, double>,
    &ScalarSelCmp<int64_t, double>,
    &ScalarSelCmp<double, int64_t>,
    &ScalarHashI64,
    &ScalarHashI64Gather,
    &ScalarHashDictCodes,
    &ScalarHashDictCodesGather,
    &ScalarCompactPairs<int64_t>,
    &ScalarCompactPairs<double>,
    &ScalarCompactPairs<uint32_t>,
    &ScalarLineageKeepDense,
    &ScalarLineageKeepGather,
    &ScalarWorPriorityFilter,
    &ScalarGather<int64_t>,
    &ScalarGather<double>,
    &ScalarGather<uint32_t>,
    &ScalarGather<uint64_t>,
    &ScalarI64ToF64,
};

const SimdOps* OpsForTier(SimdTier tier) {
  switch (tier) {
    case SimdTier::kScalar: return &kScalarOps;
    case SimdTier::kAvx2: return Avx2Ops();
    case SimdTier::kAvx512: return Avx512Ops();
  }
  return &kScalarOps;
}

SimdTier DetectTier() {
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512dq") && Avx512Ops() != nullptr) {
    return SimdTier::kAvx512;
  }
  if (__builtin_cpu_supports("avx2") && Avx2Ops() != nullptr) {
    return SimdTier::kAvx2;
  }
#endif
  return SimdTier::kScalar;
}

/// Startup tier: detection clamped by GUS_SIMD. An unknown value or a
/// request above the detected tier degrades to the best available with a
/// one-time note, so forced-tier CI jobs skip gracefully on older CPUs.
SimdTier StartupTier() {
  const SimdTier detected = DetectTier();
  const char* env = std::getenv("GUS_SIMD");
  if (env == nullptr || env[0] == '\0') return detected;
  SimdTier requested = detected;
  if (std::strcmp(env, "scalar") == 0) {
    requested = SimdTier::kScalar;
  } else if (std::strcmp(env, "avx2") == 0) {
    requested = SimdTier::kAvx2;
  } else if (std::strcmp(env, "avx512") == 0) {
    requested = SimdTier::kAvx512;
  } else {
    std::fprintf(stderr,
                 "gus: unknown GUS_SIMD value '%s' (want scalar|avx2|avx512); "
                 "using %s\n",
                 env, SimdTierName(detected));
    return detected;
  }
  if (requested > detected) {
    std::fprintf(stderr,
                 "gus: GUS_SIMD=%s not supported on this host/build; "
                 "using %s\n",
                 env, SimdTierName(detected));
    return detected;
  }
  return requested;
}

/// The installed table. Relaxed atomics suffice: every candidate value is
/// a pointer to an immutable table, and tests only flip the tier from the
/// main thread between single-threaded kernel calls.
std::atomic<const SimdOps*>& ActiveOpsSlot() {
  static std::atomic<const SimdOps*> active{nullptr};
  return active;
}

std::atomic<int>& ActiveTierSlot() {
  static std::atomic<int> tier{-1};
  return tier;
}

void InstallTier(SimdTier tier) {
  ActiveOpsSlot().store(OpsForTier(tier), std::memory_order_relaxed);
  ActiveTierSlot().store(static_cast<int>(tier), std::memory_order_relaxed);
}

const SimdOps& Active() {
  const SimdOps* ops = ActiveOpsSlot().load(std::memory_order_relaxed);
  if (ops == nullptr) {
    InstallTier(StartupTier());
    ops = ActiveOpsSlot().load(std::memory_order_relaxed);
  }
  return *ops;
}

}  // namespace

const char* SimdTierName(SimdTier tier) {
  switch (tier) {
    case SimdTier::kScalar: return "scalar";
    case SimdTier::kAvx2: return "avx2";
    case SimdTier::kAvx512: return "avx512";
  }
  return "unknown";
}

SimdTier DetectedSimdTier() {
  static const SimdTier detected = DetectTier();
  return detected;
}

SimdTier ActiveSimdTier() {
  Active();  // ensure installed
  return static_cast<SimdTier>(
      ActiveTierSlot().load(std::memory_order_relaxed));
}

SimdTier SetSimdTierForTesting(SimdTier tier) {
  const SimdTier detected = DetectedSimdTier();
  const SimdTier installed = tier > detected ? detected : tier;
  InstallTier(installed);
  return installed;
}

void ResetSimdTierForTesting() { InstallTier(StartupTier()); }

uint64_t LineageKeepThreshold(double p) {
  if (!(p > 0.0)) return 0;                          // p <= 0 or NaN: drop all
  if (p >= 1.0) return uint64_t{1} << 53;            // every m < 2^53 keeps
  return static_cast<uint64_t>(std::ceil(p * 0x1.0p53));
}

// ---- Dispatching wrappers ---------------------------------------------------

int64_t SelNonZeroI64(const int64_t* x, int64_t n, int64_t* out) {
  return Active().sel_nonzero_i64(x, n, out);
}
int64_t SelNonZeroF64(const double* x, int64_t n, int64_t* out) {
  return Active().sel_nonzero_f64(x, n, out);
}
int64_t SelCmpI64Lit(CmpOp op, const int64_t* x, int64_t n, double lit,
                     int64_t* out) {
  return Active().sel_cmp_i64_lit(op, x, n, lit, out);
}
int64_t SelCmpF64Lit(CmpOp op, const double* x, int64_t n, double lit,
                     int64_t* out) {
  return Active().sel_cmp_f64_lit(op, x, n, lit, out);
}
int64_t SelCmpI64I64(CmpOp op, const int64_t* x, const int64_t* y, int64_t n,
                     int64_t* out) {
  return Active().sel_cmp_i64_i64(op, x, y, n, out);
}
int64_t SelCmpF64F64(CmpOp op, const double* x, const double* y, int64_t n,
                     int64_t* out) {
  return Active().sel_cmp_f64_f64(op, x, y, n, out);
}
int64_t SelCmpI64F64(CmpOp op, const int64_t* x, const double* y, int64_t n,
                     int64_t* out) {
  return Active().sel_cmp_i64_f64(op, x, y, n, out);
}
int64_t SelCmpF64I64(CmpOp op, const double* x, const int64_t* y, int64_t n,
                     int64_t* out) {
  return Active().sel_cmp_f64_i64(op, x, y, n, out);
}

void HashI64Keys(const int64_t* v, int64_t n, uint64_t* out) {
  Active().hash_i64(v, n, out);
}
void HashI64KeysGather(const int64_t* vals, const int64_t* rows, int64_t n,
                       uint64_t* out) {
  Active().hash_i64_gather(vals, rows, n, out);
}
void HashDictCodes(const uint64_t* dict_hashes, const uint32_t* codes,
                   int64_t n, uint64_t* out) {
  Active().hash_dict_codes(dict_hashes, codes, n, out);
}
void HashDictCodesGather(const uint64_t* dict_hashes, const uint32_t* codes,
                         const int64_t* rows, int64_t n, uint64_t* out) {
  Active().hash_dict_codes_gather(dict_hashes, codes, rows, n, out);
}

int64_t CompactEqualPairsI64(const int64_t* probe_vals,
                             const int64_t* build_vals, int64_t* probe_rows,
                             int64_t* build_rows, int64_t begin, int64_t n) {
  return Active().compact_pairs_i64(probe_vals, build_vals, probe_rows,
                                    build_rows, begin, n);
}
int64_t CompactEqualPairsF64(const double* probe_vals, const double* build_vals,
                             int64_t* probe_rows, int64_t* build_rows,
                             int64_t begin, int64_t n) {
  return Active().compact_pairs_f64(probe_vals, build_vals, probe_rows,
                                    build_rows, begin, n);
}
int64_t CompactEqualPairsU32(const uint32_t* probe_vals,
                             const uint32_t* build_vals, int64_t* probe_rows,
                             int64_t* build_rows, int64_t begin, int64_t n) {
  return Active().compact_pairs_u32(probe_vals, build_vals, probe_rows,
                                    build_rows, begin, n);
}

int64_t LineageKeepDense(uint64_t seed, uint64_t threshold,
                         const uint64_t* ids, int64_t stride, int64_t begin,
                         int64_t len, int64_t* out) {
  return Active().lineage_keep_dense(seed, threshold, ids, stride, begin, len,
                                     out);
}
int64_t LineageKeepGather(uint64_t seed, uint64_t threshold,
                          const uint64_t* lineage, int64_t stride, int64_t dim,
                          const int64_t* sel, int64_t len, int64_t* out) {
  return Active().lineage_keep_gather(seed, threshold, lineage, stride, dim,
                                      sel, len, out);
}

int64_t WorPriorityFilter(uint64_t seed, uint64_t tau, int64_t begin,
                          int64_t len, uint64_t* prio_out, int64_t* row_out) {
  return Active().wor_priority_filter(seed, tau, begin, len, prio_out,
                                      row_out);
}

void GatherI64(const int64_t* src, const int64_t* idx, int64_t n,
               int64_t* dst) {
  Active().gather_i64(src, idx, n, dst);
}
void GatherF64(const double* src, const int64_t* idx, int64_t n, double* dst) {
  Active().gather_f64(src, idx, n, dst);
}
void GatherU32(const uint32_t* src, const int64_t* idx, int64_t n,
               uint32_t* dst) {
  Active().gather_u32(src, idx, n, dst);
}
void GatherU64(const uint64_t* src, const int64_t* idx, int64_t n,
               uint64_t* dst) {
  Active().gather_u64(src, idx, n, dst);
}
void ConvertI64ToF64(const int64_t* src, int64_t n, double* dst) {
  Active().i64_to_f64(src, n, dst);
}

}  // namespace gus::simd
