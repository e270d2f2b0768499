// Runtime-dispatched data-parallel kernels for the hot scalar loops.
//
// One tier is selected once at startup from CPUID (overridable with
// GUS_SIMD=scalar|avx2|avx512 for testing and benchmarking) and every
// kernel below forwards through a per-tier function table. The contract
// is strict bit parity: for any input, every tier produces byte-identical
// output — identical selection vectors (same indexes, same ascending
// order), identical hashes, identical keep-sets. Three ingredients make
// that hold:
//
//   * Compaction kernels preserve input order (compress-store writes
//     survivors in lane order, which is input order), so a selection
//     vector is the same sequence no matter how many lanes built it.
//   * Comparisons replicate the scalar semantics exactly, including the
//     promote-to-double rule of plan/vector_eval (int64 operands convert
//     with the same round-to-nearest cast in every tier) and its NaN
//     behavior (cmp = 0, so Eq/Le/Ge are true against NaN).
//   * The Bernoulli keep test `HashToUnit(h) < p` is replaced by the
//     exactly equivalent integer test `(h >> 11) < LineageKeepThreshold(p)`
//     in all tiers — see LineageKeepThreshold for the equivalence proof —
//     so no tier ever evaluates a float compare that another tier rounds
//     differently.
//
// Kernels that are pure data movement (gathers, widening converts) are
// trivially bit-identical. Nothing in this layer reassociates a float
// sum: estimator fold orders are owned by est/ and never change with the
// tier.

#ifndef GUS_KERNELS_SIMD_SIMD_DISPATCH_H_
#define GUS_KERNELS_SIMD_SIMD_DISPATCH_H_

#include <cstdint>

namespace gus::simd {

/// Dispatch tiers, ordered: a tier may be forced *down* but never above
/// what the CPU (and the build) supports.
enum class SimdTier { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// Human-readable tier name ("scalar" / "avx2" / "avx512").
const char* SimdTierName(SimdTier tier);

/// Best tier the running CPU supports among those compiled in (cached).
SimdTier DetectedSimdTier();

/// \brief The tier every kernel dispatches through.
///
/// DetectedSimdTier() clamped by the GUS_SIMD environment variable (read
/// once, at first use: "scalar", "avx2" or "avx512"; a request above the
/// detected tier clamps down with a one-time stderr note, so forced-tier
/// CI jobs degrade gracefully on older runners) and by the test override.
SimdTier ActiveSimdTier();

/// \brief Test hook: forces the dispatch tier from here on.
///
/// Clamped to DetectedSimdTier(); returns the tier actually installed so
/// tests can GTEST_SKIP when the host cannot run the requested ISA.
SimdTier SetSimdTierForTesting(SimdTier tier);

/// Test hook: restores the startup (env-derived) tier.
void ResetSimdTierForTesting();

/// Comparison operator for the fused predicate kernels. Semantics match
/// plan/vector_eval's CompareOp over cmp(a,b) = a<b ? -1 : (a>b ? 1 : 0):
/// against a NaN operand cmp is 0, so kEq/kLe/kGe hold and kNe/kLt/kGt do
/// not — every tier reproduces exactly that.
enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };

// ---- Predicate evaluation ---------------------------------------------------
// Each Sel* kernel appends to `out` the indexes i in [0, n) whose row
// passes, in ascending order, and returns the count. `out` must have room
// for n entries.

/// Truthiness compaction of an evaluated predicate column (x[i] != 0).
int64_t SelNonZeroI64(const int64_t* x, int64_t n, int64_t* out);
/// Float truthiness (x[i] != 0.0; NaN is truthy, as in the scalar path).
int64_t SelNonZeroF64(const double* x, int64_t n, int64_t* out);

/// Fused compare-against-literal over a dense column. Int64 lanes promote
/// to double first (the vector_eval rule), `lit` is already promoted.
int64_t SelCmpI64Lit(CmpOp op, const int64_t* x, int64_t n, double lit,
                     int64_t* out);
int64_t SelCmpF64Lit(CmpOp op, const double* x, int64_t n, double lit,
                     int64_t* out);

/// Fused column-vs-column compare (both sides promote to double).
int64_t SelCmpI64I64(CmpOp op, const int64_t* x, const int64_t* y, int64_t n,
                     int64_t* out);
int64_t SelCmpF64F64(CmpOp op, const double* x, const double* y, int64_t n,
                     int64_t* out);
int64_t SelCmpI64F64(CmpOp op, const int64_t* x, const double* y, int64_t n,
                     int64_t* out);
int64_t SelCmpF64I64(CmpOp op, const double* x, const int64_t* y, int64_t n,
                     int64_t* out);

// ---- 64-bit key hashing -----------------------------------------------------

/// out[i] = HashInt64Key(v[i]) (the SplitMix64 finalizer), 8 lanes wide.
void HashI64Keys(const int64_t* v, int64_t n, uint64_t* out);

/// out[i] = HashInt64Key(vals[rows[i]]) — gather + hash fused.
void HashI64KeysGather(const int64_t* vals, const int64_t* rows, int64_t n,
                       uint64_t* out);

/// out[i] = dict_hashes[codes[i]] (string keys hash via their dictionary).
void HashDictCodes(const uint64_t* dict_hashes, const uint32_t* codes,
                   int64_t n, uint64_t* out);

/// out[i] = dict_hashes[codes[rows[i]]].
void HashDictCodesGather(const uint64_t* dict_hashes, const uint32_t* codes,
                         const int64_t* rows, int64_t n, uint64_t* out);

// ---- Join key recheck (FilterEqualKeyPairs core) ----------------------------
// In-place order-preserving compaction of candidate pair lists: keep pair
// k in [begin, n) iff probe_vals[probe_rows[k]] == build_vals[build_rows[k]],
// writing survivors at [begin, w). Returns w. Equality is value equality
// (for doubles: IEEE ==, so NaN never matches and -0.0 == +0.0).

int64_t CompactEqualPairsI64(const int64_t* probe_vals,
                             const int64_t* build_vals, int64_t* probe_rows,
                             int64_t* build_rows, int64_t begin, int64_t n);
int64_t CompactEqualPairsF64(const double* probe_vals, const double* build_vals,
                             int64_t* probe_rows, int64_t* build_rows,
                             int64_t begin, int64_t n);
int64_t CompactEqualPairsU32(const uint32_t* probe_vals,
                             const uint32_t* build_vals, int64_t* probe_rows,
                             int64_t* build_rows, int64_t begin, int64_t n);

// ---- Lineage Bernoulli keep-mask --------------------------------------------

/// \brief The integer threshold T with `HashToUnit(h) < p  <=>  (h>>11) < T`.
///
/// m = h>>11 is an integer in [0, 2^53), and both (double)m and m * 2^-53
/// are exact doubles (53-bit integer; scaling by a power of two), so
/// m * 2^-53 < p  <=>  m < p * 2^53 over the reals  <=>  m < ceil(p * 2^53)
/// for integer m. p * 2^53 is itself exact for p in [0, 1] (pure exponent
/// shift), so T = ceil(p * 2^53) computes without rounding error.
uint64_t LineageKeepThreshold(double p);

/// \brief Dense keep-mask: appends `begin + i` to `out` for each i in
/// [0, len) with (Mix64(HashCombine(seed, ids[i * stride])) >> 11) <
/// threshold; returns the count. `ids` is pre-offset to the sampled
/// lineage dimension; `stride` is the lineage arity.
int64_t LineageKeepDense(uint64_t seed, uint64_t threshold,
                         const uint64_t* ids, int64_t stride, int64_t begin,
                         int64_t len, int64_t* out);

/// Gather form: appends sel[k] for each kept k, ids taken at
/// lineage[sel[k] * stride + dim].
int64_t LineageKeepGather(uint64_t seed, uint64_t threshold,
                          const uint64_t* lineage, int64_t stride, int64_t dim,
                          const int64_t* sel, int64_t len, int64_t* out);

// ---- Fixed-size WOR priority filter ------------------------------------------

/// \brief Fused priority + threshold filter: for each row r in
/// [begin, begin + len) with p = WorPriority(seed, r) <= tau, writes p to
/// prio_out[w] and r to row_out[w], in row order; returns w. Both outputs
/// need room for len entries; begin + len must not exceed INT64_MAX.
int64_t WorPriorityFilter(uint64_t seed, uint64_t tau, int64_t begin,
                          int64_t len, uint64_t* prio_out, int64_t* row_out);

// ---- Typed gathers and converts (batch join emit / group-by feeds) ----------

void GatherI64(const int64_t* src, const int64_t* idx, int64_t n,
               int64_t* dst);
void GatherF64(const double* src, const int64_t* idx, int64_t n, double* dst);
void GatherU32(const uint32_t* src, const int64_t* idx, int64_t n,
               uint32_t* dst);
void GatherU64(const uint64_t* src, const int64_t* idx, int64_t n,
               uint64_t* dst);

/// dst[i] = (double)src[i] (round-to-nearest, identical in every tier).
void ConvertI64ToF64(const int64_t* src, int64_t n, double* dst);

}  // namespace gus::simd

#endif  // GUS_KERNELS_SIMD_SIMD_DISPATCH_H_
