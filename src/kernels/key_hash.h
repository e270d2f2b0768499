// Typed join-key hashing and equality over columnar data.
//
// These are the column-at-a-time counterparts of Value::Hash and
// Value::KeyEquals (rel/value.h); the two layers must agree bit-for-bit so
// the row and columnar engines build and probe identical join tables.
// String columns hash through their dictionary: DictKeyHashes precomputes
// one hash per distinct string, and KeyHashAt then reads a per-row hash
// with one array index.

#ifndef GUS_KERNELS_KEY_HASH_H_
#define GUS_KERNELS_KEY_HASH_H_

#include <cstdint>
#include <vector>

#include "rel/column_batch.h"
#include "rel/value.h"
#include "util/logging.h"

namespace gus {

/// Per-dictionary key hashes for a string column (agrees with Value::Hash);
/// empty for non-string columns.
inline std::vector<uint64_t> DictKeyHashes(const ColumnData& col) {
  std::vector<uint64_t> hashes;
  if (col.type != ValueType::kString || col.dict == nullptr) return hashes;
  hashes.reserve(col.dict->values.size());
  for (const auto& s : col.dict->values) hashes.push_back(HashStringKey(s));
  return hashes;
}

/// Join-key hash of row `i` (dict_hashes from DictKeyHashes for strings).
inline uint64_t KeyHashAt(const ColumnData& col, int64_t i,
                          const std::vector<uint64_t>& dict_hashes) {
  switch (col.type) {
    case ValueType::kInt64: return HashInt64Key(col.i64[i]);
    case ValueType::kFloat64: return HashFloat64Key(col.f64[i]);
    case ValueType::kString: return dict_hashes[col.codes[i]];
  }
  GUS_CHECK(false && "unhandled ValueType");
  return 0;
}

/// Typed key equality mirroring Value::KeyEquals (mixed numeric types
/// compare by exact promoted value).
inline bool KeyEqualsAt(const ColumnData& a, int64_t i, const ColumnData& b,
                        int64_t j) {
  if (a.type == b.type) {
    switch (a.type) {
      case ValueType::kInt64: return a.i64[i] == b.i64[j];
      case ValueType::kFloat64: return a.f64[i] == b.f64[j];
      case ValueType::kString:
        if (a.dict == b.dict) return a.codes[i] == b.codes[j];
        return a.StringAt(i) == b.StringAt(j);
    }
    GUS_CHECK(false && "unhandled ValueType");
  }
  if (a.type == ValueType::kString || b.type == ValueType::kString) {
    return false;
  }
  const double d = a.type == ValueType::kFloat64 ? a.f64[i] : b.f64[j];
  const int64_t v = a.type == ValueType::kInt64 ? a.i64[i] : b.i64[j];
  int64_t as_int;
  return Float64AsExactInt64(d, &as_int) && as_int == v;
}

/// \brief "Same hash input" test for the join build's collision check.
///
/// A true 64-bit collision is two rows whose *hash inputs* differ yet
/// whose hashes agree. KeyEqualsAt alone is the wrong test: two NaNs of
/// equal bit pattern feed the hash identically (HashFloat64Key hashes the
/// bits) but compare unequal under ==, and flagging them as a collision
/// would fail whole queries that previously just produced no match for
/// those rows. So same-hash rows count as compatible when their keys
/// compare equal OR their float bit patterns are identical.
inline bool JoinBuildKeysCompatible(const ColumnData& col, int64_t i,
                                    int64_t j) {
  if (KeyEqualsAt(col, i, col, j)) return true;
  if (col.type == ValueType::kFloat64) {
    uint64_t a, b;
    __builtin_memcpy(&a, &col.f64[i], sizeof(a));
    __builtin_memcpy(&b, &col.f64[j], sizeof(b));
    return a == b;
  }
  return false;
}

/// \brief Per-row join-key hashes for a whole column.
///
/// Computes dictionary hashes internally for string columns; callers that
/// already hold DictKeyHashes can loop KeyHashAt instead.
std::vector<uint64_t> ColumnKeyHashes(const ColumnData& col, int64_t num_rows);

/// \brief Batch form of KeyHashAt over rows [begin, begin + len), through
/// the dispatched SIMD kernels for int64 and dictionary-string keys
/// (float64 stays scalar). `out` must hold len hashes.
void KeyHashRange(const ColumnData& col,
                  const std::vector<uint64_t>& dict_hashes, int64_t begin,
                  int64_t len, uint64_t* out);

/// \brief Batch form of KeyHashAt over an arbitrary row list (`rows`, len
/// entries), routed through the dispatched SIMD gather kernels for int64
/// and dictionary-string keys (float64 stays scalar: its hash branches on
/// Float64AsExactInt64). `out` must hold len hashes.
void KeyHashRows(const ColumnData& col, const std::vector<uint64_t>& dict_hashes,
                 const int64_t* rows, int64_t len, uint64_t* out);

/// \brief Vectorized key-equality recheck over batch probe candidates.
///
/// `probe_rows` / `build_rows` hold aligned (probe, build) candidate pairs
/// from JoinHashTable::ProbeBatch; entries [begin, size) whose keys compare
/// unequal under KeyEqualsAt semantics are removed, compacting both vectors
/// in place and preserving order. The type dispatch happens once per call
/// instead of once per pair (the first ROADMAP kernels item). Returns the
/// new size.
int64_t FilterEqualKeyPairs(const ColumnData& probe_key,
                            const ColumnData& build_key,
                            std::vector<int64_t>* probe_rows,
                            std::vector<int64_t>* build_rows,
                            int64_t begin = 0);

}  // namespace gus

#endif  // GUS_KERNELS_KEY_HASH_H_
