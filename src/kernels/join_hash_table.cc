#include "kernels/join_hash_table.h"

#include <algorithm>
#include <functional>
#include <numeric>
#include <optional>
#include <string>
#include <utility>

#include "kernels/key_hash.h"
#include "kernels/simd/simd_dispatch.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace gus {

namespace {

/// Smallest power of two >= 4n: a load factor of at most 0.25 keeps
/// linear-probe runs near one slot (16 bytes per extra slot is cheap
/// next to the probe stalls it avoids), with a minimum that keeps tiny
/// builds cheap.
uint64_t DirectoryCapacity(int64_t n) {
  uint64_t cap = 16;
  while (cap < static_cast<uint64_t>(n) * 4) cap <<= 1;
  return cap;
}

/// Region slot count (power of two) for a directory of `cap` slots — a
/// pure function of the capacity, so every build of the same input agrees
/// on the geometry regardless of thread count.
constexpr uint64_t kRegionSlots = 4096;
constexpr uint64_t kMaxBuildRegions = 256;

uint64_t RegionSize(uint64_t cap) {
  uint64_t regions = cap / kRegionSlots;
  if (regions <= 1) return cap;
  if (regions > kMaxBuildRegions) regions = kMaxBuildRegions;
  return cap / regions;
}

int Log2Pow2(uint64_t v) { return __builtin_ctzll(v); }

/// Per-region scratch produced by the region insert pass.
struct RegionState {
  std::vector<int64_t> entry_of;     // per region row (input order)
  std::vector<int64_t> first_row;    // per local entry
  std::vector<int64_t> count;        // per local entry
  std::vector<int64_t> group_begin;  // per local entry, region-local offset
  bool overflow = false;
  int64_t collision_first = -1, collision_second = -1;
};

template <typename Pred>
int64_t CompactPairs(std::vector<int64_t>* probe_rows,
                     std::vector<int64_t>* build_rows, int64_t begin,
                     const Pred& keep) {
  const auto n = static_cast<int64_t>(probe_rows->size());
  int64_t w = begin;
  for (int64_t k = begin; k < n; ++k) {
    const int64_t i = (*probe_rows)[k];
    const int64_t j = (*build_rows)[k];
    if (keep(i, j)) {
      (*probe_rows)[w] = i;
      (*build_rows)[w] = j;
      ++w;
    }
  }
  probe_rows->resize(static_cast<size_t>(w));
  build_rows->resize(static_cast<size_t>(w));
  return w;
}

}  // namespace

Status JoinHashTable::Build(const uint64_t* hashes, int64_t num_rows,
                            const KeyEqFn& eq, int num_threads) {
  slots_.clear();
  entries_.clear();
  row_ids_.clear();
  region_mask_ = 0;
  if (num_rows == 0) return Status::OK();

  const uint64_t cap = DirectoryCapacity(num_rows);
  uint64_t region_size = RegionSize(cap);
  while (true) {
    GUS_ASSIGN_OR_RETURN(
        bool built, TryBuild(hashes, num_rows, eq, cap, region_size,
                             num_threads));
    if (built) return Status::OK();
    // A region overflowed (pathological hash concentration): rebuild with
    // one region — global wrap cannot overflow at load <= 0.25. The
    // fallback condition depends only on the hash multiset, so serial and
    // parallel builds take it identically.
    GUS_CHECK(region_size < cap);
    region_size = cap;
  }
}

Result<bool> JoinHashTable::TryBuild(const uint64_t* hashes, int64_t num_rows,
                                     const KeyEqFn& eq, uint64_t cap,
                                     uint64_t region_size, int num_threads) {
  slots_.assign(cap, Slot{});
  entries_.clear();
  row_ids_.assign(static_cast<size_t>(num_rows), 0);
  region_mask_ = region_size - 1;
  const uint64_t mask = cap - 1;
  const auto num_regions = static_cast<int64_t>(cap / region_size);
  const int shift = Log2Pow2(region_size);
  const int workers = static_cast<int>(std::min<int64_t>(
      std::max(1, num_threads), std::max<int64_t>(num_regions, 1)));
  // Shared-pool lease: top-level builds reuse the process pool's workers
  // instead of spawning per build; builds issued from inside a pool task
  // (in-process shard workers) get a transient pool. The work split below
  // is a pure function of (hashes, cap, region_size, workers), never of
  // how many pool threads actually ran, so the table stays deterministic.
  PoolLease pool(workers);
  auto parallel_for = [&](int64_t n, const std::function<void(int64_t)>& fn) {
    if (workers > 1) {
      pool->ParallelFor(n, fn);
    } else {
      for (int64_t i = 0; i < n; ++i) fn(i);
    }
  };

  // Phase 1: stable partition of row ids by home region into one flat
  // array (regions see their rows in input order, which fixes entry
  // creation order and per-group row order). Parallel two-pass: contiguous
  // input chunks count into per-chunk histograms, a small serial prefix
  // turns them into write cursors, then the chunks scatter — input order
  // within a region is preserved because chunks are processed in input
  // order at disjoint, increasing offsets.
  std::vector<int64_t> rows_by_region(static_cast<size_t>(num_rows));
  std::vector<int64_t> region_row_start(static_cast<size_t>(num_regions) + 1,
                                        0);
  if (num_regions == 1) {
    std::iota(rows_by_region.begin(), rows_by_region.end(), int64_t{0});
    region_row_start[1] = num_rows;
  } else {
    const int64_t chunks = workers;
    const int64_t chunk_rows = (num_rows + chunks - 1) / chunks;
    std::vector<std::vector<int64_t>> chunk_counts(
        static_cast<size_t>(chunks),
        std::vector<int64_t>(static_cast<size_t>(num_regions), 0));
    parallel_for(chunks, [&](int64_t c) {
      const int64_t begin = c * chunk_rows;
      const int64_t end = std::min(num_rows, begin + chunk_rows);
      std::vector<int64_t>& counts = chunk_counts[static_cast<size_t>(c)];
      for (int64_t i = begin; i < end; ++i) {
        ++counts[(hashes[i] & mask) >> shift];
      }
    });
    std::vector<std::vector<int64_t>> cursors = chunk_counts;
    int64_t total = 0;
    for (int64_t r = 0; r < num_regions; ++r) {
      region_row_start[r] = total;
      for (int64_t c = 0; c < chunks; ++c) {
        const int64_t n = chunk_counts[c][r];
        cursors[c][r] = total;
        total += n;
      }
    }
    region_row_start[num_regions] = total;
    parallel_for(chunks, [&](int64_t c) {
      const int64_t begin = c * chunk_rows;
      const int64_t end = std::min(num_rows, begin + chunk_rows);
      std::vector<int64_t>& cursor = cursors[static_cast<size_t>(c)];
      for (int64_t i = begin; i < end; ++i) {
        rows_by_region[cursor[(hashes[i] & mask) >> shift]++] = i;
      }
    });
  }

  // Phase 2: independent per-region open addressing. Regions own disjoint
  // directory ranges and disjoint spans of row_ids_, so workers write the
  // shared arrays without synchronization. Row groups land directly in
  // their final (region-major) row_ids_ position.
  std::vector<RegionState> regions(static_cast<size_t>(num_regions));
  parallel_for(num_regions, [&](int64_t r) {
    RegionState& st = regions[static_cast<size_t>(r)];
    const int64_t row_begin = region_row_start[r];
    const int64_t row_end = region_row_start[r + 1];
    const uint64_t region_base = static_cast<uint64_t>(r) * region_size;
    const uint64_t rmask = region_size - 1;
    st.entry_of.resize(static_cast<size_t>(row_end - row_begin));
    for (int64_t k = row_begin; k < row_end; ++k) {
      const int64_t i = rows_by_region[k];
      const uint64_t h = hashes[i];
      uint64_t pos = h & rmask;
      uint64_t probes = 0;
      while (true) {
        if (++probes > region_size) {
          st.overflow = true;
          return;
        }
        Slot& slot = slots_[region_base + pos];
        int64_t e = slot.entry;
        if (e == kEmptySlot) {
          e = static_cast<int64_t>(st.first_row.size());
          st.first_row.push_back(i);
          st.count.push_back(0);
          slot.hash = h;
          slot.entry = e;  // region-local; rebased in phase 3
        } else if (slot.hash != h) {
          pos = (pos + 1) & rmask;
          continue;
        } else if (eq != nullptr && !eq(st.first_row[e], i)) {
          // Same hash as an earlier row with a differing key: a true
          // 64-bit collision — refuse to build a merged candidate list.
          st.collision_first = st.first_row[e];
          st.collision_second = i;
          return;
        }
        st.entry_of[k - row_begin] = e;
        ++st.count[e];
        break;
      }
    }
    // Scatter the region's rows into row_ids_ grouped by local entry,
    // preserving input order within each group.
    st.group_begin.resize(st.count.size());
    int64_t off = 0;
    for (size_t e = 0; e < st.count.size(); ++e) {
      st.group_begin[e] = off;
      off += st.count[e];
    }
    std::vector<int64_t> cursor = st.group_begin;
    for (int64_t k = row_begin; k < row_end; ++k) {
      row_ids_[row_begin + cursor[st.entry_of[k - row_begin]]++] =
          rows_by_region[k];
    }
  });

  bool overflow = false;
  for (const RegionState& st : regions) {
    if (st.collision_first >= 0) {
      return Status::Internal(
          "join build key hash collision between rows " +
          std::to_string(st.collision_first) + " and " +
          std::to_string(st.collision_second));
    }
    overflow = overflow || st.overflow;
  }
  if (overflow) return false;

  // Phase 3: region-major entry numbering — entry ids are a per-region
  // base plus the region-local first-occurrence index, so "merging"
  // regions is offset arithmetic: no rehash, no re-sort, no row copies.
  std::vector<int64_t> entry_base(static_cast<size_t>(num_regions) + 1, 0);
  for (int64_t r = 0; r < num_regions; ++r) {
    entry_base[r + 1] =
        entry_base[r] + static_cast<int64_t>(regions[r].first_row.size());
  }
  entries_.resize(static_cast<size_t>(entry_base[num_regions]));

  // Phase 4: per region, publish the entry offset pairs and rebase the
  // slots' entry ids to the global numbering.
  parallel_for(num_regions, [&](int64_t r) {
    const RegionState& st = regions[static_cast<size_t>(r)];
    const int64_t base = entry_base[r];
    const int64_t row_begin = region_row_start[r];
    for (size_t e = 0; e < st.count.size(); ++e) {
      const int64_t begin = row_begin + st.group_begin[e];
      entries_[static_cast<size_t>(base) + e] = {begin, begin + st.count[e]};
    }
    const uint64_t region_base = static_cast<uint64_t>(r) * region_size;
    for (uint64_t s = 0; s < region_size; ++s) {
      Slot& slot = slots_[region_base + s];
      if (slot.entry != kEmptySlot) slot.entry += base;
    }
  });
  return true;
}

Status JoinHashTable::BuildFrom(const ColumnData& key, int64_t num_rows,
                                int num_threads) {
  const std::vector<uint64_t> hashes = ColumnKeyHashes(key, num_rows);
  return Build(
      hashes.data(), num_rows,
      [&key](int64_t i, int64_t j) {
        return JoinBuildKeysCompatible(key, i, j);
      },
      num_threads);
}

void JoinHashTable::ProbeBatch(const uint64_t* hashes, int64_t num_rows,
                               std::vector<int64_t>* probe_idx,
                               std::vector<int64_t>* build_idx) const {
  if (slots_.empty() || num_rows == 0) return;
  // Probes are memory-latency-bound. Two-stage software pipeline over the
  // dependent load chain slot -> entry: the home slot is prefetched
  // kSlotAhead iterations out; at kEntryAhead the now-cached home slot is
  // peeked and, on a hash match, its entry prefetched — so by the time
  // Find runs, both levels are usually resident.
  constexpr int64_t kSlotAhead = 24;
  constexpr int64_t kEntryAhead = 8;
  const uint64_t mask = slots_.size() - 1;
  probe_idx->reserve(probe_idx->size() + static_cast<size_t>(num_rows));
  build_idx->reserve(build_idx->size() + static_cast<size_t>(num_rows));
  for (int64_t j = 0; j < num_rows; ++j) {
    if (j + kSlotAhead < num_rows) {
      __builtin_prefetch(&slots_[hashes[j + kSlotAhead] & mask]);
    }
    if (j + kEntryAhead < num_rows) {
      const uint64_t h2 = hashes[j + kEntryAhead];
      const Slot& peek = slots_[h2 & mask];
      if (peek.entry != kEmptySlot && peek.hash == h2) {
        __builtin_prefetch(&entries_[peek.entry]);
      }
    }
    const Range r = Find(hashes[j]);
    for (const int64_t* p = r.begin; p != r.end; ++p) {
      probe_idx->push_back(j);
      build_idx->push_back(*p);
    }
  }
}

uint64_t JoinHashTable::StateDigest() const {
  uint64_t h = kFnv1aOffset;
  h = HashBytes(h, &region_mask_, sizeof(region_mask_));
  h = HashBytes(h, slots_.data(), slots_.size() * sizeof(Slot));
  h = HashBytes(h, entries_.data(), entries_.size() * sizeof(Entry));
  h = HashBytes(h, row_ids_.data(), row_ids_.size() * sizeof(int64_t));
  return h;
}

std::vector<uint64_t> ColumnKeyHashes(const ColumnData& col,
                                      int64_t num_rows) {
  std::vector<uint64_t> hashes(static_cast<size_t>(num_rows));
  KeyHashRange(col, DictKeyHashes(col), 0, num_rows, hashes.data());
  return hashes;
}

void KeyHashRange(const ColumnData& col,
                  const std::vector<uint64_t>& dict_hashes, int64_t begin,
                  int64_t len, uint64_t* out) {
  switch (col.type) {
    case ValueType::kInt64:
      simd::HashI64Keys(col.i64.data() + begin, len, out);
      return;
    case ValueType::kFloat64:
      // Stays scalar: HashFloat64Key branches on Float64AsExactInt64 and
      // f64 keys are rare join keys.
      for (int64_t i = 0; i < len; ++i) {
        out[i] = HashFloat64Key(col.f64[begin + i]);
      }
      return;
    case ValueType::kString:
      simd::HashDictCodes(dict_hashes.data(), col.codes.data() + begin, len,
                          out);
      return;
  }
  GUS_CHECK(false && "unhandled ValueType");
}

void KeyHashRows(const ColumnData& col,
                 const std::vector<uint64_t>& dict_hashes, const int64_t* rows,
                 int64_t len, uint64_t* out) {
  switch (col.type) {
    case ValueType::kInt64:
      simd::HashI64KeysGather(col.i64.data(), rows, len, out);
      return;
    case ValueType::kFloat64:
      for (int64_t i = 0; i < len; ++i) {
        out[i] = HashFloat64Key(col.f64[rows[i]]);
      }
      return;
    case ValueType::kString:
      simd::HashDictCodesGather(dict_hashes.data(), col.codes.data(), rows,
                                len, out);
      return;
  }
  GUS_CHECK(false && "unhandled ValueType");
}

int64_t FilterEqualKeyPairs(const ColumnData& probe_key,
                            const ColumnData& build_key,
                            std::vector<int64_t>* probe_rows,
                            std::vector<int64_t>* build_rows, int64_t begin) {
  GUS_DCHECK(probe_rows->size() == build_rows->size());
  // Same-type fast paths run through the dispatched compaction kernels
  // (in-place, order-preserving, identical survivors in every tier); the
  // lambda paths below handle the rare shapes.
  const auto n = static_cast<int64_t>(probe_rows->size());
  const auto shrink = [&](int64_t w) {
    probe_rows->resize(static_cast<size_t>(w));
    build_rows->resize(static_cast<size_t>(w));
    return w;
  };
  if (probe_key.type == build_key.type) {
    switch (probe_key.type) {
      case ValueType::kInt64:
        return shrink(simd::CompactEqualPairsI64(
            probe_key.i64.data(), build_key.i64.data(), probe_rows->data(),
            build_rows->data(), begin, n));
      case ValueType::kFloat64:
        return shrink(simd::CompactEqualPairsF64(
            probe_key.f64.data(), build_key.f64.data(), probe_rows->data(),
            build_rows->data(), begin, n));
      case ValueType::kString:
        if (probe_key.dict == build_key.dict) {
          return shrink(simd::CompactEqualPairsU32(
              probe_key.codes.data(), build_key.codes.data(),
              probe_rows->data(), build_rows->data(), begin, n));
        }
        return CompactPairs(probe_rows, build_rows, begin,
                            [&](int64_t i, int64_t j) {
                              return probe_key.StringAt(i) ==
                                     build_key.StringAt(j);
                            });
    }
    GUS_CHECK(false && "unhandled ValueType");
  }
  if (probe_key.type == ValueType::kString ||
      build_key.type == ValueType::kString) {
    // String never key-equals a numeric; drop everything.
    probe_rows->resize(static_cast<size_t>(begin));
    build_rows->resize(static_cast<size_t>(begin));
    return begin;
  }
  // Mixed numeric: exact promoted-value comparison (KeyEqualsAt semantics).
  return CompactPairs(probe_rows, build_rows, begin,
                      [&](int64_t i, int64_t j) {
                        return KeyEqualsAt(probe_key, i, build_key, j);
                      });
}

}  // namespace gus
