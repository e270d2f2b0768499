#include "est/ys.h"

#include <algorithm>
#include <bit>

#include "util/hash.h"
#include "util/logging.h"

namespace gus {

namespace {

constexpr uint32_t kEmpty = ~uint32_t{0};

/// The groups of one agreement mask: ids[i] is row i's group, numbered 0,
/// 1, ... in order of each group's first row. ids == nullptr needs no ids:
/// row i alone in group i (groups == rows), or every row in group 0
/// (groups == 1, mask 0).
struct Grouping {
  const uint32_t* ids = nullptr;
  uint32_t groups = 0;
};

/// Groups a slice of an input's rows by exact projected lineage, with one
/// scratch for every mask and every slice.
class LineageGrouper {
 public:
  explicit LineageGrouper(const YsInput& in)
      : in_(in),
        arity_(static_cast<int>(in.lineage.size())),
        dims_(arity_),
        dim_ids_(arity_),
        dim_done_(arity_, false),
        level_ids_(std::max(arity_ - 1, 0)),
        keys_(static_cast<size_t>(in.rows)) {
    // Group ids are 32-bit and kEmpty marks a free slot.
    GUS_CHECK(in.rows < int64_t{kEmpty});
  }

  /// Reads input rows [begin, end) from here on.
  void Reset(int64_t begin, int64_t end) {
    GUS_CHECK(0 <= begin && begin <= end && end <= in_.rows);
    rows_ = end - begin;
    sel_ = in_.sel == nullptr ? nullptr : in_.sel + begin;
    base_ = in_.sel == nullptr ? begin : 0;
    std::fill(dim_done_.begin(), dim_done_.end(), false);
  }

  /// Calls visit(mask, grouping) once for each of the 2^n masks. A mask
  /// is grouped from its prefix (the mask without its highest dimension),
  /// walked depth first so that one buffer per lattice level suffices.
  template <typename Visit>
  void ForEachMask(Visit&& visit) {
    visit(SubsetMask{0}, All());
    for (int t = 0; t < arity_; ++t) {
      const Grouping g = Dim(t);
      visit(Bit(t), g);
      Extend(Bit(t), t, g, 0, visit);
    }
  }

  /// Per-group sums of column v (null: the constant 1), each in row order,
  /// indexed by group id.
  const double* Sums(const Grouping& g, const double* v,
                     std::vector<double>* sums) const {
    if (v != nullptr) v += base_;
    // A singleton's sum 0.0 + v[i] differs from v[i] only in the sign of a
    // zero, which no product folded into y can show.
    if (g.groups == rows_ && v != nullptr && sel_ == nullptr) return v;
    sums->assign(g.groups, 0.0);
    double* s = sums->data();
    const int64_t* sel = sel_;
    if (v == nullptr) {
      AddByGroup(g, [](int64_t) { return 1.0; }, s);
    } else if (sel == nullptr) {
      AddByGroup(g, [v](int64_t i) { return v[i]; }, s);
    } else {
      AddByGroup(g, [v, sel](int64_t i) { return v[sel[i]]; }, s);
    }
    return s;
  }

 private:
  static SubsetMask Bit(int d) { return SubsetMask{1} << d; }

  template <typename ValueAt>
  void AddByGroup(const Grouping& g, ValueAt value_at, double* sums) const {
    if (g.groups == 1) {
      // One group: sum in a register, not through a store and reload of
      // one slot per row.
      double t = 0.0;
      for (int64_t i = 0; i < rows_; ++i) t += value_at(i);
      sums[0] = t;
    } else if (g.ids == nullptr) {
      for (int64_t i = 0; i < rows_; ++i) sums[i] += value_at(i);
    } else {
      for (int64_t i = 0; i < rows_; ++i) sums[g.ids[i]] += value_at(i);
    }
  }

  template <typename Visit>
  void Extend(SubsetMask prefix, int top, Grouping g, int level,
              Visit& visit) {
    for (int t = top + 1; t < arity_; ++t) {
      const SubsetMask m = prefix | Bit(t);
      const Grouping child = Combine(g, Dim(t), &level_ids_[level]);
      visit(m, child);
      Extend(m, t, child, level + 1, visit);
    }
  }

  Grouping Identity() const { return {nullptr, static_cast<uint32_t>(rows_)}; }

  /// Mask 0: every row in group 0.
  Grouping All() const { return {nullptr, rows_ == 0 ? 0u : 1u}; }

  /// The grouping of dimension d alone, densified once per slice.
  Grouping Dim(int d) {
    if (!dim_done_[d]) {
      const uint64_t* col = in_.lineage[d] + base_;
      const int64_t* sel = sel_;
      dims_[d] =
          sel == nullptr
              ? Densify(rows_, [col](int64_t i) { return col[i]; },
                        &dim_ids_[d])
              : Densify(rows_, [col, sel](int64_t i) { return col[sel[i]]; },
                        &dim_ids_[d]);
      dim_done_[d] = true;
    }
    return dims_[d];
  }

  /// Prefix and top dense ids are below 2^32, so
  /// prefix * groups(top) + top is an exact 64-bit key for the pair.
  Grouping Combine(Grouping prefix, Grouping top, std::vector<uint32_t>* out) {
    // Singleton groups stay singletons under any refinement.
    if (prefix.ids == nullptr || top.ids == nullptr) return Identity();
    const uint32_t* p = prefix.ids;
    const uint32_t* q = top.ids;
    const uint64_t width = top.groups;
    return Densify(
        std::min<uint64_t>(static_cast<uint64_t>(rows_),
                           uint64_t{prefix.groups} * width),
        [p, q, width](int64_t i) { return p[i] * width + q[i]; }, out);
  }

  /// Numbers the distinct values of key_at(i) in order of first row, by
  /// linear probing that compares the keys themselves.
  template <typename KeyAt>
  Grouping Densify(uint64_t max_groups, KeyAt key_at,
                   std::vector<uint32_t>* out) {
    const uint64_t capacity =
        std::bit_ceil(std::max<uint64_t>(2 * max_groups, 16));
    const uint64_t slot_mask = capacity - 1;
    slots_.assign(capacity, kEmpty);
    out->resize(static_cast<size_t>(rows_));
    uint32_t* slots = slots_.data();
    uint32_t* ids = out->data();
    uint64_t* keys = keys_.data();
    uint32_t groups = 0;
    for (int64_t i = 0; i < rows_; ++i) {
      const uint64_t key = key_at(i);
      uint64_t s = Mix64(key) & slot_mask;
      uint32_t gid = slots[s];
      while (gid != kEmpty && keys[gid] != key) {
        s = (s + 1) & slot_mask;
        gid = slots[s];
      }
      if (gid == kEmpty) {
        gid = groups++;
        slots[s] = gid;
        keys[gid] = key;
      }
      ids[i] = gid;
    }
    // All distinct: first-occurrence numbering is the row index.
    if (groups == rows_) return Identity();
    return {ids, groups};
  }

  const YsInput& in_;
  const int arity_;
  int64_t rows_ = 0;
  const int64_t* sel_ = nullptr;  // the slice's selection, or null
  int64_t base_ = 0;              // the slice's first column row, unselected
  std::vector<Grouping> dims_;
  std::vector<std::vector<uint32_t>> dim_ids_;
  std::vector<bool> dim_done_;
  // Level k - 2 holds masks of popcount k >= 2.
  std::vector<std::vector<uint32_t>> level_ids_;
  std::vector<uint32_t> slots_;  // group id per slot, or kEmpty
  std::vector<uint64_t> keys_;   // key per group id
};

/// The groups' a[j] * b[j], folded in group order.
double Fold(const Grouping& g, const double* a, const double* b) {
  double y = 0.0;
  for (uint32_t j = 0; j < g.groups; ++j) y += a[j] * b[j];
  return y;
}

}  // namespace

YsInput YsInput::Of(const SampleView& view) {
  YsInput in;
  for (const auto& col : view.lineage) in.lineage.push_back(col.data());
  in.f = view.f.data();
  in.rows = view.num_rows();
  return in;
}

std::vector<double> ComputeAllYS(const YsInput& in) {
  return ComputeAllYSOfSlices(in, {&in.rows, 1});
}

std::vector<double> ComputeAllYSOfSlices(const YsInput& in,
                                         std::span<const int64_t> ends) {
  // Even the full mask groups by lineage: block-sampled relations share a
  // lineage id across all rows of a block, so agreement on the entire
  // lineage schema does not imply row identity.
  const size_t num_subsets = size_t{1} << in.lineage.size();
  std::vector<double> ys(ends.size() * num_subsets, 0.0);
  LineageGrouper grouper(in);
  std::vector<double> sums;
  int64_t begin = 0;
  for (size_t k = 0; k < ends.size(); ++k) {
    grouper.Reset(begin, ends[k]);
    double* table = ys.data() + k * num_subsets;
    grouper.ForEachMask([&](SubsetMask m, const Grouping& g) {
      const double* s = grouper.Sums(g, in.f, &sums);
      table[m] = Fold(g, s, s);
    });
    begin = ends[k];
  }
  return ys;
}

YsGram ComputeAllYSGram(const YsInput& in, const double* g) {
  const size_t num_subsets = size_t{1} << in.lineage.size();
  YsGram gram{std::vector<double>(num_subsets),
              std::vector<double>(num_subsets),
              std::vector<double>(num_subsets)};
  LineageGrouper grouper(in);
  grouper.Reset(0, in.rows);
  std::vector<double> sums_f, sums_g;
  grouper.ForEachMask([&](SubsetMask m, const Grouping& grouping) {
    const double* sf = grouper.Sums(grouping, in.f, &sums_f);
    const double* sg = grouper.Sums(grouping, g, &sums_g);
    gram.ff[m] = Fold(grouping, sf, sf);
    gram.fg[m] = Fold(grouping, sf, sg);
    gram.gg[m] = Fold(grouping, sg, sg);
  });
  return gram;
}

}  // namespace gus
