#include "est/ys.h"

#include <algorithm>
#include <bit>

#include "util/hash.h"
#include "util/logging.h"

namespace gus {

namespace {

constexpr uint32_t kEmpty = ~uint32_t{0};

/// The groups of one agreement mask: ids[i] is row i's group, numbered
/// 0, 1, ... in order of each group's first row. ids == nullptr is the
/// identity (row i alone in group i).
struct Grouping {
  const uint32_t* ids = nullptr;
  uint32_t groups = 0;
};

/// Groups a view's rows by exact projected lineage, with one scratch for
/// every mask it is asked about.
class LineageGrouper {
 public:
  explicit LineageGrouper(const SampleView& view)
      : view_(view),
        rows_(view.num_rows()),
        arity_(view.schema.arity()),
        dim_ids_(arity_),
        dims_(arity_),
        dim_done_(arity_, false),
        level_ids_(std::max(arity_ - 1, 0)),
        keys_(static_cast<size_t>(rows_)) {
    // Group ids are 32-bit and kEmpty marks a free slot.
    GUS_CHECK(rows_ < int64_t{kEmpty});
  }

  /// The grouping of one mask.
  Grouping Group(SubsetMask mask) {
    if (mask == 0) return All();
    Grouping g;
    int level = -1;
    for (int t = 0; t < arity_; ++t) {
      if (!(mask & Bit(t))) continue;
      g = level < 0 ? Dim(t) : Combine(g, Dim(t), &level_ids_[level]);
      ++level;
    }
    return g;
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

 private:
  static SubsetMask Bit(int d) { return SubsetMask{1} << d; }

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

  /// Mask 0: every row in one group.
  Grouping All() {
    if (rows_ <= 1) return {nullptr, static_cast<uint32_t>(rows_)};
    all_ids_.assign(static_cast<size_t>(rows_), 0);
    return {all_ids_.data(), 1};
  }

  /// The grouping of dimension d alone, densified once per call.
  Grouping Dim(int d) {
    if (!dim_done_[d]) {
      const uint64_t* col = view_.lineage[d].data();
      dims_[d] = Densify(static_cast<uint64_t>(rows_),
                         [col](int64_t i) { return col[i]; }, &dim_ids_[d]);
      dim_done_[d] = true;
    }
    return dims_[d];
  }

  /// Prefix and top dense ids are below 2^32, so
  /// prefix * groups(top) + top is an exact 64-bit key for the pair.
  Grouping Combine(Grouping prefix, Grouping top, std::vector<uint32_t>* out) {
    // Singleton groups stay singletons under any refinement.
    if (prefix.ids == nullptr || top.ids == nullptr) {
      return {nullptr, static_cast<uint32_t>(rows_)};
    }
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
    uint32_t* ids = out->data();
    uint32_t* slots = slots_.data();
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
    if (groups == rows_) return {nullptr, groups};
    return {ids, groups};
  }

  const SampleView& view_;
  const int64_t rows_;
  const int arity_;
  std::vector<uint32_t> all_ids_;
  std::vector<std::vector<uint32_t>> dim_ids_;
  std::vector<Grouping> dims_;
  std::vector<bool> dim_done_;
  std::vector<std::vector<uint32_t>> level_ids_;  // masks of popcount k >= 2
                                                  // use level k - 2
  std::vector<uint32_t> slots_;  // group id per slot, or kEmpty
  std::vector<uint64_t> keys_;   // key per group id
};

/// Per-group sums of v, each in row order, indexed by group id.
const double* GroupSums(const Grouping& g, const std::vector<double>& v,
                        std::vector<double>* sums) {
  // A singleton's sum 0.0 + v[i] differs from v[i] only in the sign of a
  // zero, which no product folded into y can show.
  if (g.ids == nullptr) return v.data();
  sums->assign(g.groups, 0.0);
  double* s = sums->data();
  for (size_t i = 0; i < v.size(); ++i) s[g.ids[i]] += v[i];
  return s;
}

/// sum over groups of a[k] * b[k], in group order.
double FoldProducts(const double* a, const double* b, uint32_t groups) {
  double y = 0.0;
  for (uint32_t k = 0; k < groups; ++k) y += a[k] * b[k];
  return y;
}

Status CheckAligned(const SampleView& view, const std::vector<double>& g) {
  if (static_cast<int64_t>(g.size()) != view.num_rows()) {
    return Status::InvalidArgument("g must align with the sample view");
  }
  return Status::OK();
}

}  // namespace

double ComputeYS(const SampleView& view, SubsetMask mask) {
  // Even the full mask groups by lineage: block-sampled relations share a
  // lineage id across all rows of a block, so agreement on the entire
  // lineage schema does not imply row identity.
  LineageGrouper grouper(view);
  const Grouping g = grouper.Group(mask);
  std::vector<double> sums;
  const double* s = GroupSums(g, view.f, &sums);
  return FoldProducts(s, s, g.groups);
}

Result<double> ComputeYSBilinear(const SampleView& view,
                                 const std::vector<double>& g,
                                 SubsetMask mask) {
  GUS_RETURN_NOT_OK(CheckAligned(view, g));
  LineageGrouper grouper(view);
  const Grouping grouping = grouper.Group(mask);
  std::vector<double> sums_f, sums_g;
  return FoldProducts(GroupSums(grouping, view.f, &sums_f),
                      GroupSums(grouping, g, &sums_g), grouping.groups);
}

std::vector<double> ComputeAllYS(const SampleView& view) {
  std::vector<double> ys(view.schema.num_subsets());
  LineageGrouper grouper(view);
  std::vector<double> sums;
  grouper.ForEachMask([&](SubsetMask m, const Grouping& g) {
    const double* s = GroupSums(g, view.f, &sums);
    ys[m] = FoldProducts(s, s, g.groups);
  });
  return ys;
}

Result<std::vector<double>> ComputeAllYSBilinear(
    const SampleView& view, const std::vector<double>& g) {
  GUS_RETURN_NOT_OK(CheckAligned(view, g));
  std::vector<double> ys(view.schema.num_subsets());
  LineageGrouper grouper(view);
  std::vector<double> sums_f, sums_g;
  grouper.ForEachMask([&](SubsetMask m, const Grouping& grouping) {
    ys[m] = FoldProducts(GroupSums(grouping, view.f, &sums_f),
                         GroupSums(grouping, g, &sums_g), grouping.groups);
  });
  return ys;
}

Result<YsGram> ComputeAllYSGram(const SampleView& view,
                                const std::vector<double>& g) {
  GUS_RETURN_NOT_OK(CheckAligned(view, g));
  const size_t num_subsets = view.schema.num_subsets();
  YsGram gram{std::vector<double>(num_subsets),
              std::vector<double>(num_subsets),
              std::vector<double>(num_subsets)};
  LineageGrouper grouper(view);
  std::vector<double> sums_f, sums_g;
  grouper.ForEachMask([&](SubsetMask m, const Grouping& grouping) {
    const double* sf = GroupSums(grouping, view.f, &sums_f);
    const double* sg = GroupSums(grouping, g, &sums_g);
    gram.ff[m] = FoldProducts(sf, sf, grouping.groups);
    gram.fg[m] = FoldProducts(sf, sg, grouping.groups);
    gram.gg[m] = FoldProducts(sg, sg, grouping.groups);
  });
  return gram;
}

}  // namespace gus
