#include "plan/parallel_executor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <limits>
#include <map>
#include <mutex>
#include <numeric>
#include <utility>
#include <vector>

#include "plan/exec_stats.h"
#include "rel/operators.h"
#include "sampling/samplers.h"
#include "store/pruner.h"
#include "store/segment_cache.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace gus {

namespace {

// ---- Pivot classification --------------------------------------------------

void MergeUnique(std::vector<std::string>* into,
                 const std::vector<std::string>& from) {
  for (const std::string& s : from) {
    if (std::find(into->begin(), into->end(), s) == into->end()) {
      into->push_back(s);
    }
  }
}

std::vector<std::string> IntersectOrdered(const std::vector<std::string>& a,
                                          const std::vector<std::string>& b) {
  std::vector<std::string> out;
  for (const std::string& s : a) {
    if (std::find(b.begin(), b.end(), s) != b.end()) out.push_back(s);
  }
  return out;
}

/// \brief The base relations that can pivot `plan`'s subtree — i.e. scans
/// whose path to this subtree's root crosses only partition-safe operators
/// (traversal order preserved; see the header for the eligibility matrix).
std::vector<std::string> PivotRelations(const PlanPtr& plan, ExecMode mode) {
  switch (plan->op()) {
    case PlanOp::kScan:
      return {plan->relation()};
    case PlanOp::kSelect:
      return PivotRelations(plan->child(), mode);
    case PlanOp::kSample:
      switch (plan->spec().method) {
        case SamplingMethod::kBernoulli:
        case SamplingMethod::kLineageBernoulli:
          // Per-row (resp. per-lineage) decisions: independent per-morsel
          // streams (resp. pure functions) reproduce the same design.
          return PivotRelations(plan->child(), mode);
        case SamplingMethod::kWithoutReplacement:
        case SamplingMethod::kWithReplacementDistinct:
          // Seed-decoupled fixed-size draws partition when the sampler sits
          // directly on the scan (the keep-set is then keyed by the scan's
          // global row index, which every morsel knows). In exact mode they
          // are no-ops and stay safe anywhere.
          if (mode == ExecMode::kExact) {
            return PivotRelations(plan->child(), mode);
          }
          if (plan->child()->op() == PlanOp::kScan) {
            return {plan->child()->relation()};
          }
          return {};
        case SamplingMethod::kBlockBernoulli:
          // Per-block decisions and the lineage re-key are keyed by the
          // scan's global row index — adjacent to the scan only (both
          // modes: exact mode still re-keys lineage).
          if (plan->child()->op() == PlanOp::kScan) {
            return {plan->child()->relation()};
          }
          return {};
      }
      return {};
    case PlanOp::kJoin:
    case PlanOp::kProduct: {
      // Pivot on either side; the other side executes once and is shared.
      std::vector<std::string> cands = PivotRelations(plan->left(), mode);
      MergeUnique(&cands, PivotRelations(plan->right(), mode));
      return cands;
    }
    case PlanOp::kUnion:
      // Both branches sample the same expression (Prop. 7): partition them
      // over a common pivot scan and dedup per slice — lineage is the
      // partitioning key, so slice-local dedup equals global dedup.
      return IntersectOrdered(PivotRelations(plan->left(), mode),
                              PivotRelations(plan->right(), mode));
  }
  return {};
}

bool ContainsRelation(const std::vector<std::string>& cands,
                      const std::string& name) {
  return std::find(cands.begin(), cands.end(), name) != cands.end();
}

/// LCM of the block sizes of block samplers sitting directly on scans of
/// `pivot` — morsels align to whole blocks so a block is never split
/// across execution units. Capped defensively (a cap only coarsens the
/// split; per-block decisions stay correct regardless).
int64_t BlockAlignFor(const PlanPtr& plan, const std::string& pivot) {
  constexpr int64_t kMaxAlign = int64_t{1} << 40;
  int64_t align = 1;
  std::function<void(const PlanPtr&)> walk = [&](const PlanPtr& node) {
    if (node->op() == PlanOp::kSample &&
        node->spec().method == SamplingMethod::kBlockBernoulli &&
        node->child()->op() == PlanOp::kScan &&
        node->child()->relation() == pivot && node->spec().block_size > 0) {
      const int64_t b = node->spec().block_size;
      const int64_t g = std::gcd(align, b);
      if (align / g <= kMaxAlign / b) align = align / g * b;
    }
    for (int c = 0; c < node->num_children(); ++c) {
      walk(c == 0 ? node->left() : node->right());
    }
  };
  walk(plan);
  return align;
}

/// Picks the candidate scanning the largest base relation (first in
/// traversal order on ties — deterministic).
Result<std::string> ChoosePivotRelation(const std::vector<std::string>& cands,
                                        ColumnarCatalog* catalog) {
  std::string best;
  int64_t best_rows = -1;
  for (const std::string& name : cands) {
    GUS_ASSIGN_OR_RETURN(const int64_t rows, catalog->RowCountOf(name));
    if (rows > best_rows) {
      best_rows = rows;
      best = name;
    }
  }
  return best;
}

// ---- The compiled per-morsel program ---------------------------------------

struct MorselProgramNode;
using ProgramPtr = std::unique_ptr<MorselProgramNode>;

/// One node of the per-morsel pipeline template — a mirror of the plan
/// restricted to the pivot path, with non-pivot subtrees collapsed into
/// shared state and fixed-size samplers resolved to global keep-sets.
struct MorselProgramNode {
  enum class Kind {
    kScanSlice,    // the pivot scan's morsel slice
    kKeepSlice,    // fixed-size sampler: global keep-set ∩ slice
    kBlockSample,  // sampled-mode block sampling over the slice
    kBlockRekey,   // exact-mode block lineage re-key over the slice
    kSelect,
    kStreamSample,  // Bernoulli / lineage-seeded Bernoulli
    kProbe,         // join or product against the shared non-pivot side
    kUnion,         // both branches over the same slice, slice-local dedup
  };

  Kind kind = Kind::kScanSlice;
  const PlanNode* node = nullptr;  // kSelect / kStreamSample
  bool stream_ok = false;          // kStreamSample: Bernoulli may fuse
  std::shared_ptr<const std::vector<int64_t>> keep;  // kKeepSlice (sorted)
  uint64_t sampler_seed = 0;                         // kBlockSample
  double p = 0.0;                                    // kBlockSample
  int64_t block_size = 0;  // kBlockSample / kBlockRekey
  std::shared_ptr<const SharedSide> shared;  // kProbe
  ProgramPtr child;                          // input (left for kUnion)
  ProgramPtr right;                          // kUnion only
  LayoutPtr layout;                          // this node's output layout
};

/// Program mirror of FragmentHasStreamingRngSampler: is this subtree,
/// within the current morsel-pipeline fragment, a streaming Rng consumer?
bool ProgramFragmentHasStreamingRng(const MorselProgramNode& n) {
  switch (n.kind) {
    case MorselProgramNode::Kind::kScanSlice:
    case MorselProgramNode::Kind::kKeepSlice:
    case MorselProgramNode::Kind::kBlockSample:
    case MorselProgramNode::Kind::kBlockRekey:
      // Seed-decoupled or Rng-free: transparent to the fragment.
      return false;
    case MorselProgramNode::Kind::kSelect:
    case MorselProgramNode::Kind::kProbe:
      // The pivot side streams through probes, so the fragment continues.
      return ProgramFragmentHasStreamingRng(*n.child);
    case MorselProgramNode::Kind::kStreamSample:
      if (n.node->spec().method == SamplingMethod::kLineageBernoulli) {
        return ProgramFragmentHasStreamingRng(*n.child);
      }
      // Plain Bernoulli streams iff nothing below already does; otherwise
      // it runs as a breaker, which resets the fragment above it.
      return !ProgramFragmentHasStreamingRng(*n.child);
    case MorselProgramNode::Kind::kUnion:
      // Drains both branches before emitting: fragment resets.
      return false;
  }
  return false;
}

void AssignStreamOk(MorselProgramNode* n) {
  if (n->child != nullptr) AssignStreamOk(n->child.get());
  if (n->right != nullptr) AssignStreamOk(n->right.get());
  if (n->kind == MorselProgramNode::Kind::kStreamSample &&
      n->node->spec().method == SamplingMethod::kBernoulli) {
    n->stream_ok = !ProgramFragmentHasStreamingRng(*n->child);
  }
}

uint64_t FingerprintKeepSet(uint64_t seed, const std::vector<int64_t>& keep) {
  uint64_t h = Mix64(seed ^ 0x534D504Cull);  // "SMPL"
  h = HashCombine(h, static_cast<uint64_t>(keep.size()));
  for (const int64_t r : keep) h = HashCombine(h, static_cast<uint64_t>(r));
  return h;
}

uint64_t FingerprintBlockSampler(uint64_t seed, int64_t block_size, double p) {
  uint64_t p_bits = 0;
  __builtin_memcpy(&p_bits, &p, sizeof(p_bits));
  return HashCombine(HashCombine(Mix64(seed ^ 0x534D504Cull),
                                 static_cast<uint64_t>(block_size)),
                     p_bits);
}

// ---- Split geometry --------------------------------------------------------

/// Approximate bytes one pivot row occupies in the hot loop: 8 per numeric
/// column, 4 per dictionary-coded string column, 8 per lineage dimension.
int64_t RowBytes(const BatchLayout& layout) {
  int64_t bytes = int64_t{8} * layout.lineage_arity();
  for (int c = 0; c < layout.schema.num_columns(); ++c) {
    bytes += layout.schema.column(c).type == ValueType::kString ? 4 : 8;
  }
  return bytes;
}

/// \brief Coarse per-row operator cost of the plan: 1 + the number of
/// join / product / union nodes.
///
/// Each such operator roughly doubles a morsel's working set (probe output,
/// product emit, second branch), so the auto sizer shrinks morsels
/// proportionally. Deterministic in the plan shape alone.
int PlanCostWeight(const PlanPtr& plan) {
  int weight = 1;
  std::function<void(const PlanPtr&)> walk = [&](const PlanPtr& node) {
    if (node->op() == PlanOp::kJoin || node->op() == PlanOp::kProduct ||
        node->op() == PlanOp::kUnion) {
      ++weight;
    }
    for (int c = 0; c < node->num_children(); ++c) {
      walk(c == 0 ? node->left() : node->right());
    }
  };
  walk(plan);
  return weight;
}

/// \brief Per-morsel working-set budget for auto sizing (phase 2).
///
/// Sized from the BENCH_E3_E4.json trajectory: the E4 kernel sweeps fall
/// off their fast tier once the touched span leaves the low megabytes
/// (private L2 territory), while the E3d batch-size sweep is flat — so the
/// morsel, not the batch, is the right cache-residency lever. 2 MiB keeps
/// a morsel's pivot slice plus one operator expansion inside a typical
/// private L2/L3 slice without creating so many morsels that claim/fold
/// overhead shows.
constexpr int64_t kAutoMorselBytesTarget = int64_t{2} << 20;

/// \brief Auto morsel sizing (ExecOptions::morsel_rows == 0), phase 2:
/// at least four morsels per worker for scheduling slack, shrunk so a
/// morsel's weighted working set (pivot row bytes x plan cost weight)
/// fits kAutoMorselBytesTarget, clamped to
/// [kMinAutoMorselRows, kMaxAutoMorselRows].
///
/// Deterministic in (pivot rows, pivot layout, plan shape, num_threads) —
/// but because it reads num_threads, auto-sized results are only
/// reproducible at a fixed thread count; callers needing
/// thread-count-invariant draws set morsel_rows explicitly (the knob
/// stays authoritative).
int64_t AutoMorselRows(int64_t pivot_rows, int64_t pivot_row_bytes,
                       int cost_weight, int num_threads) {
  const int64_t morsels_wanted = int64_t{4} * std::max(1, num_threads);
  const int64_t slack_rows = (pivot_rows + morsels_wanted - 1) / morsels_wanted;
  const int64_t weighted_bytes =
      std::max<int64_t>(1, pivot_row_bytes) * std::max(1, cost_weight);
  const int64_t cache_rows =
      std::max<int64_t>(1, kAutoMorselBytesTarget / weighted_bytes);
  return std::clamp(std::min(slack_rows, cache_rows), kMinAutoMorselRows,
                    kMaxAutoMorselRows);
}

// The (pivot rows/layout, plan, options, block alignment) -> split geometry
// formulas, shared by AnalyzeMorselSplit (shard planning) and
// PrepareMorselProgram (execution): the dist/ layer's correctness requires
// the planned and executed unit sequences to be the same, so there is
// exactly one implementation.

int64_t ResolveMorselRows(int64_t pivot_rows, int64_t pivot_row_bytes,
                          int cost_weight, const ExecOptions& options,
                          int64_t block_align) {
  int64_t rows = options.morsel_rows > 0
                     ? options.morsel_rows
                     : AutoMorselRows(pivot_rows, pivot_row_bytes, cost_weight,
                                      options.num_threads);
  if (block_align > 1) {
    // Blocks are indivisible morsel units: round the morsel up to whole
    // blocks so one block's rows always share an execution unit.
    rows = (rows + block_align - 1) / block_align * block_align;
  }
  return rows;
}

int64_t MorselCount(int64_t pivot_rows, int64_t morsel_rows) {
  return (pivot_rows + morsel_rows - 1) / morsel_rows;
}

/// \brief The pivot's resolved scan input plus the numbers the split
/// geometry reads from it.
///
/// Shared by AnalyzeMorselSplit and PrepareMorselProgram — the dist/
/// layer's correctness requires the planned and executed unit sequences
/// to coincide, so the geometry has exactly one implementation.
/// Segment-backed pivots additionally align morsels to whole segments (LCM
/// with the block alignment) so a prunable segment maps to whole execution
/// units and a skipped unit never faults its segments, and they size
/// morsels from mean on-disk row bytes — what a morsel actually faults in
/// — instead of the in-memory estimate.
struct PivotBacking {
  ScanInput input;
  int64_t row_bytes = 0;
  int64_t align = 1;
};

Result<PivotBacking> ResolvePivotBacking(const PlanPtr& plan,
                                         const std::string& pivot,
                                         ColumnarCatalog* catalog) {
  PivotBacking b;
  b.align = BlockAlignFor(plan, pivot);
  GUS_ASSIGN_OR_RETURN(b.input, ResolveScanInput(catalog, pivot));
  const StoredRelation* store = b.input.store();
  if (store == nullptr) {
    b.row_bytes = RowBytes(*b.input.layout());
    return b;
  }
  b.row_bytes = store->OnDiskRowBytes();
  constexpr int64_t kMaxAlign = int64_t{1} << 40;
  const int64_t seg = store->segment_rows();
  const int64_t g = std::gcd(b.align, seg);
  if (b.align / g <= kMaxAlign / seg) b.align = b.align / g * seg;
  return b;
}

// ---- Program compilation ---------------------------------------------------

/// \brief The prepared morsel execution: shared state built once, then one
/// pipeline instantiation per morsel.
struct MorselProgram {
  ScanInput pivot;
  std::string pivot_name;
  ProgramPtr root;
  LayoutPtr out_layout;
  int64_t morsel_rows = kDefaultMorselRows;
  ExecMode mode = ExecMode::kSampled;
  std::vector<ResolvedPivotSampler> samplers;
  /// Per-unit skip mask from the SegmentPruner (empty = nothing skipped):
  /// unit m is provably empty, so run_morsel folds its sink untouched.
  std::vector<char> unit_skip;

  int64_t num_morsels() const {
    return MorselCount(pivot.num_rows(), morsel_rows);
  }

  Result<std::unique_ptr<BatchSource>> MakeMorselPipeline(int64_t m,
                                                          Rng* rng) const;
};

/// \brief Compiles the plan subtree containing the pivot into a program
/// node, consuming `rng` in exactly the row engine's execution order:
/// children before parents, left subtrees fully before right ones,
/// non-pivot subtrees materialized at their plan position, and
/// seed-decoupled samplers drawing their one seed where the row engine's
/// sampler would run.
///
/// That ordering is what makes plans free of plain-Bernoulli samplers
/// reproduce the serial engines bit for bit: the whole Rng consumption
/// sequence coincides.
Result<ProgramPtr> CompileNode(const PlanPtr& plan, ColumnarCatalog* catalog,
                               Rng* rng, ExecMode mode,
                               const ExecOptions& options,
                               MorselProgram* prog) {
  switch (plan->op()) {
    case PlanOp::kScan: {
      if (plan->relation() != prog->pivot_name) {
        return Status::Internal(
            "morsel program compiler reached a non-pivot scan");
      }
      auto node = std::make_unique<MorselProgramNode>();
      node->kind = MorselProgramNode::Kind::kScanSlice;
      node->layout = prog->pivot.layout();
      return node;
    }
    case PlanOp::kSelect: {
      GUS_ASSIGN_OR_RETURN(
          ProgramPtr child,
          CompileNode(plan->child(), catalog, rng, mode, options, prog));
      // Static resolution errors surface here, not on a worker.
      GUS_RETURN_NOT_OK(
          plan->predicate()->Bind(child->layout->schema).status());
      auto node = std::make_unique<MorselProgramNode>();
      node->kind = MorselProgramNode::Kind::kSelect;
      node->node = plan.get();
      node->layout = child->layout;
      node->child = std::move(child);
      return node;
    }
    case PlanOp::kSample: {
      const SamplingSpec& spec = plan->spec();
      if (mode == ExecMode::kExact &&
          spec.method != SamplingMethod::kBlockBernoulli) {
        // Samplers are no-ops in exact mode.
        return CompileNode(plan->child(), catalog, rng, mode, options, prog);
      }
      GUS_ASSIGN_OR_RETURN(
          ProgramPtr child,
          CompileNode(plan->child(), catalog, rng, mode, options, prog));
      GUS_RETURN_NOT_OK(spec.Validate());
      auto node = std::make_unique<MorselProgramNode>();
      node->node = plan.get();
      node->layout = child->layout;
      switch (spec.method) {
        case SamplingMethod::kBernoulli:
          node->kind = MorselProgramNode::Kind::kStreamSample;
          break;
        case SamplingMethod::kLineageBernoulli: {
          const auto& ls = child->layout->lineage_schema;
          if (std::find(ls.begin(), ls.end(), spec.lineage_relation) ==
              ls.end()) {
            return Status::KeyError("relation '" + spec.lineage_relation +
                                    "' not in the input's lineage schema");
          }
          node->kind = MorselProgramNode::Kind::kStreamSample;
          break;
        }
        case SamplingMethod::kWithoutReplacement:
        case SamplingMethod::kWithReplacementDistinct: {
          // Adjacent to the pivot scan (classification guarantees it):
          // resolve the exact global keep-set now, from one seed draw —
          // the same draw DecideSampling makes in the serial engines.
          const int64_t population = prog->pivot.num_rows();
          GUS_ASSIGN_OR_RETURN(
              const uint64_t seed,
              DrawSamplerSeed(spec, population,
                              child->layout->lineage_arity(), rng));
          GUS_ASSIGN_OR_RETURN(
              std::vector<int64_t> keep,
              FixedSizeKeepIndices(spec, population, seed,
                                   options.num_threads));
          ResolvedPivotSampler resolved;
          resolved.method = static_cast<uint8_t>(spec.method);
          resolved.seed = seed;
          resolved.fingerprint = FingerprintKeepSet(seed, keep);
          prog->samplers.push_back(resolved);
          node->kind = MorselProgramNode::Kind::kKeepSlice;
          node->keep = std::make_shared<const std::vector<int64_t>>(
              std::move(keep));
          break;
        }
        case SamplingMethod::kBlockBernoulli: {
          node->block_size = spec.block_size;
          if (mode == ExecMode::kExact) {
            if (child->layout->lineage_arity() != 1) {
              return Status::InvalidArgument(
                  "block lineage applies to base (single-lineage) relations");
            }
            node->kind = MorselProgramNode::Kind::kBlockRekey;
            break;
          }
          GUS_ASSIGN_OR_RETURN(
              const uint64_t seed,
              DrawSamplerSeed(spec, prog->pivot.num_rows(),
                              child->layout->lineage_arity(), rng));
          ResolvedPivotSampler resolved;
          resolved.method = static_cast<uint8_t>(spec.method);
          resolved.seed = seed;
          resolved.fingerprint =
              FingerprintBlockSampler(seed, spec.block_size, spec.p);
          prog->samplers.push_back(resolved);
          node->kind = MorselProgramNode::Kind::kBlockSample;
          node->sampler_seed = seed;
          node->p = spec.p;
          break;
        }
      }
      node->child = std::move(child);
      return node;
    }
    case PlanOp::kJoin:
    case PlanOp::kProduct: {
      const bool pivot_left =
          ContainsRelation(PivotRelations(plan->left(), mode),
                           prog->pivot_name);
      if (!pivot_left && !ContainsRelation(PivotRelations(plan->right(), mode),
                                           prog->pivot_name)) {
        return Status::Internal(
            "morsel program compiler lost track of the pivot");
      }
      // Row-engine execution order: the left subtree runs (and consumes
      // the Rng) fully before the right one.
      ProgramPtr child;
      ColumnarRelation other_mat;
      if (pivot_left) {
        GUS_ASSIGN_OR_RETURN(
            child, CompileNode(plan->left(), catalog, rng, mode, options,
                               prog));
        GUS_ASSIGN_OR_RETURN(other_mat,
                             ExecutePlanColumnar(plan->right(), catalog, rng,
                                                 mode));
      } else {
        GUS_ASSIGN_OR_RETURN(other_mat,
                             ExecutePlanColumnar(plan->left(), catalog, rng,
                                                 mode));
        GUS_ASSIGN_OR_RETURN(
            child, CompileNode(plan->right(), catalog, rng, mode, options,
                               prog));
      }
      GUS_ASSIGN_OR_RETURN(
          JoinStep step,
          pivot_left
              ? ResolveJoinStep(*plan, *child->layout, other_mat.layout())
              : ResolveJoinStep(*plan, other_mat.layout(), *child->layout));
      auto node = std::make_unique<MorselProgramNode>();
      node->kind = MorselProgramNode::Kind::kProbe;
      // A join's partition-parallel build: per-worker region inserts
      // merged without rehashing, byte-identical at every thread count.
      GUS_ASSIGN_OR_RETURN(node->shared,
                           BuildSharedSide(std::move(step),
                                           std::move(other_mat), pivot_left,
                                           options.num_threads));
      node->layout = node->shared->step.out_layout;
      node->child = std::move(child);
      return node;
    }
    case PlanOp::kUnion: {
      GUS_ASSIGN_OR_RETURN(
          ProgramPtr left,
          CompileNode(plan->left(), catalog, rng, mode, options, prog));
      GUS_ASSIGN_OR_RETURN(
          ProgramPtr right,
          CompileNode(plan->right(), catalog, rng, mode, options, prog));
      if (mode == ExecMode::kSampled) {
        GUS_RETURN_NOT_OK(CheckUnionLayouts(*left->layout, *right->layout));
      }
      auto node = std::make_unique<MorselProgramNode>();
      node->kind = MorselProgramNode::Kind::kUnion;
      node->layout = left->layout;
      node->child = std::move(left);
      node->right = std::move(right);
      return node;
    }
  }
  return Status::Internal("unexpected morsel path step");
}

Result<std::unique_ptr<BatchSource>> InstantiateNode(
    const MorselProgramNode& n, const MorselProgram& prog, int64_t begin,
    int64_t len, Rng* rng) {
  switch (n.kind) {
    case MorselProgramNode::Kind::kScanSlice:
      return MakeScanSliceSource(prog.pivot, kDefaultBatchRows, begin, len);
    case MorselProgramNode::Kind::kKeepSlice: {
      // The kept rows inside this slice: keep is globally sorted, so the
      // slice's sub-range is found with two binary searches.
      const std::vector<int64_t>& keep = *n.keep;
      const int64_t lo =
          std::lower_bound(keep.begin(), keep.end(), begin) - keep.begin();
      const int64_t hi =
          std::lower_bound(keep.begin(), keep.end(), begin + len) -
          keep.begin();
      return MakeKeepSliceSource(prog.pivot, n.keep, lo, hi - lo,
                                 kDefaultBatchRows);
    }
    case MorselProgramNode::Kind::kBlockSample:
      return MakeBlockSampleSource(prog.pivot, begin, begin + len,
                                   n.sampler_seed, n.p, n.block_size,
                                   kDefaultBatchRows);
    case MorselProgramNode::Kind::kBlockRekey: {
      GUS_ASSIGN_OR_RETURN(std::unique_ptr<BatchSource> child,
                           InstantiateNode(*n.child, prog, begin, len, rng));
      return MakeBlockRekeySource(std::move(child), n.block_size, begin);
    }
    case MorselProgramNode::Kind::kSelect: {
      GUS_ASSIGN_OR_RETURN(std::unique_ptr<BatchSource> child,
                           InstantiateNode(*n.child, prog, begin, len, rng));
      return MakeSelectSource(std::move(child), n.node->predicate());
    }
    case MorselProgramNode::Kind::kStreamSample: {
      GUS_ASSIGN_OR_RETURN(std::unique_ptr<BatchSource> child,
                           InstantiateNode(*n.child, prog, begin, len, rng));
      return MakeSampleSource(std::move(child), n.node->spec(), rng,
                              kDefaultBatchRows, n.stream_ok);
    }
    case MorselProgramNode::Kind::kProbe: {
      GUS_ASSIGN_OR_RETURN(std::unique_ptr<BatchSource> child,
                           InstantiateNode(*n.child, prog, begin, len, rng));
      return MakeProbeSource(std::move(child), n.shared, kDefaultBatchRows);
    }
    case MorselProgramNode::Kind::kUnion: {
      // Both branches run over the same pivot slice; the left branch
      // instantiates (and, per morsel, drains) first, mirroring the row
      // engine's left-before-right execution.
      GUS_ASSIGN_OR_RETURN(std::unique_ptr<BatchSource> left,
                           InstantiateNode(*n.child, prog, begin, len, rng));
      GUS_ASSIGN_OR_RETURN(std::unique_ptr<BatchSource> right,
                           InstantiateNode(*n.right, prog, begin, len, rng));
      return MakeUnionSource(std::move(left), std::move(right),
                             kDefaultBatchRows, prog.mode);
    }
  }
  return Status::Internal("unexpected morsel program node");
}

Result<std::unique_ptr<BatchSource>> MorselProgram::MakeMorselPipeline(
    int64_t m, Rng* rng) const {
  const int64_t begin = m * morsel_rows;
  const int64_t len = std::min(morsel_rows, pivot.num_rows() - begin);
  return InstantiateNode(*root, *this, begin, len, rng);
}

// ---- Prune-plan extraction -------------------------------------------------

/// One alternative under construction, carrying extraction-only state:
/// the mapping from the node's output columns back to pivot columns, and
/// whether the pivot's lineage ids still equal global row ids (falsified
/// by a block re-key below).
struct AltBuild {
  PruneAlternative alt;
  std::vector<int> colmap;
  bool lineage_rowids = true;
};

/// \brief Distills the compiled pivot path into prune alternatives (see
/// store/pruner.h): walks the program tree bottom-up, forking at unions,
/// and records per path the select conjuncts, resolved keep-sets, block
/// samplers and lineage-Bernoulli keeps that every surviving row must
/// pass. Anything it cannot express contributes nothing — the pruner only
/// gets weaker, never unsound.
void CollectPruneAlts(const MorselProgramNode& n, const MorselProgram& prog,
                      std::vector<AltBuild>* out) {
  switch (n.kind) {
    case MorselProgramNode::Kind::kScanSlice: {
      AltBuild base;
      const int ncols = prog.pivot.layout()->schema.num_columns();
      base.colmap.resize(static_cast<size_t>(ncols));
      for (int c = 0; c < ncols; ++c) base.colmap[static_cast<size_t>(c)] = c;
      out->push_back(std::move(base));
      return;
    }
    case MorselProgramNode::Kind::kKeepSlice: {
      CollectPruneAlts(*n.child, prog, out);
      for (AltBuild& a : *out) a.alt.keep_lists.push_back(n.keep);
      return;
    }
    case MorselProgramNode::Kind::kBlockSample: {
      CollectPruneAlts(*n.child, prog, out);
      for (AltBuild& a : *out) {
        a.alt.block_samplers.push_back({n.sampler_seed, n.p, n.block_size});
        a.lineage_rowids = false;  // lineage re-keys to block ids
      }
      return;
    }
    case MorselProgramNode::Kind::kBlockRekey: {
      CollectPruneAlts(*n.child, prog, out);
      for (AltBuild& a : *out) a.lineage_rowids = false;
      return;
    }
    case MorselProgramNode::Kind::kSelect: {
      CollectPruneAlts(*n.child, prog, out);
      for (AltBuild& a : *out) {
        ExtractColumnConstraints(n.node->predicate(), n.layout->schema,
                                 a.colmap, &a.alt.constraints);
      }
      return;
    }
    case MorselProgramNode::Kind::kStreamSample: {
      CollectPruneAlts(*n.child, prog, out);
      const SamplingSpec& spec = n.node->spec();
      if (spec.method == SamplingMethod::kLineageBernoulli &&
          spec.lineage_relation == prog.pivot_name) {
        for (AltBuild& a : *out) {
          if (a.lineage_rowids) {
            a.alt.lineage_bernoullis.push_back({spec.seed, spec.p});
          }
        }
      }
      // Plain Bernoulli keeps depend on the morsel stream, not the rows —
      // no constraint, and skipping stays sound because a skipped unit's
      // forked stream is never consumed by anyone.
      return;
    }
    case MorselProgramNode::Kind::kProbe: {
      CollectPruneAlts(*n.child, prog, out);
      const bool pivot_left = n.shared->probe_is_left;
      const int out_cols = n.layout->schema.num_columns();
      for (AltBuild& a : *out) {
        const std::vector<int> inner = std::move(a.colmap);
        const int inner_cols = static_cast<int>(inner.size());
        a.colmap.assign(static_cast<size_t>(out_cols), -1);
        const int at = pivot_left ? 0 : out_cols - inner_cols;
        for (int c = 0; c < inner_cols; ++c) {
          a.colmap[static_cast<size_t>(at + c)] =
              inner[static_cast<size_t>(c)];
        }
      }
      return;
    }
    case MorselProgramNode::Kind::kUnion: {
      // Each branch is its own alternative path: a segment prunes only
      // when every branch excludes it (the pruner intersects).
      CollectPruneAlts(*n.child, prog, out);
      CollectPruneAlts(*n.right, prog, out);
      return;
    }
  }
}

PrunePlan BuildPrunePlan(const MorselProgram& prog) {
  std::vector<AltBuild> alts;
  CollectPruneAlts(*prog.root, prog, &alts);
  PrunePlan plan;
  plan.alternatives.reserve(alts.size());
  for (AltBuild& a : alts) plan.alternatives.push_back(std::move(a.alt));
  return plan;
}

/// \brief Builds the shared morsel-program state: resolves the pivot's
/// scan input (segment store or resident relation), executes every
/// non-pivot subtree serially with `rng`, binds predicates, resolves
/// fixed-size sampler keep-sets, pre-builds join hash tables
/// (partition-parallel), and — for segment-backed pivots — runs the
/// SegmentPruner to mark provably-empty units.
Result<MorselProgram> PrepareMorselProgram(const PlanPtr& plan,
                                           const std::string& pivot,
                                           ColumnarCatalog* catalog, Rng* rng,
                                           ExecMode mode,
                                           const ExecOptions& options) {
  MorselProgram prog;
  prog.mode = mode;
  prog.pivot_name = pivot;
  GUS_ASSIGN_OR_RETURN(PivotBacking backing,
                       ResolvePivotBacking(plan, pivot, catalog));
  prog.pivot = std::move(backing.input);
  prog.morsel_rows =
      ResolveMorselRows(prog.pivot.num_rows(), backing.row_bytes,
                        PlanCostWeight(plan), options, backing.align);
  GUS_ASSIGN_OR_RETURN(prog.root,
                       CompileNode(plan, catalog, rng, mode, options, &prog));
  AssignStreamOk(prog.root.get());
  prog.out_layout = prog.root->layout;
  const StoredRelation* store = prog.pivot.store();
  if (store != nullptr && options.prune_segments) {
    const PrunePlan prune = BuildPrunePlan(prog);
    const std::vector<char> excluded = ComputeSegmentExclusion(*store, prune);
    if (std::find(excluded.begin(), excluded.end(), char{1}) !=
        excluded.end()) {
      prog.unit_skip =
          ComputeUnitSkipMask(*store, excluded, prog.morsel_rows);
    }
  }
  return prog;
}

/// \brief Materializing sink for ExecutePlanMorsel: each morsel's batches
/// append to one relation, and the ordered fold appends the later sink's
/// rows after this one's — fold order is morsel order, so the merged
/// relation is the sequential AppendBatch concatenation of the morsels.
class RelationSink final : public MergeableBatchSink {
 public:
  explicit RelationSink(LayoutPtr layout)
      : layout_(std::move(layout)), rows_(layout_) {}

  Status Consume(const ColumnBatch& batch) override {
    rows_.AppendBatch(batch);
    return Status::OK();
  }

  Status MergeFrom(BatchSink* other) override {
    rows_.AppendBatch(static_cast<RelationSink*>(other)->rows_.data());
    return Status::OK();
  }

  bool Recycle() override {
    rows_ = ColumnarRelation(layout_);
    return true;
  }

  ColumnarRelation TakeRows() { return std::move(rows_); }

 private:
  LayoutPtr layout_;
  ColumnarRelation rows_;
};

// ---- Profiling helpers -----------------------------------------------------

using StatsClock = std::chrono::steady_clock;

double MsBetween(StatsClock::time_point a, StatsClock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Pass-through sink counting emitted rows for ExecStats (bytes derive
/// from the layout's row width once, not per batch).
class CountingSink final : public BatchSink {
 public:
  CountingSink(BatchSink* inner, int64_t* rows) : inner_(inner), rows_(rows) {}

  Status Consume(const ColumnBatch& batch) override {
    *rows_ += batch.num_rows();
    return inner_->Consume(batch);
  }
  bool wants_views() const override { return inner_->wants_views(); }
  Status ConsumeView(const SelView& view) override {
    *rows_ += view.num_rows();
    return inner_->ConsumeView(view);
  }

 private:
  BatchSink* inner_;
  int64_t* rows_;
};

}  // namespace

bool PlanIsPartitionable(const PlanPtr& plan, ExecMode mode) {
  return !PivotRelations(plan, mode).empty();
}

Result<MorselSplit> AnalyzeMorselSplit(const PlanPtr& plan,
                                       ColumnarCatalog* catalog, ExecMode mode,
                                       const ExecOptions& options) {
  GUS_RETURN_NOT_OK(options.Validate());
  const std::vector<std::string> cands = PivotRelations(plan, mode);
  MorselSplit split;
  if (cands.empty()) return split;  // one serial fallback unit
  GUS_ASSIGN_OR_RETURN(split.pivot_relation,
                       ChoosePivotRelation(cands, catalog));
  GUS_ASSIGN_OR_RETURN(PivotBacking backing,
                       ResolvePivotBacking(plan, split.pivot_relation,
                                           catalog));
  split.partitionable = true;
  split.pivot_rows = backing.input.num_rows();
  split.block_align = backing.align;
  split.morsel_rows =
      ResolveMorselRows(split.pivot_rows, backing.row_bytes,
                        PlanCostWeight(plan), options, split.block_align);
  split.num_units = MorselCount(split.pivot_rows, split.morsel_rows);
  return split;
}

Status ParallelExecuteUnitRangeToSink(
    const PlanPtr& plan, ColumnarCatalog* catalog, Rng* rng, ExecMode mode,
    const ExecOptions& options, int64_t unit_begin, int64_t unit_end,
    const MorselSinkFactory& make_sink,
    std::unique_ptr<MergeableBatchSink>* out, uint64_t* stream_base_out,
    std::vector<ResolvedPivotSampler>* samplers_out) {
  GUS_RETURN_NOT_OK(options.Validate());
  // Profile plumbing. Collection stays off (null stats, no counting
  // wrappers, no timers read per batch) unless the caller passed
  // options.stats or the GUS_PROFILE environment variable asked for dumps.
  ExecStats env_stats;
  ExecStats* stats = options.stats;
  if (stats == nullptr && ProfileEnvEnabled()) stats = &env_stats;
  if (stats != nullptr) stats->Reset();
  const StatsClock::time_point t_start = StatsClock::now();
  const auto emit_profile = [&] {
    if (stats != nullptr && ProfileEnvEnabled()) {
      std::fputs(stats->ToString().c_str(), stderr);
    }
  };
  // Counter deltas around this execution: minor page faults, and the
  // segment store's (the cache is shared, so only deltas are attributable
  // to this query).
  SegmentCache* const seg_cache = catalog->segment_cache();
  SegmentCacheCounters cache_before;
  const int64_t faults_before = stats != nullptr ? ProcessMinorFaults() : 0;
  if (stats != nullptr && seg_cache != nullptr) {
    cache_before = seg_cache->counters();
  }
  const auto snap_counters = [&] {
    if (stats == nullptr) return;
    stats->minor_faults = ProcessMinorFaults() - faults_before;
    if (seg_cache == nullptr) return;
    const SegmentCacheCounters after = seg_cache->counters();
    stats->segments_faulted = after.faults - cache_before.faults;
    stats->store_bytes_read = after.bytes_read - cache_before.bytes_read;
  };

  if (stream_base_out != nullptr) *stream_base_out = 0;
  if (samplers_out != nullptr) samplers_out->clear();
  const std::vector<std::string> cands = PivotRelations(plan, mode);
  if (cands.empty()) {
    // Serial fallback — one execution unit (index 0), run iff the range
    // contains it. The pipeline is compiled either way so static errors
    // and the output layout never depend on the shard's range.
    GUS_ASSIGN_OR_RETURN(
        std::unique_ptr<BatchSource> pipeline,
        CompileBatchPipeline(plan, catalog, rng, mode));
    GUS_ASSIGN_OR_RETURN(std::unique_ptr<MergeableBatchSink> sink,
                         make_sink(*pipeline->layout()));
    if (stats != nullptr) {
      stats->serial_fallback = true;
      stats->workers = 1;
      stats->sinks_created = 1;
      stats->prepare_ms = MsBetween(t_start, StatsClock::now());
    }
    if (unit_begin <= 0 && unit_end > 0) {
      if (stats != nullptr) {
        const StatsClock::time_point t_run = StatsClock::now();
        int64_t rows = 0;
        CountingSink counter(sink.get(), &rows);
        GUS_RETURN_NOT_OK(PumpToSink(pipeline.get(), &counter));
        stats->morsels = 1;
        stats->rows_emitted = rows;
        stats->bytes_moved = rows * RowBytes(*pipeline->layout());
        stats->parallel_ms = MsBetween(t_run, StatsClock::now());
      } else {
        GUS_RETURN_NOT_OK(PumpToSink(pipeline.get(), sink.get()));
      }
    }
    if (stats != nullptr) {
      snap_counters();
      stats->total_ms = MsBetween(t_start, StatsClock::now());
      emit_profile();
    }
    *out = std::move(sink);
    return Status::OK();
  }

  GUS_ASSIGN_OR_RETURN(const std::string pivot,
                       ChoosePivotRelation(cands, catalog));
  double sampler_ms = 0.0;
  Result<MorselProgram> prepared = [&] {
    const KeepSetTimeScope sampler_time(stats != nullptr ? &sampler_ms
                                                         : nullptr);
    return PrepareMorselProgram(plan, pivot, catalog, rng, mode, options);
  }();
  GUS_ASSIGN_OR_RETURN(MorselProgram program, std::move(prepared));
  if (stats != nullptr) stats->prepare_sampler_ms = sampler_ms;
  if (samplers_out != nullptr) *samplers_out = program.samplers;
  // One draw seeds every morsel stream; consumed after the serial prepare
  // phase (non-pivot subtrees + pivot sampler seeds) so the whole
  // consumption order is a pure function of (plan, seed) — and therefore
  // identical in every shard worker running this plan.
  const uint64_t stream_base = rng->Next();
  if (stream_base_out != nullptr) *stream_base_out = stream_base;

  const int64_t num_morsels = program.num_morsels();
  unit_begin = std::clamp<int64_t>(unit_begin, 0, num_morsels);
  unit_end = std::clamp<int64_t>(unit_end, unit_begin, num_morsels);
  if (unit_begin >= unit_end) {
    GUS_ASSIGN_OR_RETURN(*out, make_sink(*program.out_layout));
    if (stats != nullptr) {
      stats->sinks_created = 1;
      snap_counters();
      stats->prepare_ms = MsBetween(t_start, StatsClock::now());
      stats->total_ms = stats->prepare_ms;
      emit_profile();
    }
    return Status::OK();
  }

  const int64_t range_units = unit_end - unit_begin;
  const int workers = static_cast<int>(
      std::min<int64_t>(std::max(1, options.num_threads), range_units));
  const int64_t out_row_bytes =
      stats != nullptr ? RowBytes(*program.out_layout) : 0;
  if (stats != nullptr) {
    stats->pivot_rows = program.pivot.num_rows();
    stats->morsels = range_units;
    stats->morsel_rows = program.morsel_rows;
    stats->workers = workers;
    stats->worker_morsels.assign(workers, 0);
    stats->prepare_ms = MsBetween(t_start, StatsClock::now());
  }

  // Ordered fold: per-morsel sinks merge in strictly ascending morsel
  // index, regardless of completion order, so the result never depends on
  // scheduling or worker count. The fold itself runs *outside* the mutex
  // (merges can be large — a materializing sink copies whole partitions);
  // `merging` guarantees a single folder at a time, so `merged` needs no
  // lock of its own and the fold order stays strictly sequential. Sinks
  // whose Recycle() succeeds after being absorbed go back to `arena` and
  // serve later morsels, replacing a per-morsel factory call with a reset.
  std::mutex mu;
  std::map<int64_t, std::unique_ptr<MergeableBatchSink>> pending;
  int64_t next_merge = unit_begin;
  bool merging = false;
  std::unique_ptr<MergeableBatchSink> merged;
  Status error;
  std::vector<std::unique_ptr<MergeableBatchSink>> arena;
  int64_t sinks_created = 0;
  int64_t sinks_recycled = 0;
  double fold_ms = 0.0;
  std::atomic<int64_t> rows_emitted{0};

  const auto run_morsel = [&](int worker, int64_t m) {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (!error.ok()) return;
    }
    if (stats != nullptr) {
      // Distinct slot per worker; published by the pool's completion sync.
      stats->worker_morsels[worker] += 1;
    }
    Rng morsel_rng = Rng::ForkStream(stream_base, static_cast<uint64_t>(m));
    // Pruned unit: fold its sink untouched — byte-identical to "executed
    // and emitted nothing", which the exclusion proof guarantees; the
    // unit's forked stream is simply never consumed.
    const bool skip_unit =
        !program.unit_skip.empty() &&
        program.unit_skip[static_cast<size_t>(m)] != 0;
    Status status;
    std::unique_ptr<MergeableBatchSink> sink;
    do {
      {
        std::lock_guard<std::mutex> lock(mu);
        if (!arena.empty()) {
          sink = std::move(arena.back());
          arena.pop_back();
          ++sinks_recycled;
        } else {
          ++sinks_created;
        }
      }
      if (sink == nullptr) {
        auto sink_or = make_sink(*program.out_layout);
        if (!sink_or.ok()) {
          status = sink_or.status();
          break;
        }
        sink = std::move(sink_or).ValueOrDie();
      }
      if (skip_unit) break;
      auto pipeline_or = program.MakeMorselPipeline(m, &morsel_rng);
      if (!pipeline_or.ok()) {
        status = pipeline_or.status();
        break;
      }
      std::unique_ptr<BatchSource> pipeline =
          std::move(pipeline_or).ValueOrDie();
      if (stats != nullptr) {
        int64_t rows = 0;
        CountingSink counter(sink.get(), &rows);
        status = PumpToSink(pipeline.get(), &counter);
        rows_emitted.fetch_add(rows, std::memory_order_relaxed);
      } else {
        status = PumpToSink(pipeline.get(), sink.get());
      }
    } while (false);

    {
      std::lock_guard<std::mutex> lock(mu);
      if (!error.ok()) return;
      if (!status.ok()) {
        error = status;
        return;
      }
      pending.emplace(m, std::move(sink));
      if (merging) return;  // the active folder will pick this sink up
      merging = true;
    }
    std::vector<std::unique_ptr<MergeableBatchSink>> ready;
    std::vector<std::unique_ptr<MergeableBatchSink>> recycled;
    while (true) {
      ready.clear();
      {
        std::lock_guard<std::mutex> lock(mu);
        auto it = pending.find(next_merge);
        while (it != pending.end()) {
          ready.push_back(std::move(it->second));
          pending.erase(it);
          it = pending.find(++next_merge);
        }
        if (ready.empty() || !error.ok()) {
          merging = false;
          return;
        }
      }
      const StatsClock::time_point t_fold = StatsClock::now();
      Status fold_error;
      recycled.clear();
      for (std::unique_ptr<MergeableBatchSink>& next : ready) {
        if (merged == nullptr) {
          merged = std::move(next);
          continue;
        }
        Status st = merged->MergeFrom(next.get());
        if (!st.ok()) {
          fold_error = st;
          break;
        }
        if (next->Recycle()) recycled.push_back(std::move(next));
      }
      {
        std::lock_guard<std::mutex> lock(mu);
        fold_ms += MsBetween(t_fold, StatsClock::now());
        for (std::unique_ptr<MergeableBatchSink>& s : recycled) {
          arena.push_back(std::move(s));
        }
        if (!fold_error.ok()) {
          error = fold_error;
          merging = false;
          return;
        }
      }
    }
  };

  PoolLease lease(workers);
  const StatsClock::time_point t_par = StatsClock::now();
  lease->ParallelForChunked(range_units, /*chunk=*/1, workers,
                            [&](int worker, int64_t b, int64_t e) {
                              for (int64_t i = b; i < e; ++i) {
                                run_morsel(worker, unit_begin + i);
                              }
                            });

  if (stats != nullptr) {
    stats->parallel_ms = MsBetween(t_par, StatsClock::now());
    stats->sink_fold_ms = fold_ms;
    stats->rows_emitted = rows_emitted.load(std::memory_order_relaxed);
    stats->bytes_moved = stats->rows_emitted * out_row_bytes;
    stats->sinks_created = sinks_created;
    stats->sinks_recycled = sinks_recycled;
    stats->pool_wakeups = lease.wakeups_during();
    stats->pool_threads_spawned = lease.spawned_during();
    snap_counters();
    if (const StoredRelation* store = program.pivot.store()) {
      stats->segments_total = SegmentsInUnitRange(
          *store, program.morsel_rows, unit_begin, unit_end);
      stats->segments_skipped = SkippedSegmentsInUnitRange(
          *store, program.unit_skip, program.morsel_rows, unit_begin,
          unit_end);
    }
    stats->total_ms = MsBetween(t_start, StatsClock::now());
    emit_profile();
  }

  GUS_RETURN_NOT_OK(error);
  GUS_CHECK(merged != nullptr);
  *out = std::move(merged);
  return Status::OK();
}

Status ParallelExecutePlanToSink(const PlanPtr& plan, ColumnarCatalog* catalog,
                                 Rng* rng, ExecMode mode,
                                 const ExecOptions& options,
                                 const MorselSinkFactory& make_sink,
                                 std::unique_ptr<MergeableBatchSink>* out) {
  return ParallelExecuteUnitRangeToSink(
      plan, catalog, rng, mode, options, 0,
      std::numeric_limits<int64_t>::max(), make_sink, out);
}

Result<ColumnarRelation> ExecutePlanMorsel(const PlanPtr& plan,
                                           ColumnarCatalog* catalog, Rng* rng,
                                           ExecMode mode,
                                           const ExecOptions& options) {
  std::unique_ptr<MergeableBatchSink> sink;
  GUS_RETURN_NOT_OK(ParallelExecutePlanToSink(
      plan, catalog, rng, mode, options,
      [](const BatchLayout& layout)
          -> Result<std::unique_ptr<MergeableBatchSink>> {
        auto ptr = std::make_shared<BatchLayout>(layout);
        return std::unique_ptr<MergeableBatchSink>(
            new RelationSink(LayoutPtr(std::move(ptr))));
      },
      &sink));
  return static_cast<RelationSink*>(sink.get())->TakeRows();
}

}  // namespace gus
