#include "plan/executor.h"

#include "dist/shard.h"
#include "plan/columnar_executor.h"
#include "plan/parallel_executor.h"
#include "rel/operators.h"
#include "sampling/samplers.h"

namespace gus {

namespace {

Result<Relation> ExecutePlanRow(const PlanPtr& plan, const Catalog& catalog,
                                Rng* rng, ExecMode mode) {
  switch (plan->op()) {
    case PlanOp::kScan: {
      auto it = catalog.find(plan->relation());
      if (it == catalog.end()) {
        return Status::KeyError("relation '" + plan->relation() +
                                "' not in catalog");
      }
      return it->second;
    }
    case PlanOp::kSample: {
      GUS_ASSIGN_OR_RETURN(Relation input,
                           ExecutePlanRow(plan->child(), catalog, rng, mode));
      if (mode == ExecMode::kExact) {
        // Exact mode computes the true aggregate: sampling is a no-op, but
        // block sampling still re-keys lineage so that sampled and exact
        // runs agree on lineage granularity.
        if (plan->spec().method == SamplingMethod::kBlockBernoulli) {
          return AssignBlockLineage(input, plan->spec().block_size);
        }
        return input;
      }
      return ApplySampling(input, plan->spec(), rng);
    }
    case PlanOp::kSelect: {
      GUS_ASSIGN_OR_RETURN(Relation input,
                           ExecutePlanRow(plan->child(), catalog, rng, mode));
      return Select(input, plan->predicate());
    }
    case PlanOp::kJoin: {
      GUS_ASSIGN_OR_RETURN(Relation l,
                           ExecutePlanRow(plan->left(), catalog, rng, mode));
      GUS_ASSIGN_OR_RETURN(Relation r,
                           ExecutePlanRow(plan->right(), catalog, rng, mode));
      return HashJoin(l, r, plan->left_key(), plan->right_key());
    }
    case PlanOp::kProduct: {
      GUS_ASSIGN_OR_RETURN(Relation l,
                           ExecutePlanRow(plan->left(), catalog, rng, mode));
      GUS_ASSIGN_OR_RETURN(Relation r,
                           ExecutePlanRow(plan->right(), catalog, rng, mode));
      return CrossProduct(l, r);
    }
    case PlanOp::kUnion: {
      GUS_ASSIGN_OR_RETURN(Relation l,
                           ExecutePlanRow(plan->left(), catalog, rng, mode));
      GUS_ASSIGN_OR_RETURN(Relation r,
                           ExecutePlanRow(plan->right(), catalog, rng, mode));
      if (mode == ExecMode::kExact) {
        // Exact evaluation of both branches yields the same set; the union
        // of a set with itself is itself.
        return l;
      }
      return UnionDistinctLineage(l, r);
    }
  }
  return Status::Internal("unknown plan op");
}

}  // namespace

Result<Relation> ExecutePlan(const PlanPtr& plan, const Catalog& catalog,
                             Rng* rng, ExecMode mode, ExecEngine engine) {
  ExecOptions options;
  options.engine = engine;
  return ExecutePlan(plan, catalog, rng, mode, options);
}

Result<Relation> ExecutePlan(const PlanPtr& plan, const Catalog& catalog,
                             Rng* rng, ExecMode mode,
                             const ExecOptions& options) {
  GUS_RETURN_NOT_OK(options.Validate());
  switch (options.engine) {
    case ExecEngine::kRowAtATime:
      return ExecutePlanRow(plan, catalog, rng, mode);
    case ExecEngine::kMorselParallel:
    case ExecEngine::kSharded: {
      // Shards are contiguous ranges of the morsel engine's unit sequence,
      // merged in unit order, so the materialized kSharded relation is the
      // morsel run at the shard-normalized geometry — bits and `rng`
      // advance included.
      ColumnarCatalog columnar(&catalog);
      GUS_ASSIGN_OR_RETURN(
          ColumnarRelation result,
          ExecutePlanMorsel(plan, &columnar, rng, mode,
                            options.engine == ExecEngine::kSharded
                                ? ShardedExecOptions(options)
                                : options));
      return Relation(std::move(result));
    }
    case ExecEngine::kServed:
      return Status::InvalidArgument(
          "ExecEngine::kServed serves cached estimates (sqlish "
          "RunApproxQuery), not materialized relations");
  }
  return Status::Internal("unknown execution engine");
}

}  // namespace gus
