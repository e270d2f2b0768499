#include "sampling/samplers.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <unordered_set>
#include <vector>

#include "kernels/sampling_kernels.h"
#include "rel/column_batch.h"
#include "util/hash.h"
#include "util/logging.h"

namespace gus {

namespace {

Relation EmptyLike(const Relation& input) {
  return Relation(input.schema(), input.lineage_schema());
}

/// Accumulator of the innermost live KeepSetTimeScope on this thread.
thread_local double* keep_set_ms = nullptr;

/// Adds its lifetime to the live KeepSetTimeScope, if any.
class KeepSetTimer {
 public:
  KeepSetTimer()
      : sink_(keep_set_ms),
        start_(sink_ != nullptr ? Clock::now() : Clock::time_point()) {}
  ~KeepSetTimer() {
    if (sink_ != nullptr) {
      *sink_ += std::chrono::duration<double, std::milli>(Clock::now() -
                                                          start_)
                    .count();
    }
  }

 private:
  using Clock = std::chrono::steady_clock;
  double* sink_;
  Clock::time_point start_;
};

Relation TakeRows(const Relation& input, const std::vector<int64_t>& indexes) {
  Relation out = EmptyLike(input);
  out.Reserve(static_cast<int64_t>(indexes.size()));
  for (int64_t i : indexes) {
    out.AppendRow(input.row(i), input.lineage(i));
  }
  return out;
}

}  // namespace

// ---- Index-selection cores -------------------------------------------------

Result<std::vector<int64_t>> BernoulliKeepIndices(int64_t num_rows, double p,
                                                  Rng* rng) {
  if (!(p >= 0.0 && p <= 1.0)) {
    return Status::InvalidArgument("Bernoulli p must be in [0,1]");
  }
  // Geometric-skip kernel: ~pN + 1 draws instead of N. Every engine draws
  // through this one kernel (one-shot here, span-resumed in the fused
  // streaming sampler), so keep-sets stay bit-identical across engines.
  std::vector<int64_t> keep;
  SkipBernoulliKeepIndices(num_rows, p, rng, &keep);
  return keep;
}

Result<std::vector<int64_t>> WorKeepIndices(int64_t num_rows, int64_t n,
                                            Rng* rng) {
  if (n < 0 || n > num_rows) {
    return Status::InvalidArgument("WOR sample size must be in [0, N]");
  }
  std::vector<int64_t> idx(num_rows);
  std::iota(idx.begin(), idx.end(), int64_t{0});
  for (int64_t i = 0; i < n; ++i) {
    const int64_t j =
        i + static_cast<int64_t>(
                rng->UniformInt(static_cast<uint64_t>(num_rows - i)));
    std::swap(idx[i], idx[j]);
  }
  idx.resize(n);
  std::sort(idx.begin(), idx.end());  // Preserve input order in the output.
  return idx;
}

Result<std::vector<int64_t>> ReservoirKeepIndices(int64_t num_rows, int64_t n,
                                                  Rng* rng) {
  if (n < 0 || n > num_rows) {
    return Status::InvalidArgument("reservoir sample size must be in [0, N]");
  }
  std::vector<int64_t> reservoir;
  reservoir.reserve(n);
  for (int64_t i = 0; i < num_rows; ++i) {
    if (i < n) {
      reservoir.push_back(i);
    } else {
      const auto j =
          static_cast<int64_t>(rng->UniformInt(static_cast<uint64_t>(i) + 1));
      if (j < n) reservoir[j] = i;
    }
  }
  std::sort(reservoir.begin(), reservoir.end());
  return reservoir;
}

Result<std::vector<int64_t>> WrDistinctKeepIndices(int64_t num_rows, int64_t n,
                                                   Rng* rng) {
  if (n < 0) return Status::InvalidArgument("sample size must be >= 0");
  if (num_rows == 0) return std::vector<int64_t>{};
  std::unordered_set<int64_t> chosen;
  chosen.reserve(static_cast<size_t>(n));
  for (int64_t draw = 0; draw < n; ++draw) {
    chosen.insert(
        static_cast<int64_t>(rng->UniformInt(static_cast<uint64_t>(num_rows))));
  }
  std::vector<int64_t> idx(chosen.begin(), chosen.end());
  std::sort(idx.begin(), idx.end());
  return idx;
}

Result<std::vector<int64_t>> BlockBernoulliKeepIndices(
    int64_t num_rows, double p, const LineageIdFn& block_of, Rng* rng) {
  if (!(p >= 0.0 && p <= 1.0)) {
    return Status::InvalidArgument("block Bernoulli p must be in [0,1]");
  }
  // One decision per distinct block, drawn at its first occurrence. The
  // flat cache replaces the per-call unordered_map: block ids are dense
  // small integers (row index / block size, or base-table lineage), so a
  // vector lookup decides each row.
  thread_local BlockDecisionCache cache;
  cache.Reset();
  std::vector<int64_t> keep;
  keep.reserve(static_cast<size_t>(p * num_rows) + 16);
  for (int64_t i = 0; i < num_rows; ++i) {
    if (cache.Decide(block_of(i), p, rng)) keep.push_back(i);
  }
  return keep;
}

Result<std::vector<int64_t>> LineageBernoulliKeepIndices(
    int64_t num_rows, double p, uint64_t seed, const LineageIdFn& id_of) {
  if (!(p >= 0.0 && p <= 1.0)) {
    return Status::InvalidArgument("lineage Bernoulli p must be in [0,1]");
  }
  std::vector<int64_t> keep;
  keep.reserve(static_cast<size_t>(p * num_rows) + 16);
  for (int64_t i = 0; i < num_rows; ++i) {
    if (LineageUnitValue(seed, id_of(i)) < p) keep.push_back(i);
  }
  return keep;
}

KeepSetTimeScope::KeepSetTimeScope(double* ms) : prev_(keep_set_ms) {
  keep_set_ms = ms;
}

KeepSetTimeScope::~KeepSetTimeScope() { keep_set_ms = prev_; }

Result<std::vector<int64_t>> DecoupledWorKeepIndices(int64_t num_rows,
                                                     int64_t n, uint64_t seed,
                                                     int num_threads) {
  if (n < 0 || n > num_rows) {
    return Status::InvalidArgument("WOR sample size must be in [0, N]");
  }
  const KeepSetTimer timer;
  return WorSmallestPriorityRows(num_rows, n, seed, num_threads,
                                 WorCandidateTarget(n));
}

Result<std::vector<int64_t>> DecoupledWrDistinctKeepIndices(int64_t num_rows,
                                                            int64_t n,
                                                            uint64_t seed) {
  if (n < 0) return Status::InvalidArgument("sample size must be >= 0");
  if (num_rows == 0) return std::vector<int64_t>{};
  const KeepSetTimer timer;
  std::vector<int64_t> idx;
  idx.reserve(static_cast<size_t>(n));
  for (int64_t draw = 0; draw < n; ++draw) {
    idx.push_back(WrDrawTarget(seed, draw, num_rows));
  }
  std::sort(idx.begin(), idx.end());
  idx.erase(std::unique(idx.begin(), idx.end()), idx.end());
  return idx;
}

Result<std::vector<int64_t>> DecoupledBlockKeepIndices(
    int64_t num_rows, double p, const LineageIdFn& block_of, uint64_t seed) {
  if (!(p >= 0.0 && p <= 1.0)) {
    return Status::InvalidArgument("block Bernoulli p must be in [0,1]");
  }
  std::vector<int64_t> keep;
  keep.reserve(static_cast<size_t>(p * num_rows) + 16);
  // Block ids arrive in runs (row / block_size, or base-table block
  // lineage), so memoizing the last decision answers almost every row.
  uint64_t last_block = 0;
  bool last_keep = false;
  bool have_last = false;
  for (int64_t i = 0; i < num_rows; ++i) {
    const uint64_t block = block_of(i);
    if (!have_last || block != last_block) {
      last_block = block;
      last_keep = DecoupledBlockKeep(seed, block, p);
      have_last = true;
    }
    if (last_keep) keep.push_back(i);
  }
  return keep;
}

Result<uint64_t> DrawSamplerSeed(const SamplingSpec& spec, int64_t num_rows,
                                 int lineage_arity, Rng* rng) {
  switch (spec.method) {
    case SamplingMethod::kWithoutReplacement:
    case SamplingMethod::kWithReplacementDistinct:
      if (spec.population != num_rows) {
        return Status::InvalidArgument(
            spec.method == SamplingMethod::kWithoutReplacement
                ? "WOR spec population does not match the input cardinality"
                : "WR spec population does not match the input cardinality");
      }
      return rng->Next();
    case SamplingMethod::kBlockBernoulli:
      if (lineage_arity != 1) {
        return Status::InvalidArgument(
            "block lineage applies to base (single-lineage) relations");
      }
      return rng->Next();
    case SamplingMethod::kBernoulli:
    case SamplingMethod::kLineageBernoulli:
      break;
  }
  return Status::Internal("sampling method draws no sampler seed");
}

Result<std::vector<int64_t>> FixedSizeKeepIndices(const SamplingSpec& spec,
                                                  int64_t num_rows,
                                                  uint64_t seed,
                                                  int num_threads) {
  if (spec.method == SamplingMethod::kWithoutReplacement) {
    return DecoupledWorKeepIndices(num_rows, spec.n, seed, num_threads);
  }
  return DecoupledWrDistinctKeepIndices(num_rows, spec.n, seed);
}

Result<SamplingDecision> DecideSampling(
    const SamplingSpec& spec, int64_t num_rows,
    const std::vector<std::string>& lineage_schema,
    const std::function<uint64_t(int64_t, int)>& lineage_at, Rng* rng) {
  GUS_RETURN_NOT_OK(spec.Validate());
  SamplingDecision d;
  switch (spec.method) {
    case SamplingMethod::kBernoulli: {
      GUS_ASSIGN_OR_RETURN(d.keep, BernoulliKeepIndices(num_rows, spec.p, rng));
      return d;
    }
    case SamplingMethod::kWithoutReplacement:
    case SamplingMethod::kWithReplacementDistinct: {
      // Seed-decoupled mergeable draw: one Rng value, then a pure function
      // of (seed, row) — identical across engines AND across any
      // morsel/shard partition of the input (see samplers.h).
      GUS_ASSIGN_OR_RETURN(
          const uint64_t seed,
          DrawSamplerSeed(spec, num_rows,
                          static_cast<int>(lineage_schema.size()), rng));
      GUS_ASSIGN_OR_RETURN(d.keep, FixedSizeKeepIndices(spec, num_rows, seed));
      return d;
    }
    case SamplingMethod::kBlockBernoulli: {
      GUS_ASSIGN_OR_RETURN(
          const uint64_t seed,
          DrawSamplerSeed(spec, num_rows,
                          static_cast<int>(lineage_schema.size()), rng));
      const int64_t block_size = spec.block_size;
      GUS_ASSIGN_OR_RETURN(
          d.keep, DecoupledBlockKeepIndices(
                      num_rows, spec.p,
                      [block_size](int64_t i) {
                        return static_cast<uint64_t>(i / block_size);
                      },
                      seed));
      d.rekey_block_lineage = true;
      return d;
    }
    case SamplingMethod::kLineageBernoulli: {
      const auto it = std::find(lineage_schema.begin(), lineage_schema.end(),
                                spec.lineage_relation);
      if (it == lineage_schema.end()) {
        return Status::KeyError("relation '" + spec.lineage_relation +
                                "' not in the input's lineage schema");
      }
      const int dim = static_cast<int>(it - lineage_schema.begin());
      GUS_ASSIGN_OR_RETURN(
          d.keep, LineageBernoulliKeepIndices(
                      num_rows, spec.p, spec.seed,
                      [&lineage_at, dim](int64_t i) {
                        return lineage_at(i, dim);
                      }));
      return d;
    }
  }
  return Status::Internal("unknown sampling method");
}

// ---- Row-engine physical samplers -----------------------------------------

Result<Relation> BernoulliSample(const Relation& input, double p, Rng* rng) {
  GUS_ASSIGN_OR_RETURN(std::vector<int64_t> keep,
                       BernoulliKeepIndices(input.num_rows(), p, rng));
  return TakeRows(input, keep);
}

Result<Relation> WorSample(const Relation& input, int64_t n, Rng* rng) {
  GUS_ASSIGN_OR_RETURN(std::vector<int64_t> keep,
                       WorKeepIndices(input.num_rows(), n, rng));
  return TakeRows(input, keep);
}

Result<Relation> ReservoirSample(const Relation& input, int64_t n, Rng* rng) {
  GUS_ASSIGN_OR_RETURN(std::vector<int64_t> keep,
                       ReservoirKeepIndices(input.num_rows(), n, rng));
  return TakeRows(input, keep);
}

Result<Relation> WrDistinctSample(const Relation& input, int64_t n, Rng* rng) {
  GUS_ASSIGN_OR_RETURN(std::vector<int64_t> keep,
                       WrDistinctKeepIndices(input.num_rows(), n, rng));
  return TakeRows(input, keep);
}

Result<Relation> AssignBlockLineage(const Relation& input,
                                    int64_t block_size) {
  if (block_size <= 0) {
    return Status::InvalidArgument("block_size must be positive");
  }
  if (input.lineage_schema().size() != 1) {
    return Status::InvalidArgument(
        "block lineage applies to base (single-lineage) relations");
  }
  Relation out(input.schema(), input.lineage_schema());
  out.Reserve(input.num_rows());
  for (int64_t i = 0; i < input.num_rows(); ++i) {
    out.AppendRow(input.row(i),
                  {static_cast<uint64_t>(i / block_size)});
  }
  return out;
}

Result<Relation> BlockBernoulliSample(const Relation& input, double p,
                                      Rng* rng) {
  if (input.lineage_schema().size() != 1) {
    return Status::InvalidArgument(
        "block sampling applies to base (single-lineage) relations");
  }
  const std::shared_ptr<const ColumnarRelation> cols = input.Columnar();
  GUS_ASSIGN_OR_RETURN(
      std::vector<int64_t> keep,
      BlockBernoulliKeepIndices(
          input.num_rows(), p,
          [&cols](int64_t i) { return cols->data().lineage_at(i, 0); }, rng));
  return TakeRows(input, keep);
}

Result<Relation> LineageBernoulliSample(const Relation& input,
                                        const std::string& relation, double p,
                                        uint64_t seed) {
  const auto& ls = input.lineage_schema();
  const auto it = std::find(ls.begin(), ls.end(), relation);
  if (it == ls.end()) {
    return Status::KeyError("relation '" + relation +
                            "' not in the input's lineage schema");
  }
  const auto dim = static_cast<int>(it - ls.begin());
  const std::shared_ptr<const ColumnarRelation> cols = input.Columnar();
  GUS_ASSIGN_OR_RETURN(
      std::vector<int64_t> keep,
      LineageBernoulliKeepIndices(
          input.num_rows(), p, seed, [&cols, dim](int64_t i) {
            return cols->data().lineage_at(i, dim);
          }));
  return TakeRows(input, keep);
}

Result<Relation> ApplySampling(const Relation& input, const SamplingSpec& spec,
                               Rng* rng) {
  const std::shared_ptr<const ColumnarRelation> cols = input.Columnar();
  GUS_ASSIGN_OR_RETURN(
      SamplingDecision d,
      DecideSampling(spec, input.num_rows(), input.lineage_schema(),
                     [&cols](int64_t r, int dim) {
                       return cols->data().lineage_at(r, dim);
                     },
                     rng));
  if (d.rekey_block_lineage) {
    GUS_ASSIGN_OR_RETURN(Relation blocked,
                         AssignBlockLineage(input, spec.block_size));
    return TakeRows(blocked, d.keep);
  }
  return TakeRows(input, d.keep);
}

}  // namespace gus
