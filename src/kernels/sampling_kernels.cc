#include "kernels/sampling_kernels.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "kernels/simd/simd_dispatch.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace gus {

namespace {

/// Positions never reach this; used to park the cursor "past any stream"
/// when a drawn skip is astronomically large, without risking overflow.
constexpr int64_t kFarAway = int64_t{1} << 62;

/// Rows per filter call: bounds the kernel's scratch output to the stack.
constexpr int64_t kWorFilterBlock = 1024;

/// Fewest rows a worker of the parallel WOR filter takes; below it the
/// pool handoff costs more than the rows (~3 ns each on one core).
constexpr int64_t kWorRowsPerWorker = int64_t{1} << 15;

}  // namespace

SkipBernoulliState::SkipBernoulliState(double p) : p_(p) {
  if (p_ > 0.0 && p_ < 1.0) inv_log_q_ = 1.0 / std::log1p(-p_);
}

void SkipBernoulliState::Advance(Rng* rng) {
  // u in (0, 1]: log(u) is finite and <= 0, so skip >= 0 always.
  const double u = 1.0 - rng->Uniform();
  const double skip = std::floor(std::log(u) * inv_log_q_);
  if (!(skip < static_cast<double>(kFarAway)) || next_ >= kFarAway) {
    next_ = kFarAway;
  } else {
    next_ += 1 + static_cast<int64_t>(skip);
  }
}

void SkipBernoulliState::NextSpan(int64_t len, Rng* rng,
                                  std::vector<int64_t>* keep) {
  if (len <= 0 || p_ <= 0.0) {
    consumed_ += len > 0 ? len : 0;
    return;
  }
  const int64_t begin = consumed_;
  const int64_t end = consumed_ + len;
  if (p_ >= 1.0) {
    for (int64_t i = 0; i < len; ++i) keep->push_back(i);
    consumed_ = end;
    return;
  }
  if (!drawn_) {
    // First row of the stream: position the cursor with the first skip.
    drawn_ = true;
    next_ = begin - 1;
    Advance(rng);
  }
  while (next_ < end) {
    keep->push_back(next_ - begin);
    Advance(rng);
  }
  consumed_ = end;
}

void SkipBernoulliKeepIndices(int64_t num_rows, double p, Rng* rng,
                              std::vector<int64_t>* keep) {
  keep->reserve(keep->size() + static_cast<size_t>(p * num_rows) + 16);
  SkipBernoulliState state(p);
  state.NextSpan(num_rows, rng, keep);
}

void LineageBernoulliDense(double p, uint64_t seed, const uint64_t* lineage,
                           int arity, int dim, int64_t begin, int64_t len,
                           std::vector<int64_t>* keep) {
  const size_t base = keep->size();
  keep->resize(base + static_cast<size_t>(len));
  // The keep test runs as the integer-threshold form (exact equivalent of
  // `LineageUnitValue(seed, id) < p`) so every dispatch tier decides
  // identically; see simd::LineageKeepThreshold.
  const uint64_t threshold = simd::LineageKeepThreshold(p);
  const uint64_t* ids = lineage + static_cast<size_t>(begin) * arity + dim;
  const int64_t n = simd::LineageKeepDense(seed, threshold, ids, arity, begin,
                                           len, keep->data() + base);
  keep->resize(base + static_cast<size_t>(n));
}

void LineageBernoulliGather(double p, uint64_t seed, const uint64_t* lineage,
                            int arity, int dim, const int64_t* sel,
                            int64_t len, std::vector<int64_t>* keep) {
  const size_t base = keep->size();
  keep->resize(base + static_cast<size_t>(len));
  const uint64_t threshold = simd::LineageKeepThreshold(p);
  const int64_t n = simd::LineageKeepGather(seed, threshold, lineage, arity,
                                            dim, sel, len,
                                            keep->data() + base);
  keep->resize(base + static_cast<size_t>(n));
}

bool BlockDecisionCache::Decide(uint64_t block, double p, Rng* rng) {
  if (block < kDenseCap) {
    if (block >= dense_.size()) {
      dense_.resize(static_cast<size_t>(block) + 1, 0);
    }
    uint32_t& slot = dense_[block];
    if ((slot >> 1) != epoch_) {
      slot = (epoch_ << 1) | (rng->Bernoulli(p) ? 1u : 0u);
    }
    return (slot & 1u) != 0;
  }
  auto it = sparse_.find(block);
  if (it == sparse_.end()) {
    it = sparse_.emplace(block, rng->Bernoulli(p)).first;
  }
  return it->second;
}

void BlockDecisionCache::Reset() {
  // Epoch bump invalidates every dense decision in O(1). The epoch field
  // is 31 bits; on wraparound, fall back to one full clear.
  epoch_ = (epoch_ + 1) & 0x7fffffffu;
  if (epoch_ == 0) {
    std::fill(dense_.begin(), dense_.end(), 0u);
    epoch_ = 1;
  }
  sparse_.clear();
}

int64_t WorCandidateTarget(int64_t n) {
  return n + static_cast<int64_t>(4.0 * std::sqrt(static_cast<double>(n))) +
         16;
}

uint64_t WorPriorityThreshold(int64_t num_rows, int64_t target) {
  if (target >= num_rows) return ~uint64_t{0};
  // target < num_rows, so the quotient fits in 64 bits.
  return static_cast<uint64_t>((static_cast<__uint128_t>(target) << 64) /
                               static_cast<uint64_t>(num_rows));
}

void AppendWorCandidates(uint64_t seed, uint64_t tau, int64_t begin,
                         int64_t end, std::vector<WorCandidate>* out) {
  uint64_t prio[kWorFilterBlock];
  int64_t rows[kWorFilterBlock];
  for (int64_t b = begin; b < end; b += kWorFilterBlock) {
    const int64_t len = std::min(kWorFilterBlock, end - b);
    const int64_t kept = simd::WorPriorityFilter(seed, tau, b, len, prio, rows);
    for (int64_t i = 0; i < kept; ++i) out->emplace_back(prio[i], rows[i]);
  }
}

std::vector<int64_t> SmallestCandidateRows(
    const std::vector<WorCandidate>& cands, int64_t n) {
  GUS_CHECK(n <= static_cast<int64_t>(cands.size()));
  std::vector<int64_t> rows;
  if (n <= 0) return rows;
  // The n-th smallest priority alone, selected over a copy of the keys
  // (half the bytes of the pairs). Pairs order by (priority, row) and the
  // candidates arrive by ascending row, so the n smallest pairs are every
  // candidate below the cutoff priority plus the first candidates at it.
  std::vector<uint64_t> prio(cands.size());
  for (size_t i = 0; i < cands.size(); ++i) prio[i] = cands[i].first;
  std::nth_element(prio.begin(), prio.begin() + (n - 1), prio.end());
  const uint64_t cutoff = prio[static_cast<size_t>(n - 1)];
  int64_t at_cutoff = n;
  for (const WorCandidate& c : cands) at_cutoff -= c.first < cutoff ? 1 : 0;
  rows.reserve(static_cast<size_t>(n));
  for (const WorCandidate& c : cands) {
    if (c.first < cutoff || (c.first == cutoff && at_cutoff-- > 0)) {
      rows.push_back(c.second);
    }
  }
  return rows;
}

std::vector<int64_t> WorSmallestPriorityRows(int64_t num_rows, int64_t n,
                                             uint64_t seed, int num_threads,
                                             int64_t candidate_target) {
  GUS_DCHECK(n >= 0 && n <= num_rows);
  if (n <= 0) return {};
  if (n >= num_rows) {
    std::vector<int64_t> all(static_cast<size_t>(num_rows));
    std::iota(all.begin(), all.end(), int64_t{0});
    return all;
  }
  // Nested calls (inside a pool task) stay serial: a transient pool per
  // call would spawn threads on every query.
  const int workers =
      ThreadPool::InPoolTask()
          ? 1
          : static_cast<int>(std::clamp<int64_t>(
                num_rows / kWorRowsPerWorker, 1, std::max(1, num_threads)));
  std::vector<std::vector<WorCandidate>> parts(static_cast<size_t>(workers));
  int64_t target = std::max<int64_t>(candidate_target, 1);
  while (true) {
    const uint64_t tau = WorPriorityThreshold(num_rows, target);
    // Range w is the w-th num_rows / workers slice; ranges write disjoint
    // parts, concatenated below in range order (so still row order).
    const auto filter_range = [&](int64_t w) {
      const int64_t begin = num_rows * w / workers;
      const int64_t end = num_rows * (w + 1) / workers;
      std::vector<WorCandidate>& part = parts[static_cast<size_t>(w)];
      part.clear();
      part.reserve(static_cast<size_t>(
          std::min(end - begin, target / workers + 64)));
      AppendWorCandidates(seed, tau, begin, end, &part);
    };
    if (workers == 1) {
      filter_range(0);
    } else {
      PoolLease pool(workers);
      pool->ParallelFor(workers, filter_range);
    }
    int64_t found = 0;
    for (const auto& part : parts) found += static_cast<int64_t>(part.size());
    if (found >= n) break;
    // Fewer than n keys under tau (probability ~Phi(-4) at the default
    // target): widen and rescan. Terminates: target >= num_rows keeps all.
    target = target > num_rows / 2 ? num_rows : 2 * target;
  }
  std::vector<WorCandidate> cands = std::move(parts[0]);
  for (size_t w = 1; w < parts.size(); ++w) {
    cands.insert(cands.end(), parts[w].begin(), parts[w].end());
  }
  return SmallestCandidateRows(cands, n);
}

}  // namespace gus
