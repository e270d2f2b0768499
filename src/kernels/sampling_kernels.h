// Batch sampling kernels — the per-row hot loops behind the samplers in
// sampling/samplers.h.
//
// Geometric-skip Bernoulli (Vitter-style): instead of one Rng draw per
// input row, draw the gap to the next kept row directly from the geometric
// distribution, skip = floor(log(u) / log(1-p)) with u uniform in (0, 1].
// A Bernoulli(p) scan then costs ~pN + 1 draws instead of N. The state is
// resumable across spans: feeding the same Rng through any partition of a
// row stream into spans consumes the identical draw sequence and yields
// the identical keep-set as one span of the whole stream — the property
// that lets the fused streaming sampler (plan/columnar_executor.cc) stay
// bit-identical to the one-shot DecideSampling path used by the row
// engine and by pipeline-breaker samplers.
//
// Draw discipline (what makes the equivalence exact): the first skip is
// drawn when the first row arrives (never for an empty stream), and after
// emitting a kept row the next skip is drawn immediately. Total draws:
// 0 for an empty stream, #kept + 1 otherwise. p <= 0 and p >= 1 are
// handled without any draws (keep nothing / keep everything).
//
// The lineage-Bernoulli kernel is the Section 7 filter over flat lineage
// arrays: it hashes (seed, id) in a tight branch-free loop — no per-row
// Value boxing, no std::function dispatch — and consumes no Rng, so it is
// trivially identical between streaming and one-shot evaluation.
//
// The seed-decoupled fixed-size kernels at the bottom are the partition-
// mergeable counterparts of the classic sequential draws: a sampler first
// consumes exactly ONE value from the engine's Rng stream (its sampler
// seed), and every per-row priority key / per-draw target / per-block
// decision is then a pure function of (seed, unit index) via
// Rng::ForkStream. Because no state flows between units, any partition of
// the rows into morsels or shards computes the identical keys, and a
// fixed-size WOR draw reduces to "the n smallest (priority, row) pairs".
//
// That selection runs as a threshold filter, not a heap. The keys are
// i.i.d. uniform 64-bit values, so a threshold tau sized for ~n + 4 sqrt(n)
// + 16 survivors keeps at least n rows except with probability ~Phi(-4).
// Whenever at least n keys are <= tau, the n smallest pairs are all among
// the survivors (any pair above tau is larger than each of those n), so
// one nth_element over the survivors is exact; the rare short pass
// rescans with a doubled target. The filter is a pure per-row predicate,
// so row ranges filter independently — on any number of threads — and
// their survivors concatenate into the same candidate set.

#ifndef GUS_KERNELS_SAMPLING_KERNELS_H_
#define GUS_KERNELS_SAMPLING_KERNELS_H_

#include <bit>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/random.h"

namespace gus {

/// \brief Resumable geometric-skip Bernoulli(p) position generator.
///
/// Positions are indexes into the logical row stream fed through
/// NextSpan; the caller maps them onto storage (selection vectors,
/// absolute batch offsets) as needed.
class SkipBernoulliState {
 public:
  explicit SkipBernoulliState(double p);

  /// \brief Advances over the next `len` logical rows, appending the kept
  /// offsets *relative to this span's start* (in [0, len)) to `keep`.
  void NextSpan(int64_t len, Rng* rng, std::vector<int64_t>* keep);

 private:
  void Advance(Rng* rng);  // draws one skip, moves next_ past it

  double p_;
  double inv_log_q_ = 0.0;  // 1 / log(1 - p) for 0 < p < 1
  bool drawn_ = false;      // first skip drawn yet?
  int64_t next_ = 0;        // absolute logical index of the next kept row
  int64_t consumed_ = 0;    // logical rows consumed so far
};

/// \brief One-shot geometric-skip Bernoulli keep-set over `num_rows` rows.
///
/// Bit-identical (same keeps, same Rng consumption) to streaming the rows
/// through SkipBernoulliState in arbitrary spans.
void SkipBernoulliKeepIndices(int64_t num_rows, double p, Rng* rng,
                              std::vector<int64_t>* keep);

/// \brief Lineage-seeded Bernoulli over a flat row-major lineage matrix.
///
/// Appends row indexes r in [begin, begin + len) with
/// LineageUnitValue(seed, lineage[r * arity + dim]) < p. Branch-free
/// append (no per-row conditional push).
void LineageBernoulliDense(double p, uint64_t seed, const uint64_t* lineage,
                           int arity, int dim, int64_t begin, int64_t len,
                           std::vector<int64_t>* keep);

/// Selection-vector variant: tests rows sel[0..len) of the lineage matrix
/// and appends the surviving sel values (composes selections in place).
void LineageBernoulliGather(double p, uint64_t seed, const uint64_t* lineage,
                            int arity, int dim, const int64_t* sel,
                            int64_t len, std::vector<int64_t>* keep);

/// \brief One keep/drop decision per distinct block id, drawn at first
/// occurrence.
///
/// Flat vector of states for the dense id range (block ids are row-index /
/// block-size or base-table lineage, both small dense integers), with a
/// hash-map spill for pathological ids beyond the dense cap. Reusable
/// across calls via Reset(), which is O(1): each dense slot carries the
/// epoch it was decided in, so stale decisions from earlier calls expire
/// by epoch bump rather than by re-zeroing the whole vector — repeated
/// block-sampled scans pay neither re-allocation nor an
/// O(historical max block id) clear.
class BlockDecisionCache {
 public:
  /// The block's decision, drawing it on first occurrence.
  bool Decide(uint64_t block, double p, Rng* rng);

  /// Forgets all decisions (keeps allocated capacity; O(1)).
  void Reset();

 private:
  static constexpr uint64_t kDenseCap = uint64_t{1} << 22;

  /// Dense slot: (epoch << 1) | keep. Decided this epoch iff the stored
  /// epoch matches epoch_.
  std::vector<uint32_t> dense_;
  uint32_t epoch_ = 1;  // slots default to 0 = "decided in epoch 0" = stale
  std::unordered_map<uint64_t, bool> sparse_;  // rare: ids >= kDenseCap
};

// ---- Seed-decoupled fixed-size sampling kernels ----------------------------

/// \brief WorPriority with the seed's own mix hoisted out:
/// `mixed_seed` is Mix64(seed).
///
/// Rng::ForkStream(seed, row) seeds xoshiro from
/// s = Mix64(HashCombine(Mix64(seed), Mix64(row))), and its first Next()
/// reads only state word 1, which Rng::Seed sets to Mix64(s + 2 gamma)
/// (gamma = 0x9e3779b97f4a7c15, the SplitMix64 increment). The first draw
/// is therefore Rotl(Mix64(s + 2 gamma) * 5, 7) * 9: 4 Mix64 per row
/// instead of the 8 that building the whole generator state costs.
inline uint64_t WorPriorityMixed(uint64_t mixed_seed, uint64_t row) {
  const uint64_t s = Mix64(HashCombine(mixed_seed, Mix64(row)));
  const uint64_t s1 = Mix64(s + 2 * 0x9e3779b97f4a7c15ULL);
  return std::rotl(s1 * 5, 7) * 9;
}

/// \brief Priority key of row `row` under sampler stream `seed`: exactly
/// Rng::ForkStream(seed, row).Next(), in the closed form above.
///
/// Pure function of its arguments — every engine, thread, and shard computes
/// the identical key for a row, so "keep the n smallest (priority, row)
/// pairs" is a partition-independent definition of a uniform WOR draw:
/// the keys are i.i.d. uniform 64-bit values, and the rows carrying the n
/// smallest keys form a uniformly distributed size-n subset.
inline uint64_t WorPriority(uint64_t seed, uint64_t row) {
  return WorPriorityMixed(Mix64(seed), row);
}

/// \brief Bernoulli(p) keep decision for block `block` under stream `seed`:
/// exactly Rng::ForkStream(seed, block).Uniform() < p, from the closed-form
/// first word.
///
/// Pure function of (seed, block): a block's fate never depends on which
/// morsel or shard evaluates it, so block-sampled scans partition freely.
inline bool DecoupledBlockKeep(uint64_t seed, uint64_t block, double p) {
  return HashToUnit(WorPriority(seed, block)) < p;
}

/// \brief Target row of the d-th with-replacement draw over `population`
/// rows (pure function of (seed, draw)): exactly
/// Rng::ForkStream(seed, draw).UniformInt(population).
///
/// Each draw runs Lemire rejection inside its own forked stream, so the
/// target is exact-uniform and independent across draws. The first word
/// comes in closed form; only a rejected first word (probability below
/// population / 2^64) builds the stream to redraw.
inline int64_t WrDrawTarget(uint64_t seed, int64_t draw, int64_t population) {
  const auto n = static_cast<uint64_t>(population);
  const __uint128_t m =
      static_cast<__uint128_t>(WorPriority(seed, static_cast<uint64_t>(draw))) *
      n;
  const auto lo = static_cast<uint64_t>(m);
  if (lo < n && lo < (0 - n) % n) {
    Rng r = Rng::ForkStream(seed, static_cast<uint64_t>(draw));
    return static_cast<int64_t>(r.UniformInt(n));
  }
  return static_cast<int64_t>(m >> 64);
}

/// A fixed-size WOR candidate: (WorPriority(seed, row), row). Pairs order
/// lexicographically, so ties on the key break on the row index.
using WorCandidate = std::pair<uint64_t, int64_t>;

/// Initial candidate target of the threshold filter: n + 4 sqrt(n) + 16,
/// i.e. ~4 standard deviations above n survivors.
int64_t WorCandidateTarget(int64_t n);

/// \brief Threshold tau under which ~`target` of `num_rows` uniform keys
/// fall: floor(target * 2^64 / num_rows), or UINT64_MAX (every row) when
/// target >= num_rows.
uint64_t WorPriorityThreshold(int64_t num_rows, int64_t target);

/// \brief Appends the candidates of rows [begin, end) whose priority under
/// `seed` is <= tau, in ascending row order (simd::WorPriorityFilter).
void AppendWorCandidates(uint64_t seed, uint64_t tau, int64_t begin,
                         int64_t end, std::vector<WorCandidate>* out);

/// \brief Rows of the n smallest candidates, ascending.
///
/// `cands` must hold at least n pairs in ascending row order (as
/// AppendWorCandidates writes them, range after range): one nth_element
/// over the priorities finds the n-th smallest, and a pass in candidate
/// order keeps the pairs below it plus the first ones at it (the smaller
/// rows, as pairs order), so the output needs no sort.
std::vector<int64_t> SmallestCandidateRows(
    const std::vector<WorCandidate>& cands, int64_t n);

/// \brief Rows holding the n smallest (WorPriority(seed, row), row) pairs
/// over [0, num_rows), ascending. Requires 0 <= n <= num_rows.
///
/// Threshold filter sized for `candidate_target` survivors, doubled and
/// rescanned while fewer than n survive. `num_threads` > 1 splits the
/// filter into per-worker row ranges on the shared pool above a size
/// floor; a call from inside a pool task runs serially rather than lease
/// a private pool. The result is the same at every thread count, tier and
/// target. Production passes WorCandidateTarget(n); a smaller target only
/// forces the rescan path.
std::vector<int64_t> WorSmallestPriorityRows(int64_t num_rows, int64_t n,
                                             uint64_t seed, int num_threads,
                                             int64_t candidate_target);

}  // namespace gus

#endif  // GUS_KERNELS_SAMPLING_KERNELS_H_
