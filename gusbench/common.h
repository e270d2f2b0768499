// Shared pieces of the gusbench binary: options, latency statistics, the
// run report every workload fills, and the metric tables.
//
// Every workload runs in its own process (gusbench --workload <name>), so
// process-wide state — the shared thread pool, peak RSS — belongs to that
// workload alone.
#ifndef GUSBENCH_COMMON_H_
#define GUSBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "data/tpch_gen.h"
#include "est/sbox.h"
#include "plan/exec_stats.h"

namespace gusbench {

/// Command-line options of one run.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  /// false: end-to-end metrics (no tracing). true: per-layer metrics.
  bool trace = false;
  /// Tiny data sizes and a short loop: checks plumbing, not speed.
  bool smoke = false;
  /// Directory for segment files, sockets and the span file (relative to
  /// the working directory; created if missing).
  std::string work_dir = ".bench_build/gusbench/work";
  /// Worker threads for the parallel engines: min(hardware threads, 4).
  int threads = 1;
};

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

inline Clock::duration Seconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

/// SplitMix64 finalizer over (a, b): derives every per-query seed and
/// range from the workload seed.
uint64_t MixSeed(uint64_t a, uint64_t b);

/// \brief One operation type's latency distribution (ms).
///
/// Percentiles are nearest-rank: p_q is the ceil(q*n)-th smallest sample,
/// so exactly n - ceil(q*n) samples lie beyond it.
struct Latencies {
  std::vector<double> ms;

  void Add(double v) { ms.push_back(v); }
  int64_t count() const { return static_cast<int64_t>(ms.size()); }
  double Median() const;
  double Percentile(double q) const;
  /// Samples strictly ranked beyond p_q.
  int64_t Beyond(double q) const;
  /// \brief The tail percentile to report: `preferred`, lowered along
  /// {0.999, 0.99, 0.95, 0.9, 0.75, 0.5} until at least ten samples lie
  /// beyond it.
  double TailQuantile(double preferred) const;
};

double Median(std::vector<double> v);
double Mean(const std::vector<double>& v);

/// Per-layer samples by metric name (one value per traced query).
class LayerSamples {
 public:
  void Add(const std::string& name, double v) { samples_[name].push_back(v); }
  /// Adds one engine call's plan.* and util.* samples.
  void AddExecStats(const gus::ExecStats& stats);
  double MedianOf(const std::string& name) const;
  double MeanOf(const std::string& name) const;
  /// Sets `values[name]` to the median of each time in `medians` and the
  /// mean of each count in `means`.
  void Summarize(const std::vector<std::string>& medians,
                 const std::vector<std::string>& means,
                 std::map<std::string, double>* values) const;

 private:
  std::map<std::string, std::vector<double>> samples_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// \brief What one run reports: the last-line JSON result object plus
/// a detail object (sample counts, percentiles used, checks) printed on
/// the line before it.
struct RunReport {
  int64_t attempted = 0;
  /// Failed, refused and wrong-answer operations; never dropped from
  /// `attempted`.
  int64_t failed = 0;
  int64_t wrong = 0;
  std::vector<Metric> metrics;
  /// Detail fields as preformatted JSON values.
  std::map<std::string, std::string> detail;

  void SetMetric(const std::string& name, double value,
                 const std::string& unit);
  void Detail(const std::string& key, double v);
  void Detail(const std::string& key, const std::string& text);
  bool correct() const { return failed == 0 && wrong == 0 && attempted > 0; }
};

/// A per-layer metric: name and unit, as BENCHMARK.json lists them.
struct MetricDef {
  const char* name;
  const char* unit;
};
const std::vector<MetricDef>& PerLayerMetrics();

inline constexpr size_t kCiQueries = 100;

/// \brief Fills the shared end-to-end metrics from one run's
/// distributions. `main` feeds latency_p50_ms / latency_tail_ms,
/// `repeat` feeds hit_latency_p50_ms; `ops` operations of every type
/// completed in `wall_s` seconds of closed-loop load. success_ratio is
/// 1 - error_rate over report->attempted. `ci_rel_halfwidths` are in query
/// order; the metric is their median over the first kCiQueries, which are
/// the same queries in every run of a seed.
void ReportEndToEnd(const Latencies& main, double tail_preferred,
                    const Latencies& repeat, int64_t ops, double wall_s,
                    const std::vector<double>& ci_rel_halfwidths,
                    double setup_s, double peak_rss_mb, RunReport* report);

/// \brief Emits every per-layer metric: `values` holds the ones the
/// workload measured; the rest are layers its path never enters and
/// report 0.
void ReportPerLayer(const std::map<std::string, double>& values,
                    RunReport* report);

/// Resets the kernel's peak-RSS mark to the current RSS (false when the
/// kernel refuses; PeakRssMb then reports the process lifetime peak).
bool ResetPeakRss();
/// Peak resident set since the last ResetPeakRss, MiB.
double PeakRssMb();

/// Returns freed heap to the kernel, so a repeated set-up pays the
/// first-touch page faults a fresh process pays.
void ReleaseFreeMemory();

/// Serial-layout (gen_threads = 1) TPC-H configuration.
gus::TpchConfig TpchConfigFor(int64_t orders, uint64_t data_seed);

/// Bit-exact double comparison (NaN-safe: compares the bit patterns).
bool SameBits(double a, double b);

/// Bit-exact comparison of two SBox reports (estimate, variance, interval,
/// sample rows).
bool SameReport(const gus::SboxReport& a, const gus::SboxReport& b);

/// Writes `report` as the detail line and the result line.
void PrintReport(const RunReport& report);

}  // namespace gusbench

#endif  // GUSBENCH_COMMON_H_
