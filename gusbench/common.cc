#include "common.h"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>

namespace gusbench {

uint64_t MixSeed(uint64_t a, uint64_t b) {
  uint64_t z = a ^ (b * 0x9E3779B97F4A7C15ull + 0x632BE59BD9B4E019ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double Latencies::Median() const { return gusbench::Median(ms); }

namespace {

int64_t NearestRank(int64_t n, double q) {
  int64_t rank = static_cast<int64_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<int64_t>(rank, 1, n);
}

}  // namespace

double Latencies::Percentile(double q) const {
  if (ms.empty()) return 0.0;
  std::vector<double> sorted = ms;
  std::sort(sorted.begin(), sorted.end());
  return sorted[static_cast<size_t>(NearestRank(count(), q) - 1)];
}

int64_t Latencies::Beyond(double q) const {
  if (ms.empty()) return 0;
  return count() - NearestRank(count(), q);
}

double Latencies::TailQuantile(double preferred) const {
  static const double kLadder[] = {0.999, 0.99, 0.95, 0.9, 0.75, 0.5};
  for (double q : kLadder) {
    if (q > preferred) continue;
    if (Beyond(q) >= 10) return q;
  }
  return 0.5;
}

void LayerSamples::AddExecStats(const gus::ExecStats& stats) {
  Add("plan.prepare_ms", stats.prepare_ms);
  Add("plan.morsel_loop_ms", stats.parallel_ms);
  Add("plan.sink_fold_ms", stats.sink_fold_ms);
  Add("plan.rows_emitted", static_cast<double>(stats.rows_emitted));
  Add("plan.morsels", static_cast<double>(stats.morsels));
  Add("util.pool_wakeups", static_cast<double>(stats.pool_wakeups));
  Add("util.pool_threads_spawned",
      static_cast<double>(stats.pool_threads_spawned));
}

void LayerSamples::Summarize(const std::vector<std::string>& medians,
                             const std::vector<std::string>& means,
                             std::map<std::string, double>* values) const {
  for (const std::string& name : medians) (*values)[name] = MedianOf(name);
  for (const std::string& name : means) (*values)[name] = MeanOf(name);
}

double LayerSamples::MedianOf(const std::string& name) const {
  auto it = samples_.find(name);
  return it == samples_.end() ? 0.0 : Median(it->second);
}

double LayerSamples::MeanOf(const std::string& name) const {
  auto it = samples_.find(name);
  return it == samples_.end() ? 0.0 : Mean(it->second);
}

void RunReport::SetMetric(const std::string& name, double value,
                          const std::string& unit) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics.push_back(Metric{name, value, unit});
}

namespace {

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

void RunReport::Detail(const std::string& key, double v) {
  detail[key] = JsonNumber(v);
}

void RunReport::Detail(const std::string& key, const std::string& text) {
  detail[key] = JsonString(text);
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> kDefs = {
      {"data.generate_ms", "ms"},
      {"sqlish.parse_ms", "ms"},
      {"sqlish.plan_ms", "ms"},
      {"plan.soa_ms", "ms"},
      {"plan.columnar_ingest_ms", "ms"},
      {"plan.prepare_ms", "ms"},
      {"plan.morsel_loop_ms", "ms"},
      {"plan.sink_fold_ms", "ms"},
      {"plan.rows_emitted", "count"},
      {"plan.morsels", "count"},
      {"util.pool_wakeups", "count"},
      {"util.pool_threads_spawned", "count"},
      {"est.sample_rows", "count"},
      {"est.wire_bytes", "bytes"},
      {"est.bundle_parse_ms", "ms"},
      {"est.finish_ms", "ms"},
      {"dist.shard_exec_ms", "ms"},
      {"dist.fold_ms", "ms"},
      {"serve.fleet_start_ms", "ms"},
      {"serve.rtt_ms", "ms"},
      {"serve.wait_ms", "ms"},
      {"serve.cache_hit_ratio", "ratio"},
      {"serve.shard_attempts", "count"},
      {"serve.shard_retries", "count"},
      {"serve.daemon_requests", "count"},
      {"store.ingest_ms", "ms"},
      {"store.open_ms", "ms"},
      {"store.bytes_per_user_byte", "ratio"},
      {"store.fault_ms", "ms"},
      {"store.segments_skipped", "count"},
      {"store.segments_faulted", "count"},
      {"store.skip_fraction", "ratio"},
      {"store.bytes_read_mb", "MiB"},
      {"store.evictions", "count"},
      {"store.cache_hit_ratio", "ratio"},
      {"store.segments_unaccounted", "count"},
      {"trace.unattributed_ms", "ms"},
      {"trace.overhead_ms", "ms"},
  };
  return kDefs;
}

void ReportEndToEnd(const Latencies& main, double tail_preferred,
                    const Latencies& repeat, int64_t ops, double wall_s,
                    const std::vector<double>& ci_rel_halfwidths,
                    double setup_s, double peak_rss_mb, RunReport* report) {
  const double tail_q = main.TailQuantile(tail_preferred);
  report->SetMetric("latency_p50_ms", main.Median(), "ms");
  report->SetMetric("latency_tail_ms", main.Percentile(tail_q), "ms");
  report->SetMetric("throughput_qps",
                    wall_s > 0.0 ? static_cast<double>(ops) / wall_s : 0.0,
                    "1/s");
  report->SetMetric("hit_latency_p50_ms", repeat.Median(), "ms");
  const double attempted = static_cast<double>(report->attempted);
  const double bad = static_cast<double>(report->failed + report->wrong);
  const double error_rate = attempted > 0.0 ? bad / attempted : 1.0;
  report->SetMetric("success_ratio", 1.0 - error_rate, "ratio");
  const size_t ci_queries = std::min(ci_rel_halfwidths.size(), kCiQueries);
  report->SetMetric(
      "ci_rel_halfwidth",
      Median(std::vector<double>(ci_rel_halfwidths.begin(),
                                 ci_rel_halfwidths.begin() + ci_queries)),
      "ratio");
  report->SetMetric("setup_s", setup_s, "s");
  report->SetMetric("peak_rss_mb", peak_rss_mb, "MiB");

  report->Detail("latency.samples", static_cast<double>(main.count()));
  for (double q : {0.75, 0.9, 0.95, 0.99}) {
    char key[32];
    std::snprintf(key, sizeof(key), "latency.p%g", 100.0 * q);
    report->Detail(key, main.Percentile(q));
  }
  report->Detail("latency_tail.percentile", 100.0 * tail_q);
  report->Detail("latency_tail.samples_beyond",
                 static_cast<double>(main.Beyond(tail_q)));
  report->Detail("hit_latency.samples", static_cast<double>(repeat.count()));
  report->Detail("throughput.ops", static_cast<double>(ops));
  report->Detail("throughput.wall_s", wall_s);
  report->Detail("error_rate", error_rate);
  report->Detail("ci_rel_halfwidth.samples", static_cast<double>(ci_queries));
}

void ReportPerLayer(const std::map<std::string, double>& values,
                    RunReport* report) {
  for (const MetricDef& def : PerLayerMetrics()) {
    auto it = values.find(def.name);
    report->SetMetric(def.name, it == values.end() ? 0.0 : it->second,
                      def.unit);
  }
}

bool ResetPeakRss() {
  // Writing "5" to clear_refs resets VmHWM to the current RSS (Linux >= 4.0).
  std::ofstream clear("/proc/self/clear_refs");
  if (!clear) return false;
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

void ReleaseFreeMemory() { malloc_trim(0); }

gus::TpchConfig TpchConfigFor(int64_t orders, uint64_t data_seed) {
  gus::TpchConfig config;
  config.num_orders = orders;
  config.num_customers = std::max<int64_t>(1, orders / 10);
  config.num_parts = 200;
  config.max_lineitems_per_order = 7;
  config.seed = data_seed;
  config.gen_threads = 1;
  return config;
}

bool SameBits(double a, double b) {
  uint64_t x = 0, y = 0;
  std::memcpy(&x, &a, sizeof(x));
  std::memcpy(&y, &b, sizeof(y));
  return x == y;
}

bool SameReport(const gus::SboxReport& a, const gus::SboxReport& b) {
  return SameBits(a.estimate, b.estimate) &&
         SameBits(a.variance, b.variance) && SameBits(a.stddev, b.stddev) &&
         SameBits(a.interval.lo, b.interval.lo) &&
         SameBits(a.interval.hi, b.interval.hi) &&
         a.sample_rows == b.sample_rows;
}

void PrintReport(const RunReport& report) {
  std::string detail = "{\"detail\": {";
  bool first = true;
  for (const auto& [key, value] : report.detail) {
    if (!first) detail += ", ";
    first = false;
    detail += JsonString(key) + ": " + value;
  }
  detail += "}}";
  std::printf("%s\n", detail.c_str());

  std::string out = "{\"correct\": ";
  out += report.correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed + report.wrong);
  out += ", \"metrics\": {";
  first = true;
  for (const Metric& m : report.metrics) {
    if (!first) out += ", ";
    first = false;
    out += JsonString(m.name) + ": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": " + JsonString(m.unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace gusbench
