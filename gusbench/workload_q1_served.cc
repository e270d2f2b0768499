// q1_served: the paper's Query 1 registered on two in-process
// WorkerDaemons behind Unix sockets, driven by one closed-loop client
// through SessionCoordinator::Execute. The client sends a fresh-seed query
// (a view-cache miss: scatter, daemon execute, wire, fold) and then repeats
// it (a hit: bundle parse + Finish only). The path runs serve, dist and the
// wire format; it bypasses sqlish and store.
#include <sched.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "data/tpch_gen.h"
#include "data/workload.h"
#include "dist/coordinator.h"
#include "dist/worker.h"
#include "est/streaming.h"
#include "est/wire.h"
#include "plan/exec_stats.h"
#include "plan/soa_transform.h"
#include "serve/daemon.h"
#include "serve/protocol.h"
#include "serve/session.h"
#include "serve/view_cache.h"
#include "trace.h"
#include "workloads.h"

namespace gusbench {
namespace {

struct Sizes {
  int64_t orders;
  int64_t orders_sampled;
  int64_t morsel_rows;
};

constexpr Sizes kFull{100000, 10000, 16384};
constexpr Sizes kSmoke{2000, 200, 1024};
/// CPUs the whole workload (client, coordinator, daemons) runs on.
constexpr int kServedCpus = 1;
constexpr int kDaemons = 2;
constexpr int kShards = 2;
/// latency_tail_ms percentile: 200+ main operations a run keep 20+
/// samples beyond it.
constexpr double kTailQuantile = 0.90;
/// Traced misses whose layers are re-run from outside after the loop.
constexpr size_t kProbeQueries = 40;
const char* const kQueryName = "q1";

/// \brief Narrows this thread's CPU affinity (inherited by every thread it
/// starts later) to the first `cpus` CPUs it may run on.
///
/// Every miss hands off between half a dozen threads (client, scatter,
/// socket readers, daemon workers). Spread over idle CPUs of a virtualized
/// host, each handoff waits for the host to wake a CPU, and the miss p50
/// moved between 17 and 33 ms from run to run; on one CPU the handoffs are
/// plain context switches.
void NarrowAffinity(int cpus) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  cpu_set_t narrowed;
  CPU_ZERO(&narrowed);
  int taken = 0;
  for (int c = 0; c < CPU_SETSIZE && taken < cpus; ++c) {
    if (CPU_ISSET(c, &allowed)) {
      CPU_SET(c, &narrowed);
      ++taken;
    }
  }
  sched_setaffinity(0, sizeof(narrowed), &narrowed);
}

/// One fresh query and its repeat, as the client saw them.
struct Exchange {
  int64_t query = 0;
  uint64_t seed = 0;
  int root_span = -1;  // traced runs only
  double miss_ms = 0.0;
  gus::SboxReport report;
  int64_t shard_attempts = 0;
  int64_t shard_retries = 0;
  int64_t cache_hits = 0;    // over the miss and its repeat
  int64_t cache_misses = 0;  // over the miss and its repeat
};

/// What one closed-loop phase produced.
struct Phase {
  Latencies miss;
  Latencies hit;
  std::vector<Exchange> exchanges;
  int64_t ops = 0;
  double wall_s = 0.0;
  int64_t daemon_requests = 0;
};

/// The daemon fleet plus the client-side coordinator.
struct Fleet {
  std::vector<std::unique_ptr<gus::WorkerDaemon>> daemons;
  std::vector<gus::Endpoint> endpoints;
  std::unique_ptr<gus::SessionCoordinator> coordinator;

  int64_t RequestsServed() const {
    int64_t total = 0;
    for (const auto& d : daemons) total += d->requests_served();
    return total;
  }
  void Stop() {
    if (coordinator) coordinator->Shutdown();
    coordinator.reset();
    for (auto& d : daemons) d->Stop();
    daemons.clear();
    endpoints.clear();
  }
};

}  // namespace

int RunQ1Served(const Options& opt, RunReport* report) {
  const Sizes sizes = opt.smoke ? kSmoke : kFull;
  const uint64_t data_seed = MixSeed(opt.seed, 0xDA7A);
  NarrowAffinity(kServedCpus);

  gus::Query1Params params;
  params.lineitem_p = 0.1;
  params.orders_n = sizes.orders_sampled;
  params.orders_population = sizes.orders;
  const gus::Workload q1 = gus::MakeQuery1(params);
  auto soa = gus::SoaTransform(q1.plan);
  if (!soa.ok()) {
    std::fprintf(stderr, "q1_served: %s\n", soa.status().ToString().c_str());
    return 1;
  }
  gus::ServedQuery served{q1.plan, q1.aggregate, soa->top, gus::SboxOptions{}};

  // Set-up: data generation + two daemons (catalog load, warm, bind) + the
  // coordinator. Repeated; the last fleet stays up for the measurement.
  std::vector<double> setup_ms;
  std::vector<double> generate_ms;
  std::vector<double> fleet_start_ms;
  gus::Catalog catalog;
  Fleet fleet;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    fleet.Stop();
    catalog = gus::Catalog();
    ReleaseFreeMemory();
    const Clock::time_point t0 = Clock::now();
    {
      gus::TpchData data =
          gus::GenerateTpch(TpchConfigFor(sizes.orders, data_seed));
      catalog = data.MakeCatalog();
    }
    generate_ms.push_back(MsSince(t0));
    for (int k = 0; k < kDaemons; ++k) {
      auto daemon = std::make_unique<gus::WorkerDaemon>(catalog);
      gus::Status st = daemon->RegisterQuery(kQueryName, served);
      const std::string path = opt.work_dir + "/q1s-" +
                               std::to_string(::getpid()) + "-" +
                               std::to_string(k) + ".sock";
      auto listen = gus::Endpoint::Parse("unix:" + path);
      const Clock::time_point s0 = Clock::now();
      auto bound = st.ok() && listen.ok()
                       ? daemon->Start(*listen)
                       : gus::Result<gus::Endpoint>(
                             st.ok() ? listen.status() : st);
      fleet_start_ms.push_back(MsSince(s0));
      if (!bound.ok()) {
        std::fprintf(stderr, "q1_served: daemon start failed: %s\n",
                     bound.status().ToString().c_str());
        fleet.Stop();
        return 1;
      }
      fleet.endpoints.push_back(*bound);
      fleet.daemons.push_back(std::move(daemon));
    }
    fleet.coordinator =
        std::make_unique<gus::SessionCoordinator>(fleet.endpoints);
    setup_ms.push_back(MsSince(t0));
  }

  gus::ViewCache cache;
  auto request_for = [&](uint64_t seed, gus::ExecStats* stats) {
    gus::ServedRequest req;
    req.seed = seed;
    req.num_shards = kShards;
    req.morsel_rows = sizes.morsel_rows;
    req.num_threads = 1;
    req.use_cache = true;
    req.cache = &cache;
    req.stats = stats;
    return req;
  };

  // Warm-up outside timing: plan-info fetch, connections, first miss/hit.
  for (uint64_t k = 0; k < 2; ++k) {
    const auto req = request_for(MixSeed(opt.seed, 1'000'000 + k), nullptr);
    for (int pass = 0; pass < 2; ++pass) {
      auto warm = fleet.coordinator->Execute(kQueryName, req);
      if (!warm.ok()) {
        std::fprintf(stderr, "q1_served: warm-up failed: %s\n",
                     warm.status().ToString().c_str());
        fleet.Stop();
        return 1;
      }
    }
  }
  ResetPeakRss();

  int64_t next_query = 0;
  std::string first_error;
  Tracer tracer;

  auto run_phase = [&](double seconds, bool traced) {
    Phase phase;
    const int64_t requests_before = fleet.RequestsServed();
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline = start + Seconds(seconds);
    while (Clock::now() < deadline) {
      Exchange ex;
      ex.query = next_query++;
      ex.seed = MixSeed(opt.seed, static_cast<uint64_t>(ex.query));
      const int root = traced ? tracer.Begin("request", ex.query) : -1;
      ex.root_span = root;
      gus::ExecStats miss_stats;
      const int miss_span =
          traced ? tracer.Begin("serve.Execute.miss", ex.query, root) : -1;
      const Clock::time_point t0 = Clock::now();
      auto first = fleet.coordinator->Execute(
          kQueryName, request_for(ex.seed, &miss_stats));
      ex.miss_ms = MsSince(t0);
      if (traced) tracer.End(miss_span);
      ++phase.ops;
      ++report->attempted;
      if (!first.ok()) {
        ++report->failed;
        if (first_error.empty()) first_error = first.status().ToString();
        if (traced) tracer.End(root);
        continue;
      }
      if (first->cache_hit || first->degraded) ++report->wrong;
      phase.miss.Add(ex.miss_ms);
      ex.report = first->report;
      ex.shard_attempts = miss_stats.shard_attempts;
      ex.shard_retries = miss_stats.shard_retries;
      ex.cache_hits = miss_stats.cache_hits;
      ex.cache_misses = miss_stats.cache_misses;
      if (traced) {
        tracer.Count(miss_span, "shard_attempts",
                     static_cast<double>(miss_stats.shard_attempts));
        tracer.Count(miss_span, "shard_retries",
                     static_cast<double>(miss_stats.shard_retries));
      }

      gus::ExecStats hit_stats;
      const int hit_span =
          traced ? tracer.Begin("serve.Execute.hit", ex.query, root) : -1;
      const Clock::time_point h0 = Clock::now();
      auto again = fleet.coordinator->Execute(
          kQueryName, request_for(ex.seed, &hit_stats));
      const double hit_ms = MsSince(h0);
      if (traced) {
        tracer.End(hit_span);
        tracer.End(root);
      }
      ++phase.ops;
      ++report->attempted;
      if (!again.ok()) {
        ++report->failed;
        if (first_error.empty()) first_error = again.status().ToString();
      } else {
        phase.hit.Add(hit_ms);
        if (!again->cache_hit || !SameReport(again->report, ex.report)) {
          ++report->wrong;
        }
        ex.cache_hits += hit_stats.cache_hits;
        ex.cache_misses += hit_stats.cache_misses;
      }
      phase.exchanges.push_back(std::move(ex));
    }
    phase.wall_s =
        std::chrono::duration<double>(Clock::now() - start).count();
    phase.daemon_requests = fleet.RequestsServed() - requests_before;
    return phase;
  };

  Phase main_phase = run_phase(opt.trace ? opt.seconds / 2 : opt.seconds,
                               /*traced=*/false);
  const double peak_rss = PeakRssMb();
  Phase traced_phase;
  if (opt.trace) traced_phase = run_phase(opt.seconds / 2, /*traced=*/true);

  // Answer checks, outside timing. Hits executed nothing: the daemons ran
  // exactly the misses' shard attempts.
  int64_t wrong_requests = 0;
  for (const Phase* p : {&main_phase, &traced_phase}) {
    int64_t attempts = 0;
    for (const Exchange& ex : p->exchanges) attempts += ex.shard_attempts;
    if (p->daemon_requests != attempts) ++wrong_requests;
  }
  report->wrong += wrong_requests;
  // Every miss is bit-identical to the in-process sharded estimate at the
  // same seed and geometry.
  gus::ColumnarCatalog reference(&catalog);
  gus::ExecOptions exec;
  exec.num_threads = kServedCpus;
  exec.morsel_rows = sizes.morsel_rows;
  int64_t mismatches = 0;
  std::vector<double> ci;
  for (const Phase* p : {&main_phase, &traced_phase}) {
    for (const Exchange& ex : p->exchanges) {
      auto ref = gus::ShardedSboxEstimateOverCatalog(
          q1.plan, &reference, ex.seed, gus::ExecMode::kSampled, exec,
          kShards, q1.aggregate, soa->top, served.sbox);
      if (!ref.ok() || !SameReport(*ref, ex.report)) ++mismatches;
      ci.push_back(0.5 * (ex.report.interval.hi - ex.report.interval.lo) /
                   std::abs(ex.report.estimate));
    }
  }
  report->wrong += mismatches;
  report->Detail("check.answers",
                 static_cast<double>(main_phase.exchanges.size() +
                                     traced_phase.exchanges.size()));
  report->Detail("check.mismatches", static_cast<double>(mismatches));
  report->Detail("check.daemon_request_mismatches",
                 static_cast<double>(wrong_requests));
  report->Detail("daemon_requests", static_cast<double>(
                                        main_phase.daemon_requests +
                                        traced_phase.daemon_requests));
  if (!first_error.empty()) report->Detail("first_error", first_error);

  if (!opt.trace) {
    fleet.Stop();
    ReportEndToEnd(main_phase.miss, kTailQuantile, main_phase.hit,
                   main_phase.ops, main_phase.wall_s, ci,
                   Median(setup_ms) / 1000.0, peak_rss, report);
    return 0;
  }

  // Layer probes, after the loop so they contend with nothing: the most
  // recent traced misses (still resident in the view cache) are re-run
  // layer by layer through the public entry points underneath Execute.
  // On one CPU the shards run one after the other, so a miss's critical
  // path holds every shard's execution, not only the slowest.
  LayerSamples layers;
  gus::DaemonChannel channel(fleet.endpoints.front());
  gus::WireWriter name_writer;
  name_writer.PutString(kQueryName);
  const std::string info_body = name_writer.buffer();
  gus::ExecOptions shard_exec;
  shard_exec.num_threads = 1;
  shard_exec.morsel_rows = sizes.morsel_rows;
  int64_t probe_failures = 0;
  Latencies traced_miss;
  const std::vector<Exchange>& traced_ex = traced_phase.exchanges;
  const size_t first_probe =
      traced_ex.size() > kProbeQueries ? traced_ex.size() - kProbeQueries : 0;
  for (size_t i = 0; i < traced_ex.size(); ++i) {
    const Exchange& ex = traced_ex[i];
    traced_miss.Add(ex.miss_ms);
    layers.Add("serve.shard_attempts",
               static_cast<double>(ex.shard_attempts));
    layers.Add("serve.shard_retries", static_cast<double>(ex.shard_retries));
    layers.Add("est.sample_rows", static_cast<double>(ex.report.sample_rows));
    if (i < first_probe) continue;
    const int root = tracer.Begin("probe", ex.query, ex.root_span);

    std::vector<std::string> bundles(kShards);
    double shards_ms = 0.0;
    int64_t wire_bytes = 0;
    bool ok = true;
    for (int k = 0; k < kShards && ok; ++k) {
      gus::ExecStats stats;
      gus::ExecOptions e = shard_exec;
      e.stats = &stats;
      const int span = tracer.Begin("dist.RunShardSbox", ex.query, root);
      auto bundle = gus::RunShardSbox(q1.plan, &reference, ex.seed,
                                      gus::ExecMode::kSampled, e, k, kShards,
                                      q1.aggregate, soa->top, served.sbox);
      const double ms = tracer.End(span);
      if (!bundle.ok()) {
        ok = false;
        break;
      }
      bundles[static_cast<size_t>(k)] = std::move(bundle).ValueOrDie();
      wire_bytes +=
          static_cast<int64_t>(bundles[static_cast<size_t>(k)].size());
      shards_ms += ms;
      layers.Add("dist.shard_exec_ms", ms);
      layers.AddExecStats(stats);
    }
    if (!ok) {
      ++probe_failures;
      tracer.End(root);
      continue;
    }

    int span = tracer.Begin("est.ParseWireBundle", ex.query, root);
    for (const std::string& b : bundles) {
      ok = ok && gus::ParseWireBundle(b).ok();
    }
    const double parse_ms = tracer.End(span);

    // The plan-info round trip is the smallest frame the daemons answer;
    // its reply also names the pivot the fold needs.
    span = tracer.Begin("serve.DaemonChannel.Call", ex.query, root);
    auto info_bytes =
        channel.Call(gus::ServeMsg::kPlanInfoRequest, 1, info_body,
                     gus::ServeMsg::kPlanInfoResponse);
    const double rtt_ms = tracer.End(span);
    auto info = info_bytes.ok()
                    ? gus::ServePlanInfoFromBytes(*info_bytes)
                    : gus::Result<gus::ServePlanInfo>(info_bytes.status());
    ok = ok && info.ok();

    double fold_ms = 0.0;
    if (ok) {
      std::vector<int> ids;
      std::vector<const std::string*> views;
      for (int k = 0; k < kShards; ++k) {
        ids.push_back(k);
        views.push_back(&bundles[static_cast<size_t>(k)]);
      }
      span = tracer.Begin("dist.FoldGatheredShardBundles", ex.query, root);
      auto folded = gus::FoldGatheredShardBundles(ids, views, kShards,
                                                  info->pivot_relation, {});
      fold_ms = tracer.End(span);
      ok = folded.ok() && SameReport(folded->report, ex.report);
    }

    double finish_ms = 0.0;
    if (ok) {
      gus::ViewCacheKey key;
      key.query_fingerprint = info->query_fingerprint;
      key.catalog_fingerprint = info->catalog_fingerprint;
      key.seed = ex.seed;
      key.morsel_rows = sizes.morsel_rows;
      const double scale = 1.0;
      std::memcpy(&key.scale_bits, &scale, sizeof(scale));
      span = tracer.Begin("est.Finish", ex.query, root);
      std::optional<std::string> cached = cache.Lookup(key);
      bool finished = false;
      if (cached.has_value()) {
        auto sections = gus::ParseWireBundle(*cached);
        if (sections.ok()) {
          auto sbox =
              gus::FindWireSection(*sections, gus::WireTag::kSboxState);
          if (sbox.ok()) {
            auto merged =
                gus::StreamingSboxEstimator::DeserializeState(sbox->payload);
            if (merged.ok()) {
              auto done = merged->Finish();
              finished = done.ok() && SameReport(*done, ex.report);
            }
          }
        }
      }
      finish_ms = tracer.End(span);
      ok = finished;
    }
    tracer.End(root);
    if (!ok) {
      ++probe_failures;
      continue;
    }
    layers.Add("est.wire_bytes", static_cast<double>(wire_bytes));
    layers.Add("est.bundle_parse_ms", parse_ms);
    layers.Add("dist.fold_ms", fold_ms);
    layers.Add("serve.rtt_ms", rtt_ms);
    layers.Add("est.finish_ms", finish_ms);
    layers.Add("dist.shards_ms", shards_ms);
    // The fold parses, merges and finishes the bundles itself, so parse and
    // finish are inside fold_ms and not subtracted again.
    layers.Add("serve.wait_ms", ex.miss_ms - (shards_ms + fold_ms + rtt_ms));
  }
  channel.Shutdown();
  fleet.Stop();
  report->failed += probe_failures;
  report->Detail("trace.probe_failures", static_cast<double>(probe_failures));

  std::map<std::string, double> values;
  layers.Summarize({"plan.prepare_ms", "plan.morsel_loop_ms",
                    "plan.sink_fold_ms", "est.bundle_parse_ms",
                    "est.finish_ms", "dist.shard_exec_ms", "dist.fold_ms",
                    "serve.rtt_ms", "serve.wait_ms"},
                   {"plan.rows_emitted", "plan.morsels", "util.pool_wakeups",
                    "util.pool_threads_spawned", "est.sample_rows",
                    "est.wire_bytes", "serve.shard_attempts",
                    "serve.shard_retries"},
                   &values);
  int64_t hits = 0, lookups = 0, misses = 0;
  for (const Exchange& ex : traced_ex) {
    hits += ex.cache_hits;
    lookups += ex.cache_hits + ex.cache_misses;
    ++misses;
  }
  values["serve.cache_hit_ratio"] =
      lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups)
                  : 0.0;
  values["serve.daemon_requests"] =
      misses > 0 ? static_cast<double>(traced_phase.daemon_requests) /
                       static_cast<double>(misses)
                 : 0.0;
  values["data.generate_ms"] = Median(generate_ms);
  values["serve.fleet_start_ms"] = Median(fleet_start_ms);
  // Blocking steps of a miss: the shards, the fold (which includes bundle
  // parse and Finish), one round trip, and the waiting around them.
  const double layer_sum = layers.MedianOf("dist.shards_ms") +
                           values["dist.fold_ms"] + values["serve.rtt_ms"] +
                           values["serve.wait_ms"];
  values["trace.unattributed_ms"] = traced_miss.Median() - layer_sum;
  values["trace.overhead_ms"] =
      traced_miss.Median() - main_phase.miss.Median();
  ReportPerLayer(values, report);
  report->Detail("trace.queries", static_cast<double>(traced_miss.count()));
  report->Detail("trace.probed_queries",
                 static_cast<double>(traced_ex.size() - first_probe));
  report->Detail("trace.daemon_requests",
                 static_cast<double>(traced_phase.daemon_requests));
  report->Detail("trace.file", TracePath(opt));
  if (!tracer.Write(TracePath(opt))) {
    std::fprintf(stderr, "q1_served: cannot write %s\n",
                 TracePath(opt).c_str());
    return 1;
  }
  return 0;
}

}  // namespace gusbench
