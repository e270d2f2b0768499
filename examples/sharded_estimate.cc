// Shared-nothing distributed estimation, end to end (src/dist/).
//
// Three ways to run it:
//
//   example_sharded_estimate
//       Full single-binary demo: scatter Query 1 over 1/2/4/8 in-process
//       shards (LocalTransport), verify the estimates are bit-identical,
//       then replay the same query multi-process style through a
//       FileTransport spool directory.
//
//   example_sharded_estimate --worker K --shards N --dir DIR [--seed S]
//       Run ONLY shard K of N and write its serialized estimator state to
//       DIR/shard-K.gusb. Launch one process per shard (any order, any
//       machine sharing DIR).
//
//   example_sharded_estimate --gather --shards N --dir DIR [--seed S]
//       Gather: read the N shard files, validate consistency, merge, and
//       print the estimate with its confidence interval. With
//       --allow-partial, shards whose bundles are missing or damaged are
//       excluded and the survivors re-weighted into an unbiased degraded
//       estimate (est/partial_gather.h) instead of failing the gather.
//
// The full demo also honors GUS_FAULT (util/fault_inject.h) and
// --deadline-ms: the fault-tolerant scatter/gather retries transient
// failures with backoff and — under --allow-partial — degrades when a
// shard exhausts its budget. CI runs the worker/gather form under
// GUS_FAULT kill specs as its fault smoke.
//
// Every process regenerates the same deterministic TPC-H-shaped catalog —
// the shared-nothing stand-in for "each node holds (a copy of) the base
// data". The wire protocol is specified in docs/WIRE_FORMAT.md.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "data/tpch_gen.h"
#include "data/workload.h"
#include "dist/coordinator.h"
#include "dist/shard.h"
#include "dist/transport.h"
#include "dist/worker.h"
#include "plan/exec_stats.h"
#include "plan/soa_transform.h"

namespace {

using namespace gus;

/// The demo workload: paper Query 1 over a deterministic catalog that
/// every participating process can regenerate bit-identically.
struct DemoQuery {
  TpchData data;
  Catalog catalog;
  Workload q1;
  SoaResult soa;
  SboxOptions options;
  ExecOptions exec;

  DemoQuery() {
    TpchConfig config;
    config.num_orders = 20000;
    config.num_customers = 2000;
    config.num_parts = 500;
    data = GenerateTpch(config);
    catalog = data.MakeCatalog();
    Query1Params params;
    params.lineitem_p = 0.3;
    params.orders_n = 8000;
    params.orders_population = 20000;
    q1 = MakeQuery1(params);
    soa = SoaTransform(q1.plan).ValueOrDie();
    options.subsample = SubsampleConfig{};
    exec.morsel_rows = 4096;  // fixed: part of the result's identity
  }
};

void PrintReport(const char* label, const SboxReport& report) {
  std::printf("%-28s estimate %.6f  stddev %.6f  95%% CI [%.6f, %.6f]  "
              "(%lld tuples, %lld for variance)\n",
              label, report.estimate, report.stddev, report.interval.lo,
              report.interval.hi, static_cast<long long>(report.sample_rows),
              static_cast<long long>(report.variance_rows));
}

int RunWorker(const DemoQuery& demo, uint64_t seed, int shard, int shards,
              const std::string& dir) {
  ColumnarCatalog columnar(&demo.catalog);
  auto bundle = RunShardSbox(demo.q1.plan, &columnar, seed,
                             ExecMode::kSampled, demo.exec, shard, shards,
                             demo.q1.aggregate, demo.soa.top, demo.options);
  if (!bundle.ok()) {
    std::fprintf(stderr, "worker %d failed: %s\n", shard,
                 bundle.status().ToString().c_str());
    return 1;
  }
  FileTransport files(dir);
  Status sent = files.Send(shard, std::move(bundle).ValueOrDie());
  if (!sent.ok()) {
    std::fprintf(stderr, "send failed: %s\n", sent.ToString().c_str());
    return 1;
  }
  std::printf("shard %d/%d state written to %s\n", shard, shards,
              files.ShardPath(shard).c_str());
  return 0;
}

int RunGather(int shards, const std::string& dir, bool allow_partial) {
  // A degraded gather must know which lineage agreement sets pin a pair of
  // rows to one shard — the plan's pivot relation. Every process can
  // recompute it deterministically, exactly like the workers recompute
  // their own shard specs.
  std::string pivot;
  if (allow_partial) {
    DemoQuery demo;
    ColumnarCatalog columnar(&demo.catalog);
    auto sp = PlanShards(demo.q1.plan, &columnar, ExecMode::kSampled,
                         ShardedExecOptions(demo.exec), shards);
    if (!sp.ok()) {
      std::fprintf(stderr, "plan failed: %s\n",
                   sp.status().ToString().c_str());
      return 1;
    }
    if (sp.ValueOrDie().split.partitionable) {
      pivot = sp.ValueOrDie().split.pivot_relation;
    }
  }
  FileTransport files(dir);
  auto result = GatherSboxEstimate(&files, shards, pivot, allow_partial);
  if (!result.ok()) {
    std::fprintf(stderr, "gather failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  const FaultTolerantResult& ft = result.ValueOrDie();
  PrintReport(ft.degraded ? "DEGRADED estimate" : "gathered estimate",
              ft.report);
  if (ft.degraded) {
    std::printf("  %s\n", ft.degradation.ToString().c_str());
  }
  return 0;
}

int RunDemo(const DemoQuery& demo, uint64_t seed, bool allow_partial,
            int64_t deadline_ms) {
  std::printf("Query 1 over %lld lineitems, %lld orders "
              "(seed %llu, morsel_rows %lld)\n\n",
              static_cast<long long>(demo.data.lineitem.num_rows()),
              static_cast<long long>(demo.data.orders.num_rows()),
              static_cast<unsigned long long>(seed),
              static_cast<long long>(demo.exec.morsel_rows));

  std::printf("-- in-process scatter/gather (LocalTransport) --\n");
  SboxReport first;
  for (const int shards : {1, 2, 4, 8}) {
    auto report = ShardedSboxEstimate(
        demo.q1.plan, demo.catalog, seed, ExecMode::kSampled, demo.exec,
        shards, demo.q1.aggregate, demo.soa.top, demo.options);
    if (!report.ok()) {
      std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
      return 1;
    }
    char label[64];
    std::snprintf(label, sizeof(label), "num_shards = %d", shards);
    PrintReport(label, report.ValueOrDie());
    if (shards == 1) {
      first = report.ValueOrDie();
    } else if (report.ValueOrDie().estimate != first.estimate ||
               report.ValueOrDie().interval.lo != first.interval.lo ||
               report.ValueOrDie().interval.hi != first.interval.hi) {
      std::fprintf(stderr,
                   "BUG: estimate not bit-identical across shard counts\n");
      return 1;
    }
  }
  std::printf("=> bit-identical across shard counts (shards are ranges of "
              "one global morsel sequence)\n\n");

  std::printf("-- multi-process style (FileTransport spool) --\n");
  const std::string dir = "/tmp/gus_sharded_demo";
  const int shards = 4;
  for (int k = 0; k < shards; ++k) {
    // Each of these calls is exactly what `--worker k --shards 4` does in
    // a separate process: same plan + seed, own catalog, own shard slice.
    if (RunWorker(demo, seed, k, shards, dir) != 0) return 1;
  }
  if (RunGather(shards, dir, /*allow_partial=*/false) != 0) return 1;

  std::printf("\n-- fault-tolerant scatter/gather (retries + deadlines) --\n");
  ExecStats stats;
  ExecOptions ft_exec = demo.exec;
  ft_exec.stats = &stats;
  ft_exec.retry.deadline_ms = deadline_ms;
  ft_exec.allow_partial = allow_partial;
  auto ft = FaultTolerantShardedSboxEstimate(
      demo.q1.plan, demo.catalog, seed, ExecMode::kSampled, ft_exec, shards,
      demo.q1.aggregate, demo.soa.top, demo.options);
  JoinAbandonedShardAttempts();
  if (!ft.ok()) {
    std::fprintf(stderr, "fault-tolerant run failed: %s\n",
                 ft.status().ToString().c_str());
    return 1;
  }
  const FaultTolerantResult& r = ft.ValueOrDie();
  PrintReport(r.degraded ? "DEGRADED estimate" : "fault-tolerant estimate",
              r.report);
  std::printf("  attempts %lld, retries %lld, deadline hits %lld, "
              "shards lost %lld, coverage %.2f\n",
              static_cast<long long>(stats.shard_attempts),
              static_cast<long long>(stats.shard_retries),
              static_cast<long long>(stats.shard_deadline_hits),
              static_cast<long long>(stats.shards_lost),
              stats.effective_coverage);
  if (r.degraded) std::printf("  %s\n", r.degradation.ToString().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  int worker = -1;
  bool gather = false;
  bool allow_partial = false;
  int shards = 4;
  uint64_t seed = 7;
  int64_t deadline_ms = 0;
  std::string dir = "/tmp/gus_sharded_demo";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--worker") == 0 && i + 1 < argc) {
      worker = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--gather") == 0) {
      gather = true;
    } else if (std::strcmp(argv[i], "--allow-partial") == 0) {
      allow_partial = true;
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      shards = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--deadline-ms") == 0 && i + 1 < argc) {
      deadline_ms = std::atoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--dir") == 0 && i + 1 < argc) {
      dir = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--worker K --shards N | --gather --shards N] "
                   "[--allow-partial] [--deadline-ms MS] [--dir DIR] "
                   "[--seed S]\n",
                   argv[0]);
      return 2;
    }
  }
  if (gather) return RunGather(shards, dir, allow_partial);
  DemoQuery demo;
  if (worker >= 0) return RunWorker(demo, seed, worker, shards, dir);
  return RunDemo(demo, seed, allow_partial, deadline_ms);
}
