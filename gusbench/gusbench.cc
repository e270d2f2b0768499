// gusbench — runs one workload and prints its metrics.
//
//   gusbench --workload sql_q1|q1_served|seg_scan --seed N --seconds S
//            --trace 0|1 [--smoke] [--work-dir DIR]
//
// The last stdout line is the run's JSON result ({"correct", "attempted",
// "failed", "metrics"}); the line before it carries the details (sample
// counts, tail percentile used, answer-check totals). See README.md.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "common.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace gusbench {

std::string TracePath(const Options& opt) {
  return opt.work_dir + "/trace-" + opt.workload + "-" +
         std::to_string(opt.seed) + ".json";
}

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: gusbench --workload sql_q1|q1_served|seg_scan "
               "--seed N --seconds S --trace 0|1 [--smoke] "
               "[--work-dir DIR]\n");
  return 2;
}

}  // namespace
}  // namespace gusbench

int main(int argc, char** argv) {
  using namespace gusbench;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      opt.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--work-dir" && has_value) {
      opt.work_dir = argv[++i];
    } else {
      return Usage();
    }
  }
  if (!(opt.seconds > 0.0)) return Usage();
  opt.threads = std::min(gus::ThreadPool::HardwareThreads(), 4);

  std::error_code ec;
  std::filesystem::create_directories(opt.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "gusbench: cannot create %s: %s\n",
                 opt.work_dir.c_str(), ec.message().c_str());
    return 1;
  }

  RunReport report;
  int rc = 0;
  if (opt.workload == "sql_q1") {
    rc = RunSqlQ1(opt, &report);
  } else if (opt.workload == "q1_served") {
    rc = RunQ1Served(opt, &report);
  } else if (opt.workload == "seg_scan") {
    rc = RunSegScan(opt, &report);
  } else {
    return Usage();
  }
  if (rc != 0) return rc;
  report.Detail("workload", opt.workload);
  report.Detail("threads", static_cast<double>(opt.threads));
  PrintReport(report);
  return report.correct() ? 0 : 3;
}
