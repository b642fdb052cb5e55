// End-to-end benchmark of the library's public API. One process runs one
// workload for a fixed wall-clock window and prints one line per metric, then
// a one-line JSON result:
//
//   perfbench --workload serve_sql|batch_sql|xplat_etl --seed N
//             --seconds S --trace 0|1 [--work-dir DIR]
//
// --trace 0 reports the end-to-end metrics with the program's tracer and
// metrics registry off; --trace 1 reports the per-layer metrics of a traced
// phase. The exit code is non-zero on a wrong result or a reconciliation
// mismatch. See perfbench/RATIONALE.md for the workloads and metrics.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"

int main(int argc, char** argv) {
  perfbench::Options opt;
  opt.work_dir = "perfbench-work";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--work-dir") {
      opt.work_dir = value;
    } else {
      perfbench::Die("unknown flag " + flag);
    }
  }
  if (opt.seconds <= 0) perfbench::Die("--seconds must be positive");

  perfbench::Report report;
  if (opt.workload == "serve_sql") {
    perfbench::RunServeSql(opt, &report);
  } else if (opt.workload == "batch_sql") {
    perfbench::RunBatchSql(opt, &report);
  } else if (opt.workload == "xplat_etl") {
    perfbench::RunXplatEtl(opt, &report);
  } else {
    perfbench::Die("unknown workload '" + opt.workload + "'");
  }
  return report.Print(opt.workload);
}
