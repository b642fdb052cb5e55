// Ablation A8: progressive re-optimization + the learned statistics catalog
// (paper §4.2's feedback edge). A filter whose selectivity annotation claims
// a 5x shrink that never happens misleads the static optimizer: believing the
// intermediate is small, it ships the "shrunk" data to sparksim for the heavy
// map's modeled 8-way parallelism — and at runtime pays real serialization of
// the full, wide intermediate for parallelism a one-core host cannot deliver.
//
// Three executions of the same query:
//   static: statistics off, re-optimization off — the misled plan as planned.
//   cold:   adaptive run. The first stage boundary observes the blown
//           estimate, re-optimizes mid-job, and feeds the statistics catalog
//           (observed cardinalities + calibrated per-(operator, platform)
//           cost constants), persisted to disk afterwards.
//   warm:   a fresh context loads the persisted catalog. The compiler now
//           knows the true cardinality AND that sparksim's map delivers
//           serial throughput here, so the plan stays on javasim end to end:
//           zero boundary crossings, zero re-optimizations.
//
// Results land in BENCH_reopt.json (BENCH_reopt.smoke.json with --smoke).
// The run fails unless (a) the static plan really moved the big intermediate
// and the warm plan moved nothing, (b) the cold run re-optimized at least
// once and the warm run not at all, and (c) warm beats static by >= 1.5x
// wall clock — in smoke mode too.
//
// Usage: reopt_ablation [--smoke]   (--smoke: smaller dataset, one repeat)

#include <cstdio>
#include <cstring>

#include "bench/bench_common.h"

#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/api/data_quanta.h"
#include "core/optimizer/stats_catalog.h"

namespace rheem {
namespace bench {
namespace {

constexpr int kPayloadBytes = 400;   // fat rows: movement is byte-priced
constexpr double kLyingHint = 0.2;   // claims 5x shrink; truth keeps all
constexpr double kMapCostFactor = 160.0;  // matches the real loop below

const char* kStatsFile = "BENCH_reopt_stats.tmp";

/// (id, fat string payload) rows: the intermediate the misled plan ships.
Dataset FatRows(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Record> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    std::string payload(kPayloadBytes, 'x');
    payload[0] = static_cast<char>('a' + rng.NextInt(0, 25));
    out.push_back(Record({Value(i), Value(std::move(payload))}));
  }
  return Dataset(std::move(out));
}

struct RunResult {
  double wall_us = 0;
  double stage_us = 0;  // time inside platform stages (excludes conversions)
  int64_t moved_records = 0;
  int64_t reoptimizations = 0;
  std::size_t out_rows = 0;
};

Config ModeConfig(const char* mode) {
  Config config = BenchConfig();
  if (std::strcmp(mode, "static") == 0) {
    config.SetBool("stats.enabled", false);
    config.SetInt("executor.max_reoptimizations", 0);
  } else {  // cold / warm: learning on, adaptation on
    config.Set("stats.path", kStatsFile);
    config.SetInt("executor.max_reoptimizations", 2);
  }
  return config;
}

/// One full run in a fresh context (a shared context would serve repeats from
/// the result cache and reuse in-memory statistics, contaminating the modes).
RunResult RunOnce(const char* mode, const Dataset& rows) {
  RheemContext ctx(ModeConfig(mode));
  Status st = ctx.RegisterDefaultPlatforms();
  if (!st.ok()) {
    std::fprintf(stderr, "platform registration failed: %s\n",
                 st.ToString().c_str());
    std::exit(1);
  }
  Stopwatch sw;
  RheemJob job(&ctx);
  auto result =
      job.LoadCollection(rows)
          .OnPlatform("javasim")  // the data lives in the app's heap
          .Filter([](const Record&) { return true; },
                  UdfMeta{kLyingHint, 1.0})
          .Map(
              [](const Record& r) {
                double x = r[0].ToDoubleOr(0);
                for (int k = 0; k < 500; ++k) x = x * 1.000001 + 0.5;
                return Record({Value(x)});  // aggregate away the payload
              },
              UdfMeta{1.0, kMapCostFactor})
          .CollectWithMetrics();
  if (!result.ok()) {
    std::fprintf(stderr, "%s run failed: %s\n", mode,
                 result.status().ToString().c_str());
    std::exit(1);
  }
  RunResult out;
  out.wall_us = static_cast<double>(sw.ElapsedMicros());
  out.stage_us = static_cast<double>(result->metrics.wall_micros);
  out.moved_records = result->metrics.moved_records;
  out.reoptimizations = result->metrics.reoptimizations;
  out.out_rows = result->output.size();
  // The cold run is the learning run: persist what it observed so the warm
  // context compiles from measured statistics.
  if (std::strcmp(mode, "cold") == 0) {
    if (Status saved = ctx.stats_catalog()->SaveToFile(kStatsFile);
        !saved.ok()) {
      std::fprintf(stderr, "stats save failed: %s\n", saved.ToString().c_str());
      std::exit(1);
    }
  }
  return out;
}

RunResult Best(const char* mode, const Dataset& rows, int repeats) {
  RunResult best = RunOnce(mode, rows);
  for (int i = 1; i < repeats; ++i) {
    RunResult r = RunOnce(mode, rows);
    if (r.wall_us < best.wall_us) best = r;
  }
  return best;
}

void Fail(const char* what) {
  std::fprintf(stderr, "FAIL: %s\n", what);
  std::exit(1);
}

void Run(bool smoke) {
  const int64_t n = smoke ? 250'000 : 500'000;
  const int repeats = smoke ? 1 : 2;
  std::printf(
      "== Ablation A8: re-optimization + learned statistics vs a misled "
      "static plan (%lld wide rows, filter claims %.0f%%, keeps 100%%) ==\n\n",
      static_cast<long long>(n), kLyingHint * 100.0);

  std::remove(kStatsFile);  // never start from a stale catalog
  const Dataset rows = FatRows(n, /*seed=*/41);

  const RunResult stat = Best("static", rows, repeats);
  const RunResult cold = RunOnce("cold", rows);  // the learning run
  const RunResult warm = Best("warm", rows, repeats);
  std::remove(kStatsFile);

  if (stat.out_rows != static_cast<std::size_t>(n) ||
      cold.out_rows != stat.out_rows || warm.out_rows != stat.out_rows) {
    Fail("result divergence between modes");
  }

  const double speedup = stat.wall_us / warm.wall_us;
  ResultTable table({"mode", "wall_ms", "stage_ms", "moved_records", "reopts"});
  table.AddRow({"static", Ms(stat.wall_us), Ms(stat.stage_us),
                std::to_string(stat.moved_records),
                std::to_string(stat.reoptimizations)});
  table.AddRow({"cold", Ms(cold.wall_us), Ms(cold.stage_us),
                std::to_string(cold.moved_records),
                std::to_string(cold.reoptimizations)});
  table.AddRow({"warm", Ms(warm.wall_us), Ms(warm.stage_us),
                std::to_string(warm.moved_records),
                std::to_string(warm.reoptimizations)});
  table.Print();
  std::printf(
      "\nspeedup (static/warm): %.2fx — the warm catalog prices sparksim's\n"
      "map at observed throughput and plans the true cardinality, so the\n"
      "wide intermediate never crosses a platform boundary.\n",
      speedup);

  JsonResults json("reopt", "BENCH_reopt.json", smoke);
  char row[192];
  auto add = [&](const char* mode, const RunResult& r) {
    std::snprintf(row, sizeof(row),
                  "{\"mode\": \"%s\", \"rows\": %lld, \"wall_ms\": %s, "
                  "\"moved_records\": %lld, \"reoptimizations\": %lld}",
                  mode, static_cast<long long>(n), Ms(r.wall_us).c_str(),
                  static_cast<long long>(r.moved_records),
                  static_cast<long long>(r.reoptimizations));
    json.Add(row);
  };
  add("static", stat);
  add("cold", cold);
  add("warm", warm);
  std::snprintf(row, sizeof(row), "{\"mode\": \"speedup\", \"static_over_warm\": %.3f}",
                speedup);
  json.Add(row);
  if (!json.Write()) std::exit(1);

  // Structural gates first: a timing win for the wrong reason is no win.
  if (stat.moved_records < n) {
    Fail("the misled static plan did not ship the big intermediate");
  }
  if (warm.moved_records != 0) {
    Fail("the warm plan crossed a platform boundary");
  }
  if (cold.reoptimizations < 1) Fail("the cold run never re-optimized");
  if (warm.reoptimizations != 0) {
    Fail("the warm plan re-optimized despite learned statistics");
  }
  if (speedup < 1.5) {
    std::fprintf(stderr,
                 "FAIL: warm beat static by only %.2fx (< 1.5x gate)\n",
                 speedup);
    std::exit(1);
  }
}

}  // namespace
}  // namespace bench
}  // namespace rheem

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  rheem::bench::Run(smoke);
  return 0;
}
