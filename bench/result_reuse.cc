// Materialized-result reuse: the same analytical job submitted repeatedly
// against CSV-resident data. The cold submission pays the text parse and
// runs every stage; warm submissions are served by the hot-data buffer (the
// parse) and the sub-plan result cache (the stages). The paper's "road to
// freedom" includes not recomputing what the engine already knows (§6,
// embracing hot data); this measures that end to end through the JobServer.
//
// Results land in BENCH_reuse.json (BENCH_reuse.smoke.json with --smoke).
// Outside --smoke the run fails unless the warm path is at least 3x faster
// than the cold one.
//
// Usage: result_reuse [--smoke]   (--smoke: smaller dataset, fewer repeats)

#include "bench/bench_common.h"

#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "apps/cleaning/data_gen.h"
#include "common/metrics.h"
#include "core/api/data_quanta.h"
#include "core/service/job_server.h"
#include "storage/csv_store.h"
#include "storage/hot_buffer.h"

namespace rheem {
namespace bench {
namespace {

struct RunResult {
  int64_t wall_us = 0;  // build + submit + wait, end to end
  ExecutionMetrics metrics;
  std::string report;
  std::size_t out_rows = 0;
};

/// One full submission: plan built fresh (the load pays the parse or hits
/// the hot buffer), executed through the JobServer (the stages run or come
/// out of the result cache).
RunResult SubmitOnce(RheemContext* ctx) {
  Stopwatch sw;
  RheemJob job(ctx);
  auto loaded = job.LoadFromStorage("tax");
  if (!loaded.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 loaded.status().ToString().c_str());
    std::exit(1);
  }
  // Normalize on javasim, aggregate on sparksim: two pinned platforms keep a
  // cross-platform boundary in the plan, so the warm path also shows the
  // movement accounting going to zero.
  DataQuanta q = loaded
                     ->Map([](const Record& r) {
                       // A compute-heavy normalization (iterated mixing)
                       // standing in for real per-record analytics: the cold
                       // run pays this for every record, the warm run never
                       // touches it.
                       int64_t cents =
                           static_cast<int64_t>(r[3].ToDoubleOr(0) * 100.0);
                       for (int k = 0; k < 512; ++k) {
                         cents = cents * 6364136223846793005ll + 1442695040888963407ll;
                         cents ^= cents >> 29;
                       }
                       return Record({r[1], Value(cents & 0xffff)});
                     })
                     .OnPlatform("javasim");
  q = q.ReduceByKey(
           [](const Record& r) { return r[0]; },
           [](const Record& a, const Record& b) {
             return Record({a[0], Value(a[1].ToInt64Or(0) + b[1].ToInt64Or(0))});
           })
          .OnPlatform("sparksim");
  auto plan = q.Seal();
  if (!plan.ok()) {
    std::fprintf(stderr, "seal failed: %s\n", plan.status().ToString().c_str());
    std::exit(1);
  }
  auto handle = ctx->Submit(**plan);
  if (!handle.ok()) {
    std::fprintf(stderr, "submit failed: %s\n",
                 handle.status().ToString().c_str());
    std::exit(1);
  }
  auto result = handle->Wait();
  if (!result.ok()) {
    std::fprintf(stderr, "job failed: %s\n",
                 result.status().ToString().c_str());
    std::exit(1);
  }
  RunResult r;
  r.wall_us = sw.ElapsedMicros();
  r.metrics = result->metrics;
  r.report = std::move(result->report);
  r.out_rows = result->output.size();
  return r;
}

void Run(bool smoke) {
  const int rows = smoke ? 5000 : 50000;
  const int warm_repeats = smoke ? 2 : 5;
  std::printf(
      "== Result reuse: repeated submissions of one analytical job over "
      "CSV-resident data (%d rows) ==\n\n",
      rows);

  const std::string dir = "/tmp/rheem_bench_result_reuse";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  storage::StorageManager manager;
  if (!manager.RegisterBackend(std::make_unique<storage::CsvStore>(dir)).ok()) {
    std::exit(1);
  }
  cleaning::TaxTableOptions gen;
  gen.rows = rows;
  if (!manager.Put("csv-files", "tax", cleaning::GenerateTaxTable(gen)).ok()) {
    std::exit(1);
  }

  Config config = BenchConfig();
  config.SetBool("metrics.enabled", true);
  RheemContext ctx(config);
  if (!ctx.RegisterDefaultPlatforms().ok() ||
      !ctx.AttachStorage(&manager).ok()) {
    std::exit(1);
  }

  const RunResult cold = SubmitOnce(&ctx);
  std::vector<RunResult> warm;
  for (int i = 0; i < warm_repeats; ++i) warm.push_back(SubmitOnce(&ctx));

  int64_t warm_total_us = 0;
  for (const RunResult& w : warm) {
    if (w.out_rows != cold.out_rows) {
      std::fprintf(stderr, "output mismatch: %zu vs %zu rows\n", w.out_rows,
                   cold.out_rows);
      std::exit(1);
    }
    warm_total_us += w.wall_us;
  }
  const double warm_avg_us = static_cast<double>(warm_total_us) /
                             static_cast<double>(warm_repeats);
  const double speedup =
      static_cast<double>(cold.wall_us) / std::max(warm_avg_us, 1.0);

  ResultTable table({"mode", "wall_ms", "stages_run", "stages_reused",
                     "moved_records", "speedup"});
  table.AddRow({"cold", Ms(static_cast<double>(cold.wall_us)),
                std::to_string(cold.metrics.stages_run),
                std::to_string(cold.metrics.stages_reused),
                std::to_string(cold.metrics.moved_records), "1.0x"});
  const RunResult& last = warm.back();
  table.AddRow({"warm", Ms(warm_avg_us),
                std::to_string(last.metrics.stages_run),
                std::to_string(last.metrics.stages_reused),
                std::to_string(last.metrics.moved_records), Times(speedup)});
  table.Print();

  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  std::printf(
      "\nhot_buffer: hits=%lld misses=%lld  result_cache: hits=%lld "
      "misses=%lld inserts=%lld\n",
      static_cast<long long>(snap.counter("hot_buffer.hits")),
      static_cast<long long>(snap.counter("hot_buffer.misses")),
      static_cast<long long>(snap.counter("result_cache.hits")),
      static_cast<long long>(snap.counter("result_cache.misses")),
      static_cast<long long>(snap.counter("result_cache.inserts")));
  std::printf("\n-- warm-run EXPLAIN ANALYZE --\n%s\n", last.report.c_str());

  JsonResults json("result_reuse", "BENCH_reuse.json", smoke);
  char row[320];
  std::snprintf(row, sizeof(row),
                "{\"mode\": \"cold\", \"rows\": %d, \"wall_us\": %lld, "
                "\"stages_run\": %lld, \"stages_reused\": %lld, "
                "\"moved_records\": %lld, \"speedup\": 1.0}",
                rows, static_cast<long long>(cold.wall_us),
                static_cast<long long>(cold.metrics.stages_run),
                static_cast<long long>(cold.metrics.stages_reused),
                static_cast<long long>(cold.metrics.moved_records));
  json.Add(row);
  std::snprintf(row, sizeof(row),
                "{\"mode\": \"warm\", \"rows\": %d, \"wall_us\": %lld, "
                "\"stages_run\": %lld, \"stages_reused\": %lld, "
                "\"moved_records\": %lld, \"speedup\": %.2f}",
                rows, static_cast<long long>(warm_avg_us),
                static_cast<long long>(last.metrics.stages_run),
                static_cast<long long>(last.metrics.stages_reused),
                static_cast<long long>(last.metrics.moved_records), speedup);
  json.Add(row);
  if (!json.Write()) std::exit(1);
  std::filesystem::remove_all(dir, ec);

  // The warm path must actually reuse: every stage from the cache, nothing
  // moved across platforms, and (outside smoke) at least 3x faster.
  if (last.metrics.stages_run != 0 || last.metrics.stages_reused == 0) {
    std::fprintf(stderr, "FAIL: warm run executed stages (run=%lld reused=%lld)\n",
                 static_cast<long long>(last.metrics.stages_run),
                 static_cast<long long>(last.metrics.stages_reused));
    std::exit(1);
  }
  if (last.report.find("reused from result cache") == std::string::npos) {
    std::fprintf(stderr, "FAIL: warm EXPLAIN ANALYZE shows no reuse\n");
    std::exit(1);
  }
  if (!smoke && speedup < 3.0) {
    std::fprintf(stderr, "FAIL: warm speedup %.2fx < 3.0x\n", speedup);
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
