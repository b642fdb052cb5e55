// Ablation A7: declarative predicate pushdown. The same query — orders
// equi-joined with customers, then filtered on an order attribute — is built
// twice: with a closure predicate (opaque to the optimizer, so the filter
// stays above the join) and with a declarative expression predicate (the
// optimizer pushes it into the join's build input). The HashJoin kernel's
// records_in counter shows the structural effect directly; wall time shows
// the payoff.
//
// Results land in BENCH_pushdown.json (BENCH_pushdown.smoke.json with
// --smoke). The run fails unless the declarative build's join consumed at
// most half the records of the closure build — the pushdown must
// demonstrably fire, in smoke mode too.
//
// Usage: ablation_pushdown [--smoke]   (--smoke: smaller dataset, one repeat)

#include <cstring>

#include "bench/bench_common.h"

#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/api/data_quanta.h"
#include "core/expr/expr.h"
#include "core/operators/kernels.h"

namespace rheem {
namespace bench {
namespace {

constexpr int64_t kAmountThreshold = 900;  // keeps ~10% of orders

/// (cust_id in [0, customers), amount in [0, 1000)) rows.
Dataset Orders(int rows, int customers, uint64_t seed) {
  Rng rng(seed);
  std::vector<Record> out;
  out.reserve(static_cast<std::size_t>(rows));
  for (int i = 0; i < rows; ++i) {
    out.push_back(Record({Value(rng.NextInt(0, customers - 1)),
                          Value(rng.NextInt(0, 999))}));
  }
  return Dataset(std::move(out));
}

/// (cust_id, region) rows, one per customer.
Dataset Customers(int customers, uint64_t seed) {
  Rng rng(seed);
  std::vector<Record> out;
  out.reserve(static_cast<std::size_t>(customers));
  for (int i = 0; i < customers; ++i) {
    out.push_back(Record({Value(int64_t{i}), Value(rng.NextInt(0, 9))}));
  }
  return Dataset(std::move(out));
}

struct RunResult {
  double wall_us = 0;
  int64_t join_records_in = 0;
  std::size_t out_rows = 0;
};

RunResult RunOnce(RheemContext* ctx, const Dataset& orders,
                  const Dataset& customers, bool declarative) {
  kernels::ResetKernelTimings();
  Stopwatch sw;
  RheemJob job(ctx);
  job.options().force_platform = "javasim";
  DataQuanta left = job.LoadCollection(orders);
  DataQuanta right = job.LoadCollection(customers);
  DataQuanta q =
      declarative
          ? left.Join(right, expr::Field(0, ValueType::kInt64),
                      expr::Field(0, ValueType::kInt64))
                .Filter(expr::Gt(expr::Field(1, ValueType::kInt64),
                                 expr::Lit(kAmountThreshold)))
          : left.Join(
                    right, [](const Record& r) { return r[0]; },
                    [](const Record& r) { return r[0]; })
                .Filter([](const Record& r) {
                  return r[1].ToInt64Or(0) > kAmountThreshold;
                });
  auto result = q.Collect();
  if (!result.ok()) {
    std::fprintf(stderr, "run failed: %s\n", result.status().ToString().c_str());
    std::exit(1);
  }
  RunResult out;
  out.wall_us = static_cast<double>(sw.ElapsedMicros());
  out.out_rows = result->size();
  for (const auto& t : kernels::SnapshotKernelTimings()) {
    if (t.kernel == "HashJoin") out.join_records_in += t.records_in;
  }
  return out;
}

RunResult Best(RheemContext* ctx, const Dataset& orders,
               const Dataset& customers, bool declarative, int repeats) {
  RunResult best = RunOnce(ctx, orders, customers, declarative);
  for (int i = 1; i < repeats; ++i) {
    RunResult r = RunOnce(ctx, orders, customers, declarative);
    if (r.wall_us < best.wall_us) best = r;
  }
  return best;
}

void Run(bool smoke) {
  const int rows = smoke ? 20000 : 200000;
  const int customers = smoke ? 200 : 1000;
  const int repeats = smoke ? 1 : 3;
  std::printf(
      "== Ablation A7: closure vs declarative predicate above an equi-join "
      "(%d orders x %d customers, javasim) ==\n\n",
      rows, customers);

  RheemContext* ctx = NewContext();
  const Dataset orders = Orders(rows, customers, /*seed=*/17);
  const Dataset custs = Customers(customers, /*seed=*/23);

  const RunResult closure = Best(ctx, orders, custs, false, repeats);
  const RunResult declarative = Best(ctx, orders, custs, true, repeats);

  if (closure.out_rows != declarative.out_rows) {
    std::fprintf(stderr, "result divergence: closure=%zu declarative=%zu\n",
                 closure.out_rows, declarative.out_rows);
    std::exit(1);
  }

  const double ratio =
      closure.join_records_in > 0
          ? static_cast<double>(declarative.join_records_in) /
                static_cast<double>(closure.join_records_in)
          : 1.0;
  ResultTable out({"mode", "join_records_in", "wall_ms", "out_rows"});
  out.AddRow({"closure", std::to_string(closure.join_records_in),
              Ms(closure.wall_us), std::to_string(closure.out_rows)});
  out.AddRow({"declarative", std::to_string(declarative.join_records_in),
              Ms(declarative.wall_us), std::to_string(declarative.out_rows)});
  out.Print();
  std::printf(
      "\njoin input ratio (declarative/closure): %.3f — the pushed filter\n"
      "keeps ~10%% of orders, so the join sees them pre-filtered.\n",
      ratio);

  JsonResults json("pushdown", "BENCH_pushdown.json", smoke);
  char row[256];
  std::snprintf(row, sizeof(row),
                "{\"mode\": \"closure\", \"rows\": %d, \"customers\": %d, "
                "\"join_records_in\": %lld, \"wall_ms\": %s, \"out_rows\": %zu}",
                rows, customers,
                static_cast<long long>(closure.join_records_in),
                Ms(closure.wall_us).c_str(), closure.out_rows);
  json.Add(row);
  std::snprintf(
      row, sizeof(row),
      "{\"mode\": \"declarative\", \"rows\": %d, \"customers\": %d, "
      "\"join_records_in\": %lld, \"wall_ms\": %s, \"out_rows\": %zu}",
      rows, customers, static_cast<long long>(declarative.join_records_in),
      Ms(declarative.wall_us).c_str(), declarative.out_rows);
  json.Add(row);
  std::snprintf(row, sizeof(row), "{\"mode\": \"ratio\", \"join_in\": %.4f}",
                ratio);
  json.Add(row);
  if (!json.Write()) std::exit(1);

  // The structural gate: pushdown must demonstrably fire. With a ~10%
  // selectivity filter pushed below the join, the declarative join reads
  // ~(0.1 * rows + customers) records vs (rows + customers) for closure.
  if (ratio > 0.5) {
    std::fprintf(stderr,
                 "FAIL: declarative join consumed %.0f%% of the closure "
                 "join's input; pushdown did not fire\n",
                 ratio * 100.0);
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
