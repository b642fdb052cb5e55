// Tour of the paper's §8 research-agenda features as implemented here:
//  1. a platform added from a declarative text spec (challenge 1),
//  2. the SQL frontend over any platform (§3.2),
//  3. progressive re-optimization driven by execution monitoring (§4.2),
//  4. cost factors learned from observed runs (challenge 2).
//
// Exits non-zero when the SQL fails or the lying plan of §3 runs without a
// re-optimization, so a regression in either path fails the run.
//
// Build: cmake --build build --target extensibility_tour
// Run:   ./build/examples/extensibility_tour

#include <cstdio>

#include "common/rng.h"
#include "core/api/data_quanta.h"
#include "core/mapping/declarative.h"
#include "core/optimizer/stats_catalog.h"
#include "core/sql/sql.h"

using namespace rheem;  // example code; library code never does this

namespace {

int Fail(const Status& st) {
  std::fprintf(stderr, "%s\n", st.ToString().c_str());
  return 1;
}

}  // namespace

int main() {
  RheemContext ctx;
  if (auto st = ctx.RegisterDefaultPlatforms(); !st.ok()) return Fail(st);

  // --- 1. declare a platform in text, no optimizer changes -----------------
  const char* spec = R"(
platform turbo
turbo maps CollectionSource to TurboScan
turbo maps Filter to TurboFilter weight 0.5 context "vectorized predicates"
turbo maps ReduceByKey to TurboAggregate weight 0.4
turbo maps Collect to TurboFetch
turbo cost per_quantum_us 0.005
turbo cost parallelism 4
turbo cost stage_overhead_us 100
)";
  if (auto st = RegisterDeclaredPlatforms(spec, &ctx.platforms()); !st.ok()) {
    return Fail(st);
  }
  Rng rng(7);
  std::vector<Record> rows;
  for (int i = 0; i < 5000; ++i) {
    rows.push_back(Record({Value(rng.NextInt(0, 9)), Value(rng.NextInt(0, 99))}));
  }
  RheemJob job(&ctx);
  auto agg = job.LoadCollection(Dataset(rows))
                 .Filter([](const Record& r) { return r[1].ToInt64Or(0) > 10; },
                         UdfMeta::Selective(0.9))
                 .ReduceByKey([](const Record& r) { return r[0]; },
                              [](const Record& a, const Record& b) {
                                return Record({a[0], Value(a[1].ToInt64Or(0) +
                                                           b[1].ToInt64Or(0))});
                              });
  std::printf("--- plan with the declared 'turbo' platform in the mix ---\n%s\n",
              agg.Explain().ValueOr("?").c_str());

  // --- 2. the SQL frontend ---------------------------------------------------
  std::vector<Record> readings;
  for (int i = 0; i < 200; ++i) {
    readings.push_back(Record({Value(static_cast<int64_t>(i % 5)),
                               Value(150.0 + rng.NextGaussian() * 30)}));
  }
  sql::InMemoryCatalog catalog;
  if (auto st = catalog.Register(
          "readings", Dataset(std::move(readings)),
          Schema::Of({{"well", ValueType::kInt64},
                      {"pressure", ValueType::kDouble}}));
      !st.ok()) {
    return Fail(st);
  }
  // The optimizer places the compiled plan freely...
  const char* query =
      "SELECT well, COUNT(*) AS n, AVG(pressure) AS avg_p FROM readings "
      "WHERE pressure > 140 GROUP BY well ORDER BY avg_p DESC LIMIT 3";
  auto stmt = ctx.Sql(query, catalog);
  if (!stmt.ok()) return Fail(stmt.status());
  auto table = stmt->Collect();
  if (!table.ok()) return Fail(table.status());
  std::printf("--- SQL: %s ---\n%s%s\n", query, stmt->PlanText().c_str(),
              table->ToString().c_str());
  // ...or a caller pins it to one platform, here the relational engine,
  // which runs every shape without a record-shaping Map.
  const char* relational =
      "SELECT * FROM readings WHERE pressure > 200 ORDER BY pressure DESC "
      "LIMIT 3";
  auto rel_stmt = ctx.Sql(relational, catalog);
  if (!rel_stmt.ok()) return Fail(rel_stmt.status());
  ExecutionOptions on_relsim;
  on_relsim.force_platform = "relsim";
  auto rel_table = rel_stmt->Collect(on_relsim);
  if (!rel_table.ok()) return Fail(rel_table.status());
  std::printf("--- SQL on relsim: %s ---\n%s\n", relational,
              rel_table->ToString().c_str());

  // --- 3. progressive re-optimization ----------------------------------------
  // The filter claims 1 record in 1000 survives; all do. Pinning it (and its
  // source) to relsim ends a stage right after it, so the executor sees the
  // real cardinality before it places the expensive map.
  std::vector<Record> big;
  for (int i = 0; i < 40000; ++i) big.push_back(Record({Value(i)}));
  RheemJob lying_job(&ctx);
  auto adapted =
      lying_job.LoadCollection(Dataset(std::move(big)))
          .OnPlatform("relsim")
          .Filter([](const Record&) { return true; },
                  UdfMeta::Selective(0.001))  // wrong by 1000x
          .OnPlatform("relsim")
          .Map(
              [](const Record& r) {
                double x = r[0].ToDoubleOr(0);
                for (int k = 0; k < 300; ++k) x = x * 1.000001 + 0.5;
                return Record({Value(x)});
              },
              UdfMeta::Expensive(300.0))
          .CollectWithMetrics();
  if (!adapted.ok()) return Fail(adapted.status());
  std::printf("--- progressive re-optimization ---\n");
  for (const std::string& d : adapted->decisions) {
    std::printf("  %s\n", d.c_str());
  }
  std::printf("  %lld re-optimization(s), %zu records out\n\n",
              static_cast<long long>(adapted->metrics.reoptimizations),
              adapted->output.size());
  if (adapted->metrics.reoptimizations == 0) {
    std::fprintf(stderr, "expected the lying filter to trigger a re-plan\n");
    return 1;
  }

  // --- 4. learned cost factors ----------------------------------------------
  // Every executed stage folds measured/modeled cost into the context's
  // statistics catalog per (operator kind, platform); the enumerator
  // multiplies later cost estimates by these factors.
  const StatisticsCatalog* stats = ctx.stats_catalog();
  std::printf("--- learned cost factors (%zu entries) ---\n",
              stats->cost_entries());
  for (const char* kind : {"Filter", "Map", "ReduceByKey"}) {
    for (const Platform* platform : ctx.platforms().All()) {
      std::printf("  %-12s on %-9s x%.3f\n", kind, platform->name().c_str(),
                  stats->CostFactor(kind, platform->name()));
    }
  }
  return 0;
}
