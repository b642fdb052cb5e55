// batch_sql: a closed loop, one job at a time, of SQL over storage-backed
// tables. `orders` (1M rows) and `customers` live in the mem_column_store
// backend, attached to the context; each job is ctx.Sql(q) followed by
// SqlStatement::Execute. Jobs rotate through four shapes with seeded
// constants: a filtered GROUP BY over 4 groups, join + GROUP BY, ORDER BY
// ... LIMIT 100, and GROUP BY over ~1k groups.
//
// The load sits on the declarative columnar kernels, Dataset <-> Batch
// conversion, stage execution and hash aggregation. No net, queue or cache
// is involved, so a change to those layers predicts no change here.
#include <algorithm>
#include <memory>

#include "bench.h"
#include "common/rng.h"
#include "core/optimizer/fingerprint.h"
#include "core/sql/sql.h"
#include "storage/mem_column_store.h"
#include "storage/storage_plan.h"

namespace perfbench {
namespace {

using rheem::Dataset;

constexpr std::size_t kOrderRows = 1000000;
constexpr int kShapes = 4;

struct Job {
  int shape = 0;
  int64_t lo = 0, hi = 0;
  std::string sql;
};

/// Each shape's constants move a fixed-width window, so every job of one
/// shape does about the same amount of work.
Job NextJob(int shape, rheem::Rng* rng) {
  Job j;
  j.shape = shape;
  const int64_t width = shape == 3 ? kDays / 2 : kDays / 8;
  j.lo = static_cast<int64_t>(rng->NextBounded(kDays - width + 1));
  j.hi = j.lo + width;
  const std::string window = "day >= " + std::to_string(j.lo) +
                             " AND day < " + std::to_string(j.hi);
  switch (shape) {
    case 0:  // filtered GROUP BY over the 4 regions
      j.sql = "SELECT region, SUM(amount) AS total, COUNT(*) AS n FROM orders "
              "WHERE " + window + " GROUP BY region";
      break;
    case 1:  // join + GROUP BY over the customer tiers
      j.sql = "SELECT c.tier, SUM(o.amount) AS revenue, COUNT(*) AS n "
              "FROM orders AS o JOIN customers AS c ON o.customer = c.id "
              "WHERE o." + window + " GROUP BY c.tier";
      break;
    case 2:  // ORDER BY ... LIMIT 100
      j.sql = "SELECT id, amount FROM orders WHERE " + window +
              " ORDER BY amount DESC LIMIT 100";
      break;
    default:  // GROUP BY over the ~1k customers
      j.sql = "SELECT customer, SUM(amount) AS total, COUNT(*) AS n FROM orders "
              "WHERE " + window + " GROUP BY customer";
      break;
  }
  return j;
}

/// Plain C++ reference for one job; "" when `got` matches.
std::string Check(const Job& j, const Orders& o, const std::vector<int64_t>& tiers,
                  const Dataset& got) {
  Groups want;
  switch (j.shape) {
    case 0:
      for (std::size_t i = 0; i < o.size(); ++i) {
        if (o.day[i] >= j.lo && o.day[i] < j.hi) {
          want[o.region[i]].count += 1;
          want[o.region[i]].sum += o.amount[i];
        }
      }
      return CheckGroups(got, want, /*key_is_region=*/true);
    case 1:
      for (std::size_t i = 0; i < o.size(); ++i) {
        if (o.day[i] >= j.lo && o.day[i] < j.hi) {
          want[tiers[o.customer[i]]].count += 1;
          want[tiers[o.customer[i]]].sum += o.amount[i];
        }
      }
      return CheckGroups(got, want, false);
    case 2: {
      std::vector<std::pair<double, int64_t>> top;
      for (std::size_t i = 0; i < o.size(); ++i) {
        if (o.day[i] >= j.lo && o.day[i] < j.hi) {
          top.push_back({o.amount[i], static_cast<int64_t>(i)});
        }
      }
      const std::size_t k = std::min<std::size_t>(100, top.size());
      std::partial_sort(top.begin(), top.begin() + static_cast<long>(k), top.end(),
                        std::greater<>());
      if (got.size() != k) {
        return "expected " + std::to_string(k) + " rows, got " +
               std::to_string(got.size());
      }
      for (std::size_t r = 0; r < k; ++r) {
        if (got.at(r)[0].ToInt64Or(-1) != top[r].second ||
            got.at(r)[1].ToDoubleOr(-1) != top[r].first) {
          return "row " + std::to_string(r) + " is " + got.at(r).ToString() +
                 ", want id " + std::to_string(top[r].second);
        }
      }
      return "";
    }
    default:
      for (std::size_t i = 0; i < o.size(); ++i) {
        if (o.day[i] >= j.lo && o.day[i] < j.hi) {
          want[o.customer[i]].count += 1;
          want[o.customer[i]].sum += o.amount[i];
        }
      }
      return CheckGroups(got, want, false);
  }
}

using Env = StorageContext;

/// Context, platforms, storage writes and one job of every shape: the
/// first loads both tables into the hot buffer, and each shape's first run
/// in a fresh context re-plans mid-job more often than later ones.
Env SetUp(const Dataset& orders, const Dataset& customers) {
  Env env = NewStorageContext(std::make_unique<rheem::storage::MemColumnStore>(),
                              {{"orders", &orders}, {"customers", &customers}});
  rheem::Rng rng(777);
  for (int shape = 0; shape < kShapes; ++shape) {
    const Job j = NextJob(shape, &rng);
    auto stmt = env.ctx->Sql(j.sql);
    if (!stmt.ok()) Die("warm-up compile: " + stmt.status().ToString());
    auto result = stmt->Execute();
    if (!result.ok()) Die("warm-up job: " + result.status().ToString());
  }
  return env;
}

struct Done {
  Job job;
  Dataset output;
  double latency_ms;
};

struct LoopResult {
  std::vector<Done> done;
  double elapsed_s = 0;
  int64_t rows_scanned = 0;
};

/// Runs jobs back to back for `seconds`, adding them to `loop`. `run`
/// executes one statement and returns its output.
template <typename RunJob>
void ClosedLoop(Env* env, rheem::Rng* rng, double seconds, int64_t orders,
                int64_t customers, LoopResult* loop, RunJob&& run) {
  const auto start = Clock::now();
  for (int i = 0; SecondsSince(start) < seconds; ++i) {
    Job j = NextJob(i % kShapes, rng);
    const auto t0 = Clock::now();
    Dataset out = run(env, j);
    loop->done.push_back({std::move(j), std::move(out), MicrosSince(t0) / 1e3});
    loop->rows_scanned += orders + (i % kShapes == 1 ? customers : 0);
  }
  loop->elapsed_s += SecondsSince(start);
}

void CheckAll(const LoopResult& loop, const Orders& orders,
              const std::vector<int64_t>& tiers, Report* report) {
  for (const Done& d : loop.done) {
    const std::string diff = Check(d.job, orders, tiers, d.output);
    if (!diff.empty()) report->Mismatch("batch_sql: '" + d.job.sql + "': " + diff);
  }
  report->attempted += static_cast<int64_t>(loop.done.size());
}

std::vector<double> Latencies(const LoopResult& loop) {
  std::vector<double> ms;
  for (const Done& d : loop.done) ms.push_back(d.latency_ms);
  return ms;
}

}  // namespace

void RunBatchSql(const Options& opt, Report* report) {
  const Orders orders = MakeOrders(kOrderRows, opt.seed);
  const std::vector<int64_t> tiers = MakeTiers(opt.seed);
  const auto n_orders = static_cast<int64_t>(orders.size());
  const auto n_customers = static_cast<int64_t>(tiers.size());

  Env env;
  std::vector<double> setup_s;
  {
    const Dataset orders_ds = OrdersDataset(orders);
    const Dataset customers_ds = CustomersDataset(tiers);
    for (int rep = 0; rep < 3; ++rep) {
      env.Reset();
      const auto t0 = Clock::now();
      env = SetUp(orders_ds, customers_ds);
      setup_s.push_back(SecondsSince(t0));
    }
  }

  rheem::Rng rng(opt.seed * 0xBF58476D1CE4E5B9ull + 5);
  auto plain = [](Env* e, const Job& j) {
    auto stmt = e->ctx->Sql(j.sql);
    if (!stmt.ok()) Die("compile: " + stmt.status().ToString());
    auto result = stmt->Execute();
    if (!result.ok()) Die("job: " + result.status().ToString());
    return std::move(result->output);
  };
  if (!opt.trace) {
    LoopResult loop;
    ClosedLoop(&env, &rng, opt.seconds, n_orders, n_customers, &loop, plain);
    CheckAll(loop, orders, tiers, report);
    const std::vector<double> ms = Latencies(loop);
    const auto n = static_cast<int64_t>(ms.size());
    ReportSetup(setup_s, report);
    report->Metric("latency_p50_ms", Median(ms), "ms", n);
    report->Note("latency_p99_ms", Quantile(ms, 0.99), "ms", n);
    report->Metric("throughput_qps", static_cast<double>(n) / loop.elapsed_s,
                   "1/s", n);
    report->Metric("rows_per_s",
                   static_cast<double>(loop.rows_scanned) / loop.elapsed_s,
                   "rows/s", n);
    report->Metric("peak_rss_mib", PeakRssMib(), "MiB", 1);
    env.Reset();
    return;
  }

  // Traced run: alternating untraced and traced blocks; the traced ones
  // split each job into its public calls. Parse and fingerprint replay work
  // the job does internally, timed afterwards outside any job's latency.
  std::vector<double> parse_us, compile_us, fp_us;
  ExecuteSamples exec;
  Profile prof;
  LoopResult untraced, traced;
  AlternateBlocks(opt.seconds, &prof, [&](bool on, double seconds) {
    if (!on) {
      ClosedLoop(&env, &rng, seconds, n_orders, n_customers, &untraced, plain);
      return;
    }
    ClosedLoop(&env, &rng, seconds, n_orders, n_customers, &traced,
               [&](Env* e, const Job& j) {
                 auto stmt = Timed("sql.compile", &compile_us,
                                   [&] { return e->ctx->Sql(j.sql); });
                 if (!stmt.ok()) Die("compile: " + stmt.status().ToString());
                 auto result = CompileAndExecute(e->ctx.get(), stmt->plan(), &exec);
                 if (!result.ok()) Die("job: " + result.status().ToString());
                 return std::move(result->output);
               });
  });
  CheckAll(untraced, orders, tiers, report);
  CheckAll(traced, orders, tiers, report);
  for (int shape = 0; shape < kShapes; ++shape) {
    const Job j = NextJob(shape, &rng);
    auto ast = Timed("sql.parse", &parse_us,
                     [&] { return rheem::sql::ParseSelect(j.sql); });
    if (!ast.ok()) Die("parse: " + ast.status().ToString());
    auto stmt = env.ctx->Sql(j.sql);
    if (!stmt.ok()) Die("compile: " + stmt.status().ToString());
    auto fp = Timed("optimizer.fingerprint", &fp_us, [&] {
      return rheem::PlanFingerprint::Compute(stmt->plan());
    });
    if (!fp.ok()) Die("fingerprint: " + fp.status().ToString());
  }

  Layers layers;
  const auto jobs = static_cast<int64_t>(traced.done.size());
  layers.SetMedian("sql.parse_us", parse_us);
  layers.SetMedian("sql.compile_us", compile_us);
  layers.SetMedian("optimizer.fingerprint_us", fp_us);
  layers.SetMedian("optimizer.compile_us", exec.optimizer_us);
  layers.SetMedian("executor.execute_us", exec.execute_us);
  FillProgramLayers(prof, jobs, exec.edges, &layers);
  const double base = Median(Latencies(untraced));
  layers.Set("trace.overhead_frac", Ratio(Median(Latencies(traced)) - base, base),
             jobs);
  layers.ReportTo(report);
  env.Reset();
}

}  // namespace perfbench
