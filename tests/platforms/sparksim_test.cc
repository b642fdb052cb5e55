#include "platforms/sparksim/sparksim_platform.h"

#include <atomic>
#include <set>
#include <thread>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/api/context.h"
#include "core/expr/expr.h"
#include "core/operators/kernels.h"
#include "core/optimizer/stage_splitter.h"
#include "core/sql/sql.h"
#include "data/table_memo.h"
#include "platforms/sparksim/rdd.h"
#include "platforms/sparksim/scheduler.h"
#include "platforms/sparksim/shuffle.h"
#include "platforms/sparksim/sparksim_operators.h"
#include "storage/mem_column_store.h"
#include "storage/storage_plan.h"

namespace rheem {
namespace {

using sparksim::Rdd;

Dataset Numbers(int n) {
  std::vector<Record> records;
  for (int i = 0; i < n; ++i) records.push_back(Record({Value(i)}));
  return Dataset(std::move(records));
}

TEST(RddTest, FromDatasetPartitionsAndGathersInOrder) {
  Rdd rdd = Rdd::FromDataset(Numbers(10), 3);
  EXPECT_EQ(rdd.num_partitions(), 3u);
  EXPECT_EQ(rdd.TotalRows(), 10u);
  Dataset gathered = rdd.Gather();
  ASSERT_EQ(gathered.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(gathered.at(static_cast<std::size_t>(i))[0], Value(i));
  }
}

TEST(RddTest, SingleHoldsOnePartition) {
  Rdd rdd = Rdd::Single(Numbers(4));
  EXPECT_EQ(rdd.num_partitions(), 1u);
  EXPECT_EQ(rdd.TotalRows(), 4u);
}

TEST(SparkOverheadTest, ConfigOverridesDefaults) {
  Config config;
  config.SetDouble("sparksim.job_submit_us", 123.0);
  auto m = sparksim::SparkOverheadModel::FromConfig(config);
  EXPECT_DOUBLE_EQ(m.job_submit_us, 123.0);
  EXPECT_DOUBLE_EQ(m.stage_us, sparksim::SparkOverheadModel().stage_us);
}

TEST(TaskSchedulerTest, ChargesPerTaskOverhead) {
  ThreadPool pool(2);
  sparksim::SparkOverheadModel overhead;
  overhead.task_us = 100.0;
  sparksim::TaskScheduler scheduler(&pool, overhead);
  ExecutionMetrics metrics;
  std::atomic<int> ran{0};
  Stopwatch wall;
  ASSERT_TRUE(scheduler
                  .RunTasks(5, &metrics,
                            [&](std::size_t) {
                              ran.fetch_add(1);
                              return Status::OK();
                            })
                  .ok());
  const int64_t wall_us = wall.ElapsedMicros();
  EXPECT_EQ(ran.load(), 5);
  EXPECT_EQ(metrics.tasks_launched, 5);
  // 5 x 100us of launch overhead plus the virtual-clock correction, which
  // can subtract at most the measured batch wall time.
  EXPECT_LE(metrics.sim_overhead_micros, 500);
  EXPECT_GE(metrics.sim_overhead_micros, 500 - wall_us);
}

TEST(TaskSchedulerTest, VirtualClusterClockModelsSlotParallelism) {
  // Four CPU-bound tasks on a 4-slot scheduler: regardless of how many real
  // cores the host has, wall + simulated correction must land between the
  // longest single task (perfect parallelism) and the serial sum.
  ThreadPool pool(4);
  sparksim::SparkOverheadModel overhead;
  overhead.task_us = 0.0;
  sparksim::TaskScheduler scheduler(&pool, overhead);
  ExecutionMetrics metrics;
  std::vector<int64_t> task_us(4, 0);
  Stopwatch wall;
  ASSERT_TRUE(scheduler
                  .RunTasks(4, &metrics,
                            [&](std::size_t i) {
                              ThreadCpuTimer cpu;
                              volatile double x = 1.0;
                              for (int k = 0; k < 4000000; ++k) {
                                x = x * 1.0000001 + 1e-9;
                              }
                              task_us[i] = cpu.ElapsedMicros();
                              return Status::OK();
                            })
                  .ok());
  const int64_t wall_us = wall.ElapsedMicros();
  int64_t longest = 0, total = 0;
  for (int64_t t : task_us) {
    longest = std::max(longest, t);
    total += t;
  }
  const int64_t modeled = wall_us + metrics.sim_overhead_micros;
  EXPECT_GE(modeled, total / 4 / 2);  // not faster than 4-way parallel (slack 2x)
  EXPECT_LE(modeled, total);          // never slower than serial execution
  EXPECT_GE(modeled, longest / 2);
}

TEST(TaskSchedulerTest, FirstErrorWinsDeterministically) {
  ThreadPool pool(4);
  sparksim::TaskScheduler scheduler(&pool, {});
  ExecutionMetrics metrics;
  Status st = scheduler.RunTasks(8, &metrics, [](std::size_t i) -> Status {
    if (i == 2) return Status::ExecutionError("task2");
    if (i == 6) return Status::ExecutionError("task6");
    return Status::OK();
  });
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.message(), "task2");
}

TEST(ShuffleTest, ByKeyGroupsKeysIntoSamePartition) {
  Rdd in = Rdd::FromDataset(Numbers(100), 4);
  KeyUdf key;
  key.fn = [](const Record& r) { return Value(r[0].ToInt64Or(0) % 10); };
  ThreadPool pool(4);
  sparksim::TaskScheduler scheduler(&pool, {});
  ExecutionMetrics metrics;
  auto out = sparksim::ShuffleByKey(in, key, 4, &scheduler, &metrics);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->TotalRows(), 100u);
  EXPECT_GT(metrics.shuffle_bytes, 0);
  // Every key must live in exactly one partition.
  std::map<int64_t, std::set<std::size_t>> where;
  for (std::size_t p = 0; p < out->num_partitions(); ++p) {
    for (const Record& r : out->partition(p).records()) {
      where[r[0].ToInt64Or(0) % 10].insert(p);
    }
  }
  for (const auto& [k, parts] : where) {
    EXPECT_EQ(parts.size(), 1u) << "key " << k;
  }
}

TEST(ShuffleTest, PreservesRecordMultiset) {
  Rdd in = Rdd::FromDataset(Numbers(57), 3);
  ThreadPool pool(2);
  sparksim::TaskScheduler scheduler(&pool, {});
  ExecutionMetrics metrics;
  auto out = sparksim::ShuffleByRecordHash(in, 5, &scheduler, &metrics);
  ASSERT_TRUE(out.ok());
  std::multiset<int64_t> before, after;
  const Dataset gathered_in = in.Gather();
  const Dataset gathered_out = out->Gather();
  for (const Record& r : gathered_in.records()) before.insert(r[0].ToInt64Or(0));
  for (const Record& r : gathered_out.records()) after.insert(r[0].ToInt64Or(0));
  EXPECT_EQ(before, after);
}

TEST(SparkSimPlatformTest, StageExecutionChargesOverheads) {
  Config config;
  config.SetInt("sparksim.slots", 4);
  SparkSimPlatform spark(config);
  Plan plan;
  auto* src = plan.Add<CollectionSourceOp>({}, Numbers(100));
  MapUdf udf;
  udf.fn = [](const Record& r) { return Record({Value(r[0].ToInt64Or(0) * 2)}); };
  auto* m = plan.Add<MapOp>({src}, udf);
  auto* sink = plan.Add<CollectOp>({m});
  plan.SetSink(sink);
  PlatformAssignment a;
  a.by_op = {{src->id(), &spark}, {m->id(), &spark}, {sink->id(), &spark}};
  auto eplan = StageSplitter::Split(plan, std::move(a)).ValueOrDie();
  ExecutionMetrics metrics;
  auto out = spark.ExecuteStage(eplan.stages[0], {}, &metrics);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ((*out)[0].size(), 100u);
  EXPECT_GT(metrics.sim_overhead_micros, 0);
  EXPECT_GT(metrics.tasks_launched, 0);
  EXPECT_EQ(metrics.jobs_run, 1);
}

TEST(SparkSimPlatformTest, LoopChargesJobPerIteration) {
  Config config;
  config.SetDouble("sparksim.job_submit_us", 1000.0);
  config.SetDouble("sparksim.stage_us", 0.0);
  config.SetDouble("sparksim.task_us", 0.0);
  config.SetDouble("sparksim.collect_fixed_us", 0.0);
  config.SetDouble("sparksim.shuffle_fixed_us", 0.0);
  SparkSimPlatform spark(config);

  auto body = std::make_shared<Plan>();
  auto* st = body->Add<LoopStateOp>({});
  MapUdf inc;
  inc.fn = [](const Record& r) { return Record({Value(r[0].ToInt64Or(0) + 1)}); };
  auto* m = body->Add<MapOp>({st}, inc);
  body->SetSink(m);

  Plan plan;
  auto* init = plan.Add<CollectionSourceOp>(
      {}, Dataset(std::vector<Record>{Record({Value(int64_t{0})})}));
  auto* data = plan.Add<CollectionSourceOp>({}, Numbers(1));
  auto* loop = plan.Add<RepeatOp>({init, data}, 25, body);
  plan.SetSink(loop);
  PlatformAssignment a;
  a.by_op = {{init->id(), &spark}, {data->id(), &spark}, {loop->id(), &spark}};
  auto eplan = StageSplitter::Split(plan, std::move(a)).ValueOrDie();
  ExecutionMetrics metrics;
  Stopwatch wall;
  auto out = spark.ExecuteStage(eplan.stages[0], {}, &metrics);
  const int64_t wall_us = wall.ElapsedMicros();
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ((*out)[0].at(0)[0], Value(int64_t{25}));
  // 1 outer submission + 25 per-iteration submissions; the virtual-clock
  // correction can subtract at most the measured wall time.
  EXPECT_EQ(metrics.jobs_run, 26);
  EXPECT_GE(metrics.sim_overhead_micros, 26 * 1000 - wall_us);
}

TEST(SparkSimPlatformTest, PartitionsConfigurable) {
  Config config;
  config.SetInt("sparksim.partitions", 3);
  SparkSimPlatform spark(config);
  EXPECT_EQ(spark.num_partitions(), 3u);
}

TEST(SparkSimPlatformTest, RelationalOpsUnsupportedListEmpty) {
  // sparksim maps the whole pool: spot-check a few exotic kinds.
  Config config;
  SparkSimPlatform spark(config);
  CrossProductOp cross;
  EXPECT_TRUE(spark.Supports(cross));
  auto body = std::make_shared<Plan>();
  auto* st = body->Add<LoopStateOp>({});
  body->SetSink(st);
  RepeatOp loop(2, body);
  EXPECT_TRUE(spark.Supports(loop));
}

// --- source-fed fused chains read the table in place -------------------------

/// `n` rows of (id, amount, region) with a null amount every seventh row;
/// `mixed` makes every other amount an int64, so the table has no Batch.
std::shared_ptr<const Dataset> OrdersTable(int n, bool mixed = false) {
  const char* regions[] = {"north", "south", "east", "west"};
  std::vector<Record> records;
  for (int i = 0; i < n; ++i) {
    Value amount = i % 7 == 3 ? Value()
                   : mixed && i % 2 == 0
                       ? Value(int64_t{i % 50})
                       : Value(static_cast<double>(i % 50) + 0.25);
    records.push_back(
        Record({Value(int64_t{i}), std::move(amount), Value(regions[i % 4])}));
  }
  return std::make_shared<const Dataset>(std::move(records));
}

/// Source -> Filter(id % 3 != 0) -> Map(region, amount * 2, id) -> Project
/// (2, 0), which fuses into one declarative chain.
struct ChainPlan {
  Plan plan;
  int tail = -1;
  std::vector<Operator*> ops;

  explicit ChainPlan(std::shared_ptr<const Dataset> table) {
    auto* src = plan.Add<CollectionSourceOp>({}, std::move(table));
    auto pred = expr::MakePredicateUdf(expr::Ne(
        expr::Mod(expr::Field(0, ValueType::kInt64, "id"), expr::Lit(int64_t{3})),
        expr::Lit(int64_t{0})));
    auto map = expr::MakeMapUdf(
        {expr::Field(2, ValueType::kString, "region"),
         expr::Mul(expr::Field(1, ValueType::kDouble, "amount"), expr::Lit(2.0)),
         expr::Field(0, ValueType::kInt64, "id")});
    EXPECT_TRUE(pred.ok() && map.ok());
    auto* f = plan.Add<FilterOp>({src}, *pred);
    auto* m = plan.Add<MapOp>({f}, *map);
    auto* p = plan.Add<ProjectOp>({m}, std::vector<int>{2, 0});
    plan.SetSink(p);
    tail = p->id();
    ops = plan.TopologicalOrder().ValueOrDie();
  }
};

/// Runs the chain on a fresh 10-partition walker; `columnar` false forces
/// the row path.
Result<Rdd> RunChain(const ChainPlan& chain, bool columnar,
                     ExecutionMetrics* metrics) {
  static ThreadPool pool(4);
  sparksim::TaskScheduler scheduler(&pool, {});
  kernels::KernelOptions opts = kernels::KernelOptions::Serial();
  opts.columnar = columnar;
  sparksim::RddWalker walker(10, &scheduler, metrics, /*fuse=*/true, opts);
  RHEEM_RETURN_IF_ERROR(walker.RunOps(chain.ops, {}, {chain.tail}));
  return walker.TakeResult(chain.tail);
}

void ExpectSamePartitions(const Rdd& got, const Rdd& want) {
  ASSERT_EQ(got.num_partitions(), want.num_partitions());
  for (std::size_t i = 0; i < got.num_partitions(); ++i) {
    ASSERT_EQ(got.partition(i).size(), want.partition(i).size()) << "part " << i;
    for (std::size_t r = 0; r < got.partition(i).size(); ++r) {
      ASSERT_EQ(got.partition(i).at(r), want.partition(i).at(r))
          << "partition " << i << " row " << r;
    }
  }
}

int64_t Conversions() {
  return MetricsRegistry::Global().counter("batch.conversions_total")->value();
}

/// Enables the process-wide metrics for one test; restores them, and the
/// process-wide columnar switch, after it.
class SparkSimInPlaceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    metrics_were_enabled_ = MetricsRegistry::Global().enabled();
    columnar_was_enabled_ = kernels::ColumnarEnabled();
    MetricsRegistry::Global().set_enabled(true);
  }
  void TearDown() override {
    kernels::SetColumnarEnabled(columnar_was_enabled_);
    MetricsRegistry::Global().set_enabled(metrics_were_enabled_);
  }
  bool metrics_were_enabled_ = false;
  bool columnar_was_enabled_ = true;
};

TEST_F(SparkSimInPlaceTest, SourceChainMatchesRowPathPartitionByPartition) {
  // 1003 rows: the first three of the ten partitions hold one extra row.
  const ChainPlan chain(OrdersTable(1003));
  ExecutionMetrics row_metrics;
  auto row = RunChain(chain, /*columnar=*/false, &row_metrics);
  ASSERT_TRUE(row.ok()) << row.status().ToString();
  const int64_t before = Conversions();
  ExecutionMetrics metrics;
  auto in_place = RunChain(chain, /*columnar=*/true, &metrics);
  ASSERT_TRUE(in_place.ok()) << in_place.status().ToString();
  ExpectSamePartitions(*in_place, *row);
  EXPECT_EQ(metrics.fused_operators, 3);
  EXPECT_EQ(metrics.tasks_launched, 10);
  auto again = RunChain(chain, /*columnar=*/true, &metrics);
  ASSERT_TRUE(again.ok());
  ExpectSamePartitions(*again, *row);
  // One conversion for the whole table, none per partition; the second job
  // over the same table object reuses it. RHEEM_FORCE_ROW converts nothing.
  if (kernels::ColumnarEnabled()) EXPECT_EQ(Conversions() - before, 1);
}

TEST_F(SparkSimInPlaceTest, ProcessWideRowSwitchWins) {
  const ChainPlan chain(OrdersTable(200));
  ExecutionMetrics metrics;
  auto want = RunChain(chain, /*columnar=*/false, &metrics);
  ASSERT_TRUE(want.ok());
  kernels::SetColumnarEnabled(false);  // restored by TearDown
  const int64_t before = Conversions();
  auto got = RunChain(chain, /*columnar=*/true, &metrics);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectSamePartitions(*got, *want);
  EXPECT_EQ(Conversions(), before);  // the row path converts nothing
}

TEST_F(SparkSimInPlaceTest, MixedTableIsTriedOnceAndAnswersOnTheRowPath) {
  const ChainPlan chain(OrdersTable(500, /*mixed=*/true));
  ExecutionMetrics metrics;
  auto want = RunChain(chain, /*columnar=*/false, &metrics);
  ASSERT_TRUE(want.ok());
  const int64_t before = Conversions();
  for (int job = 0; job < 3; ++job) {
    auto got = RunChain(chain, /*columnar=*/true, &metrics);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectSamePartitions(*got, *want);
  }
  // The rejected whole-table attempt, remembered across jobs.
  if (kernels::ColumnarEnabled()) EXPECT_EQ(Conversions() - before, 1);
}

TEST_F(SparkSimInPlaceTest, InjectedTaskStartFaultIsRetried) {
  const ChainPlan chain(OrdersTable(300));
  ExecutionMetrics row_metrics;
  auto want = RunChain(chain, /*columnar=*/false, &row_metrics);
  ASSERT_TRUE(want.ok());
  FaultInjector& inj = FaultInjector::Global();
  inj.Clear();
  inj.set_enabled(true);
  ASSERT_TRUE(inj.AddSpec("pool.task_start", FaultTrigger::Nth(4)).ok());
  ExecutionMetrics metrics;
  auto got = RunChain(chain, /*columnar=*/true, &metrics);
  const int64_t fired = inj.fired("pool.task_start");
  inj.set_enabled(false);
  inj.Clear();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectSamePartitions(*got, *want);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(metrics.retries, 1);
  EXPECT_EQ(metrics.tasks_launched, 11);
}

TEST_F(SparkSimInPlaceTest, ReplacedStorageTableIsReadAfresh) {
  storage::StorageManager manager;
  ASSERT_TRUE(
      manager.RegisterBackend(std::make_unique<storage::MemColumnStore>())
          .ok());
  const Schema schema = Schema::Of({{"id", ValueType::kInt64},
                                    {"amount", ValueType::kDouble}});
  auto table = [&schema](int n, double scale) {
    std::vector<Record> rows;
    for (int i = 0; i < n; ++i) {
      rows.push_back(Record({Value(int64_t{i}), Value(i * scale)}));
    }
    return Dataset(std::move(rows), schema);
  };
  ASSERT_TRUE(manager.Put("mem-column", "t", table(40, 1.0)).ok());
  RheemContext ctx;
  ASSERT_TRUE(ctx.RegisterDefaultPlatforms().ok());
  ASSERT_TRUE(ctx.AttachStorage(&manager).ok());
  auto run = [&ctx]() {
    auto stmt = ctx.Sql("SELECT id, amount * 2 AS twice FROM t WHERE id >= 10");
    EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
    ExecutionOptions options;
    options.force_platform = "sparksim";
    auto out = stmt->Collect(options);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    std::multiset<std::string> bag;
    for (const Record& r : out->records()) bag.insert(r.ToString());
    return bag;
  };
  auto want = [](int n, double scale) {
    std::multiset<std::string> bag;
    for (int i = 10; i < n; ++i) {
      bag.insert(Record({Value(int64_t{i}), Value(i * scale * 2)}).ToString());
    }
    return bag;
  };
  EXPECT_EQ(run(), want(40, 1.0));
  EXPECT_EQ(run(), want(40, 1.0));
  ASSERT_TRUE(manager.Put("mem-column", "t", table(25, 3.0)).ok());
  EXPECT_EQ(run(), want(25, 3.0));
}

// --- the per-table memo (runs under TSan in CI) ------------------------------

class TableMemoTest : public SparkSimInPlaceTest {};

TEST_F(TableMemoTest, ConcurrentFirstUseConvertsOnce) {
  auto table = OrdersTable(20000);
  const int64_t before = Conversions();
  constexpr int kThreads = 4;
  std::vector<std::shared_ptr<const Batch>> got(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      got[static_cast<std::size_t>(t)] = TableMemo::Columnar(table);
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(Conversions() - before, 1);
  ASSERT_NE(got[0], nullptr);
  EXPECT_EQ(got[0]->num_rows(), 20000u);
  for (const auto& b : got) EXPECT_EQ(b, got[0]);
}

TEST_F(TableMemoTest, ReusedAddressGetsAFreshBatch) {
  // Tables constructed in one storage slot: the second lives at the freed
  // first one's address and must not get the first one's Batch.
  alignas(Dataset) unsigned char slot[sizeof(Dataset)];
  auto in_slot = [&slot](int n) {
    return std::shared_ptr<const Dataset>(
        new (slot) Dataset(Numbers(n)),
        [](const Dataset* d) { d->~Dataset(); });
  };
  auto old_table = in_slot(5);
  std::weak_ptr<const Batch> old_batch = TableMemo::Columnar(old_table);
  ASSERT_EQ(old_batch.lock()->num_rows(), 5u);
  old_table.reset();
  auto new_table = in_slot(6);
  ASSERT_EQ(static_cast<const void*>(new_table.get()), slot);
  auto batch = TableMemo::Columnar(new_table);
  ASSERT_NE(batch, nullptr);
  EXPECT_EQ(batch->num_rows(), 6u);
  EXPECT_TRUE(old_batch.expired());
}

TEST_F(TableMemoTest, FreedTableEntryIsSwept) {
  auto freed = std::make_shared<const Dataset>(Numbers(100));
  std::weak_ptr<const Batch> batch = TableMemo::Columnar(freed);
  ASSERT_FALSE(batch.expired());
  freed.reset();
  EXPECT_FALSE(batch.expired());  // held by the memo until the next sweep
  // The next conversion sweeps the dead entry and releases its Batch.
  auto other = std::make_shared<const Dataset>(Numbers(3));
  ASSERT_NE(TableMemo::Columnar(other), nullptr);
  EXPECT_TRUE(batch.expired());
}

TEST_F(TableMemoTest, HashAndBatchShareOneEntry) {
  auto table = std::make_shared<const Dataset>(Numbers(8));
  auto count = [](const Dataset& d) { return static_cast<uint64_t>(d.size()); };
  EXPECT_EQ(TableMemo::Hash(table, +count), 8u);
  // Memoized: a different function is not consulted again.
  auto other = [](const Dataset&) { return uint64_t{99}; };
  EXPECT_EQ(TableMemo::Hash(table, +other), 8u);
  ASSERT_NE(TableMemo::Columnar(table), nullptr);
  EXPECT_EQ(TableMemo::Hash(table, +other), 8u);
  EXPECT_EQ(TableMemo::Columnar(nullptr), nullptr);
}

TEST(SparkSimPlatformTest, StageOutputsGatherInOrder) {
  Config config;
  config.SetInt("sparksim.partitions", 4);
  SparkSimPlatform spark(config);
  Plan plan;
  auto* src = plan.Add<CollectionSourceOp>({}, Numbers(10));
  auto* sink = plan.Add<CollectOp>({src});
  plan.SetSink(sink);
  PlatformAssignment a;
  a.by_op = {{src->id(), &spark}, {sink->id(), &spark}};
  auto eplan = StageSplitter::Split(plan, std::move(a)).ValueOrDie();
  ExecutionMetrics metrics;
  auto out = spark.ExecuteStage(eplan.stages[0], {}, &metrics);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ((*out)[0].size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ((*out)[0].at(static_cast<std::size_t>(i))[0], Value(i));
  }
}

}  // namespace
}  // namespace rheem
