#include "core/executor/executor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "core/api/data_quanta.h"
#include "core/executor/execution_state.h"
#include "core/operators/physical_ops.h"
#include "core/optimizer/enumerator.h"
#include "platforms/javasim/javasim_platform.h"
#include "platforms/sparksim/sparksim_platform.h"

namespace rheem {
namespace {

Dataset Numbers(int n) {
  std::vector<Record> records;
  for (int i = 0; i < n; ++i) records.push_back(Record({Value(i)}));
  return Dataset(std::move(records));
}

MapUdf PlusOne() {
  MapUdf udf;
  udf.fn = [](const Record& r) {
    return Record({Value(r[0].ToInt64Or(0) + 1)});
  };
  return udf;
}

class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest() : java_(config_), spark_(config_) {}

  ExecutionPlan MakeCrossPlatformPlan(Plan* plan) {
    auto* src = plan->Add<CollectionSourceOp>({}, Numbers(10));
    auto* m1 = plan->Add<MapOp>({src}, PlusOne());
    auto* m2 = plan->Add<MapOp>({m1}, PlusOne());
    auto* sink = plan->Add<CollectOp>({m2});
    plan->SetSink(sink);
    PlatformAssignment a;
    a.by_op = {{src->id(), &java_}, {m1->id(), &java_},
               {m2->id(), &spark_}, {sink->id(), &spark_}};
    return StageSplitter::Split(*plan, std::move(a)).ValueOrDie();
  }

  Config config_;
  JavaSimPlatform java_;
  SparkSimPlatform spark_;
};

TEST_F(ExecutorTest, RunsTwoStagePlanAndMovesData) {
  Plan plan;
  ExecutionPlan eplan = MakeCrossPlatformPlan(&plan);
  CrossPlatformExecutor executor;
  auto result = executor.Execute(eplan);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->output.size(), 10u);
  EXPECT_EQ(result->output.at(0)[0], Value(2));  // 0 +1 +1
  EXPECT_EQ(result->metrics.stages_run, 2);
  EXPECT_EQ(result->metrics.moved_records, 10);
  EXPECT_GT(result->metrics.moved_bytes, 0);
}

TEST_F(ExecutorTest, BoundarySerializationCanBeDisabled) {
  Plan plan;
  ExecutionPlan eplan = MakeCrossPlatformPlan(&plan);
  Config config;
  config.SetBool("executor.serialize_boundaries", false);
  CrossPlatformExecutor executor(config);
  auto result = executor.Execute(eplan);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->output.size(), 10u);
  EXPECT_GT(result->metrics.moved_bytes, 0);  // still accounted
}

TEST_F(ExecutorTest, RetriesTransientFailures) {
  Plan plan;
  ExecutionPlan eplan = MakeCrossPlatformPlan(&plan);
  CrossPlatformExecutor executor;
  // First two attempts of stage 0 fail; the third succeeds.
  FaultInjector::Global().Clear();
  FaultInjector::Global().Seed(1);
  ASSERT_TRUE(FaultInjector::Global()
                  .AddSpec("executor.stage_attempt",
                           FaultTrigger::EveryK(1, /*max_fires=*/2),
                           "stage=0,")
                  .ok());
  FaultInjector::Global().set_enabled(true);
  ExecutionMonitor monitor;
  executor.set_monitor(&monitor);
  auto result = executor.Execute(eplan);
  FaultInjector::Global().set_enabled(false);
  FaultInjector::Global().Clear();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->metrics.retries, 2);
  EXPECT_EQ(monitor.failures(), 2);
  EXPECT_EQ(result->output.size(), 10u);
  EXPECT_NE(monitor.Report().find("FAIL"), std::string::npos);
}

TEST_F(ExecutorTest, GivesUpAfterMaxRetries) {
  Plan plan;
  ExecutionPlan eplan = MakeCrossPlatformPlan(&plan);
  Config config;
  config.SetInt("executor.max_retries", 1);
  CrossPlatformExecutor executor(config);
  FaultInjector::Global().Clear();
  FaultInjector::Global().Seed(1);
  ASSERT_TRUE(FaultInjector::Global()
                  .AddSpec("executor.stage_attempt", FaultTrigger::EveryK(1))
                  .ok());
  FaultInjector::Global().set_enabled(true);
  auto result = executor.Execute(eplan);
  FaultInjector::Global().set_enabled(false);
  FaultInjector::Global().Clear();
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsExecutionError());
  EXPECT_NE(result.status().message().find("after 2 attempt"),
            std::string::npos);
}

TEST_F(ExecutorTest, EmptyPlanRejected) {
  CrossPlatformExecutor executor;
  ExecutionPlan empty;
  EXPECT_TRUE(executor.Execute(empty).status().IsInvalidPlan());
}

TEST_F(ExecutorTest, MonitorRecordsPerStage) {
  Plan plan;
  ExecutionPlan eplan = MakeCrossPlatformPlan(&plan);
  CrossPlatformExecutor executor;
  ExecutionMonitor monitor;
  executor.set_monitor(&monitor);
  ASSERT_TRUE(executor.Execute(eplan).ok());
  ASSERT_EQ(monitor.records().size(), 2u);
  EXPECT_EQ(monitor.records()[0].platform, "javasim");
  EXPECT_EQ(monitor.records()[1].platform, "sparksim");
  EXPECT_TRUE(monitor.records()[0].succeeded);
  EXPECT_EQ(monitor.records()[1].output_records, 10);
}

TEST_F(ExecutorTest, DagParallelMatchesSerialOnDiamondPlan) {
  // src -> {m1, m2} -> union: the two middle stages are independent, so the
  // DAG scheduler may run them concurrently; results must match serial mode.
  auto build = [this](Plan* plan) {
    auto* src = plan->Add<CollectionSourceOp>({}, Numbers(10));
    auto* m1 = plan->Add<MapOp>({src}, PlusOne());
    MapUdf times2;
    times2.fn = [](const Record& r) {
      return Record({Value(r[0].ToInt64Or(0) * 2)});
    };
    auto* m2 = plan->Add<MapOp>({src}, times2);
    auto* u = plan->Add<UnionOp>(std::vector<Operator*>{m1, m2});
    auto* sink = plan->Add<CollectOp>({u});
    plan->SetSink(sink);
    PlatformAssignment a;
    a.by_op = {{src->id(), &java_}, {m1->id(), &java_},
               {m2->id(), &spark_}, {u->id(), &java_},
               {sink->id(), &java_}};
    return StageSplitter::Split(*plan, std::move(a)).ValueOrDie();
  };

  auto collect_sorted = [](const ExecutionResult& r) {
    std::vector<int64_t> values;
    for (const Record& rec : r.output.records()) {
      values.push_back(rec[0].ToInt64Or(-1));
    }
    std::sort(values.begin(), values.end());
    return values;
  };

  Plan parallel_plan;
  ExecutionPlan parallel_eplan = build(&parallel_plan);
  CrossPlatformExecutor parallel_exec;  // executor.parallel_stages defaults on
  auto parallel_result = parallel_exec.Execute(parallel_eplan);
  ASSERT_TRUE(parallel_result.ok()) << parallel_result.status().ToString();

  Plan serial_plan;
  ExecutionPlan serial_eplan = build(&serial_plan);
  Config config;
  config.SetBool("executor.parallel_stages", false);
  CrossPlatformExecutor serial_exec(config);
  auto serial_result = serial_exec.Execute(serial_eplan);
  ASSERT_TRUE(serial_result.ok()) << serial_result.status().ToString();

  EXPECT_EQ(parallel_result->output.size(), 20u);
  EXPECT_EQ(collect_sorted(*parallel_result), collect_sorted(*serial_result));
  EXPECT_EQ(parallel_result->metrics.stages_run,
            serial_result->metrics.stages_run);
}

TEST_F(ExecutorTest, CancelledTokenStopsBeforeFirstStage) {
  Plan plan;
  ExecutionPlan eplan = MakeCrossPlatformPlan(&plan);
  CrossPlatformExecutor executor;
  CancelToken token;
  token.Cancel();
  StopCondition stop;
  stop.token = &token;
  executor.set_stop_condition(stop);
  auto result = executor.Execute(eplan);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled()) << result.status().ToString();
}

TEST_F(ExecutorTest, ExpiredDeadlineStopsExecution) {
  Plan plan;
  ExecutionPlan eplan = MakeCrossPlatformPlan(&plan);
  CrossPlatformExecutor executor;
  StopCondition stop;
  stop.has_deadline = true;
  stop.deadline = std::chrono::steady_clock::now() -
                  std::chrono::milliseconds(1);
  executor.set_stop_condition(stop);
  auto result = executor.Execute(eplan);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeadlineExceeded())
      << result.status().ToString();
}

TEST(ExecutionMonitorTest, ConcurrentRecordStageIsSafe) {
  ExecutionMonitor monitor;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&monitor, t]() {
      for (int i = 0; i < kPerThread; ++i) {
        ExecutionMonitor::StageRecord record;
        record.stage_id = t;
        record.platform = "javasim";
        record.succeeded = (i % 2 == 0);
        record.error = record.succeeded ? "" : "boom";
        monitor.RecordStage(std::move(record));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(monitor.records().size(),
            static_cast<std::size_t>(kThreads * kPerThread));
  EXPECT_EQ(monitor.failures(), kThreads * kPerThread / 2);
  EXPECT_FALSE(monitor.Report().empty());
}

TEST(ExecutionStateTest, PutGetEvict) {
  ExecutionState state;
  EXPECT_FALSE(state.Get(1).ok());
  state.Put(1, Numbers(3));
  ASSERT_TRUE(state.Has(1));
  EXPECT_EQ((*state.Get(1))->size(), 3u);
  state.Evict(1);
  EXPECT_FALSE(state.Has(1));
  EXPECT_TRUE(state.Get(1).status().IsExecutionError());
}

// --- progressive re-optimization, driven through RheemContext --------------

/// A source and Filter pinned to relsim, where the filter claims a
/// selectivity of `hint` but keeps every record, followed by an expensive
/// Map that relsim cannot run. The pinned prefix ends a stage, so the
/// executor observes the filter's real output before the Map is placed.
class AdaptiveTest : public ::testing::Test {
 protected:
  AdaptiveTest() : ctx_(NoLearning()) {}
  void SetUp() override { ASSERT_TRUE(ctx_.RegisterDefaultPlatforms().ok()); }

  static Config NoLearning() {
    Config config;
    // Learned cardinalities would correct a repeated lying hint up front.
    config.SetBool("stats.enabled", false);
    return config;
  }

  Result<ExecutionResult> RunLyingPlan(int rows, double hint) {
    RheemJob job(&ctx_);
    return job.LoadCollection(Numbers(rows))
        .OnPlatform("relsim")
        .Filter(
            [this](const Record&) {
              filter_calls_.fetch_add(1, std::memory_order_relaxed);
              return true;
            },
            UdfMeta::Selective(hint))
        .OnPlatform("relsim")
        .Map(
            [](const Record& r) {
              double x = r[0].ToDoubleOr(0);
              for (int k = 0; k < 200; ++k) x = x * 1.000001 + 0.5;
              return Record({Value(x)});
            },
            UdfMeta::Expensive(200.0))
        .CollectWithMetrics();
  }

  RheemContext ctx_;
  std::atomic<int64_t> filter_calls_{0};
};

TEST_F(AdaptiveTest, ExecutesPlainPlanWithoutAdaptation) {
  RheemJob job(&ctx_);
  auto result = job.LoadCollection(Numbers(100))
                    .Map([](const Record& r) {
                      return Record({Value(r[0].ToInt64Or(0) + 1)});
                    })
                    .CollectWithMetrics();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->output.size(), 100u);
  EXPECT_EQ(result->metrics.reoptimizations, 0);
  EXPECT_TRUE(result->decisions.empty());
}

TEST_F(AdaptiveTest, ReoptimizesWhenSelectivityHintIsWrong) {
  auto result = RunLyingPlan(60000, /*hint=*/0.0005);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // The filter "estimated" 30 records but produced 60000: adaptation fires.
  EXPECT_EQ(result->metrics.reoptimizations, 1);
  ASSERT_EQ(result->decisions.size(), 1u);
  EXPECT_NE(result->decisions[0].find("Filter"), std::string::npos)
      << result->decisions[0];
  // All records survive the (lying) filter and get mapped.
  EXPECT_EQ(result->output.size(), 60000u);
}

TEST_F(AdaptiveTest, AccurateHintNeedsNoAdaptation) {
  auto result = RunLyingPlan(60000, /*hint=*/1.0);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->metrics.reoptimizations, 0);
  EXPECT_EQ(result->output.size(), 60000u);
}

TEST_F(AdaptiveTest, InvalidOptionsAreRejectedAtSubmit) {
  auto run = [&](double threshold, int64_t budget) {
    ctx_.mutable_config().SetDouble("executor.reoptimize_threshold", threshold);
    ctx_.mutable_config().SetInt("executor.max_reoptimizations", budget);
    RheemJob job(&ctx_);
    return job.LoadCollection(Numbers(10)).Collect().status();
  };
  // A threshold <= 1.0 can never be exceeded by the symmetric error ratio
  // (always >= 1), so it would silently disable adaptation: it errors.
  for (double threshold : {1.0, 0.5}) {
    const Status st = run(threshold, 2);
    ASSERT_TRUE(st.IsInvalidArgument()) << st.ToString();
    EXPECT_NE(st.ToString().find("reoptimize_threshold"), std::string::npos);
  }
  const Status negative_budget = run(3.0, -1);
  ASSERT_TRUE(negative_budget.IsInvalidArgument())
      << negative_budget.ToString();
  EXPECT_NE(negative_budget.ToString().find("max_reoptimizations"),
            std::string::npos);
  // Zero stays valid: it means "adaptation off", not a typo.
  EXPECT_TRUE(run(3.0, 0).ok());
}

// A directly constructed executor validates the same keys itself, so callers
// that bypass the context cannot slip an invalid value past it either.
TEST_F(AdaptiveTest, ExecutorConfigValidationMatchesAdaptiveOptions) {
  auto run = [](double threshold, int64_t budget) {
    Config config;
    config.SetDouble("executor.reoptimize_threshold", threshold);
    config.SetInt("executor.max_reoptimizations", budget);
    JavaSimPlatform java(config);
    Plan plan;
    auto* src = plan.Add<CollectionSourceOp>({}, Numbers(10));
    auto* sink = plan.Add<CollectOp>({src});
    plan.SetSink(sink);
    PlatformAssignment a;
    a.by_op = {{src->id(), &java}, {sink->id(), &java}};
    auto eplan = StageSplitter::Split(plan, std::move(a)).ValueOrDie();
    CrossPlatformExecutor executor(config);
    return executor.Execute(eplan).status();
  };
  EXPECT_TRUE(run(1.0, 2).IsInvalidArgument());
  EXPECT_TRUE(run(0.5, 2).IsInvalidArgument());
  EXPECT_TRUE(run(3.0, -1).IsInvalidArgument());
  EXPECT_TRUE(run(3.0, 0).ok());
}

TEST_F(AdaptiveTest, AdaptationRespectsMaxReoptimizations) {
  ctx_.mutable_config().SetInt("executor.max_reoptimizations", 0);
  auto result = RunLyingPlan(20000, /*hint=*/0.0001);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->metrics.reoptimizations, 0);
  EXPECT_TRUE(result->decisions.empty());
  EXPECT_EQ(result->output.size(), 20000u);
}

TEST_F(AdaptiveTest, ExecutedWorkIsNotRedone) {
  auto result = RunLyingPlan(30000, /*hint=*/0.001);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->metrics.reoptimizations, 1);
  // The pinned relsim prefix ran once: every record met the filter exactly
  // once, and after the re-plan only the remaining stage(s) executed.
  EXPECT_EQ(filter_calls_.load(), 30000);
  EXPECT_LE(result->metrics.stages_run, 3);
  EXPECT_EQ(result->output.size(), 30000u);
}

TEST_F(AdaptiveTest, ResultMatchesStaticExecutorOutput) {
  auto adaptive = RunLyingPlan(5000, /*hint=*/0.001);
  ASSERT_TRUE(adaptive.ok()) << adaptive.status().ToString();
  ASSERT_EQ(adaptive->metrics.reoptimizations, 1);

  ctx_.mutable_config().SetInt("executor.max_reoptimizations", 0);
  auto fixed = RunLyingPlan(5000, /*hint=*/0.001);
  ASSERT_TRUE(fixed.ok()) << fixed.status().ToString();
  ASSERT_EQ(fixed->metrics.reoptimizations, 0);
  auto sorted = [](const Dataset& d) {
    std::vector<std::string> rows;
    for (const Record& r : d.records()) rows.push_back(r.ToString());
    std::sort(rows.begin(), rows.end());
    return rows;
  };
  EXPECT_EQ(sorted(adaptive->output), sorted(fixed->output));
}

}  // namespace
}  // namespace rheem
