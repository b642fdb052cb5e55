#include "platforms/javasim/javasim_platform.h"

#include <gtest/gtest.h>

#include "core/optimizer/stage_splitter.h"
#include "platforms/javasim/javasim_operators.h"

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

TEST(JavaSimPlatformTest, DeclaresFullOperatorCoverage) {
  Config config;
  JavaSimPlatform java(config);
  MapOp map(PlusOne());
  CountOp count;
  IEJoinOp iejoin(IEJoinSpec{});
  EXPECT_TRUE(java.Supports(map));
  EXPECT_TRUE(java.Supports(count));
  EXPECT_TRUE(java.Supports(iejoin));
  EXPECT_EQ(java.name(), "javasim");
}

TEST(JavaSimPlatformTest, ExecutesStageWithBoundaryInput) {
  Config config;
  JavaSimPlatform java(config);
  Plan plan;
  auto* src = plan.Add<CollectionSourceOp>({}, Numbers(4));
  auto* m = plan.Add<MapOp>({src}, PlusOne());
  auto* sink = plan.Add<CollectOp>({m});
  plan.SetSink(sink);
  PlatformAssignment a;
  a.by_op = {{src->id(), &java}, {m->id(), &java}, {sink->id(), &java}};
  auto eplan = StageSplitter::Split(plan, std::move(a)).ValueOrDie();

  ExecutionMetrics metrics;
  auto out = java.ExecuteStage(eplan.stages[0], {}, &metrics);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->size(), 1u);
  EXPECT_EQ((*out)[0].at(0)[0], Value(1));
  EXPECT_EQ((*out)[0].at(3)[0], Value(4));
}

TEST(JavaSimWalkerTest, ZipWithIdCountsAcrossOperators) {
  ExecutionMetrics metrics;
  javasim::DatasetWalker walker(&metrics);
  Plan plan;
  auto* src = plan.Add<CollectionSourceOp>({}, Numbers(3));
  auto* z1 = plan.Add<ZipWithIdOp>({src});
  auto* p = plan.Add<ProjectOp>({z1}, std::vector<int>{0});
  auto* z2 = plan.Add<ZipWithIdOp>({p});
  plan.SetSink(z2);
  auto topo = plan.TopologicalOrder().ValueOrDie();
  ASSERT_TRUE(walker.RunOps(topo, {}).ok());
  const Dataset* out = walker.ResultOf(z2->id()).ValueOrDie();
  // Ids keep increasing across the second ZipWithId (3..5).
  EXPECT_EQ(out->at(0)[1], Value(int64_t{3}));
}

TEST(JavaSimWalkerTest, ProjectResultSchemaIsReadable) {
  ExecutionMetrics metrics;
  javasim::DatasetWalker walker(&metrics);
  Plan plan;
  auto* src = plan.Add<CollectionSourceOp>(
      {}, Dataset({Record({Value(1), Value("a")}), Record({Value(2), Value("b")})},
                  Schema::Of({{"id", ValueType::kInt64},
                              {"name", ValueType::kString}})));
  auto* p = plan.Add<ProjectOp>({src}, std::vector<int>{1});
  plan.SetSink(p);
  ASSERT_TRUE(walker.RunOps(plan.TopologicalOrder().ValueOrDie(), {}).ok());
  const Dataset* out = walker.ResultOf(p->id()).ValueOrDie();
  ASSERT_EQ(out->size(), 2u);
  EXPECT_EQ(out->at(1)[0], Value("b"));
  // The kernel Project carries no schema: reading it is safe, and it has
  // no field a caller could index.
  EXPECT_FALSE(out->has_schema());
  EXPECT_EQ(out->schema().num_fields(), 0u);
}

TEST(JavaSimWalkerTest, TakeResultMovesTheResultOut) {
  ExecutionMetrics metrics;
  javasim::DatasetWalker walker(&metrics);
  Plan plan;
  auto* src = plan.Add<CollectionSourceOp>({}, Numbers(5));
  auto* m = plan.Add<MapOp>({src}, PlusOne());
  plan.SetSink(m);
  ASSERT_TRUE(walker.RunOps(plan.TopologicalOrder().ValueOrDie(), {}).ok());
  auto taken = walker.TakeResult(m->id());
  ASSERT_TRUE(taken.ok());
  ASSERT_EQ(taken->size(), 5u);
  EXPECT_EQ(taken->at(4)[0], Value(5));
  EXPECT_FALSE(walker.ResultOf(m->id()).ok());
  EXPECT_FALSE(walker.TakeResult(m->id()).ok());
}

TEST(JavaSimWalkerTest, MissingInputIsExecutionError) {
  ExecutionMetrics metrics;
  javasim::DatasetWalker walker(&metrics);
  Plan plan;
  auto* marker = plan.Add<LoopStateOp>({});
  auto* m = plan.Add<MapOp>({marker}, PlusOne());
  plan.SetSink(m);
  // Markers unbound: evaluating them must fail loudly.
  auto topo = plan.TopologicalOrder().ValueOrDie();
  EXPECT_TRUE(walker.RunOps(topo, {}).IsExecutionError());
}

TEST(JavaSimWalkerTest, NestedLoopsExecute) {
  // Outer loop runs 2 iterations of a body that itself loops 3 times,
  // incrementing a counter: total 6 increments.
  auto inner_body = std::make_shared<Plan>();
  {
    auto* st = inner_body->Add<LoopStateOp>({});
    auto* m = inner_body->Add<MapOp>({st}, PlusOne());
    inner_body->SetSink(m);
  }
  auto outer_body = std::make_shared<Plan>();
  {
    auto* st = outer_body->Add<LoopStateOp>({});
    auto* dt = outer_body->Add<LoopDataOp>({});
    auto* inner = outer_body->Add<RepeatOp>({st, dt}, 3, inner_body);
    outer_body->SetSink(inner);
  }
  Plan plan;
  auto* init = plan.Add<CollectionSourceOp>(
      {}, Dataset(std::vector<Record>{Record({Value(int64_t{0})})}));
  auto* data = plan.Add<CollectionSourceOp>({}, Numbers(1));
  auto* loop = plan.Add<RepeatOp>({init, data}, 2, outer_body);
  plan.SetSink(loop);

  ExecutionMetrics metrics;
  javasim::DatasetWalker walker(&metrics);
  auto topo = plan.TopologicalOrder().ValueOrDie();
  ASSERT_TRUE(walker.RunOps(topo, {}).ok());
  const Dataset* out = walker.ResultOf(loop->id()).ValueOrDie();
  EXPECT_EQ(out->at(0)[0], Value(int64_t{6}));
}

TEST(JavaSimPlatformTest, CostModelHasNoFixedOverheads) {
  Config config;
  JavaSimPlatform java(config);
  EXPECT_DOUBLE_EQ(java.cost_model().StageOverheadMicros(), 0.0);
  EXPECT_DOUBLE_EQ(java.cost_model().JobOverheadMicros(), 0.0);
}

}  // namespace
}  // namespace rheem
