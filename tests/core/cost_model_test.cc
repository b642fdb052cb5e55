#include "core/optimizer/cost_model.h"

#include <gtest/gtest.h>

#include "core/optimizer/channel.h"
#include "core/optimizer/stage_splitter.h"
#include "core/plan/plan.h"
#include "platforms/javasim/javasim_platform.h"
#include "platforms/sparksim/sparksim_platform.h"

namespace rheem {
namespace {

BasicCostModel MakeModel(double parallelism = 1.0, double shuffle = 0.0) {
  BasicCostModel::Params p;
  p.per_quantum_micros = 1.0;
  p.parallelism = parallelism;
  p.shuffle_micros_per_quantum = shuffle;
  return BasicCostModel(p);
}

MapUdf ExpensiveMap(double cost) {
  MapUdf udf;
  udf.fn = [](const Record& r) { return r; };
  udf.meta.cost_factor = cost;
  return udf;
}

TEST(CostModelTest, MapCostScalesWithCardinalityAndUdfWeight) {
  BasicCostModel model = MakeModel();
  MapOp cheap(ExpensiveMap(1.0));
  MapOp pricey(ExpensiveMap(10.0));
  EXPECT_DOUBLE_EQ(model.OperatorCostMicros(cheap, {1000}, 1000), 1000.0);
  EXPECT_DOUBLE_EQ(model.OperatorCostMicros(pricey, {1000}, 1000), 10000.0);
}

TEST(CostModelTest, ParallelismDividesThroughputCost) {
  BasicCostModel serial = MakeModel(1.0);
  BasicCostModel parallel = MakeModel(8.0);
  MapOp op(ExpensiveMap(1.0));
  EXPECT_GT(serial.OperatorCostMicros(op, {8000}, 8000),
            parallel.OperatorCostMicros(op, {8000}, 8000) * 7.9);
}

TEST(CostModelTest, ShuffleTollChargedForKeyedOps) {
  BasicCostModel with_shuffle = MakeModel(1.0, 5.0);
  BasicCostModel no_shuffle = MakeModel(1.0, 0.0);
  KeyUdf key;
  key.fn = [](const Record& r) { return r[0]; };
  ReduceUdf red;
  red.fn = [](const Record& a, const Record&) { return a; };
  ReduceByKeyOp op(key, red);
  EXPECT_GT(with_shuffle.OperatorCostMicros(op, {1000}, 100),
            no_shuffle.OperatorCostMicros(op, {1000}, 100));
}

TEST(CostModelTest, ThetaJoinQuadraticInInputs) {
  BasicCostModel model = MakeModel();
  ThetaUdf cond;
  cond.fn = [](const Record&, const Record&) { return true; };
  ThetaJoinOp op(cond);
  const double small = model.OperatorCostMicros(op, {100, 100}, 10);
  const double big = model.OperatorCostMicros(op, {1000, 1000}, 10);
  EXPECT_NEAR(big / small, 100.0, 1.0);
}

TEST(CostModelTest, IEJoinFarCheaperThanThetaOnLargeInputs) {
  BasicCostModel model = MakeModel();
  ThetaUdf cond;
  cond.fn = [](const Record&, const Record&) { return true; };
  ThetaJoinOp theta(cond);
  IEJoinOp ie(IEJoinSpec{});
  const double theta_cost = model.OperatorCostMicros(theta, {1e5, 1e5}, 1e4);
  const double ie_cost = model.OperatorCostMicros(ie, {1e5, 1e5}, 1e4);
  EXPECT_GT(theta_cost / ie_cost, 20.0);
}

TEST(CostModelTest, SortGroupByVsHashGroupByDependOnAlgorithm) {
  BasicCostModel model = MakeModel();
  KeyUdf key;
  key.fn = [](const Record& r) { return r[0]; };
  GroupUdf group;
  group.fn = [](const Value&, const std::vector<Record>& rs) { return rs; };
  GroupByKeyOp hash(key, group, GroupByAlgorithm::kHash);
  GroupByKeyOp sort(key, group, GroupByAlgorithm::kSort);
  // For large n, n log n sort beats nothing: hash should be cheaper.
  EXPECT_LT(model.OperatorCostMicros(hash, {1e6}, 1e5),
            model.OperatorCostMicros(sort, {1e6}, 1e5));
}

TEST(CostModelTest, LoopOpsDeferToEnumerator) {
  BasicCostModel model = MakeModel();
  auto body = std::make_shared<Plan>();
  auto* s = body->Add<LoopStateOp>({});
  body->SetSink(s);
  RepeatOp loop(10, body);
  EXPECT_DOUBLE_EQ(model.OperatorCostMicros(loop, {1, 100}, 1), 0.0);
}

TEST(CostModelTest, HintsOfReadsUdfAnnotations) {
  MapOp op(ExpensiveMap(7.5));
  EXPECT_DOUBLE_EQ(HintsOf(op).cost_factor, 7.5);
  PredicateUdf pred;
  pred.fn = [](const Record&) { return true; };
  pred.meta.selectivity = 0.33;
  FilterOp f(pred);
  EXPECT_DOUBLE_EQ(HintsOf(f).selectivity, 0.33);
}

TEST(MovementCostModelTest, SamePlatformIsFree) {
  Config config;
  JavaSimPlatform java(config);
  MovementCostModel movement;
  EXPECT_DOUBLE_EQ(movement.MoveCostMicros(java, java, 1e6, 100.0), 0.0);
  EXPECT_EQ(movement.ChannelFor(java, java), ChannelKind::kInMemory);
}

TEST(MovementCostModelTest, CrossPlatformScalesWithBytes) {
  Config config;
  JavaSimPlatform java(config);
  SparkSimPlatform spark(config);
  MovementCostModel movement;
  const double small = movement.MoveCostMicros(java, spark, 10, 100.0);
  const double big = movement.MoveCostMicros(java, spark, 1e6, 100.0);
  EXPECT_GT(big, small * 100);
  EXPECT_EQ(movement.ChannelFor(java, spark), ChannelKind::kSerializedStream);
}

TEST(PlatformCostProfileTest, SparkHasHeavyFixedOverheads) {
  Config config;
  JavaSimPlatform java(config);
  SparkSimPlatform spark(config);
  EXPECT_DOUBLE_EQ(java.cost_model().JobOverheadMicros(), 0.0);
  EXPECT_GT(spark.cost_model().JobOverheadMicros(), 1000.0);
  EXPECT_GT(spark.cost_model().StageOverheadMicros(),
            java.cost_model().StageOverheadMicros());
}

TEST(CostModelTest, EstimateStageCostSumsOperators) {
  Config config;
  JavaSimPlatform java(config);
  Plan plan;
  std::vector<Record> rows;
  for (int i = 0; i < 1000; ++i) rows.push_back(Record({Value(i)}));
  auto* src = plan.Add<CollectionSourceOp>({}, Dataset(std::move(rows)));
  auto* m = plan.Add<MapOp>({src}, ExpensiveMap(10.0));
  auto* sink = plan.Add<CollectOp>({m});
  plan.SetSink(sink);
  PlatformAssignment a;
  a.by_op = {{src->id(), &java}, {m->id(), &java}, {sink->id(), &java}};
  auto eplan = StageSplitter::Split(plan, std::move(a)).ValueOrDie();
  auto estimates = CardinalityEstimator::Estimate(plan).ValueOrDie();
  auto cost = EstimateStageCost(eplan.stages[0], estimates);
  ASSERT_TRUE(cost.ok()) << cost.status().ToString();
  // Dominated by the expensive map: 1000 quanta x 0.03us x 10, discounted by
  // javasim's modeled fusion (0.75) and morsel parallelism (3x) -> ~75us.
  EXPECT_GT(*cost, 60.0);
  EXPECT_LT(*cost, 120.0);

  // An operator without an estimate cannot be priced.
  estimates.erase(m->id());
  EXPECT_TRUE(EstimateStageCost(eplan.stages[0], estimates)
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace rheem
