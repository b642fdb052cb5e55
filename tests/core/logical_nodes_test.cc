#include "core/api/logical_nodes.h"

#include <set>

#include <gtest/gtest.h>

#include "core/api/context.h"

namespace rheem {
namespace {

TEST(GenericLogicalOpTest, MapApplyOpEmitsOneQuantum) {
  GenericLogicalOp op(OpKind::kMap);
  op.map.fn = [](const Record& r) {
    return Record({Value(r[0].ToInt64Or(0) + 10)});
  };
  std::vector<Record> out;
  ASSERT_TRUE(op.ApplyOp(Record({Value(1)}), &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0][0], Value(11));
}

TEST(GenericLogicalOpTest, FilterApplyOpDropsOrKeeps) {
  GenericLogicalOp op(OpKind::kFilter);
  op.predicate.fn = [](const Record& r) { return r[0].ToInt64Or(0) > 0; };
  std::vector<Record> out;
  ASSERT_TRUE(op.ApplyOp(Record({Value(-1)}), &out).ok());
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE(op.ApplyOp(Record({Value(5)}), &out).ok());
  EXPECT_EQ(out.size(), 1u);
}

TEST(GenericLogicalOpTest, FlatMapApplyOpExpands) {
  GenericLogicalOp op(OpKind::kFlatMap);
  op.flat_map.fn = [](const Record& r) {
    return std::vector<Record>{r, r, r};
  };
  std::vector<Record> out;
  ASSERT_TRUE(op.ApplyOp(Record({Value(1)}), &out).ok());
  EXPECT_EQ(out.size(), 3u);
}

TEST(GenericLogicalOpTest, ProjectApplyOpUsesColumns) {
  GenericLogicalOp op(OpKind::kProject);
  op.columns = {1};
  std::vector<Record> out;
  ASSERT_TRUE(op.ApplyOp(Record({Value(1), Value("keep")}), &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0][0], Value("keep"));
}

TEST(GenericLogicalOpTest, UnsetUdfIsError) {
  GenericLogicalOp op(OpKind::kMap);
  std::vector<Record> out;
  EXPECT_TRUE(op.ApplyOp(Record(), &out).IsInvalidArgument());
}

TEST(GenericLogicalOpTest, SetOrientedKindsRejectApplyOp) {
  for (OpKind kind : {OpKind::kReduceByKey, OpKind::kGroupByKey, OpKind::kJoin,
                      OpKind::kUnion, OpKind::kRepeat, OpKind::kIntersect,
                      OpKind::kTopK, OpKind::kCollect}) {
    GenericLogicalOp op(kind);
    std::vector<Record> out;
    EXPECT_TRUE(op.ApplyOp(Record(), &out).IsUnsupported())
        << OpKindToString(kind);
  }
}

TEST(GenericLogicalOpTest, ArityMatchesKind) {
  EXPECT_EQ(GenericLogicalOp(OpKind::kCollectionSource).arity(), 0);
  EXPECT_EQ(GenericLogicalOp(OpKind::kMap).arity(), 1);
  EXPECT_EQ(GenericLogicalOp(OpKind::kTopK).arity(), 1);
  EXPECT_EQ(GenericLogicalOp(OpKind::kJoin).arity(), 2);
  EXPECT_EQ(GenericLogicalOp(OpKind::kIntersect).arity(), 2);
  EXPECT_EQ(GenericLogicalOp(OpKind::kSubtract).arity(), 2);
  EXPECT_EQ(GenericLogicalOp(OpKind::kRepeat).arity(), 2);
  EXPECT_EQ(GenericLogicalOp(OpKind::kLoopState).arity(), 0);
}

TEST(GenericLogicalOpTest, HintsComeFromUdfMeta) {
  GenericLogicalOp filter(OpKind::kFilter);
  filter.predicate.meta.selectivity = 0.25;
  filter.predicate.meta.cost_factor = 4.0;
  EXPECT_DOUBLE_EQ(filter.SelectivityHint(), 0.25);
  EXPECT_DOUBLE_EQ(filter.CostHint(), 4.0);

  GenericLogicalOp sample(OpKind::kSample);
  sample.fraction = 0.1;
  EXPECT_DOUBLE_EQ(sample.SelectivityHint(), 0.1);

  GenericLogicalOp source(OpKind::kCollectionSource);
  EXPECT_DOUBLE_EQ(source.SelectivityHint(), 1.0);
  EXPECT_DOUBLE_EQ(source.CostHint(), 1.0);
}

TEST(GenericLogicalOpTest, KindNameCarriesLogicalPrefix) {
  EXPECT_EQ(GenericLogicalOp(OpKind::kMap).kind_name(), "L:Map");
  EXPECT_EQ(GenericLogicalOp(OpKind::kTopK).kind_name(), "L:TopK");
}

TEST(TranslationTest, AllGenericKindsTranslate) {
  // Build one logical plan touching every translatable generic kind and
  // confirm translation yields a physical plan of the same shape.
  Plan logical;
  auto* src = logical.Add<GenericLogicalOp>({}, OpKind::kCollectionSource);
  std::vector<Record> rows;
  for (int i = 0; i < 4; ++i) rows.push_back(Record({Value(i)}));
  src->source_data = std::make_shared<const Dataset>(std::move(rows));
  auto* map = logical.Add<GenericLogicalOp>({src}, OpKind::kMap);
  map->map.fn = [](const Record& r) { return r; };
  auto* topk = logical.Add<GenericLogicalOp>({map}, OpKind::kTopK);
  topk->key.fn = [](const Record& r) { return r[0]; };
  topk->topk = 2;
  auto* other = logical.Add<GenericLogicalOp>({}, OpKind::kCollectionSource);
  other->source_data =
      std::make_shared<const Dataset>(std::vector<Record>{Record({Value(1)})});
  auto* inter = logical.Add<GenericLogicalOp>({topk, other}, OpKind::kIntersect);
  auto* sub = logical.Add<GenericLogicalOp>({inter, other}, OpKind::kSubtract);
  auto* sink = logical.Add<GenericLogicalOp>({sub}, OpKind::kCollect);
  logical.SetSink(sink);

  std::map<int, std::string> pins;
  auto physical = RheemContext::TranslateToPhysical(logical, &pins);
  ASSERT_TRUE(physical.ok()) << physical.status().ToString();
  EXPECT_EQ((*physical)->size(), logical.size());
  EXPECT_TRUE((*physical)->Validate().ok());
  // Translation shares each source table with the logical plan, never
  // copies it.
  std::set<const Dataset*> tables;
  for (std::size_t i = 0; i < (*physical)->size(); ++i) {
    if (auto* s = dynamic_cast<CollectionSourceOp*>((*physical)->op(i))) {
      tables.insert(s->shared_data().get());
    }
  }
  EXPECT_EQ(tables, (std::set<const Dataset*>{src->source_data.get(),
                                              other->source_data.get()}));
}

TEST(TranslationTest, PinnedPlatformsSurfaceInPinsMap) {
  Plan logical;
  auto* src = logical.Add<GenericLogicalOp>({}, OpKind::kCollectionSource);
  src->source_data =
      std::make_shared<const Dataset>(std::vector<Record>{Record({Value(1)})});
  src->pinned_platform = "sparksim";
  auto* sink = logical.Add<GenericLogicalOp>({src}, OpKind::kCollect);
  logical.SetSink(sink);
  std::map<int, std::string> pins;
  auto physical = RheemContext::TranslateToPhysical(logical, &pins);
  ASSERT_TRUE(physical.ok());
  ASSERT_EQ(pins.size(), 1u);
  EXPECT_EQ(pins.begin()->second, "sparksim");
}

TEST(TranslationTest, MissingSinkRejected) {
  Plan logical;
  logical.Add<GenericLogicalOp>({}, OpKind::kCollectionSource);
  std::map<int, std::string> pins;
  EXPECT_TRUE(RheemContext::TranslateToPhysical(logical, &pins)
                  .status()
                  .IsInvalidPlan());
}

}  // namespace
}  // namespace rheem
