#include "platforms/relsim/relsim_platform.h"

#include <cstdint>
#include <functional>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "core/api/data_quanta.h"
#include "core/expr/expr.h"
#include "core/optimizer/stage_splitter.h"
#include "platforms/relsim/relsim_operators.h"
#include "platforms/relsim/table.h"

namespace rheem {
namespace relsim {
namespace {

Table EmployeeTable() {
  Table t(Schema::Of({Field{"id", ValueType::kInt64},
                      Field{"dept", ValueType::kString},
                      Field{"salary", ValueType::kDouble}}));
  EXPECT_TRUE(t.AppendRow(Record({Value(1), Value("eng"), Value(100.0)})).ok());
  EXPECT_TRUE(t.AppendRow(Record({Value(2), Value("eng"), Value(120.0)})).ok());
  EXPECT_TRUE(t.AppendRow(Record({Value(3), Value("ops"), Value(90.0)})).ok());
  EXPECT_TRUE(t.AppendRow(Record({Value(4), Value("ops"), Value(80.0)})).ok());
  return t;
}

TEST(TableTest, ColumnarRoundTrip) {
  Table t = EmployeeTable();
  EXPECT_EQ(t.num_rows(), 4u);
  EXPECT_EQ(t.num_columns(), 3u);
  EXPECT_EQ(t.at(1, 2), Value(120.0));
  Dataset d = t.ToDataset();
  EXPECT_EQ(d.size(), 4u);
  EXPECT_TRUE(d.has_schema());
  auto back = Table::FromDataset(d);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_rows(), 4u);
  EXPECT_EQ(back->schema().field(1).name, "dept");
}

TEST(TableTest, SchemaInferredWithoutExplicitOne) {
  Dataset d(std::vector<Record>{Record({Value(1), Value("x")})});
  auto t = Table::FromDataset(d);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->schema().field(0).type, ValueType::kInt64);
  EXPECT_EQ(t->schema().field(1).type, ValueType::kString);
}

TEST(TableTest, ArityMismatchRejected) {
  Table t(Schema::Of({Field{"a", ValueType::kInt64}}));
  EXPECT_FALSE(t.AppendRow(Record({Value(1), Value(2)})).ok());
}

// The registered relsim platform runs each relational operator through the
// shared kernels. Every shape below is forced onto relsim and must be
// bag-equal to the same plan forced onto javasim.
class RelExecTest : public ::testing::Test {
 protected:
  void SetUp() override { ASSERT_TRUE(ctx_.RegisterDefaultPlatforms().ok()); }

  /// Runs the pipeline `build` makes over `input`.
  Dataset OnRelsim(
      const Dataset& input,
      const std::function<DataQuanta(RheemJob*, DataQuanta)>& build) {
    auto run = [&](const char* platform) {
      RheemJob job(&ctx_);
      job.options().force_platform = platform;
      auto out = build(&job, job.LoadCollection(input)).Collect();
      EXPECT_TRUE(out.ok()) << platform << ": " << out.status().ToString();
      return out.ok() ? *out : Dataset();
    };
    auto bag = [](const Dataset& d) {
      std::multiset<std::string> out;
      for (const Record& r : d.records()) out.insert(r.ToString());
      return out;
    };
    Dataset rel = run("relsim");
    EXPECT_EQ(bag(rel), bag(run("javasim")));
    return rel;
  }

  RheemContext ctx_;
};

TEST_F(RelExecTest, FilterTable) {
  auto out = OnRelsim(EmployeeTable().ToDataset(), [](RheemJob*, DataQuanta q) {
    return q.Filter(expr::Eq(expr::Field(1, ValueType::kString, "dept"),
                             expr::Lit("eng")));
  });
  EXPECT_EQ(out.size(), 2u);
}

TEST_F(RelExecTest, ProjectTableReordersColumns) {
  auto out = OnRelsim(EmployeeTable().ToDataset(), [](RheemJob*, DataQuanta q) {
    return q.Project({2, 0});
  });
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out.at(0), Record({Value(100.0), Value(1)}));
}

TEST_F(RelExecTest, ProjectResultSchemaIsReadable) {
  // The kernel Project carries no schema: reading it is safe, and it has
  // no field a caller could index.
  auto out = OnRelsim(EmployeeTable().ToDataset(), [](RheemJob*, DataQuanta q) {
    return q.Project({2, 0});
  });
  ASSERT_EQ(out.size(), 4u);
  const Schema& schema = out.schema();
  EXPECT_FALSE(out.has_schema());
  EXPECT_EQ(schema.num_fields(), 0u);
}

// relsim maps no Map, so a computed projection over a relsim source runs on
// a platform that evaluates expressions; forcing it onto relsim is refused.
TEST_F(RelExecTest, ProjectExprsComputes) {
  auto doubled = [](RheemJob* job) {
    return job->LoadCollection(EmployeeTable().ToDataset())
        .OnPlatform("relsim")
        .Map({expr::Mul(expr::Field(2, ValueType::kDouble, "salary"),
                        expr::Lit(2.0))});
  };
  RheemJob job(&ctx_);
  auto out = doubled(&job).Collect();
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  std::multiset<std::string> got;
  for (const Record& r : out->records()) got.insert(r.ToString());
  std::multiset<std::string> want;
  for (double v : {200.0, 240.0, 180.0, 160.0}) {
    want.insert(Record({Value(v)}).ToString());
  }
  EXPECT_EQ(got, want);

  RheemJob forced(&ctx_);
  forced.options().force_platform = "relsim";
  auto refused = doubled(&forced).Collect();
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsUnsupported()) << refused.status().ToString();
}

TEST_F(RelExecTest, HashAggregateGrouped) {
  auto out = OnRelsim(EmployeeTable().ToDataset(), [](RheemJob*, DataQuanta q) {
    return q.ReduceByKey(
        expr::Field(1, ValueType::kString, "dept"),
        {AggSpec{0, AggKind::kMin}, AggSpec{1, AggKind::kFirst},
         AggSpec{2, AggKind::kSum}});
  });
  ASSERT_EQ(out.size(), 2u);  // eng, ops
  for (const Record& r : out.records()) {
    EXPECT_EQ(r, r[1] == Value("eng")
                     ? Record({Value(1), Value("eng"), Value(220.0)})
                     : Record({Value(3), Value("ops"), Value(170.0)}));
  }
}

TEST_F(RelExecTest, HashAggregateGlobal) {
  auto count = OnRelsim(EmployeeTable().ToDataset(),
                        [](RheemJob*, DataQuanta q) { return q.Count(); });
  ASSERT_EQ(count.size(), 1u);
  EXPECT_EQ(count.at(0)[0], Value(int64_t{4}));
  auto lowest =
      OnRelsim(EmployeeTable().ToDataset(), [](RheemJob*, DataQuanta q) {
        return q.GlobalReduce([](const Record& a, const Record& b) {
          return a[2].ToDoubleOr(0) <= b[2].ToDoubleOr(0) ? a : b;
        });
      });
  ASSERT_EQ(lowest.size(), 1u);
  EXPECT_EQ(lowest.at(0)[2], Value(80.0));
}

TEST_F(RelExecTest, HashJoinTables) {
  Dataset depts({Record({Value("eng"), Value(3)}),
                 Record({Value("hr"), Value(1)})});
  auto out =
      OnRelsim(EmployeeTable().ToDataset(), [&](RheemJob* job, DataQuanta q) {
        return q.Join(job->LoadCollection(depts),
                      expr::Field(1, ValueType::kString),
                      expr::Field(0, ValueType::kString));
      });
  ASSERT_EQ(out.size(), 2u);  // two eng employees
  EXPECT_EQ(out.at(0).size(), 5u);
}

TEST_F(RelExecTest, OrderByDescending) {
  auto out = OnRelsim(EmployeeTable().ToDataset(), [](RheemJob*, DataQuanta q) {
    return q.TopK(INT64_MAX, expr::Field(2, ValueType::kDouble, "salary"),
                  /*ascending=*/false);
  });
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out.at(0)[2], Value(120.0));
  EXPECT_EQ(out.at(3)[2], Value(80.0));
}

TEST_F(RelExecTest, DistinctTable) {
  std::vector<Record> rows;
  for (int v : {1, 2, 1, 3, 2}) rows.push_back(Record({Value(v)}));
  auto out = OnRelsim(Dataset(std::move(rows)),
                      [](RheemJob*, DataQuanta q) { return q.Distinct(); });
  EXPECT_EQ(out.size(), 3u);
}

TEST(RelSimPlatformTest, SupportsRelationalSubsetOnly) {
  Config config;
  RelSimPlatform rel(config);
  CountOp count;
  CrossProductOp cross;
  EXPECT_TRUE(rel.Supports(count));
  EXPECT_TRUE(rel.Supports(cross));
  MapUdf udf;
  udf.fn = [](const Record& r) { return r; };
  MapOp map(udf);
  EXPECT_FALSE(rel.Supports(map));
  SampleOp sample(0.5, 1);
  EXPECT_FALSE(rel.Supports(sample));
  IEJoinOp iejoin(IEJoinSpec{});
  EXPECT_FALSE(rel.Supports(iejoin));
}

TEST(RelSimPlatformTest, ExecutesRelationalStage) {
  Config config;
  RelSimPlatform rel(config);
  Plan plan;
  std::vector<Record> rows;
  for (int i = 0; i < 20; ++i) rows.push_back(Record({Value(i % 4), Value(i)}));
  auto* src = plan.Add<CollectionSourceOp>({}, Dataset(std::move(rows)));
  KeyUdf key;
  key.fn = [](const Record& r) { return r[0]; };
  ReduceUdf red;
  red.fn = [](const Record& a, const Record& b) {
    return Record({a[0], Value(a[1].ToInt64Or(0) + b[1].ToInt64Or(0))});
  };
  auto* agg = plan.Add<ReduceByKeyOp>({src}, key, red);
  auto* sink = plan.Add<CollectOp>({agg});
  plan.SetSink(sink);
  PlatformAssignment a;
  a.by_op = {{src->id(), &rel}, {agg->id(), &rel}, {sink->id(), &rel}};
  auto eplan = StageSplitter::Split(plan, std::move(a)).ValueOrDie();
  ExecutionMetrics metrics;
  auto out = rel.ExecuteStage(eplan.stages[0], {}, &metrics);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ((*out)[0].size(), 4u);
  EXPECT_GT(metrics.sim_overhead_micros, 0);
}

TEST(RelSimPlatformTest, IngestRoundTripsThroughColumnarFormat) {
  Dataset d(std::vector<Record>{Record({Value(1), Value("a")}),
                                Record({Value(2), Value("b")})});
  auto out = IngestThroughTableFormat(d);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 2u);
  EXPECT_EQ(out->at(1), d.at(1));
}

}  // namespace
}  // namespace relsim
}  // namespace rheem
