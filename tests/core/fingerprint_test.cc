#include "core/optimizer/fingerprint.h"

#include <map>
#include <memory>
#include <new>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/api/data_quanta.h"
#include "core/expr/expr.h"
#include "core/operators/physical_ops.h"
#include "core/service/job_server.h"
#include "core/sql/sql.h"

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

/// src -> map -> collect over Numbers(n), with a parameterizable TopK tail.
uint64_t PhysicalPipelineFp(int n, int64_t k, bool ascending) {
  Plan plan;
  auto* src = plan.Add<CollectionSourceOp>({}, Numbers(n));
  auto* map = plan.Add<MapOp>({src}, PlusOne());
  KeyUdf key;
  key.fn = [](const Record& r) { return r[0]; };
  auto* topk = plan.Add<TopKOp>({map}, key, k, ascending);
  auto* sink = plan.Add<CollectOp>({topk});
  plan.SetSink(sink);
  auto fp = PlanFingerprint::Compute(plan);
  EXPECT_TRUE(fp.ok()) << fp.status().ToString();
  return fp.ValueOr(0);
}

TEST(FingerprintTest, IdenticalPlansAgree) {
  EXPECT_EQ(PhysicalPipelineFp(10, 3, true), PhysicalPipelineFp(10, 3, true));
}

TEST(FingerprintTest, ParameterChangesFingerprint) {
  const uint64_t base = PhysicalPipelineFp(10, 3, true);
  EXPECT_NE(base, PhysicalPipelineFp(10, 5, true));   // k
  EXPECT_NE(base, PhysicalPipelineFp(10, 3, false));  // sort direction
}

TEST(FingerprintTest, SourceDataChangesFingerprint) {
  EXPECT_NE(PhysicalPipelineFp(10, 3, true), PhysicalPipelineFp(11, 3, true));
}

TEST(FingerprintTest, StructureChangesFingerprint) {
  Plan one;
  auto* src1 = one.Add<CollectionSourceOp>({}, Numbers(10));
  auto* map1 = one.Add<MapOp>({src1}, PlusOne());
  one.SetSink(one.Add<CollectOp>({map1}));

  Plan two;
  auto* src2 = two.Add<CollectionSourceOp>({}, Numbers(10));
  auto* map2a = two.Add<MapOp>({src2}, PlusOne());
  auto* map2b = two.Add<MapOp>({map2a}, PlusOne());
  two.SetSink(two.Add<CollectOp>({map2b}));

  auto fp_one = PlanFingerprint::Compute(one);
  auto fp_two = PlanFingerprint::Compute(two);
  ASSERT_TRUE(fp_one.ok());
  ASSERT_TRUE(fp_two.ok());
  EXPECT_NE(*fp_one, *fp_two);
}

TEST(FingerprintTest, PlanWithoutSinkIsAnError) {
  Plan plan;
  plan.Add<CollectionSourceOp>({}, Numbers(3));
  EXPECT_FALSE(PlanFingerprint::Compute(plan).ok());
}

TEST(FingerprintTest, LogicalPlansFingerprintViaSeal) {
  RheemContext ctx;
  ASSERT_TRUE(ctx.RegisterDefaultPlatforms().ok());
  auto build = [&ctx](double selectivity) {
    auto job = std::make_unique<RheemJob>(&ctx);
    Plan* plan =
        job->LoadCollection(Numbers(10))
            .Filter([](const Record& r) { return r[0].ToInt64Or(0) > 3; },
                    UdfMeta::Selective(selectivity))
            .Seal()
            .ValueOrDie();
    auto fp = PlanFingerprint::Compute(*plan);
    EXPECT_TRUE(fp.ok()) << fp.status().ToString();
    return fp.ValueOr(0);
  };
  EXPECT_EQ(build(0.5), build(0.5));  // same pipeline -> same key
  EXPECT_NE(build(0.5), build(0.9));  // UDF metadata participates
}

TEST(FingerprintTest, DeclarativeConstantChangesFingerprint) {
  // The plan-cache soundness fix: closure predicates hash only by shape, so
  // two filters differing in a constant used to collide. Declarative
  // predicates fold their canonical encoding — including every literal.
  RheemContext ctx;
  ASSERT_TRUE(ctx.RegisterDefaultPlatforms().ok());
  auto build = [&ctx](int64_t threshold) {
    auto job = std::make_unique<RheemJob>(&ctx);
    Plan* plan = job->LoadCollection(Numbers(10))
                     .Filter(expr::Gt(expr::Field(0, ValueType::kInt64),
                                      expr::Lit(threshold)))
                     .Seal()
                     .ValueOrDie();
    return PlanFingerprint::Compute(*plan).ValueOr(0);
  };
  EXPECT_EQ(build(3), build(3));
  EXPECT_NE(build(3), build(4));  // same shape, different constant
}

TEST(FingerprintTest, DeclarativePhysicalTokensFoldExpressions) {
  auto fp = [](int64_t threshold) {
    Plan plan;
    auto* src = plan.Add<CollectionSourceOp>({}, Numbers(10));
    auto udf = expr::MakePredicateUdf(
                   expr::Gt(expr::Field(0, ValueType::kInt64),
                            expr::Lit(threshold)))
                   .ValueOrDie();
    auto* f = plan.Add<FilterOp>({src}, udf);
    plan.SetSink(plan.Add<CollectOp>({f}));
    return PlanFingerprint::Compute(plan).ValueOr(0);
  };
  EXPECT_EQ(fp(3), fp(3));
  EXPECT_NE(fp(3), fp(4));  // result-cache keys distinguish constants too
}

TEST(FingerprintTest, CommutedConjunctionsShareFingerprint) {
  // Conjunction normalization: a AND b fingerprints like b AND a.
  auto fp = [](bool flipped) {
    Plan plan;
    auto* src = plan.Add<CollectionSourceOp>({}, Numbers(10));
    auto a = expr::Gt(expr::Field(0, ValueType::kInt64), expr::Lit(2));
    auto b = expr::Lt(expr::Field(0, ValueType::kInt64), expr::Lit(8));
    auto udf = expr::MakePredicateUdf(flipped ? expr::And(b, a)
                                              : expr::And(a, b))
                   .ValueOrDie();
    auto* f = plan.Add<FilterOp>({src}, udf);
    plan.SetSink(plan.Add<CollectOp>({f}));
    return PlanFingerprint::Compute(plan).ValueOr(0);
  };
  EXPECT_EQ(fp(false), fp(true));
}

TEST(FingerprintTest, DatasetHashCoversContent) {
  const uint64_t a = PlanFingerprint::OfDataset(Numbers(5));
  const uint64_t b = PlanFingerprint::OfDataset(Numbers(5));
  const uint64_t c = PlanFingerprint::OfDataset(Numbers(6));
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(FingerprintTest, SharedTableHashEqualsDatasetHash) {
  auto table = std::make_shared<const Dataset>(Numbers(5));
  EXPECT_EQ(PlanFingerprint::OfShared(table),
            PlanFingerprint::OfDataset(Numbers(5)));
  // The memoized second call agrees with the first.
  EXPECT_EQ(PlanFingerprint::OfShared(table),
            PlanFingerprint::OfDataset(Numbers(5)));
  EXPECT_EQ(PlanFingerprint::OfShared(nullptr),
            PlanFingerprint::OfDataset(Dataset()));
}

TEST(FingerprintTest, ReallocatedTableGetsFreshHash) {
  // Tables constructed in one storage slot: the second lives at the freed
  // first one's address, which must not return the first one's memoized
  // hash.
  alignas(Dataset) unsigned char slot[sizeof(Dataset)];
  auto in_slot = [&slot](int n) {
    return std::shared_ptr<const Dataset>(
        new (slot) Dataset(Numbers(n)),
        [](const Dataset* d) { d->~Dataset(); });
  };
  auto old_table = in_slot(5);
  ASSERT_EQ(PlanFingerprint::OfShared(old_table),
            PlanFingerprint::OfDataset(Numbers(5)));
  old_table.reset();
  auto new_table = in_slot(6);
  ASSERT_EQ(static_cast<const void*>(new_table.get()), slot);
  EXPECT_EQ(PlanFingerprint::OfShared(new_table),
            PlanFingerprint::OfDataset(Numbers(6)));
}

TEST(FingerprintTest, SourceOpsShareTheTableAndItsHash) {
  auto table = std::make_shared<const Dataset>(Numbers(10));
  CollectionSourceOp physical(table);
  GenericLogicalOp logical(OpKind::kCollectionSource);
  logical.source_data = table;
  EXPECT_EQ(physical.shared_data(), table);  // no copy
  EXPECT_EQ(physical.FingerprintToken(),
            CollectionSourceOp(Numbers(10)).FingerprintToken());
  EXPECT_NE(physical.FingerprintToken(),
            CollectionSourceOp(Numbers(11)).FingerprintToken());
  GenericLogicalOp copied(OpKind::kCollectionSource);
  copied.source_data = std::make_shared<const Dataset>(Numbers(10));
  EXPECT_EQ(logical.FingerprintToken(), copied.FingerprintToken());
}

TEST(FingerprintTest, ConcurrentSqlOverOneSharedTable) {
  // Several threads compile and run SQL through the JobServer over one
  // registered table, so every compile fingerprints the same shared object
  // concurrently (run under TSan in CI).
  RheemContext ctx;
  ASSERT_TRUE(ctx.RegisterDefaultPlatforms().ok());
  std::vector<Record> rows;
  for (int i = 0; i < 2000; ++i) {
    rows.push_back(Record({Value(static_cast<int64_t>(i % 7)),
                           Value(static_cast<int64_t>(i))}));
  }
  sql::InMemoryCatalog catalog;
  ASSERT_TRUE(catalog
                  .Register("t", Dataset(std::move(rows)),
                            Schema::Of({{"k", ValueType::kInt64},
                                        {"v", ValueType::kInt64}}))
                  .ok());
  // Expected SUM(v) per k for v > threshold, computed directly.
  auto expected = [](int64_t threshold) {
    std::map<int64_t, int64_t> sums;
    for (int64_t i = threshold + 1; i < 2000; ++i) sums[i % 7] += i;
    return sums;
  };
  constexpr int kThreads = 4;
  constexpr int kQueriesPerThread = 6;
  std::vector<std::thread> threads;
  std::vector<int> failures(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int q = 0; q < kQueriesPerThread; ++q) {
        const int64_t threshold = 100 * ((t + q) % 3);
        auto handle = ctx.SubmitSql(
            "SELECT k, SUM(v) FROM t WHERE v > " + std::to_string(threshold) +
                " GROUP BY k",
            catalog);
        if (!handle.ok()) { ++failures[t]; continue; }
        auto result = handle->Wait();
        if (!result.ok()) { ++failures[t]; continue; }
        std::map<int64_t, int64_t> got;
        for (const Record& r : result->output.records()) {
          got[r[0].ToInt64Or(-1)] = r[1].ToInt64Or(-1);
        }
        if (got != expected(threshold)) ++failures[t];
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(failures[t], 0) << "thread " << t;
}

}  // namespace
}  // namespace rheem
