#include "core/executor/result_cache.h"

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/api/context.h"
#include "core/executor/executor.h"
#include "core/operators/physical_ops.h"
#include "core/optimizer/enumerator.h"
#include "core/optimizer/fingerprint.h"
#include "core/service/job_server.h"
#include "core/sql/sql.h"
#include "platforms/javasim/javasim_platform.h"
#include "platforms/sparksim/sparksim_platform.h"
#include "storage/mem_column_store.h"

namespace rheem {
namespace {

Dataset Numbers(int n, int offset = 0) {
  std::vector<Record> records;
  for (int i = 0; i < n; ++i) records.push_back(Record({Value(i + offset)}));
  return Dataset(std::move(records));
}

std::shared_ptr<const Dataset> Shared(int n) {
  return std::make_shared<const Dataset>(Numbers(n));
}

MapUdf PlusOne() {
  MapUdf udf;
  udf.fn = [](const Record& r) {
    return Record({Value(r[0].ToInt64Or(0) + 1)});
  };
  return udf;
}

TEST(ResultCacheTest, LookupReturnsInsertedDatasetWithoutCopying) {
  ResultCache cache(1 << 20);
  EXPECT_TRUE(cache.enabled());
  EXPECT_EQ(cache.Lookup(1), nullptr);
  auto data = Shared(10);
  cache.Insert(1, data);
  auto hit = cache.Lookup(1);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit.get(), data.get());  // shared, not copied
  auto s = cache.stats();
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.inserts, 1);
  EXPECT_EQ(s.entries, 1u);
}

TEST(ResultCacheTest, EvictsLeastRecentlyUsedByBytes) {
  const int64_t one = Numbers(10).EstimatedBytes();
  ResultCache cache(one * 2 + 10);
  cache.Insert(1, Shared(10));
  cache.Insert(2, Shared(10));
  ASSERT_NE(cache.Lookup(1), nullptr);  // refresh 1; 2 is now LRU
  cache.Insert(3, Shared(10));          // evicts 2
  EXPECT_NE(cache.Lookup(1), nullptr);
  EXPECT_EQ(cache.Lookup(2), nullptr);
  EXPECT_NE(cache.Lookup(3), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1);
}

TEST(ResultCacheTest, OversizedDatasetBypasses) {
  ResultCache cache(8);
  cache.Insert(1, Shared(100));
  EXPECT_EQ(cache.Lookup(1), nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(ResultCacheTest, ZeroCapacityDisables) {
  ResultCache cache(0);
  EXPECT_FALSE(cache.enabled());
  cache.Insert(1, Shared(10));
  EXPECT_EQ(cache.Lookup(1), nullptr);
  auto s = cache.stats();
  EXPECT_EQ(s.hits, 0);
  EXPECT_EQ(s.misses, 0);  // disabled lookups are not counted
}

TEST(ResultCacheTest, ClearEmptiesEntries) {
  ResultCache cache(1 << 20);
  cache.Insert(1, Shared(10));
  cache.Clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().resident_bytes, 0);
  EXPECT_EQ(cache.Lookup(1), nullptr);
}

TEST(ResultCacheTest, ConcurrentInsertLookupIsThreadSafe) {
  const int64_t one = Numbers(10).EstimatedBytes();
  ResultCache cache(one * 3 + 10);  // small: concurrent evictions too
  constexpr int kThreads = 8;
  constexpr int kRounds = 300;
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < kRounds; ++i) {
        const uint64_t key = static_cast<uint64_t>((t + i) % 7);
        if (i % 3 == 0) {
          cache.Insert(key, Shared(10));
        } else {
          auto hit = cache.Lookup(key);
          if (hit != nullptr && hit->size() != 10u) failed.store(true);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(failed.load());
}

class SubPlanFingerprintTest : public ::testing::Test {
 protected:
  SubPlanFingerprintTest() : java_(config_), spark_(config_) {}

  /// src -> map -> map -> sink, everything on `platform`.
  ExecutionPlan Build(Plan* plan, Platform* platform, int source_rows) {
    auto* src = plan->Add<CollectionSourceOp>({}, Numbers(source_rows));
    auto* m1 = plan->Add<MapOp>({src}, PlusOne());
    auto* m2 = plan->Add<MapOp>({m1}, PlusOne());
    auto* sink = plan->Add<CollectOp>({m2});
    plan->SetSink(sink);
    PlatformAssignment a;
    for (auto* op : {static_cast<Operator*>(src), static_cast<Operator*>(m1),
                     static_cast<Operator*>(m2),
                     static_cast<Operator*>(sink)}) {
      a.by_op[op->id()] = platform;
    }
    return StageSplitter::Split(*plan, std::move(a)).ValueOrDie();
  }

  Config config_;
  JavaSimPlatform java_;
  SparkSimPlatform spark_;
};

TEST_F(SubPlanFingerprintTest, EqualSubPlansShareFingerprints) {
  Plan p1, p2;
  ExecutionPlan e1 = Build(&p1, &java_, 10);
  ExecutionPlan e2 = Build(&p2, &java_, 10);
  auto f1 = ComputeSubPlanFingerprints(e1).ValueOrDie();
  auto f2 = ComputeSubPlanFingerprints(e2).ValueOrDie();
  ASSERT_EQ(f1.size(), 4u);
  // Same structure, content and platform: every operator's sub-plan
  // fingerprint matches across the two independent plans.
  for (const auto& [op_id, fp] : f1) EXPECT_EQ(fp, f2.at(op_id));
}

TEST_F(SubPlanFingerprintTest, SourceContentChangesEveryDownstreamFingerprint) {
  Plan p1, p2;
  ExecutionPlan e1 = Build(&p1, &java_, 10);
  ExecutionPlan e2 = Build(&p2, &java_, 11);
  auto f1 = ComputeSubPlanFingerprints(e1).ValueOrDie();
  auto f2 = ComputeSubPlanFingerprints(e2).ValueOrDie();
  for (const auto& [op_id, fp] : f1) EXPECT_NE(fp, f2.at(op_id));
}

TEST_F(SubPlanFingerprintTest, PlatformIsPartOfTheFingerprint) {
  Plan p1, p2;
  ExecutionPlan e1 = Build(&p1, &java_, 10);
  ExecutionPlan e2 = Build(&p2, &spark_, 10);
  auto f1 = ComputeSubPlanFingerprints(e1).ValueOrDie();
  auto f2 = ComputeSubPlanFingerprints(e2).ValueOrDie();
  // Platforms agree on bags, not on order; cached results must never leak
  // across platform assignments.
  for (const auto& [op_id, fp] : f1) EXPECT_NE(fp, f2.at(op_id));
}

TEST_F(SubPlanFingerprintTest, SharedPrefixSharesFingerprints) {
  // Plan A: src -> m1 -> m2 -> sink.  Plan B: src -> m1 -> sink.  The
  // src/m1 prefix is identical, so a job running B after A reuses A's m1
  // result even though the plans differ downstream.
  Plan a, b;
  auto* sa = a.Add<CollectionSourceOp>({}, Numbers(10));
  auto* ma1 = a.Add<MapOp>({sa}, PlusOne());
  auto* ma2 = a.Add<MapOp>({ma1}, PlusOne());
  auto* ka = a.Add<CollectOp>({ma2});
  a.SetSink(ka);
  PlatformAssignment aa;
  for (int id : {sa->id(), ma1->id(), ma2->id(), ka->id()}) {
    aa.by_op[id] = &java_;
  }
  ExecutionPlan ea = StageSplitter::Split(a, std::move(aa)).ValueOrDie();

  auto* sb = b.Add<CollectionSourceOp>({}, Numbers(10));
  auto* mb1 = b.Add<MapOp>({sb}, PlusOne());
  auto* kb = b.Add<CollectOp>({mb1});
  b.SetSink(kb);
  PlatformAssignment ab;
  for (int id : {sb->id(), mb1->id(), kb->id()}) ab.by_op[id] = &java_;
  ExecutionPlan eb = StageSplitter::Split(b, std::move(ab)).ValueOrDie();

  auto fa = ComputeSubPlanFingerprints(ea).ValueOrDie();
  auto fb = ComputeSubPlanFingerprints(eb).ValueOrDie();
  EXPECT_EQ(fa.at(sa->id()), fb.at(sb->id()));
  EXPECT_EQ(fa.at(ma1->id()), fb.at(mb1->id()));
  EXPECT_NE(fa.at(ka->id()), fb.at(kb->id()));  // different inputs
}

class ExecutorResultCacheTest : public ::testing::Test {
 protected:
  ExecutorResultCacheTest() : java_(config_), spark_(config_) {}

  ExecutionPlan MakePlan(Plan* plan, int rows) {
    auto* src = plan->Add<CollectionSourceOp>({}, Numbers(rows));
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

TEST_F(ExecutorResultCacheTest, WarmRunSkipsEveryStage) {
  ResultCache cache(1 << 24);
  Plan p1;
  ExecutionPlan e1 = MakePlan(&p1, 10);
  CrossPlatformExecutor cold;
  cold.set_result_cache(&cache);
  auto cold_result = cold.Execute(e1);
  ASSERT_TRUE(cold_result.ok()) << cold_result.status().ToString();
  EXPECT_EQ(cold_result->metrics.stages_run, 2);
  EXPECT_EQ(cold_result->metrics.stages_reused, 0);

  // A structurally equal plan compiled separately: every stage reuses.
  Plan p2;
  ExecutionPlan e2 = MakePlan(&p2, 10);
  CrossPlatformExecutor warm;
  warm.set_result_cache(&cache);
  auto warm_result = warm.Execute(e2);
  ASSERT_TRUE(warm_result.ok()) << warm_result.status().ToString();
  EXPECT_EQ(warm_result->metrics.stages_run, 0);
  EXPECT_EQ(warm_result->metrics.stages_reused, 2);
  EXPECT_EQ(warm_result->metrics.moved_bytes, 0);  // no boundary crossed
  ASSERT_EQ(warm_result->output.size(), cold_result->output.size());
  for (std::size_t i = 0; i < warm_result->output.size(); ++i) {
    EXPECT_EQ(warm_result->output.at(i), cold_result->output.at(i));
  }
}

TEST_F(ExecutorResultCacheTest, DifferentSourceContentDoesNotReuse) {
  ResultCache cache(1 << 24);
  Plan p1, p2;
  ExecutionPlan e1 = MakePlan(&p1, 10);
  ExecutionPlan e2 = MakePlan(&p2, 12);
  CrossPlatformExecutor ex1, ex2;
  ex1.set_result_cache(&cache);
  ex2.set_result_cache(&cache);
  ASSERT_TRUE(ex1.Execute(e1).ok());
  auto result = ex2.Execute(e2);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->metrics.stages_reused, 0);
  EXPECT_EQ(result->output.size(), 12u);
}

TEST_F(ExecutorResultCacheTest, NoCacheMeansNoReuse) {
  Plan p1;
  ExecutionPlan e1 = MakePlan(&p1, 10);
  CrossPlatformExecutor executor;  // no cache attached
  auto first = executor.Execute(e1);
  auto second = executor.Execute(e1);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->metrics.stages_reused, 0);
  EXPECT_EQ(second->metrics.stages_run, 2);
}

TEST_F(ExecutorResultCacheTest,
       SharedBoundaryConversionHappensOncePerTargetPlatform) {
  // src (java) feeds two disconnected spark stages; both need the same
  // java->spark conversion of src's output. The conversion must run once
  // and the movement totals must count the edge once.
  Plan plan;
  auto* src = plan.Add<CollectionSourceOp>({}, Numbers(10));
  auto* ma = plan.Add<MapOp>({src}, PlusOne());
  auto* mb = plan.Add<MapOp>({src}, PlusOne());
  auto* uni = plan.Add<UnionOp>({ma, mb});
  auto* sink = plan.Add<CollectOp>({uni});
  plan.SetSink(sink);
  PlatformAssignment a;
  a.by_op = {{src->id(), &java_},
             {ma->id(), &spark_},
             {mb->id(), &spark_},
             {uni->id(), &java_},
             {sink->id(), &java_}};
  ExecutionPlan eplan = StageSplitter::Split(plan, std::move(a)).ValueOrDie();
  // Expect stages: {src}, {ma}, {mb}, {uni,sink} -> the src->spark edge is
  // shared by the two middle stages.
  ASSERT_EQ(eplan.stages.size(), 4u);

  CrossPlatformExecutor executor;
  auto result = executor.Execute(eplan);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->output.size(), 20u);
  EXPECT_EQ(result->metrics.boundary_conversions_reused, 1);
  // moved_records: src crosses once (10), ma and mb cross back (10 each).
  EXPECT_EQ(result->metrics.moved_records, 30);
}

/// Runs one SQL query through the context's JobServer (plan and result
/// caches on) and returns its plan fingerprint, output and reuse count.
struct SqlRun {
  uint64_t fingerprint = 0;
  Dataset output;
  int64_t stages_reused = -1;
};

SqlRun RunSql(RheemContext* ctx, sql::Catalog* catalog,
              const std::string& query) {
  SqlRun run;
  auto stmt = ctx->Sql(query, *catalog);
  EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
  if (!stmt.ok()) return run;
  run.fingerprint = PlanFingerprint::Compute(stmt->plan()).ValueOr(0);
  auto handle = ctx->SubmitSql(query, *catalog);
  EXPECT_TRUE(handle.ok()) << handle.status().ToString();
  if (!handle.ok()) return run;
  auto result = handle->Wait();
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return run;
  run.output = result->output;
  run.stages_reused = result->metrics.stages_reused;
  return run;
}

Dataset Table(int n, int offset) {
  Dataset data = Numbers(n, offset);
  data.set_schema(Schema::Of({{"x", ValueType::kInt64}}));
  return data;
}

TEST(ResultCacheTest, RewrittenStorageTableMissesEveryCache) {
  // Storage tables reach plans as the hot buffer's shared object, hashed once
  // per object. A Put through the manager drops the buffered object, so the
  // next compile shares a new one: a new fingerprint, no stale reuse.
  storage::StorageManager manager;
  ASSERT_TRUE(
      manager.RegisterBackend(std::make_unique<storage::MemColumnStore>())
          .ok());
  ASSERT_TRUE(manager.Put("mem-column", "t", Table(10, 0)).ok());
  RheemContext ctx;
  ASSERT_TRUE(ctx.RegisterDefaultPlatforms().ok());
  ASSERT_TRUE(ctx.AttachStorage(&manager).ok());
  sql::StorageCatalog catalog;
  const std::string query = "SELECT x + 1 FROM t WHERE x > 2";

  SqlRun cold = RunSql(&ctx, &catalog, query);
  SqlRun warm = RunSql(&ctx, &catalog, query);
  EXPECT_EQ(warm.fingerprint, cold.fingerprint);
  EXPECT_GT(warm.stages_reused, 0);

  // Same row count and schema, different content.
  ASSERT_TRUE(manager.Put("mem-column", "t", Table(10, 100)).ok());
  SqlRun fresh = RunSql(&ctx, &catalog, query);
  EXPECT_NE(fresh.fingerprint, cold.fingerprint);
  EXPECT_EQ(fresh.stages_reused, 0);
  ASSERT_EQ(fresh.output.size(), 10u);
  EXPECT_EQ(fresh.output.at(0)[0], Value(101));
}

TEST(ResultCacheTest, ReregisteredCatalogTableMissesEveryCache) {
  RheemContext ctx;
  ASSERT_TRUE(ctx.RegisterDefaultPlatforms().ok());
  sql::InMemoryCatalog catalog;
  ASSERT_TRUE(catalog.Register("t", Table(10, 0)).ok());
  const std::string query = "SELECT x + 1 FROM t WHERE x > 2";

  SqlRun cold = RunSql(&ctx, &catalog, query);
  SqlRun warm = RunSql(&ctx, &catalog, query);
  EXPECT_EQ(warm.fingerprint, cold.fingerprint);
  EXPECT_GT(warm.stages_reused, 0);

  ASSERT_TRUE(catalog.Register("t", Table(10, 100)).ok());
  SqlRun fresh = RunSql(&ctx, &catalog, query);
  EXPECT_NE(fresh.fingerprint, cold.fingerprint);
  EXPECT_EQ(fresh.stages_reused, 0);
  ASSERT_EQ(fresh.output.size(), 10u);
  EXPECT_EQ(fresh.output.at(0)[0], Value(101));
}

}  // namespace
}  // namespace rheem
