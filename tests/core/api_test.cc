#include "core/api/data_quanta.h"

#include <set>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "core/api/context.h"
#include "storage/mem_column_store.h"

namespace rheem {
namespace {

Dataset Numbers(int n) {
  std::vector<Record> records;
  for (int i = 0; i < n; ++i) records.push_back(Record({Value(i)}));
  return Dataset(std::move(records));
}

std::multiset<std::string> AsMultiset(const Dataset& d) {
  std::multiset<std::string> out;
  for (const Record& r : d.records()) out.insert(r.ToString());
  return out;
}

class ApiTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(ctx_.RegisterDefaultPlatforms().ok());
  }
  RheemContext ctx_;
};

TEST_F(ApiTest, MapFilterCollect) {
  RheemJob job(&ctx_);
  auto out = job.LoadCollection(Numbers(10))
                 .Map([](const Record& r) {
                   return Record({Value(r[0].ToInt64Or(0) * 2)});
                 })
                 .Filter([](const Record& r) { return r[0].ToInt64Or(0) >= 10; },
                         UdfMeta::Selective(0.5))
                 .Collect();
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->size(), 5u);  // 10,12,14,16,18
}

TEST_F(ApiTest, WordCountPipeline) {
  std::vector<Record> lines;
  lines.push_back(Record({Value("the quick brown fox")}));
  lines.push_back(Record({Value("the lazy dog")}));
  lines.push_back(Record({Value("the fox")}));
  RheemJob job(&ctx_);
  auto out =
      job.LoadCollection(Dataset(std::move(lines)))
          .FlatMap(
              [](const Record& r) {
                std::vector<Record> words;
                std::string word;
                for (char c : r[0].string_unchecked() + " ") {
                  if (c == ' ') {
                    if (!word.empty()) {
                      words.push_back(Record({Value(word), Value(int64_t{1})}));
                    }
                    word.clear();
                  } else {
                    word += c;
                  }
                }
                return words;
              },
              UdfMeta::Selective(4.0))
          .ReduceByKey([](const Record& r) { return r[0]; },
                       [](const Record& a, const Record& b) {
                         return Record({a[0], Value(a[1].ToInt64Or(0) +
                                                    b[1].ToInt64Or(0))});
                       })
          .Collect();
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  std::map<std::string, int64_t> counts;
  for (const Record& r : out->records()) {
    counts[r[0].string_unchecked()] = r[1].ToInt64Or(0);
  }
  EXPECT_EQ(counts.at("the"), 3);
  EXPECT_EQ(counts.at("fox"), 2);
  EXPECT_EQ(counts.at("dog"), 1);
  EXPECT_EQ(counts.size(), 6u);
}

TEST_F(ApiTest, SameResultOnEveryPlatform) {
  auto run = [&](const std::string& platform) {
    RheemJob job(&ctx_);
    job.options().force_platform = platform;
    return job.LoadCollection(Numbers(100))
        .Filter([](const Record& r) { return r[0].ToInt64Or(0) % 3 == 0; })
        .Map([](const Record& r) {
          return Record({Value(r[0].ToInt64Or(0) * 10)});
        })
        .Distinct()
        .Sort([](const Record& r) { return r[0]; })
        .Collect();
  };
  auto java = run("javasim");
  auto spark = run("sparksim");
  ASSERT_TRUE(java.ok()) << java.status().ToString();
  ASSERT_TRUE(spark.ok()) << spark.status().ToString();
  EXPECT_EQ(AsMultiset(*java), AsMultiset(*spark));
  EXPECT_EQ(java->size(), 34u);
}

TEST_F(ApiTest, JoinAcrossTwoLoads) {
  RheemJob job(&ctx_);
  std::vector<Record> users, orders;
  users.push_back(Record({Value(1), Value("ada")}));
  users.push_back(Record({Value(2), Value("bob")}));
  orders.push_back(Record({Value(1), Value("book")}));
  orders.push_back(Record({Value(1), Value("pen")}));
  orders.push_back(Record({Value(3), Value("ghost")}));
  auto out = job.LoadCollection(Dataset(std::move(users)))
                 .Join(job.LoadCollection(Dataset(std::move(orders))),
                       [](const Record& r) { return r[0]; },
                       [](const Record& r) { return r[0]; })
                 .Collect();
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->size(), 2u);
  EXPECT_EQ(out->at(0).size(), 4u);
}

TEST_F(ApiTest, UnionCrossCountGlobalReduce) {
  RheemJob job(&ctx_);
  auto a = job.LoadCollection(Numbers(3));
  auto b = job.LoadCollection(Numbers(4));
  auto unioned = a.Union(b).Count().Collect();
  ASSERT_TRUE(unioned.ok());
  EXPECT_EQ(unioned->at(0)[0], Value(int64_t{7}));

  RheemJob job2(&ctx_);
  auto crossed = job2.LoadCollection(Numbers(3))
                     .Cross(job2.LoadCollection(Numbers(4)))
                     .Count()
                     .Collect();
  ASSERT_TRUE(crossed.ok());
  EXPECT_EQ(crossed->at(0)[0], Value(int64_t{12}));

  RheemJob job3(&ctx_);
  auto sum = job3.LoadCollection(Numbers(10))
                 .GlobalReduce([](const Record& x, const Record& y) {
                   return Record({Value(x[0].ToInt64Or(0) + y[0].ToInt64Or(0))});
                 })
                 .Collect();
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(sum->at(0)[0], Value(45));
}

TEST_F(ApiTest, ProjectAndZipWithId) {
  RheemJob job(&ctx_);
  std::vector<Record> rows;
  rows.push_back(Record({Value("a"), Value(1)}));
  rows.push_back(Record({Value("b"), Value(2)}));
  auto out = job.LoadCollection(Dataset(std::move(rows)))
                 .ZipWithId()
                 .Project({2, 0})
                 .Collect();
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 2u);
  EXPECT_EQ(out->at(0), Record({Value(int64_t{0}), Value("a")}));
  EXPECT_EQ(out->at(1), Record({Value(int64_t{1}), Value("b")}));
}

TEST_F(ApiTest, RepeatLoopAccumulates) {
  // State: single counter record; body adds the data count each iteration.
  RheemJob job(&ctx_);
  auto state = job.LoadCollection(Dataset(std::vector<Record>{
      Record({Value(int64_t{0})})}));
  auto data = job.LoadCollection(Numbers(5));
  auto out = state
                 .Repeat(4, data,
                         [](DataQuanta st, DataQuanta dt) {
                           auto count = dt.Count();
                           return st.BroadcastMap(
                               count, [](const Record& s, const Dataset& c) {
                                 return Record({Value(
                                     s[0].ToInt64Or(0) +
                                     c.at(0)[0].ToInt64Or(0))});
                               });
                         })
                 .Collect();
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->size(), 1u);
  EXPECT_EQ(out->at(0)[0], Value(int64_t{20}));  // 4 iterations x 5 records
}

TEST_F(ApiTest, DoWhileStopsEarly) {
  RheemJob job(&ctx_);
  auto state = job.LoadCollection(Dataset(std::vector<Record>{
      Record({Value(int64_t{1})})}));
  auto data = job.LoadCollection(Numbers(1));
  auto out =
      state
          .DoWhile([](const Dataset& s, int) { return s.at(0)[0].ToInt64Or(0) < 100; },
                   /*max_iterations=*/50, data,
                   [](DataQuanta st, DataQuanta dt) {
                     (void)dt;
                     return st.Map([](const Record& s) {
                       return Record({Value(s[0].ToInt64Or(0) * 2)});
                     });
                   })
          .Collect();
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  // 1 -> 2 -> ... doubles until >= 100: stops at 128.
  EXPECT_EQ(out->at(0)[0], Value(int64_t{128}));
}

TEST_F(ApiTest, OnPlatformPinsOperator) {
  RheemJob job(&ctx_);
  auto explain = job.LoadCollection(Numbers(10))
                     .Map([](const Record& r) { return r; })
                     .OnPlatform("sparksim")
                     .Explain();
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  EXPECT_NE(explain->find("sparksim"), std::string::npos);
}

TEST_F(ApiTest, ExplainShowsStagesWithoutExecuting) {
  RheemJob job(&ctx_);
  auto explain = job.LoadCollection(Numbers(3)).Explain();
  ASSERT_TRUE(explain.ok());
  EXPECT_NE(explain->find("stage 0"), std::string::npos);
  EXPECT_NE(explain->find("CollectionSource"), std::string::npos);
}

TEST_F(ApiTest, MetricsReportedOnCollect) {
  RheemJob job(&ctx_);
  job.options().force_platform = "sparksim";
  auto result = job.LoadCollection(Numbers(100))
                    .Map([](const Record& r) { return r; })
                    .CollectWithMetrics();
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->metrics.sim_overhead_micros, 0);
  EXPECT_GT(result->metrics.tasks_launched, 0);
}

TEST_F(ApiTest, CollectInsideLoopBodyRejected) {
  RheemJob job(&ctx_);
  auto state = job.LoadCollection(Numbers(1));
  auto data = job.LoadCollection(Numbers(1));
  Status seen = Status::OK();
  auto out = state.Repeat(1, data, [&](DataQuanta st, DataQuanta dt) {
    (void)dt;
    auto inner = st.Collect();
    seen = inner.status();
    return st;
  });
  EXPECT_TRUE(seen.IsInvalidArgument());
  // The outer job still works.
  EXPECT_TRUE(out.Collect().ok());
}

TEST_F(ApiTest, SampleIsDeterministic) {
  RheemJob job1(&ctx_), job2(&ctx_);
  job1.options().force_platform = "javasim";
  job2.options().force_platform = "javasim";
  auto a = job1.LoadCollection(Numbers(1000)).Sample(0.2, 7).Collect();
  auto b = job2.LoadCollection(Numbers(1000)).Sample(0.2, 7).Collect();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(AsMultiset(*a), AsMultiset(*b));
  EXPECT_NEAR(static_cast<double>(a->size()), 200.0, 60.0);
}

TEST_F(ApiTest, GroupByKeyBothAlgorithmsAgree) {
  auto run = [&](GroupByAlgorithm alg) {
    RheemJob job(&ctx_);
    job.options().apply_logical_rewrites = false;
    return job.LoadCollection(Numbers(50))
        .GroupByKey(
            [](const Record& r) { return Value(r[0].ToInt64Or(0) % 5); },
            [](const Value& key, const std::vector<Record>& members) {
              return std::vector<Record>{Record(
                  {key, Value(static_cast<int64_t>(members.size()))})};
            },
            0.1, alg)
        .Collect();
  };
  auto hash = run(GroupByAlgorithm::kHash);
  auto sort = run(GroupByAlgorithm::kSort);
  ASSERT_TRUE(hash.ok());
  ASSERT_TRUE(sort.ok());
  EXPECT_EQ(AsMultiset(*hash), AsMultiset(*sort));
  EXPECT_EQ(hash->size(), 5u);
}

TEST_F(ApiTest, ThetaAndIEJoinAgreeOnInequalityPredicate) {
  std::vector<Record> rows;
  for (int i = 0; i < 30; ++i) {
    rows.push_back(Record({Value(i % 7), Value((30 - i) % 5)}));
  }
  Dataset data(rows);
  IEJoinSpec spec;
  spec.left_col1 = 0;
  spec.op1 = CompareOp::kGreater;
  spec.right_col1 = 0;
  spec.left_col2 = 1;
  spec.op2 = CompareOp::kLess;
  spec.right_col2 = 1;

  RheemJob job1(&ctx_);
  auto a = job1.LoadCollection(data);
  auto theta = a.ThetaJoin(a,
                           [](const Record& l, const Record& r) {
                             return l[0].Compare(r[0]) > 0 &&
                                    l[1].Compare(r[1]) < 0;
                           })
                 .Count()
                 .Collect();
  RheemJob job2(&ctx_);
  auto b = job2.LoadCollection(data);
  auto iejoin = b.IEJoin(b, spec).Count().Collect();
  ASSERT_TRUE(theta.ok()) << theta.status().ToString();
  ASSERT_TRUE(iejoin.ok()) << iejoin.status().ToString();
  EXPECT_EQ(theta->at(0)[0], iejoin->at(0)[0]);
}

TEST_F(ApiTest, EmptyDataQuantaRejected) {
  DataQuanta empty;
  EXPECT_FALSE(empty.valid());
  EXPECT_FALSE(empty.Collect().ok());
  EXPECT_FALSE(empty.Explain().ok());
}

TEST_F(ApiTest, FailureInjectionThroughFaultInjector) {
  RheemJob job(&ctx_);
  FaultInjector::Global().Clear();
  FaultInjector::Global().Seed(1);
  ASSERT_TRUE(FaultInjector::Global()
                  .AddSpec("executor.stage_attempt", FaultTrigger::Nth(1))
                  .ok());
  FaultInjector::Global().set_enabled(true);
  auto out = job.LoadCollection(Numbers(5)).Collect();
  const int64_t fired = FaultInjector::Global().fired("executor.stage_attempt");
  FaultInjector::Global().set_enabled(false);
  FaultInjector::Global().Clear();
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(fired, 1);  // first attempt failed, the retry recovered
}

TEST(LoadFromStorageTest, BridgesStorageIntoDataflow) {
  RheemContext ctx;
  ASSERT_TRUE(ctx.RegisterDefaultPlatforms().ok());
  storage::StorageManager manager;
  ASSERT_TRUE(
      manager.RegisterBackend(std::make_unique<storage::MemColumnStore>())
          .ok());
  ASSERT_TRUE(manager.Put("mem-column", "numbers", Numbers(10)).ok());
  RheemJob job(&ctx);
  auto quanta = job.LoadFromStorage(manager, "numbers");
  ASSERT_TRUE(quanta.ok()) << quanta.status().ToString();
  auto out = quanta->Filter([](const Record& r) {
                     return r[0].ToInt64Or(0) >= 5;
                   })
                 .Collect();
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 5u);

  EXPECT_TRUE(job.LoadFromStorage(manager, "ghost").status().IsNotFound());
}

}  // namespace
}  // namespace rheem
