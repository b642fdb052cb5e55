#include "storage/hot_buffer.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/api/context.h"
#include "core/operators/physical_ops.h"
#include "core/sql/sql.h"
#include "data/batch.h"
#include "data/table_memo.h"
#include "storage/mem_column_store.h"

namespace rheem {
namespace storage {
namespace {

Dataset Payload(int rows, int id) {
  std::vector<Record> out;
  for (int i = 0; i < rows; ++i) {
    out.push_back(Record({Value(id), Value(std::string(64, 'x'))}));
  }
  return Dataset(std::move(out));
}

class HotBufferTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(manager_.RegisterBackend(std::make_unique<MemColumnStore>()).ok());
    auto* backend = manager_.Backend("mem-column").ValueOrDie();
    ASSERT_TRUE(backend->Put("a", Payload(10, 1)).ok());
    ASSERT_TRUE(backend->Put("b", Payload(10, 2)).ok());
    ASSERT_TRUE(backend->Put("c", Payload(10, 3)).ok());
  }
  StorageManager manager_;
};

TEST_F(HotBufferTest, SecondLoadIsAHit) {
  HotDataBuffer buffer(&manager_, 1 << 20);
  ASSERT_TRUE(buffer.Load("a").ok());
  EXPECT_EQ(buffer.misses(), 1);
  EXPECT_EQ(buffer.hits(), 0);
  ASSERT_TRUE(buffer.Load("a").ok());
  EXPECT_EQ(buffer.hits(), 1);
  EXPECT_EQ(buffer.resident_entries(), 1u);
}

TEST_F(HotBufferTest, ReturnsSameContentAsBackend) {
  HotDataBuffer buffer(&manager_, 1 << 20);
  auto direct = manager_.Load("b").ValueOrDie();
  auto cached_cold = buffer.Load("b").ValueOrDie();
  auto cached_hot = buffer.Load("b").ValueOrDie();
  EXPECT_EQ(cached_cold->size(), direct.size());
  EXPECT_EQ(cached_hot->size(), direct.size());
  EXPECT_EQ(cached_hot->at(0), direct.at(0));
}

TEST_F(HotBufferTest, HitsShareTheCachedDatasetWithoutCopying) {
  HotDataBuffer buffer(&manager_, 1 << 20);
  auto first = buffer.Load("a").ValueOrDie();
  auto second = buffer.Load("a").ValueOrDie();
  auto third = buffer.Load("a").ValueOrDie();
  // No-copy semantics: every hit returns the very same materialization the
  // miss parsed, not a deep copy of it.
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(second.get(), third.get());
  // Caller + caller + caller + the buffer's own entry.
  EXPECT_EQ(first.use_count(), 4);
}

TEST_F(HotBufferTest, EvictedEntrySurvivesWhileCallersHoldIt) {
  HotDataBuffer buffer(&manager_, 1 << 20);
  auto held = buffer.Load("a").ValueOrDie();
  buffer.Clear();
  // The shared_ptr keeps the dataset alive past eviction.
  EXPECT_EQ(held->size(), 10u);
  EXPECT_EQ(held.use_count(), 1);
}

TEST_F(HotBufferTest, EvictsLeastRecentlyUsed) {
  // Capacity fits ~2 datasets of this size.
  const int64_t one = Payload(10, 1).EstimatedBytes();
  HotDataBuffer buffer(&manager_, one * 2 + 10);
  ASSERT_TRUE(buffer.Load("a").ok());
  ASSERT_TRUE(buffer.Load("b").ok());
  ASSERT_TRUE(buffer.Load("a").ok());  // refresh a; b is now LRU
  ASSERT_TRUE(buffer.Load("c").ok());  // evicts b
  EXPECT_EQ(buffer.resident_entries(), 2u);
  ASSERT_TRUE(buffer.Load("b").ok());  // miss again
  EXPECT_EQ(buffer.misses(), 4);       // a, b, c, b
  EXPECT_EQ(buffer.hits(), 1);         // second a
}

TEST_F(HotBufferTest, OversizedDatasetBypassesCache) {
  HotDataBuffer buffer(&manager_, 8);  // tiny capacity
  ASSERT_TRUE(buffer.Load("a").ok());
  EXPECT_EQ(buffer.resident_entries(), 0u);
  ASSERT_TRUE(buffer.Load("a").ok());
  EXPECT_EQ(buffer.hits(), 0);
  EXPECT_EQ(buffer.misses(), 2);
}

TEST_F(HotBufferTest, InvalidateDropsEntry) {
  HotDataBuffer buffer(&manager_, 1 << 20);
  ASSERT_TRUE(buffer.Load("a").ok());
  buffer.Invalidate("a");
  EXPECT_EQ(buffer.resident_entries(), 0u);
  EXPECT_EQ(buffer.resident_bytes(), 0);
  ASSERT_TRUE(buffer.Load("a").ok());
  EXPECT_EQ(buffer.misses(), 2);
  buffer.Invalidate("never-cached");  // no-op
}

TEST_F(HotBufferTest, WriteThroughManagerInvalidatesStaleEntry) {
  HotDataBuffer buffer(&manager_, 1 << 20);
  auto stale = buffer.Load("a").ValueOrDie();
  EXPECT_EQ((*stale).at(0)[0], Value(1));
  // Rewriting the dataset through the manager must drop the buffered copy:
  // the next load re-parses and sees the new content, never a stale read.
  ASSERT_TRUE(manager_.Put("mem-column", "a", Payload(10, 99)).ok());
  EXPECT_EQ(buffer.resident_entries(), 0u);
  auto fresh = buffer.Load("a").ValueOrDie();
  EXPECT_EQ((*fresh).at(0)[0], Value(99));
  EXPECT_EQ(buffer.misses(), 2);
  // Deleting through the manager also invalidates.
  ASSERT_TRUE(manager_.Delete("a").ok());
  EXPECT_EQ(buffer.resident_entries(), 0u);
  EXPECT_TRUE(buffer.Load("a").status().IsNotFound());
}

TEST_F(HotBufferTest, ObserverUnregistersWithTheBuffer) {
  {
    HotDataBuffer buffer(&manager_, 1 << 20);
    ASSERT_TRUE(buffer.Load("a").ok());
  }
  // The destroyed buffer must not be notified of this write.
  ASSERT_TRUE(manager_.Put("mem-column", "a", Payload(10, 7)).ok());
}

TEST_F(HotBufferTest, ClearEmptiesEverything) {
  HotDataBuffer buffer(&manager_, 1 << 20);
  ASSERT_TRUE(buffer.Load("a").ok());
  ASSERT_TRUE(buffer.Load("b").ok());
  buffer.Clear();
  EXPECT_EQ(buffer.resident_entries(), 0u);
  EXPECT_EQ(buffer.resident_bytes(), 0);
}

TEST_F(HotBufferTest, ColumnarFormIsChargedFromTheNextLoad) {
  HotDataBuffer buffer(&manager_, 1 << 20);
  auto a = buffer.Load("a").ValueOrDie();
  const int64_t row_bytes = buffer.resident_bytes();
  std::shared_ptr<const Batch> batch = TableMemo::Columnar(a);
  ASSERT_NE(batch, nullptr);
  const int64_t batch_bytes = batch->EstimatedBytes();
  EXPECT_EQ(TableMemo::ColumnarBytes(a), batch_bytes);
  EXPECT_EQ(buffer.resident_bytes(), row_bytes);  // not yet seen
  ASSERT_EQ(buffer.Load("a").ValueOrDie(), a);
  EXPECT_EQ(buffer.resident_bytes(), row_bytes + batch_bytes);
  // Invalidating drops the memo's Batch at once, while `a` itself lives on.
  std::weak_ptr<const Batch> weak = batch;
  batch.reset();
  buffer.Invalidate("a");
  EXPECT_EQ(buffer.resident_bytes(), 0);
  EXPECT_TRUE(weak.expired());
  EXPECT_EQ(TableMemo::ColumnarBytes(a), 0);
}

TEST_F(HotBufferTest, ColumnarFormCountsAgainstTheCapacity) {
  const int64_t row_bytes = Payload(10, 1).EstimatedBytes();
  const int64_t batch_bytes =
      Batch::FromDataset(Payload(10, 1)).ValueOrDie().EstimatedBytes();
  {
    // Two row forms fit; adding one Batch evicts the LRU tail.
    HotDataBuffer buffer(&manager_, 2 * row_bytes + batch_bytes - 1);
    auto a = buffer.Load("a").ValueOrDie();
    auto b = buffer.Load("b").ValueOrDie();
    std::weak_ptr<const Batch> a_batch = TableMemo::Columnar(a);
    ASSERT_NE(TableMemo::Columnar(b), nullptr);
    ASSERT_TRUE(buffer.Load("b").ok());
    EXPECT_EQ(buffer.resident_entries(), 1u);
    EXPECT_EQ(buffer.resident_bytes(), row_bytes + batch_bytes);
    EXPECT_TRUE(a_batch.expired());  // evicted with its table
  }
  {
    // A table whose two forms alone exceed the capacity is not kept.
    HotDataBuffer buffer(&manager_, row_bytes + batch_bytes - 1);
    auto a = buffer.Load("a").ValueOrDie();
    ASSERT_NE(TableMemo::Columnar(a), nullptr);
    ASSERT_EQ(buffer.Load("a").ValueOrDie(), a);
    EXPECT_EQ(buffer.resident_entries(), 0u);
    EXPECT_EQ(buffer.resident_bytes(), 0);
    EXPECT_EQ(TableMemo::ColumnarBytes(a), 0);
  }
}

TEST_F(HotBufferTest, DestroyedBufferDropsColumnarForms) {
  std::shared_ptr<const Dataset> a;
  {
    HotDataBuffer buffer(&manager_, 1 << 20);
    a = buffer.Load("a").ValueOrDie();
    ASSERT_NE(TableMemo::Columnar(a), nullptr);
  }
  EXPECT_EQ(TableMemo::ColumnarBytes(a), 0);
}

TEST_F(HotBufferTest, CompiledSourcesShareTheBufferedTable) {
  // SQL over the storage catalog and LoadFromStorage both compile to a
  // physical source holding the buffer's resident table, not a copy.
  ASSERT_TRUE(manager_
                  .Put("mem-column", "people",
                       Dataset({Record({Value("ada"), Value(36)}),
                                Record({Value("grace"), Value(45)})},
                               Schema::Of({{"name", ValueType::kString},
                                           {"age", ValueType::kInt64}})))
                  .ok());
  RheemContext ctx;
  ASSERT_TRUE(ctx.RegisterDefaultPlatforms().ok());
  ASSERT_TRUE(ctx.AttachStorage(&manager_).ok());
  auto resident = ctx.hot_buffer()->Load("people");
  ASSERT_TRUE(resident.ok());
  auto source_table = [&ctx](const Plan& logical) -> const Dataset* {
    auto compiled = ctx.Compile(logical);
    EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
    if (!compiled.ok()) return nullptr;
    for (std::size_t i = 0; i < compiled->physical->size(); ++i) {
      if (auto* src = dynamic_cast<const CollectionSourceOp*>(
              compiled->physical->op(i))) {
        return src->shared_data().get();
      }
    }
    return nullptr;
  };

  auto stmt = ctx.Sql("SELECT name FROM people WHERE age > 40");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(source_table(stmt->plan()), resident->get());

  RheemJob job(&ctx);
  auto loaded = job.LoadFromStorage("people");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto sealed = loaded->Seal();
  ASSERT_TRUE(sealed.ok());
  EXPECT_EQ(source_table(**sealed), resident->get());
}

TEST_F(HotBufferTest, MissingDatasetPropagatesError) {
  HotDataBuffer buffer(&manager_, 1 << 20);
  EXPECT_TRUE(buffer.Load("ghost").status().IsNotFound());
  EXPECT_EQ(buffer.misses(), 1);
}

// Exercised under TSan in CI: concurrent loads, invalidations and writes
// through the manager must be race-free and always return coherent data.
TEST_F(HotBufferTest, ConcurrentLoadsAndInvalidationsAreThreadSafe) {
  const int64_t one = Payload(10, 1).EstimatedBytes();
  HotDataBuffer buffer(&manager_, one * 2 + 10);  // small: forces eviction
  constexpr int kThreads = 8;
  constexpr int kRounds = 200;
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  const char* names[] = {"a", "b", "c"};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < kRounds; ++i) {
        const char* name = names[(t + i) % 3];
        if (t == 0 && i % 17 == 0) {
          buffer.Invalidate(name);
          continue;
        }
        if (t == 1 && i % 29 == 0) {
          // Writes through the manager fire the invalidation observer from
          // this thread while others are mid-load.
          if (!manager_.Put("mem-column", name, Payload(10, i)).ok()) {
            failed.store(true);
          }
          continue;
        }
        auto data = buffer.Load(name);
        if (!data.ok() || (*data)->size() != 10u) {
          failed.store(true);
          continue;
        }
        // Columnar forms built while other threads charge, evict and
        // invalidate them.
        if (t % 2 == 1 && TableMemo::Columnar(*data) == nullptr) {
          failed.store(true);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(failed.load());
  // Threads 0 and 1 skip the load on their invalidate/write rounds
  // (i % 17 == 0 and i % 29 == 0 respectively, including i == 0).
  EXPECT_EQ(buffer.hits() + buffer.misses(),
            kThreads * kRounds - (kRounds / 17 + 1) - (kRounds / 29 + 1));
}

}  // namespace
}  // namespace storage
}  // namespace rheem
