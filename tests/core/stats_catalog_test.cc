// StatisticsCatalog invariants: record/lookup semantics, geometric-mean cost
// factors, platform-free fingerprinting, and — mirroring the serialization
// hardening suite — persistence hardening: truncated, bit-flipped or garbage
// stats files must be rejected with IoError, counted in
// `stats_catalog.corrupt_total`, and must never leave the catalog partially
// loaded. Runs under ASan in CI (sanitizer job), where any over-read aborts.

#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <string>

#include <gtest/gtest.h>

#include "common/csv.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "core/api/data_quanta.h"
#include "core/executor/monitor.h"
#include "core/operators/physical_ops.h"
#include "core/optimizer/stats_catalog.h"
#include "core/service/job_server.h"

namespace rheem {
namespace {

class StatsCatalogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MetricsRegistry::Global().Reset();
    MetricsRegistry::Global().set_enabled(true);
  }
  void TearDown() override { MetricsRegistry::Global().set_enabled(false); }

  static int64_t CounterValue(const std::string& name) {
    return MetricsRegistry::Global().counter(name)->value();
  }
};

TEST_F(StatsCatalogTest, RecordAndLookupCardinality) {
  StatisticsCatalog catalog;
  Estimate out;
  EXPECT_FALSE(catalog.LookupCardinality(42, &out));
  EXPECT_EQ(CounterValue("stats_catalog.misses"), 1);

  catalog.RecordCardinality(42, 1000.0, 48.0);
  ASSERT_TRUE(catalog.LookupCardinality(42, &out));
  EXPECT_EQ(out.cardinality, 1000.0);
  EXPECT_EQ(out.avg_bytes, 48.0);
  EXPECT_EQ(CounterValue("stats_catalog.hits"), 1);

  // Last write wins: a fresh observation replaces the stale one.
  catalog.RecordCardinality(42, 500.0, 32.0);
  ASSERT_TRUE(catalog.LookupCardinality(42, &out));
  EXPECT_EQ(out.cardinality, 500.0);
  EXPECT_EQ(catalog.cardinality_entries(), 1u);
  EXPECT_EQ(CounterValue("stats_catalog.updates_total"), 2);
}

TEST_F(StatsCatalogTest, RejectsNonFiniteObservations) {
  StatisticsCatalog catalog;
  catalog.RecordCardinality(1, std::nan(""), 32.0);
  catalog.RecordCardinality(2, -5.0, 32.0);
  catalog.RecordCostRatio("Map", "javasim", 0.0);
  catalog.RecordCostRatio("Map", "javasim", -1.0);
  catalog.RecordCostRatio("Map", "javasim", std::nan(""));
  EXPECT_EQ(catalog.cardinality_entries(), 0u);
  EXPECT_EQ(catalog.cost_entries(), 0u);
  EXPECT_EQ(catalog.version(), 0);
}

TEST_F(StatsCatalogTest, CostFactorIsClampedGeometricMean) {
  StatisticsCatalog catalog;
  EXPECT_EQ(catalog.CostFactor("Map", "javasim"), 1.0);  // unknown: neutral

  catalog.RecordCostRatio("Map", "javasim", 4.0);
  EXPECT_NEAR(catalog.CostFactor("Map", "javasim"), 4.0, 1e-9);  // exact
  catalog.RecordCostRatio("Map", "javasim", 1.0);
  EXPECT_NEAR(catalog.CostFactor("Map", "javasim"), 2.0, 1e-9);  // sqrt(4*1)

  // One wild observation cannot blind the enumerator: clamped to [0.05, 20].
  StatisticsCatalog wild;
  wild.RecordCostRatio("Join", "sparksim", 1e9);
  EXPECT_EQ(wild.CostFactor("Join", "sparksim"), 20.0);
  wild.RecordCostRatio("Filter", "relsim", 1e-9);
  EXPECT_EQ(wild.CostFactor("Filter", "relsim"), 0.05);

  // Distinct (op, platform) keys do not bleed into each other.
  EXPECT_EQ(wild.CostFactor("Join", "relsim"), 1.0);
}

// The learned cost factor per (operator kind, platform): a geometric mean of
// observed/estimated cost ratios, neutral until something is observed.
TEST(CostCalibratorTest, NoObservationsMeansFactorOne) {
  StatisticsCatalog catalog;
  EXPECT_DOUBLE_EQ(catalog.CostFactor("Map", "javasim"), 1.0);
  EXPECT_EQ(catalog.cost_entries(), 0u);
}

TEST(CostCalibratorTest, SingleObservationGivesExactRatio) {
  StatisticsCatalog catalog;
  catalog.RecordCostRatio("Map", "javasim", 250.0 / 100.0);
  EXPECT_NEAR(catalog.CostFactor("Map", "javasim"), 2.5, 1e-9);
  EXPECT_EQ(catalog.cost_entries(), 1u);
}

TEST(CostCalibratorTest, GeometricMeanOverRuns) {
  StatisticsCatalog catalog;
  catalog.RecordCostRatio("Map", "p", 4.0);
  catalog.RecordCostRatio("Map", "p", 1.0);
  EXPECT_NEAR(catalog.CostFactor("Map", "p"), 2.0, 1e-9);  // sqrt(4*1)
  catalog.RecordCostRatio("Map", "p", 0.5);
  EXPECT_NEAR(catalog.CostFactor("Map", "p"), std::cbrt(2.0), 1e-9);
  EXPECT_EQ(catalog.cost_entries(), 1u);
}

TEST(CostCalibratorTest, PlatformsIsolated) {
  StatisticsCatalog catalog;
  catalog.RecordCostRatio("Map", "a", 10.0);
  catalog.RecordCostRatio("Map", "b", 0.5);
  EXPECT_NEAR(catalog.CostFactor("Map", "a"), 10.0, 1e-9);
  EXPECT_NEAR(catalog.CostFactor("Map", "b"), 0.5, 1e-9);
  EXPECT_DOUBLE_EQ(catalog.CostFactor("Map", "c"), 1.0);
  EXPECT_DOUBLE_EQ(catalog.CostFactor("Filter", "a"), 1.0);
}

TEST(CostCalibratorTest, IgnoresDegenerateObservations) {
  StatisticsCatalog catalog;
  catalog.RecordCostRatio("Map", "p", 0.0);
  catalog.RecordCostRatio("Map", "p", -5.0);
  catalog.RecordCostRatio("Map", "p", std::numeric_limits<double>::infinity());
  EXPECT_EQ(catalog.cost_entries(), 0u);
  EXPECT_DOUBLE_EQ(catalog.CostFactor("Map", "p"), 1.0);
  // A degenerate ratio after a real one leaves the learned factor alone.
  catalog.RecordCostRatio("Map", "p", 3.0);
  catalog.RecordCostRatio("Map", "p", 0.0);
  EXPECT_NEAR(catalog.CostFactor("Map", "p"), 3.0, 1e-9);
}

// A job run through a context feeds each finished stage into the context's
// catalog: the platform that ran the Map, as the monitor saw it, now has a
// learned cost factor for Map.
TEST(ObserveJobTest, WiresMonitorRecordsIntoCalibrator) {
  RheemContext ctx;
  ASSERT_TRUE(ctx.RegisterDefaultPlatforms().ok());
  ASSERT_NE(ctx.stats_catalog(), nullptr);
  RheemJob job(&ctx);
  std::vector<Record> rows;
  for (int i = 0; i < 5000; ++i) rows.push_back(Record({Value(i)}));
  auto quanta = job.LoadCollection(Dataset(std::move(rows)))
                    .Map(
                        [](const Record& r) {
                          double x = r[0].ToDoubleOr(0);
                          for (int k = 0; k < 40; ++k) x = x * 1.0001 + 1;
                          return Record({Value(x)});
                        },
                        UdfMeta::Expensive(40.0));
  ExecutionMonitor monitor;
  job.options().monitor = &monitor;
  ASSERT_TRUE(quanta.Collect().ok());
  const auto records = monitor.records();
  ASSERT_FALSE(records.empty());

  EXPECT_GT(ctx.stats_catalog()->cost_entries(), 0u);
  bool learned = false;
  for (const auto& record : records) {
    EXPECT_TRUE(record.succeeded) << record.error;
    const double factor = ctx.stats_catalog()->CostFactor("Map", record.platform);
    EXPECT_GT(factor, 0.0);
    learned = learned || factor != 1.0;
  }
  EXPECT_TRUE(learned) << "no monitored platform learned a Map cost factor";
}

TEST_F(StatsCatalogTest, EncodeDecodeRoundTrips) {
  StatisticsCatalog catalog;
  catalog.RecordCardinality(0, 0.0, 16.0);
  catalog.RecordCardinality(0xdeadbeefcafef00dull, 123456.0, 64.5);
  catalog.RecordCostRatio("Map", "javasim", 2.0);
  catalog.RecordCostRatio("Map", "javasim", 8.0);
  catalog.RecordCostRatio("Join", "sparksim", 0.25);

  StatisticsCatalog loaded;
  ASSERT_TRUE(loaded.DecodeFrom(catalog.Encode()).ok());
  EXPECT_EQ(loaded.cardinality_entries(), catalog.cardinality_entries());
  EXPECT_EQ(loaded.cost_entries(), catalog.cost_entries());
  Estimate est;
  ASSERT_TRUE(loaded.LookupCardinality(0xdeadbeefcafef00dull, &est));
  EXPECT_EQ(est.cardinality, 123456.0);
  EXPECT_EQ(est.avg_bytes, 64.5);
  EXPECT_NEAR(loaded.CostFactor("Map", "javasim"),
              catalog.CostFactor("Map", "javasim"), 1e-12);
  EXPECT_NEAR(loaded.CostFactor("Join", "sparksim"),
              catalog.CostFactor("Join", "sparksim"), 1e-12);
}

TEST_F(StatsCatalogTest, SaveAndLoadFileRoundTrips) {
  const std::string path = ::testing::TempDir() + "/rheem_stats_catalog_rt";
  StatisticsCatalog catalog;
  catalog.RecordCardinality(7, 700.0, 24.0);
  catalog.RecordCostRatio("Sort", "javasim", 1.5);
  ASSERT_TRUE(catalog.SaveToFile(path).ok());

  StatisticsCatalog loaded;
  ASSERT_TRUE(loaded.LoadFromFile(path).ok());
  Estimate est;
  EXPECT_TRUE(loaded.LookupCardinality(7, &est));
  EXPECT_EQ(est.cardinality, 700.0);
  std::remove(path.c_str());

  EXPECT_FALSE(loaded.LoadFromFile(path + ".does_not_exist").ok());
}

/// Random catalog for the hardening fuzz: random fingerprints, cardinalities
/// and (op, platform) cost keys, so truncation/flip coverage is not tied to
/// one fixed payload shape.
StatisticsCatalog* FillRandom(StatisticsCatalog* catalog, Rng* rng) {
  const int cards = 1 + static_cast<int>(rng->NextBounded(8));
  for (int i = 0; i < cards; ++i) {
    catalog->RecordCardinality(rng->NextU64(),
                               static_cast<double>(rng->NextBounded(1 << 20)),
                               1.0 + static_cast<double>(rng->NextBounded(256)));
  }
  const int costs = static_cast<int>(rng->NextBounded(6));
  for (int i = 0; i < costs; ++i) {
    std::string op(1 + rng->NextBounded(6), 'a');
    for (auto& c : op) c = static_cast<char>('a' + rng->NextBounded(26));
    catalog->RecordCostRatio(op, rng->NextBool() ? "javasim" : "sparksim",
                             0.1 + static_cast<double>(rng->NextBounded(50)));
  }
  return catalog;
}

// Mirrors SerializationHardeningTest.FuzzTruncationsAndBitFlipsNeverCrash for
// the stats file: because the framing is checksummed, EVERY truncation and
// EVERY bit flip must be rejected (not just "never crash"), every rejection
// must increment `stats_catalog.corrupt_total`, and the target catalog's
// contents must survive each failed load bit-for-bit.
TEST_F(StatsCatalogTest, FuzzTruncationsAndBitFlipsNeverLoad) {
  Rng rng(20260808);
  for (int trial = 0; trial < 40; ++trial) {
    StatisticsCatalog source;
    FillRandom(&source, &rng);
    const std::string framed = source.Encode();

    StatisticsCatalog target;
    target.RecordCardinality(99, 42.0, 32.0);  // canary entry
    const int64_t version_before = target.version();
    auto expect_unchanged = [&](const char* what) {
      Estimate est;
      ASSERT_TRUE(target.LookupCardinality(99, &est)) << what;
      EXPECT_EQ(est.cardinality, 42.0) << what;
      EXPECT_EQ(target.cardinality_entries(), 1u) << what;
      EXPECT_EQ(target.version(), version_before) << what;
    };

    // Every truncation point: a shorter frame cannot carry a valid checksum
    // over its remaining payload.
    for (std::size_t cut = 0; cut < framed.size();
         cut += 1 + rng.NextBounded(7)) {
      const int64_t corrupt_before = CounterValue("stats_catalog.corrupt_total");
      auto status = target.DecodeFrom(framed.substr(0, cut));
      EXPECT_TRUE(status.IsIoError()) << "truncated frame loaded at cut " << cut;
      EXPECT_EQ(CounterValue("stats_catalog.corrupt_total"), corrupt_before + 1)
          << "rejection not counted at cut " << cut;
    }
    expect_unchanged("after truncations");

    // Random bit flips: magic, checksum or payload — all must be rejected.
    for (int flips = 0; flips < 32; ++flips) {
      std::string mutated = framed;
      const std::size_t pos = rng.NextBounded(mutated.size());
      mutated[pos] = static_cast<char>(
          mutated[pos] ^ static_cast<char>(1u << rng.NextBounded(8)));
      if (mutated == framed) continue;
      EXPECT_TRUE(target.DecodeFrom(mutated).IsIoError())
          << "bit-flipped frame loaded (flip at byte " << pos << ")";
    }
    expect_unchanged("after bit flips");

    // Random garbage of the same length.
    std::string garbage(framed.size(), '\0');
    for (auto& c : garbage) c = static_cast<char>(rng.NextBounded(256));
    EXPECT_FALSE(target.DecodeFrom(garbage).ok());
    expect_unchanged("after garbage");

    // The untouched frame still loads, and replaces the canary wholesale.
    ASSERT_TRUE(target.DecodeFrom(framed).ok());
    EXPECT_EQ(target.cardinality_entries(), source.cardinality_entries());
    EXPECT_FALSE(target.LookupCardinality(99, nullptr));
  }
}

TEST_F(StatsCatalogTest, RejectsHostileDeclaredCounts) {
  // A forged header declaring 2^40 entries must be rejected by the
  // allocation-bomb guard, not parsed until memory runs out. Build a frame
  // with a correct checksum over a hostile payload.
  const std::string payload = "cards 1099511627776\ncosts 0\n";
  uint64_t h = 1469598103934665603ull;
  for (char c : payload) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  char checksum[17];
  std::snprintf(checksum, sizeof(checksum), "%016llx",
                static_cast<unsigned long long>(h));
  const std::string framed = std::string("RSTC1") + checksum + payload;

  StatisticsCatalog catalog;
  EXPECT_TRUE(catalog.DecodeFrom(framed).IsIoError());
  EXPECT_EQ(catalog.cardinality_entries(), 0u);
}

TEST_F(StatsCatalogTest, FingerprintsArePlatformFreeAndDataSensitive) {
  auto build = [](int rows) {
    auto plan = std::make_unique<Plan>();
    std::vector<Record> records;
    for (int i = 0; i < rows; ++i) records.push_back(Record({Value(i)}));
    auto* src =
        plan->Add<CollectionSourceOp>({}, Dataset(std::move(records)));
    PredicateUdf pred;
    pred.fn = [](const Record&) { return true; };
    auto* filter = plan->Add<FilterOp>({src}, pred);
    plan->SetSink(plan->Add<CollectOp>({filter}));
    return plan;
  };

  auto a = build(100);
  auto b = build(100);   // same structure, same data
  auto c = build(101);   // same structure, different data
  auto fa = ComputeCardinalityFingerprints(*a);
  auto fb = ComputeCardinalityFingerprints(*b);
  auto fc = ComputeCardinalityFingerprints(*c);
  ASSERT_TRUE(fa.ok() && fb.ok() && fc.ok());
  ASSERT_EQ(fa->size(), 3u);

  // Identical dataflows fingerprint identically operator-for-operator —
  // regardless of operator ids, which differ between the two plans.
  auto values = [](const std::map<int, uint64_t>& m) {
    std::vector<uint64_t> out;
    for (const auto& [id, fp] : m) out.push_back(fp);
    return out;
  };
  EXPECT_EQ(values(*fa), values(*fb));
  // Different source data must not share learned cardinalities.
  EXPECT_NE(values(*fa), values(*fc));
}

// End-to-end learning loop: the first execution of a plan through a context
// records observed cardinalities; the second compilation of the same
// dataflow is served from the catalog (hits), so even a lying selectivity
// hint is planned with measured numbers and needs no mid-job re-plan.
TEST_F(StatsCatalogTest, SecondCompilationIsServedFromLearnedStatistics) {
  Config config;
  config.SetBool("metrics.enabled", true);
  RheemContext ctx(config);
  ASSERT_TRUE(ctx.RegisterDefaultPlatforms().ok());
  ASSERT_NE(ctx.stats_catalog(), nullptr);

  auto run = [&]() {
    RheemJob job(&ctx);
    std::vector<Record> rows;
    for (int i = 0; i < 500; ++i) rows.push_back(Record({Value(i)}));
    DataQuanta q = job.LoadCollection(Dataset(std::move(rows)));
    // The hint claims 1-in-1000 survive; everything actually does.
    q = q.Filter([](const Record&) { return true; }, UdfMeta{0.001, 1.0})
            .OnPlatform("javasim");
    q = q.Map([](const Record& r) { return r; }).OnPlatform("sparksim");
    return q.CollectWithMetrics();
  };

  const int64_t version0 = ctx.stats_catalog()->version();
  auto cold = run();
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_GT(ctx.stats_catalog()->version(), version0);  // job fed the catalog
  EXPECT_GT(ctx.stats_catalog()->cost_entries(), 0u);  // ...cost ratios too
  EXPECT_GE(cold->metrics.reoptimizations, 1);          // the lie was caught

  const int64_t hits_before = CounterValue("stats_catalog.hits");
  auto warm = run();
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_GT(CounterValue("stats_catalog.hits"), hits_before);
  // Learned cardinalities override the lying hint: no mid-job re-plan.
  EXPECT_EQ(warm->metrics.reoptimizations, 0);
  EXPECT_EQ(warm->output.size(), cold->output.size());
}

// stats.path round trip through the context/JobServer lifecycle: a context
// configured with a stats file loads it at construction and persists it at
// Shutdown, so learned statistics survive process restarts.
TEST_F(StatsCatalogTest, StatsPathPersistsAcrossContexts) {
  const std::string path = ::testing::TempDir() + "/rheem_stats_persist";
  std::remove(path.c_str());

  Config config;
  config.Set("stats.path", path);
  {
    RheemContext ctx(config);
    ASSERT_TRUE(ctx.RegisterDefaultPlatforms().ok());
    RheemJob job(&ctx);
    std::vector<Record> rows;
    for (int i = 0; i < 100; ++i) rows.push_back(Record({Value(i)}));
    DataQuanta q = job.LoadCollection(Dataset(std::move(rows)));
    q = q.Map([](const Record& r) { return r; });
    auto plan = q.Seal();
    ASSERT_TRUE(plan.ok());
    auto handle = ctx.Submit(**plan);
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    ASSERT_TRUE(handle->Wait().ok());
    ctx.job_server().Shutdown(/*drain=*/true);  // autosaves the catalog
  }

  StatisticsCatalog loaded;
  ASSERT_TRUE(loaded.LoadFromFile(path).ok())
      << "JobServer::Shutdown did not persist the stats catalog";
  EXPECT_GT(loaded.cardinality_entries(), 0u);

  // A corrupt stats file must not break context construction: the load is
  // rejected (counted) and the context starts with an empty catalog.
  {
    ASSERT_TRUE(WriteStringToFile(path, "RSTC1junkjunkjunkjun").ok());
    const int64_t corrupt_before = CounterValue("stats_catalog.corrupt_total");
    RheemContext ctx(config);
    ASSERT_TRUE(ctx.RegisterDefaultPlatforms().ok());
    ASSERT_NE(ctx.stats_catalog(), nullptr);
    EXPECT_EQ(ctx.stats_catalog()->cardinality_entries(), 0u);
    EXPECT_GT(CounterValue("stats_catalog.corrupt_total"), corrupt_before);
  }
  std::remove(path.c_str());
}

TEST_F(StatsCatalogTest, DisabledStatsLeavesContextWithoutCatalog) {
  Config config;
  config.SetBool("stats.enabled", false);
  RheemContext ctx(config);
  EXPECT_EQ(ctx.stats_catalog(), nullptr);
}

}  // namespace
}  // namespace rheem
