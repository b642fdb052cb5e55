// xplat_etl: a closed loop, one job at a time, of a cross-platform ETL
// pipeline over a CSV-backed table. Each job loads `events` through the
// hot buffer (RheemJob::LoadFromStorage), runs closure UDFs pinned with
// OnPlatform so that one javasim stage feeds two sparksim consumer stages,
// merges their outputs back on javasim and writes the result with
// StorageManager::Put, which invalidates the written table in the hot
// buffer. Every kReadBackEvery-th job also reads the written table back.
//
// The load sits on the executor's boundary conversion and scheduling, the
// row kernels, sparksim tasks and storage writes beside reads. There is no
// SQL and no net, and closure UDFs bypass the columnar path by design, so a
// columnar-kernel change predicts no change here.
#include <cmath>
#include <filesystem>
#include <functional>
#include <memory>

#include "bench.h"
#include "common/rng.h"
#include "core/api/data_quanta.h"
#include "storage/csv_store.h"
#include "storage/hot_buffer.h"
#include "storage/storage_plan.h"

namespace perfbench {
namespace {

using rheem::Dataset;
using rheem::Record;
using rheem::Value;

constexpr std::size_t kEventRows = 200000;
constexpr int64_t kUsers = 4096;
constexpr int64_t kBuckets = 64;
constexpr int64_t kKinds = 8;
constexpr double kMaxValue = 1000;
/// Width of consumer A's value window after the x1.5 enrichment: half of
/// the enriched range, so every job keeps about the same share of rows.
constexpr double kWindow = kMaxValue * 1.5 / 2;
constexpr int kReadBackEvery = 4;
constexpr int kWarmUpJobs = 4;

struct Events {
  std::vector<int64_t> user, kind;
  std::vector<std::string> payload;
  std::vector<double> value;
  std::size_t size() const { return value.size(); }
};

Events MakeEvents(uint64_t seed) {
  rheem::Rng rng(seed * 0x94D049BB133111EBull + 13);
  static const char kAlphabet[] = "abcdefghijklmnopqrstuvwxyz0123456789";
  Events e;
  for (std::size_t i = 0; i < kEventRows; ++i) {
    e.user.push_back(static_cast<int64_t>(rng.NextBounded(kUsers)));
    e.kind.push_back(static_cast<int64_t>(rng.NextBounded(kKinds)));
    std::string p(32, ' ');
    for (char& c : p) c = kAlphabet[rng.NextBounded(sizeof(kAlphabet) - 1)];
    e.payload.push_back(std::move(p));
    e.value.push_back(std::floor(rng.NextDouble() * kMaxValue * 100) / 100);
  }
  return e;
}

Dataset EventsDataset(const Events& e) {
  std::vector<Record> rows;
  rows.reserve(e.size());
  for (std::size_t i = 0; i < e.size(); ++i) {
    rows.push_back(Record({Value(static_cast<int64_t>(i)), Value(e.user[i]),
                           Value(e.kind[i]), Value(e.payload[i]),
                           Value(e.value[i])}));
  }
  return Dataset(std::move(rows));
}

/// One job's constants: consumer A keeps enriched values in [lo, lo +
/// kWindow), consumer B keeps events of one kind.
struct Params {
  double lo = 0;
  int64_t kind = 0;
};

Params NextParams(rheem::Rng* rng) {
  Params p;
  p.lo = std::floor(rng->NextDouble() * (kMaxValue * 1.5 - kWindow));
  p.kind = static_cast<int64_t>(rng->NextBounded(kKinds));
  return p;
}

/// Order-independent summary of an output: consumer A's groups keyed by
/// bucket, and sums over consumer B's rows.
struct Digest {
  std::map<int64_t, Group> groups;
  int64_t rows = 0, id_sum = 0, user_sum = 0;
  uint64_t payload_hash = 0;
  double value_sum = 0;
};

Digest DigestOf(const Dataset& out) {
  Digest d;
  for (const Record& r : out.records()) {
    const std::string& tag = r[3].string_unchecked();
    if (tag == "agg") {
      Group& g = d.groups[r[0].ToInt64Or(-1)];
      g.count += r[1].ToInt64Or(0);
      g.sum += r[2].ToDoubleOr(0);
    } else {
      d.rows += 1;
      d.id_sum += r[0].ToInt64Or(0);
      d.user_sum += r[1].ToInt64Or(0);
      d.value_sum += r[2].ToDoubleOr(0);
      d.payload_hash += std::hash<std::string>()(tag);
    }
  }
  return d;
}

Digest Reference(const Events& e, const Params& p) {
  Digest d;
  for (std::size_t i = 0; i < e.size(); ++i) {
    const double v = e.value[i] * 1.5;
    if (v >= p.lo && v < p.lo + kWindow) {
      Group& g = d.groups[e.user[i] % kBuckets];
      g.count += 1;
      g.sum += v;
    }
    if (e.kind[i] == p.kind) {
      d.rows += 1;
      d.id_sum += static_cast<int64_t>(i);
      d.user_sum += e.user[i];
      d.value_sum += v;
      d.payload_hash += std::hash<std::string>()(e.payload[i]);
    }
  }
  return d;
}

std::string Compare(const Digest& got, const Digest& want) {
  if (got.rows != want.rows || got.id_sum != want.id_sum ||
      got.user_sum != want.user_sum || got.payload_hash != want.payload_hash ||
      !Near(got.value_sum, want.value_sum)) {
    return "filtered rows differ: " + std::to_string(got.rows) + " rows vs " +
           std::to_string(want.rows);
  }
  if (got.groups.size() != want.groups.size()) {
    return std::to_string(got.groups.size()) + " groups vs " +
           std::to_string(want.groups.size());
  }
  for (const auto& [key, g] : want.groups) {
    auto it = got.groups.find(key);
    if (it == got.groups.end() || it->second.count != g.count ||
        !Near(it->second.sum, g.sum)) {
      return "group " + std::to_string(key) + " differs";
    }
  }
  return "";
}

/// The pipeline: source and enrichment on javasim; two sparksim consumers
/// of the enriched rows; their union back on javasim.
rheem::Result<rheem::Plan*> BuildPlan(rheem::RheemJob* job, const Params& p,
                                      std::vector<double>* load_us) {
  auto src = Timed("storage.load", load_us,
                   [&] { return job->LoadFromStorage("events"); });
  if (!src.ok()) return src.status();
  rheem::DataQuanta enriched =
      src->OnPlatform("javasim")
          .Map([](const Record& r) {
            return Record({r[0], r[1], r[2], r[3],
                           Value(r[4].ToDoubleOr(0) * 1.5)});
          })
          .OnPlatform("javasim");
  const double lo = p.lo;
  rheem::DataQuanta by_bucket =
      enriched
          .Filter([lo](const Record& r) {
            const double v = r[4].ToDoubleOr(0);
            return v >= lo && v < lo + kWindow;
          })
          .OnPlatform("sparksim")
          .Map([](const Record& r) {
            return Record({Value(r[1].ToInt64Or(0) % kBuckets), Value(int64_t{1}),
                           r[4], Value("agg")});
          })
          .OnPlatform("sparksim")
          .ReduceByKey([](const Record& r) { return r[0]; },
                       [](const Record& a, const Record& b) {
                         return Record({a[0],
                                        Value(a[1].ToInt64Or(0) + b[1].ToInt64Or(0)),
                                        Value(a[2].ToDoubleOr(0) + b[2].ToDoubleOr(0)),
                                        a[3]});
                       })
          .OnPlatform("sparksim");
  const int64_t kind = p.kind;
  rheem::DataQuanta of_kind =
      enriched
          .Filter([kind](const Record& r) { return r[2].ToInt64Or(-1) == kind; },
                  rheem::UdfMeta::Selective(1.0 / kKinds))
          .OnPlatform("sparksim")
          .Map([](const Record& r) { return Record({r[0], r[1], r[4], r[3]}); })
          .OnPlatform("sparksim");
  return by_bucket.Union(of_kind).OnPlatform("javasim").Seal();
}

using Env = StorageContext;

struct Samples {
  std::vector<double> latency_ms, load_us, put_us;
  int64_t moved_bytes = 0;
  double elapsed_s = 0;
};

struct Done {
  Params params;
  Digest digest;
  bool read_back = false;
  Digest read_back_digest;
};

/// One job: load, run, write back, and every kReadBackEvery-th job read the
/// written table back. `execute` runs the sealed plan.
template <typename ExecuteFn>
Done RunJob(Env* env, const Params& p, int index, Samples* s, ExecuteFn&& execute) {
  Done done;
  done.params = p;
  const auto t0 = Clock::now();
  rheem::RheemJob job(env->ctx.get());
  auto plan = BuildPlan(&job, p, &s->load_us);
  if (!plan.ok()) Die("plan: " + plan.status().ToString());
  rheem::Result<rheem::ExecutionResult> result = execute(env, **plan);
  if (!result.ok()) Die("job: " + result.status().ToString());
  Expect(Timed("storage.put", &s->put_us,
               [&] {
                 return env->storage->Put("csv-files", "events_out",
                                          result->output);
               }),
         "write back");
  done.read_back = index % kReadBackEvery == kReadBackEvery - 1;
  std::shared_ptr<const Dataset> back;
  if (done.read_back) {
    rheem::RheemJob reader(env->ctx.get());
    auto loaded = Timed("storage.load", &s->load_us,
                        [&] { return reader.LoadFromStorage("events_out"); });
    if (!loaded.ok()) Die("read back: " + loaded.status().ToString());
    auto cached = env->ctx->hot_buffer()->Load("events_out");
    if (!cached.ok()) Die("read back: " + cached.status().ToString());
    back = *cached;
  }
  s->latency_ms.push_back(MicrosSince(t0) / 1e3);
  s->moved_bytes += result->metrics.moved_bytes;
  done.digest = DigestOf(result->output);
  if (back) done.read_back_digest = DigestOf(*back);
  return done;
}

rheem::Result<rheem::ExecutionResult> PlainExecute(Env* env, const rheem::Plan& plan) {
  return env->ctx->Execute(plan);
}

Env SetUp(const std::string& dir, const Dataset& events) {
  Env env = NewStorageContext(std::make_unique<rheem::storage::CsvStore>(dir),
                              {{"events", &events}});
  // Warm-up: the first jobs of a fresh context re-plan mid-job until the
  // statistics catalog has observed the pipeline's cardinalities.
  Samples warm;
  rheem::Rng rng(4242);
  for (int i = 0; i < kWarmUpJobs; ++i) {
    RunJob(&env, NextParams(&rng), i, &warm, PlainExecute);
  }
  return env;
}

/// Runs jobs back to back for `seconds`, adding them to `done`.
template <typename ExecuteFn>
void ClosedLoop(Env* env, rheem::Rng* rng, double seconds, Samples* s,
                std::vector<Done>* done, ExecuteFn&& execute) {
  const auto start = Clock::now();
  for (int i = 0; SecondsSince(start) < seconds; ++i) {
    done->push_back(RunJob(env, NextParams(rng), i, s, execute));
  }
  s->elapsed_s += SecondsSince(start);
}

void CheckAll(const std::vector<Done>& done, const Events& events, Report* report) {
  std::map<std::pair<double, int64_t>, Digest> refs;
  for (const Done& d : done) {
    const auto key = std::make_pair(d.params.lo, d.params.kind);
    if (!refs.count(key)) refs[key] = Reference(events, d.params);
    std::string diff = Compare(d.digest, refs[key]);
    if (diff.empty() && d.read_back) diff = Compare(d.read_back_digest, refs[key]);
    if (!diff.empty()) report->Mismatch("xplat_etl: " + diff);
  }
  report->attempted += static_cast<int64_t>(done.size());
}

}  // namespace

void RunXplatEtl(const Options& opt, Report* report) {
  const Events events = MakeEvents(opt.seed);
  const std::string dir = opt.work_dir + "/xplat_etl";
  Env env;
  std::vector<double> setup_s;
  {
    const Dataset events_ds = EventsDataset(events);
    for (int rep = 0; rep < 3; ++rep) {
      env.Reset();
      std::filesystem::remove_all(dir);
      const auto t0 = Clock::now();
      env = SetUp(dir, events_ds);
      setup_s.push_back(SecondsSince(t0));
    }
  }

  rheem::Rng rng(opt.seed * 0xC2B2AE3D27D4EB4Full + 17);
  const double rows_per_job = static_cast<double>(events.size());
  if (!opt.trace) {
    Samples s;
    std::vector<Done> done;
    ClosedLoop(&env, &rng, opt.seconds, &s, &done, PlainExecute);
    CheckAll(done, events, report);
    const auto n = static_cast<int64_t>(done.size());
    ReportSetup(setup_s, report);
    report->Metric("latency_p50_ms", Median(s.latency_ms), "ms", n);
    report->Note("latency_p99_ms", Quantile(s.latency_ms, 0.99), "ms", n);
    report->Metric("throughput_qps", static_cast<double>(n) / s.elapsed_s, "1/s", n);
    report->Metric("rows_per_s", rows_per_job * static_cast<double>(n) / s.elapsed_s,
                   "rows/s", n);
    report->Metric("peak_rss_mib", PeakRssMib(), "MiB", 1);
    env.Reset();
    std::filesystem::remove_all(dir);
    return;
  }

  // Traced run: alternating untraced and traced blocks; the traced ones
  // time the optimizer and the executor separately.
  Samples plain, s;
  std::vector<Done> plain_done, done;
  ExecuteSamples exec;
  Profile prof;
  AlternateBlocks(opt.seconds, &prof, [&](bool traced, double seconds) {
    if (!traced) {
      ClosedLoop(&env, &rng, seconds, &plain, &plain_done, PlainExecute);
      return;
    }
    ClosedLoop(&env, &rng, seconds, &s, &done, [&](Env* e, const rheem::Plan& plan) {
      return CompileAndExecute(e->ctx.get(), plan, &exec);
    });
  });
  CheckAll(plain_done, events, report);
  CheckAll(done, events, report);
  if (prof.Counter("executor.moved_bytes_total") != s.moved_bytes) {
    report->Mismatch("xplat_etl reconciliation: executor.moved_bytes_total " +
                     std::to_string(prof.Counter("executor.moved_bytes_total")) +
                     " != summed per-job moved_bytes " +
                     std::to_string(s.moved_bytes));
  }

  Layers layers;
  const auto jobs = static_cast<int64_t>(done.size());
  layers.SetMedian("optimizer.compile_us", exec.optimizer_us);
  layers.SetMedian("executor.execute_us", exec.execute_us);
  layers.SetMedian("storage.put_us", s.put_us);
  layers.SetMedian("storage.load_us", s.load_us);
  FillProgramLayers(prof, jobs, exec.edges, &layers);
  const double base = Median(plain.latency_ms);
  layers.Set("trace.overhead_frac", Ratio(Median(s.latency_ms) - base, base), jobs);
  layers.ReportTo(report);
  env.Reset();
  std::filesystem::remove_all(dir);
}

}  // namespace perfbench
