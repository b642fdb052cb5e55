#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <unordered_map>

#include "common/rng.h"
#include "data/schema.h"

namespace perfbench {

using rheem::Dataset;
using rheem::Record;
using rheem::Value;

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& values) { return Quantile(values, 0.5); }

double PeakRssMib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit, int64_t samples) {
  metrics_.push_back({name, std::isfinite(value) ? value : 0, unit, samples});
}

void Report::Note(const std::string& name, double value,
                  const std::string& unit, int64_t samples) {
  notes_.push_back({name, std::isfinite(value) ? value : 0, unit, samples});
}

void Report::Mismatch(const std::string& what) {
  std::fprintf(stderr, "MISMATCH: %s\n", what.c_str());
  mismatches_.push_back(what);
}

int Report::Print(const std::string& workload) const {
  for (const auto* entries : {&metrics_, &notes_}) {
    for (const Entry& m : *entries) {
      std::printf("%-12s %-36s %16.6f %-8s n=%lld\n", workload.c_str(),
                  m.name.c_str(), m.value, m.unit.c_str(),
                  static_cast<long long>(m.samples));
    }
  }
  std::printf("%-12s %-36s %16.6f %-8s attempted=%lld failed=%lld\n",
              workload.c_str(), "failed_frac",
              Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
              "ratio", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
    if (i > 0) json += ", ";
    json += "\"" + metrics_[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct() && attempted > 0 ? 0 : 1;
}

void ReportSetup(const std::vector<double>& times, Report* report) {
  report->Metric("setup_s", Median(times), "s",
                 static_cast<int64_t>(times.size()));
}

void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::fflush(stderr);
  std::_Exit(2);
}

void Expect(const rheem::Status& st, const std::string& what) {
  if (!st.ok()) Die(what + ": " + st.ToString());
}

StorageContext NewStorageContext(
    std::unique_ptr<rheem::storage::StorageBackend> backend,
    const std::vector<std::pair<std::string, const Dataset*>>& tables) {
  StorageContext env;
  env.storage = std::make_unique<rheem::storage::StorageManager>();
  const std::string name = backend->name();
  Expect(env.storage->RegisterBackend(std::move(backend)), "register backend");
  for (const auto& [table, data] : tables) {
    Expect(env.storage->Put(name, table, *data), "put " + table);
  }
  env.ctx = std::make_unique<rheem::RheemContext>();
  Expect(env.ctx->RegisterDefaultPlatforms(), "register platforms");
  Expect(env.ctx->AttachStorage(env.storage.get()), "attach storage");
  return env;
}

// --- Profile --------------------------------------------------------------------

void Profile::Begin() {
  rheem::Tracer::Global().Clear();
  rheem::Tracer::Global().set_enabled(true);
  rheem::MetricsRegistry::Global().set_enabled(true);
  before_ = rheem::MetricsRegistry::Global().Snapshot();
}

void Profile::End() {
  const rheem::MetricsSnapshot after = rheem::MetricsRegistry::Global().Snapshot();
  rheem::Tracer::Global().set_enabled(false);
  rheem::MetricsRegistry::Global().set_enabled(false);
  for (const auto& [name, value] : after.counters) {
    counters_[name] += value - before_.counter(name);
  }
  gauges_ = after.gauges;
  for (const auto& [name, h] : after.histograms) {
    auto& acc = histograms_[name];
    if (acc.bounds.empty()) {
      acc.bounds = h.bounds;
      acc.cumulative.assign(h.cumulative.size(), 0);
    }
    auto b = before_.histograms.find(name);
    for (std::size_t i = 0; i < h.cumulative.size(); ++i) {
      acc.cumulative[i] += h.cumulative[i] -
                           (b == before_.histograms.end() ? 0 : b->second.cumulative[i]);
    }
    acc.count += h.count - (b == before_.histograms.end() ? 0 : b->second.count);
  }

  const std::vector<rheem::SpanRecord> spans = rheem::Tracer::Global().Spans();
  rheem::Tracer::Global().Clear();
  // Self time: a span's duration minus the union of its children's
  // intervals (children may overlap when they ran on pool threads).
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> kids;
  for (const auto& s : spans) {
    if (s.closed() && s.parent_id != 0) {
      kids[s.parent_id].push_back({s.start_micros, s.end_micros});
    }
  }
  for (const auto& s : spans) {
    if (!s.closed()) continue;
    const std::string key = s.category + ":" + s.name;
    const int64_t duration = s.end_micros - s.start_micros;
    int64_t covered = 0;
    auto it = kids.find(s.id);
    if (it != kids.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      int64_t cur_lo = 0, cur_hi = -1;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start_micros);
        hi = std::min(hi, s.end_micros);
        if (hi <= lo) continue;
        if (lo > cur_hi) {
          if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    }
    self_us_[key] += static_cast<double>(duration - covered);
    durations_[key].push_back(static_cast<double>(duration));
  }
}

int64_t Profile::Counter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

int64_t Profile::Gauge(const std::string& name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0 : it->second;
}

double Profile::HistogramQuantile(const std::string& name, double q) const {
  auto it = histograms_.find(name);
  if (it == histograms_.end() || it->second.count <= 0) return 0;
  const std::vector<int64_t>& bounds = it->second.bounds;
  const std::vector<int64_t>& cumulative = it->second.cumulative;
  const double rank = q * static_cast<double>(it->second.count);
  for (std::size_t i = 0; i < cumulative.size(); ++i) {
    if (static_cast<double>(cumulative[i]) < rank) continue;
    // Interpolate inside bucket i, between its lower and upper bound.
    const double lo = i == 0 ? 0 : static_cast<double>(bounds[i - 1]);
    if (i >= bounds.size()) return lo;  // +Inf bucket: its lower bound
    const double hi = static_cast<double>(bounds[i]);
    const double below = i == 0 ? 0 : static_cast<double>(cumulative[i - 1]);
    const double in_bucket = static_cast<double>(cumulative[i]) - below;
    return lo + (hi - lo) * Ratio(rank - below, in_bucket);
  }
  return static_cast<double>(bounds.back());
}

double Profile::SelfMicros(const std::string& key) const {
  auto it = self_us_.find(key);
  return it == self_us_.end() ? 0 : it->second;
}

std::vector<double> Profile::Durations(const std::string& key) const {
  auto it = durations_.find(key);
  return it == durations_.end() ? std::vector<double>() : it->second;
}

// --- Layers -----------------------------------------------------------------------

namespace {
struct LayerMetric {
  const char* name;
  const char* unit;
};
// Keep in step with "per_layer" in BENCHMARK.json.
constexpr LayerMetric kLayerMetrics[] = {
    {"net.submit_us", "us"},
    {"net.fetch_us", "us"},
    {"net.polls_per_job", "count"},
    {"net.bytes_per_row", "B/row"},
    {"service.queue_wait_p50_us", "us"},
    {"service.queue_wait_p99_us", "us"},
    {"service.job_us", "us"},
    {"service.plan_cache_hit_ratio", "ratio"},
    {"service.result_cache_hit_ratio", "ratio"},
    {"service.result_cache_mib", "MiB"},
    {"service.refused", "count"},
    {"sql.parse_us", "us"},
    {"sql.compile_us", "us"},
    {"optimizer.fingerprint_us", "us"},
    {"optimizer.compile_us", "us"},
    {"optimizer.translate_us", "us"},
    {"optimizer.rewrite_us", "us"},
    {"optimizer.estimate_us", "us"},
    {"optimizer.enumerate_us", "us"},
    {"optimizer.split_stages_us", "us"},
    {"optimizer.stats_hit_ratio", "ratio"},
    {"executor.execute_us", "us"},
    {"executor.stage_us", "us"},
    {"executor.self_us", "us"},
    {"executor.moved_mib_per_job", "MiB"},
    {"executor.conversions_per_edge", "ratio"},
    {"executor.reoptimizations_per_job", "count"},
    {"kernels.records_in_per_job", "count"},
    {"kernels.morsels_per_job", "count"},
    {"data.vectorized_share", "ratio"},
    {"data.batch_conversions_per_job", "count"},
    {"platforms.javasim.chain_us", "us"},
    {"platforms.sparksim.chain_us", "us"},
    {"platforms.sparksim.task_us", "us"},
    {"platforms.sparksim.tasks_per_job", "count"},
    {"storage.put_us", "us"},
    {"storage.load_us", "us"},
    {"storage.hot_hit_ratio", "ratio"},
    {"gen.late_p99_ms", "ms"},
    {"trace.overhead_frac", "ratio"},
};
}  // namespace

void Layers::Set(const std::string& name, double value, int64_t samples) {
  values_[name] = {value, samples};
}

void Layers::SetMedian(const std::string& name,
                       const std::vector<double>& samples_us) {
  Set(name, Median(samples_us), static_cast<int64_t>(samples_us.size()));
}

void Layers::ReportTo(Report* report) const {
  for (const LayerMetric& m : kLayerMetrics) {
    auto it = values_.find(m.name);
    if (it == values_.end()) {
      report->Metric(m.name, 0, m.unit, 0);
    } else {
      report->Metric(m.name, it->second.first, m.unit, it->second.second);
    }
  }
  for (const auto& [name, value] : values_) {
    bool listed = false;
    for (const LayerMetric& m : kLayerMetrics) listed |= name == m.name;
    if (!listed) Die("per-layer metric '" + name + "' is not listed");
  }
}

void FillProgramLayers(const Profile& prof, int64_t jobs, int64_t edges,
                       Layers* layers) {
  const double n = static_cast<double>(std::max<int64_t>(jobs, 1));
  auto per_job = [&](const char* name, double total) {
    layers->Set(name, total / n, jobs);
  };
  auto count = [&](const char* counter) {
    return static_cast<double>(prof.Counter(counter));
  };
  for (const char* phase :
       {"translate", "rewrite", "estimate", "enumerate", "split_stages"}) {
    per_job(("optimizer." + std::string(phase) + "_us").c_str(),
            prof.SelfMicros(std::string("optimizer:") + phase));
  }
  const double stats_hits = count("stats_catalog.hits");
  layers->Set("optimizer.stats_hit_ratio",
              Ratio(stats_hits, stats_hits + count("stats_catalog.misses")),
              static_cast<int64_t>(stats_hits + count("stats_catalog.misses")));
  per_job("executor.stage_us", prof.SelfMicros("executor:stage"));
  per_job("executor.self_us", prof.SelfMicros("executor:execute"));
  per_job("executor.moved_mib_per_job",
          count("executor.moved_bytes_total") / (1 << 20));
  layers->Set("executor.conversions_per_edge",
              Ratio(count("executor.boundary_cache_misses"),
                    static_cast<double>(edges)),
              edges);
  per_job("executor.reoptimizations_per_job",
          count("executor.reoptimizations_total"));
  per_job("kernels.records_in_per_job", count("kernels.records_in"));
  per_job("kernels.morsels_per_job", count("kernels.morsels_executed"));
  layers->Set("data.vectorized_share",
              Ratio(count("batch.rows_vectorized_total"),
                    count("kernels.records_in")),
              jobs);
  per_job("data.batch_conversions_per_job", count("batch.conversions_total"));
  per_job("platforms.javasim.chain_us", prof.SelfMicros("javasim:chain"));
  per_job("platforms.sparksim.chain_us", prof.SelfMicros("sparksim:chain"));
  per_job("platforms.sparksim.task_us", prof.SelfMicros("sparksim:task"));
  per_job("platforms.sparksim.tasks_per_job", count("sparksim.tasks_launched"));
  const double hot_hits = count("hot_buffer.hits");
  layers->Set("storage.hot_hit_ratio",
              Ratio(hot_hits, hot_hits + count("hot_buffer.misses")),
              static_cast<int64_t>(hot_hits + count("hot_buffer.misses")));
}

rheem::Result<rheem::ExecutionResult> CompileAndExecute(
    rheem::RheemContext* ctx, const rheem::Plan& plan, ExecuteSamples* samples) {
  auto compiled = Timed("optimizer.compile", &samples->optimizer_us,
                        [&] { return ctx->Compile(plan); });
  if (!compiled.ok()) return compiled.status();
  std::set<std::pair<int, std::string>> edges;
  for (const rheem::Stage& stage : compiled->eplan.stages) {
    for (const rheem::Operator* producer : stage.boundary_inputs()) {
      const rheem::Platform* from =
          compiled->eplan.assignment.by_op.at(producer->id());
      if (from != stage.platform()) {
        edges.insert({producer->id(), stage.platform()->name()});
      }
    }
  }
  samples->edges += static_cast<int64_t>(edges.size());
  rheem::CrossPlatformExecutor executor(ctx->config());
  executor.EnableFailover(&ctx->platforms(), &ctx->movement_model());
  executor.set_stats_catalog(ctx->stats_catalog());
  return Timed("executor.execute", &samples->execute_us,
               [&] { return executor.Execute(compiled->eplan); });
}

bool Near(double got, double want) {
  return std::fabs(got - want) <= 1e-7 * std::max(1.0, std::fabs(want));
}

// --- tables -----------------------------------------------------------------------

const char* const kRegions[4] = {"east", "north", "south", "west"};

Orders MakeOrders(std::size_t rows, uint64_t seed) {
  rheem::Rng rng(seed * 0x9E3779B97F4A7C15ull + 11);
  Orders o;
  o.customer.resize(rows);
  o.region.resize(rows);
  o.day.resize(rows);
  o.qty.resize(rows);
  o.amount.resize(rows);
  // amount = ((id * a + b) mod P) / 100 with P prime > rows and a coprime
  // to P: a seeded permutation, so no two orders share an amount.
  constexpr uint64_t kPrime = 1000003;
  const uint64_t a = 1 + rng.NextBounded(kPrime - 1);
  const uint64_t b = rng.NextBounded(kPrime);
  for (std::size_t i = 0; i < rows; ++i) {
    o.customer[i] = static_cast<int64_t>(rng.NextBounded(kCustomers));
    o.region[i] = static_cast<int64_t>(rng.NextBounded(4));
    o.day[i] = static_cast<int64_t>(rng.NextBounded(kDays));
    o.qty[i] = 1 + static_cast<int64_t>(rng.NextBounded(50));
    o.amount[i] = static_cast<double>((i * a + b) % kPrime) / 100.0;
  }
  return o;
}

Dataset OrdersDataset(const Orders& o) {
  std::vector<Record> rows;
  rows.reserve(o.size());
  for (std::size_t i = 0; i < o.size(); ++i) {
    rows.push_back(Record({Value(static_cast<int64_t>(i)), Value(o.customer[i]),
                           Value(kRegions[o.region[i]]), Value(o.day[i]),
                           Value(o.qty[i]), Value(o.amount[i])}));
  }
  using rheem::ValueType;
  return Dataset(std::move(rows),
                 rheem::Schema::Of({{"id", ValueType::kInt64},
                                    {"customer", ValueType::kInt64},
                                    {"region", ValueType::kString},
                                    {"day", ValueType::kInt64},
                                    {"qty", ValueType::kInt64},
                                    {"amount", ValueType::kDouble}}));
}

std::vector<int64_t> MakeTiers(uint64_t seed) {
  rheem::Rng rng(seed * 0xD1B54A32D192ED03ull + 7);
  std::vector<int64_t> tiers(kCustomers);
  for (auto& t : tiers) t = static_cast<int64_t>(rng.NextBounded(kTiers));
  return tiers;
}

Dataset CustomersDataset(const std::vector<int64_t>& tiers) {
  std::vector<Record> rows;
  rows.reserve(tiers.size());
  for (std::size_t i = 0; i < tiers.size(); ++i) {
    rows.push_back(Record({Value(static_cast<int64_t>(i)),
                           Value("customer-" + std::to_string(i)),
                           Value(tiers[i])}));
  }
  using rheem::ValueType;
  return Dataset(std::move(rows),
                 rheem::Schema::Of({{"id", ValueType::kInt64},
                                    {"name", ValueType::kString},
                                    {"tier", ValueType::kInt64}}));
}

std::string CheckGroups(const Dataset& got, const Groups& want,
                        bool key_is_region) {
  if (got.size() != want.size()) {
    return "expected " + std::to_string(want.size()) + " groups, got " +
           std::to_string(got.size());
  }
  Groups seen;
  for (const Record& r : got.records()) {
    if (r.size() != 3) return "group row has " + std::to_string(r.size()) + " columns";
    int64_t key = -1;
    if (key_is_region) {
      for (int i = 0; i < 4; ++i) {
        if (r[0].type() == rheem::ValueType::kString &&
            r[0].string_unchecked() == kRegions[i]) {
          key = i;
        }
      }
    } else {
      key = r[0].ToInt64Or(-1);
    }
    if (!want.count(key) || seen.count(key)) {
      return "unexpected group key " + r[0].ToString();
    }
    seen[key] = Group{r[2].ToInt64Or(-1), r[1].ToDoubleOr(-1)};
  }
  for (const auto& [key, g] : want) {
    const Group& s = seen[key];
    if (s.count != g.count || !Near(s.sum, g.sum)) {
      return "group " + std::to_string(key) + ": got count " +
             std::to_string(s.count) + " sum " + std::to_string(s.sum) +
             ", want " + std::to_string(g.count) + " / " + std::to_string(g.sum);
    }
  }
  return "";
}

}  // namespace perfbench
