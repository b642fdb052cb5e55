// Shared pieces of the end-to-end benchmark: options, the result report,
// sample statistics, the traced-run profile (self time by span name) and
// counter deltas, and the seeded `orders` / `customers` tables together with
// the plain C++ reference the correctness oracle computes from them.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"
#include "core/api/context.h"
#include "data/dataset.h"
#include "storage/storage_plan.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory for the files a workload writes (xplat_etl's CSV tables).
  std::string work_dir;
};

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}
inline double MicrosSince(Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t).count();
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for no samples.
double Quantile(std::vector<double> values, double q);
double Median(const std::vector<double>& values);

/// VmHWM of this process in MiB.
double PeakRssMib();

/// What one run prints: a line per metric and note (value, unit, sample
/// count) and, last, the one-line JSON result object.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit,
              int64_t samples = 0);
  /// A value printed beside the metrics but left out of the JSON result,
  /// so no bound applies to it.
  void Note(const std::string& name, double value, const std::string& unit,
            int64_t samples);
  /// A wrong result or a reconciliation mismatch: the run fails.
  void Mismatch(const std::string& what);
  bool correct() const { return mismatches_.empty(); }

  int64_t attempted = 0;
  int64_t failed = 0;

  /// Prints everything; returns the process exit code.
  int Print(const std::string& workload) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    int64_t samples;
  };
  std::vector<Entry> metrics_, notes_;
  std::vector<std::string> mismatches_;
};

/// Median of `times` (seconds): the set-up time reported as `setup_s`.
void ReportSetup(const std::vector<double>& times, Report* report);

/// Per-layer view of the traced blocks of a run: counter and histogram
/// deltas, and the self time of every recorded span, summed over blocks.
class Profile {
 public:
  /// Turns the program's tracer and metrics registry on and takes the
  /// opening snapshot.
  void Begin();
  /// Takes the closing snapshot, adds this block's deltas and spans, and
  /// turns tracing and metrics off again.
  void End();

  int64_t Counter(const std::string& name) const;
  /// A gauge's value at the end of the last block.
  int64_t Gauge(const std::string& name) const;
  /// Interpolated quantile of a histogram's observations in the blocks.
  double HistogramQuantile(const std::string& name, double q) const;
  /// Summed self time (µs) of spans named `category:name`.
  double SelfMicros(const std::string& key) const;
  /// Durations (µs) of spans named `category:name`.
  std::vector<double> Durations(const std::string& key) const;

 private:
  rheem::MetricsSnapshot before_;
  std::map<std::string, int64_t> counters_, gauges_;
  std::map<std::string, rheem::MetricsSnapshot::HistogramValue> histograms_;
  std::map<std::string, double> self_us_;
  std::map<std::string, std::vector<double>> durations_;
};

/// The traced run's schedule: four blocks of a quarter of `seconds` each,
/// alternating untraced and traced, so that warm-up and drift fall on both
/// sides of trace.overhead_frac. `block(traced, seconds)` runs one block;
/// `prof` records the traced ones.
template <typename Block>
void AlternateBlocks(double seconds, Profile* prof, Block&& block) {
  for (int i = 0; i < 4; ++i) {
    const bool traced = i % 2 == 1;
    if (traced) prof->Begin();
    block(traced, seconds / 4);
    if (traced) prof->End();
  }
}

/// The per-layer metrics of a traced run, reported in one fixed order. Every
/// workload reports every one; a layer the workload leaves idle reads 0.
class Layers {
 public:
  void Set(const std::string& name, double value, int64_t samples);
  /// Median of `samples_us` under `name`.
  void SetMedian(const std::string& name, const std::vector<double>& samples_us);
  void ReportTo(Report* report) const;

 private:
  std::map<std::string, std::pair<double, int64_t>> values_;
};

/// Fills the layers read from the program's own spans and counters:
/// optimizer phases, executor, kernels, data conversions and platforms,
/// each per job over `jobs` jobs. `edges` is the number of cross-platform
/// edges in those jobs' compiled plans (0 when the benchmark did not
/// compile them itself).
void FillProgramLayers(const Profile& prof, int64_t jobs, int64_t edges,
                       Layers* layers);

/// Benchmark-side timings of RheemContext::Execute's two halves.
struct ExecuteSamples {
  std::vector<double> optimizer_us;  // RheemContext::Compile
  std::vector<double> execute_us;    // CrossPlatformExecutor::Execute
  /// Cross-platform (producer, consumer platform) edges of the compiled
  /// plans, summed over jobs.
  int64_t edges = 0;
};

/// What RheemContext::Execute does, split so each half is timed: compile,
/// then run the stages on an executor configured as the context does.
rheem::Result<rheem::ExecutionResult> CompileAndExecute(
    rheem::RheemContext* ctx, const rheem::Plan& plan, ExecuteSamples* samples);

/// Times one call into the program as a benchmark-side span (category
/// "bench") and appends its wall time in µs to `samples`.
template <typename F>
auto Timed(const std::string& span, std::vector<double>* samples, F&& call) {
  rheem::TraceSpan s(span, "bench");
  const auto t0 = Clock::now();
  auto result = call();
  samples->push_back(MicrosSince(t0));
  return result;
}

/// a / b, or 0 when b is 0 (an idle layer).
inline double Ratio(double a, double b) { return b == 0 ? 0 : a / b; }

/// Relative floating-point agreement for sums the program may add up in a
/// different order than the reference.
bool Near(double got, double want);

// --- the seeded tables --------------------------------------------------------

extern const char* const kRegions[4];
constexpr int kCustomers = 1000;
constexpr int kTiers = 5;
constexpr int kDays = 365;

/// `orders(id, customer, region, day, qty, amount)`: ids 0..n-1; amounts
/// are distinct, so ORDER BY amount has no ties.
struct Orders {
  std::vector<int64_t> customer, region, day, qty;
  std::vector<double> amount;
  std::size_t size() const { return amount.size(); }
};
Orders MakeOrders(std::size_t rows, uint64_t seed);
rheem::Dataset OrdersDataset(const Orders& o);

/// `customers(id, name, tier)`: ids 0..kCustomers-1.
std::vector<int64_t> MakeTiers(uint64_t seed);
rheem::Dataset CustomersDataset(const std::vector<int64_t>& tiers);

/// One reference group: key -> (row count, summed amount).
struct Group {
  int64_t count = 0;
  double sum = 0;
};
using Groups = std::map<int64_t, Group>;

/// Checks rows (key, sum, count) against `want`, matching counts exactly and
/// sums within Near(). With `key_is_region` the key column holds a region
/// name, matched to its index in kRegions. Returns "" or the first
/// difference.
std::string CheckGroups(const rheem::Dataset& got, const Groups& want,
                        bool key_is_region);

/// An operation the workload relies on failed outright (not a wrong
/// result): prints `what` and exits non-zero without a result line.
[[noreturn]] void Die(const std::string& what);

/// Die()s unless `st` is OK.
void Expect(const rheem::Status& st, const std::string& what);

/// A context with the default platforms and an attached storage layer.
struct StorageContext {
  std::unique_ptr<rheem::storage::StorageManager> storage;
  std::unique_ptr<rheem::RheemContext> ctx;

  /// Tears down the context first: its hot buffer observes the manager.
  void Reset() {
    ctx.reset();
    storage.reset();
  }
};

/// Registers `backend`, writes each (name, data) table to it through the
/// manager, then creates the context and attaches the storage.
StorageContext NewStorageContext(
    std::unique_ptr<rheem::storage::StorageBackend> backend,
    const std::vector<std::pair<std::string, const rheem::Dataset*>>& tables);

void RunServeSql(const Options& opt, Report* report);
void RunBatchSql(const Options& opt, Report* report);
void RunXplatEtl(const Options& opt, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
