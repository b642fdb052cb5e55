#include "core/executor/executor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/csv.h"
#include "common/fault.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "core/executor/execution_state.h"
#include "core/executor/result_cache.h"
#include "core/operators/physical_ops.h"
#include "core/optimizer/cardinality.h"
#include "core/optimizer/cost_model.h"
#include "core/optimizer/enumerator.h"
#include "core/optimizer/stats_catalog.h"
#include "data/serialization.h"

namespace rheem {

namespace {

/// Dynamic DAG scheduler: dispatches every stage whose upstream stages have
/// completed onto `pool`, tracking readiness with indegree counts. The
/// calling thread coordinates and blocks; stage bodies run on pool workers.
/// On the first stage failure no further stages start, but in-flight stages
/// are awaited before returning (their state references live on this frame).
/// `soft_stop` (optional) is polled before each dispatch: once it returns
/// true no further stages start and the round ends *successfully* after the
/// in-flight stages drain — progressive re-optimization uses this to cut a
/// round short without discarding completed work.
Status RunStagesDag(const std::vector<Stage>& stages, ThreadPool* pool,
                    const std::function<Status(const Stage&)>& run_stage,
                    const std::function<bool()>& soft_stop = nullptr) {
  const std::size_t n = stages.size();
  std::map<int, std::size_t> index_of;
  for (std::size_t i = 0; i < n; ++i) index_of[stages[i].id()] = i;

  std::vector<std::vector<std::size_t>> dependents(n);
  std::vector<std::size_t> indegree(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (int up : stages[i].upstream_stages()) {
      auto it = index_of.find(up);
      if (it == index_of.end()) {
        return Status::InvalidPlan("stage " + std::to_string(stages[i].id()) +
                                   " depends on unknown stage " +
                                   std::to_string(up));
      }
      dependents[it->second].push_back(i);
      ++indegree[i];
    }
  }

  struct Ctl {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<std::size_t> ready;
    std::size_t in_flight = 0;
    std::size_t completed = 0;
    bool failed = false;
    Status error;
  };
  Ctl ctl;
  for (std::size_t i = 0; i < n; ++i) {
    if (indegree[i] == 0) ctl.ready.push_back(i);
  }

  std::unique_lock<std::mutex> lk(ctl.mu);
  for (;;) {
    const bool stopping = soft_stop != nullptr && soft_stop();
    if (!ctl.failed && !stopping && !ctl.ready.empty()) {
      const std::size_t idx = ctl.ready.front();
      ctl.ready.pop_front();
      ++ctl.in_flight;
      lk.unlock();
      auto task = [&ctl, &stages, &dependents, &indegree, &run_stage, idx]() {
        Status st = run_stage(stages[idx]);
        std::lock_guard<std::mutex> g(ctl.mu);
        --ctl.in_flight;
        ++ctl.completed;
        if (!st.ok()) {
          if (!ctl.failed) {
            ctl.failed = true;
            ctl.error = std::move(st);
          }
        } else {
          for (std::size_t d : dependents[idx]) {
            if (--indegree[d] == 0) ctl.ready.push_back(d);
          }
        }
        ctl.cv.notify_all();
      };
      // A shut-down pool cannot carry the task; run it inline to keep the
      // job making (serial) progress.
      if (!pool->Schedule(task)) task();
      lk.lock();
      continue;
    }
    if (ctl.in_flight == 0) {
      if (ctl.failed) return ctl.error;
      if (ctl.completed == n) return Status::OK();
      // Soft-stopped with work left: a successful partial round — the
      // caller re-plans the remainder.
      if (stopping) return Status::OK();
      // Nothing running, nothing ready, not done: the stage graph is cyclic.
      return Status::Internal("stage scheduler stalled on a cyclic graph");
    }
    ctl.cv.wait(lk);
  }
}

/// EXPLAIN ANALYZE-style text: one line per stage attempt (in stage/attempt
/// order regardless of the concurrent completion order), failover events,
/// and job totals.
/// Joined declarative payloads of the stage's operators, for the report and
/// the per-attempt trace span; "" when every UDF is a closure.
std::string StageDeclarativeDetail(const Stage& stage) {
  std::string out;
  for (const Operator* op : stage.ops()) {
    auto* phys = dynamic_cast<const PhysicalOperator*>(op);
    if (phys == nullptr) continue;
    const std::string detail = DeclarativeDetail(*phys);
    if (detail.empty()) continue;
    if (!out.empty()) out += "; ";
    out += detail;
  }
  return out;
}

std::string BuildExecutionReport(
    std::vector<ExecutionMonitor::StageRecord> records,
    const ExecutionMetrics& metrics,
    const std::vector<std::string>& failover_notes,
    const std::vector<std::string>& reopt_notes) {
  std::sort(records.begin(), records.end(),
            [](const ExecutionMonitor::StageRecord& a,
               const ExecutionMonitor::StageRecord& b) {
              if (a.stage_id != b.stage_id) return a.stage_id < b.stage_id;
              return a.attempt < b.attempt;
            });
  std::ostringstream os;
  os << "EXPLAIN ANALYZE  stages=" << metrics.stages_run
     << " retries=" << metrics.retries << " wall=" << metrics.wall_micros
     << "us sim=" << metrics.sim_overhead_micros << "us\n";
  for (const auto& r : records) {
    os << "  stage " << r.stage_id << " [" << r.platform << "] attempt "
       << r.attempt << "  "
       << (r.succeeded ? (r.error.empty() ? "ok" : r.error.c_str()) : "FAILED")
       << "  wall=" << r.wall_micros << "us rows=" << r.output_records;
    if (!r.ops_detail.empty()) os << "  [" << r.ops_detail << "]";
    if (!r.succeeded && !r.error.empty()) os << "  error: " << r.error;
    os << "\n";
  }
  for (const std::string& note : failover_notes) {
    os << "  failover: " << note << "\n";
  }
  for (const std::string& note : reopt_notes) {
    os << "  re-optimized: " << note << "\n";
  }
  os << "  totals: moved_records=" << metrics.moved_records
     << " moved_bytes=" << metrics.moved_bytes
     << " shuffle_bytes=" << metrics.shuffle_bytes
     << " tasks_launched=" << metrics.tasks_launched
     << " fused_operators=" << metrics.fused_operators
     << " stages_reused=" << metrics.stages_reused
     << " conversions_reused=" << metrics.boundary_conversions_reused
     << " failovers=" << metrics.failovers
     << " reoptimizations=" << metrics.reoptimizations << "\n";
  return os.str();
}

uint64_t Fnv1a(std::string_view s) {
  uint64_t h = 1469598103934665603ull;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

// Checkpoint framing: a magic + checksum header so torn or bit-rotted files
// are detected on restore and re-executed instead of silently feeding the
// job corrupt data. 16 lowercase-hex digits of FNV-1a over the payload.
constexpr char kCheckpointMagic[] = "RCKP1";
constexpr std::size_t kCheckpointMagicLen = 5;
constexpr std::size_t kCheckpointChecksumLen = 16;

std::string EncodeCheckpoint(const std::string& payload) {
  char checksum[kCheckpointChecksumLen + 1];
  std::snprintf(checksum, sizeof(checksum), "%016llx",
                static_cast<unsigned long long>(Fnv1a(payload)));
  std::string framed;
  framed.reserve(kCheckpointMagicLen + kCheckpointChecksumLen +
                 payload.size());
  framed.append(kCheckpointMagic, kCheckpointMagicLen);
  framed.append(checksum, kCheckpointChecksumLen);
  framed.append(payload);
  return framed;
}

Result<std::string> DecodeCheckpoint(const std::string& framed) {
  constexpr std::size_t header = kCheckpointMagicLen + kCheckpointChecksumLen;
  if (framed.size() < header ||
      framed.compare(0, kCheckpointMagicLen, kCheckpointMagic) != 0) {
    return Status::IoError("checkpoint missing RCKP1 header");
  }
  std::string payload = framed.substr(header);
  char expect[kCheckpointChecksumLen + 1];
  std::snprintf(expect, sizeof(expect), "%016llx",
                static_cast<unsigned long long>(Fnv1a(payload)));
  if (framed.compare(kCheckpointMagicLen, kCheckpointChecksumLen, expect) !=
      0) {
    return Status::IoError("checkpoint checksum mismatch (torn write?)");
  }
  return payload;
}

/// Exponential backoff before retry `attempt` (>= 1): base * 2^(attempt-1),
/// capped. Deadline-aware: refuses to start a sleep that would cross the
/// job deadline, and polls the cancel token in ~1ms slices so cancellation
/// fires promptly instead of after the full backoff.
Status BackoffBeforeRetry(int attempt, int64_t base_us, int64_t cap_us,
                          const StopCondition& stop) {
  if (base_us <= 0) return stop.Check();
  const int shift = std::min(attempt - 1, 20);
  const int64_t delay_us = std::min(base_us << shift, std::max(base_us, cap_us));
  const auto wake =
      std::chrono::steady_clock::now() + std::chrono::microseconds(delay_us);
  if (stop.has_deadline && wake > stop.deadline) {
    return Status::DeadlineExceeded(
        "retry backoff of " + std::to_string(delay_us) +
        "us would cross the job deadline");
  }
  for (;;) {
    RHEEM_RETURN_IF_ERROR(stop.Check());
    const auto now = std::chrono::steady_clock::now();
    if (now >= wake) return Status::OK();
    std::this_thread::sleep_for(
        std::min<std::chrono::steady_clock::duration>(
            std::chrono::milliseconds(1), wake - now));
  }
}

}  // namespace

CrossPlatformExecutor::CrossPlatformExecutor(Config config)
    : config_(std::move(config)) {
  ApplyObservabilityConfig(config_);
  ApplyFaultConfig(config_);
}

Result<ExecutionResult> CrossPlatformExecutor::Execute(
    const ExecutionPlan& eplan) {
  if (eplan.plan == nullptr || eplan.stages.empty()) {
    return Status::InvalidPlan("empty execution plan");
  }
  RHEEM_ASSIGN_OR_RETURN(int64_t max_retries,
                         config_.GetInt("executor.max_retries", 2));
  RHEEM_ASSIGN_OR_RETURN(int64_t backoff_base_us,
                         config_.GetInt("executor.retry_backoff_us", 1000));
  RHEEM_ASSIGN_OR_RETURN(
      int64_t backoff_cap_us,
      config_.GetInt("executor.retry_backoff_max_us", 250000));
  RHEEM_ASSIGN_OR_RETURN(int64_t failover_threshold,
                         config_.GetInt("executor.failover_threshold", 3));
  RHEEM_ASSIGN_OR_RETURN(int64_t max_failovers,
                         config_.GetInt("executor.max_failovers", 2));
  RHEEM_ASSIGN_OR_RETURN(bool serialize_boundaries,
                         config_.GetBool("executor.serialize_boundaries", true));
  RHEEM_ASSIGN_OR_RETURN(bool parallel_stages,
                         config_.GetBool("executor.parallel_stages", true));
  RHEEM_ASSIGN_OR_RETURN(std::string checkpoint_dir,
                         config_.GetString("executor.checkpoint_dir", ""));
  RHEEM_ASSIGN_OR_RETURN(std::string job_id,
                         config_.GetString("executor.job_id", "job"));
  RHEEM_ASSIGN_OR_RETURN(
      double reopt_threshold,
      config_.GetDouble("executor.reoptimize_threshold", 3.0));
  RHEEM_ASSIGN_OR_RETURN(int64_t max_reoptimizations,
                         config_.GetInt("executor.max_reoptimizations", 2));
  // Validate at submit time: a threshold <= 1.0 can never be exceeded by
  // the symmetric error ratio (always >= 1), and a negative budget is a
  // sign of a config typo — both used to silently disable re-optimization.
  if (reopt_threshold <= 1.0) {
    return Status::InvalidArgument(
        "executor.reoptimize_threshold must be > 1.0 (got " +
        std::to_string(reopt_threshold) + ")");
  }
  if (max_reoptimizations < 0) {
    return Status::InvalidArgument(
        "executor.max_reoptimizations must be >= 0 (got " +
        std::to_string(max_reoptimizations) + ")");
  }
  if (!checkpoint_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(checkpoint_dir, ec);
  }
  auto checkpoint_path = [&](int op_id) {
    return checkpoint_dir + "/" + job_id + "_op" + std::to_string(op_id) +
           ".bin";
  };
  const bool failover_armed =
      registry_ != nullptr && movement_ != nullptr && max_failovers > 0;
  // Progressive re-optimization (paper §4.2 feedback edge): armed when the
  // executor can re-plan (registry + movement model), the plan carries its
  // compile-time estimates (RheemContext::Compile populates them), and no
  // platform was forced — a forced plan has no alternatives to re-enumerate.
  const bool reopt_armed =
      registry_ != nullptr && movement_ != nullptr &&
      max_reoptimizations > 0 && !eplan.estimates.empty() &&
      eplan.enum_options.force_platform.empty();

  // Observability: the `execute` span parents every stage attempt span (the
  // job-level span, when running under the JobServer, is already on this
  // thread's span stack). Counter pointers are resolved once per job; the
  // per-stage increments are relaxed-atomic adds gated on `metrics.enabled`.
  TraceSpan exec_span("execute", "executor");
  exec_span.AddTag("stages", static_cast<int64_t>(eplan.stages.size()));
  const uint64_t exec_span_id = exec_span.id();
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter* stages_counter = registry.counter("executor.stages_total");
  Counter* attempts_counter = registry.counter("executor.stage_attempts_total");
  Counter* retries_counter = registry.counter("executor.retries_total");
  Counter* failures_counter = registry.counter("executor.stage_failures_total");
  Counter* restored_counter = registry.counter("executor.stages_restored_total");
  Counter* corrupt_counter =
      registry.counter("executor.checkpoints_corrupt_total");
  Counter* failovers_counter = registry.counter("executor.failovers_total");
  Counter* reopts_counter =
      registry.counter("executor.reoptimizations_total");
  Counter* moved_records_counter = registry.counter("executor.moved_records_total");
  Counter* moved_bytes_counter = registry.counter("executor.moved_bytes_total");
  Counter* reused_counter = registry.counter("result_cache.stages_skipped");
  Counter* boundary_hits_counter =
      registry.counter("executor.boundary_cache_hits");
  Counter* boundary_misses_counter =
      registry.counter("executor.boundary_cache_misses");
  Histogram* stage_wall_histogram =
      registry.histogram("executor.stage_wall_us", DefaultLatencyBoundsMicros());
  CountIfEnabled(registry.counter("executor.jobs_total"), 1);

  ExecutionState state;
  ExecutionMetrics metrics;
  metrics.jobs_run += 1;

  // Every stage attempt's record, for the EXPLAIN ANALYZE report (kept even
  // when no external monitor is attached). Guarded by `mu` below.
  std::vector<ExecutionMonitor::StageRecord> report_records;
  const bool want_report = registry.enabled();

  // Guards `state`, `metrics`, the conversion cache, platform health and the
  // per-round consumer counts when stages run concurrently. Datasets
  // borrowed from `state` stay valid while held: a stage's inputs keep a
  // positive consumer count until the stage finishes, and ExecutionState
  // holds shared const datasets, so unrelated Put/Evict don't move them.
  std::mutex mu;

  // Per-job boundary-conversion cache: one encode/decode per
  // (producer, target platform) edge no matter how many consumer stages
  // share it. Movement totals are charged exactly once per edge, in both
  // the serialized and the approximated (non-serialized) path. Both maps
  // survive failover re-plans — their keys are op-id/platform pairs, which
  // a re-enumeration does not invalidate.
  std::map<std::pair<int, std::string>, std::shared_ptr<const Dataset>>
      conversion_cache;                              // guarded by `mu`
  // One mutex per crossing edge, held while converting it: consumer stages
  // sharing an edge convert it once, and the others wait, then hit
  // conversion_cache instead of converting it again.
  std::map<std::pair<int, std::string>, std::shared_ptr<std::mutex>>
      edge_locks;                                    // guarded by `mu`
  std::set<std::pair<int, std::string>> moved_edges;  // guarded by `mu`

  // Platform health for failover: consecutive stage-attempt failures per
  // platform (reset on any success). When a stage exhausts its retries the
  // platform that failed it is the blackout suspect. Guarded by `mu`.
  std::map<std::string, int64_t> health;
  std::string suspect_platform;
  std::vector<std::string> failover_notes;
  std::set<std::string> blacked_out;

  // Progressive re-optimization state. `observed` holds the actual output
  // cardinality of every materialized operator — consumed by mid-job
  // re-estimates and, after the job, by the stats catalog. `live_estimates`
  // is what the *current* plan was costed with (refreshed on each re-plan).
  // Both are guarded by `mu`; `reopt_pending` is the lock-free soft-stop
  // signal the stage schedulers poll.
  EstimateMap observed;
  EstimateMap live_estimates = eplan.estimates;
  struct ReoptTrigger {
    int op_id = 0;
    std::string op_name;
    double estimated = 0.0;
    double actual = 0.0;
    double error = 0.0;
  };
  ReoptTrigger reopt_trigger;         // guarded by `mu`
  int64_t reopt_attempts = 0;         // guarded by `mu`
  std::atomic<bool> reopt_pending{false};
  std::vector<std::string> reopt_notes;  // main thread only (between rounds)
  std::vector<std::string> decisions;    // main thread only (between rounds)

  const bool use_result_cache =
      result_cache_ != nullptr && result_cache_->enabled();

  // One failover round: run every stage of `round_plan` that is not yet
  // satisfied. Shared state (`state`, `metrics`, conversion cache, health)
  // lives across rounds; the consumer refcounts and sub-plan fingerprints
  // are per-round because they follow the round's stage structure.
  auto run_round = [&](const ExecutionPlan& rplan) -> Status {
    // Reference counts for eviction: how many stages still consume each
    // boundary dataset.
    auto consumers_left = std::make_shared<std::map<int, int>>();
    for (const Stage& stage : rplan.stages) {
      for (const Operator* in : stage.boundary_inputs()) {
        ++(*consumers_left)[in->id()];
      }
    }

    // Sub-plan fingerprints power cross-job reuse: a stage whose every
    // output is already in the result cache is skipped. Fingerprinting
    // failures just disable reuse for this job; they never fail the job.
    auto subplan_fps = std::make_shared<std::map<int, uint64_t>>();
    if (use_result_cache) {
      auto fps = ComputeSubPlanFingerprints(rplan);
      if (fps.ok()) {
        *subplan_fps = std::move(fps).ValueOrDie();
      } else {
        RHEEM_LOG(Warning) << "result-cache fingerprinting disabled: "
                           << fps.status().ToString();
      }
    }
    auto fingerprint_of = [subplan_fps](int op_id) -> const uint64_t* {
      auto it = subplan_fps->find(op_id);
      return it == subplan_fps->end() ? nullptr : &it->second;
    };

    // Observed-cardinality hook (call with `mu` held): records every
    // materialized output's actual cardinality, and — when re-optimization
    // is armed and budget remains — requests a re-plan if a non-final
    // stage's actual diverges from its estimate beyond the threshold. The
    // request softly stops the round; the failover loop re-enumerates.
    auto observe_outputs_locked =
        [&](const Stage& stage,
            const std::vector<std::shared_ptr<const Dataset>>& outs) {
          for (std::size_t i = 0; i < outs.size(); ++i) {
            const Operator* out_op = stage.outputs()[i];
            const double actual = static_cast<double>(outs[i]->size());
            Estimate& obs = observed[out_op->id()];
            obs.cardinality = actual;
            obs.avg_bytes =
                outs[i]->size() > 0
                    ? static_cast<double>(outs[i]->EstimatedBytes()) / actual
                    : 32.0;
            if (!reopt_armed || stage.id() == rplan.final_stage) continue;
            auto est_it = live_estimates.find(out_op->id());
            if (est_it == live_estimates.end()) continue;
            const double est = est_it->second.cardinality;
            const double error = std::max((actual + 1.0) / (est + 1.0),
                                          (est + 1.0) / (actual + 1.0));
            if (error > reopt_threshold &&
                reopt_attempts < max_reoptimizations &&
                !reopt_pending.load(std::memory_order_relaxed)) {
              reopt_trigger.op_id = out_op->id();
              reopt_trigger.op_name = out_op->name();
              reopt_trigger.estimated = est;
              reopt_trigger.actual = actual;
              reopt_trigger.error = error;
              reopt_pending.store(true, std::memory_order_release);
            }
          }
        };

    auto run_stage = [&, consumers_left, subplan_fps,
                      fingerprint_of](const Stage& stage) -> Status {
      RHEEM_RETURN_IF_ERROR(stop_.Check());

      // Inputs this stage holds are released once it is done with them —
      // shared with the executed path below. With failover armed the
      // datasets themselves are retained (a re-plan may cut new stage
      // boundaries that need them again); only the derived conversions are
      // dropped, since they can be recomputed from the retained originals.
      auto release_inputs = [&]() {
        std::lock_guard<std::mutex> lock(mu);
        for (const Operator* producer : stage.boundary_inputs()) {
          auto it = consumers_left->find(producer->id());
          if (it != consumers_left->end() && --it->second == 0 &&
              producer != rplan.plan->sink()) {
            // Re-plans (failover or re-optimization) pin completed stages by
            // checking their products are still materialized, so retain the
            // datasets whenever a re-plan can still happen.
            if (!failover_armed && !reopt_armed) state.Evict(producer->id());
            for (auto c = conversion_cache.begin();
                 c != conversion_cache.end();) {
              c = c->first.first == producer->id() ? conversion_cache.erase(c)
                                                   : std::next(c);
            }
          }
        }
      };

      // Failover re-plans re-walk the whole DAG: stages whose products
      // already materialized in an earlier round are satisfied as-is.
      if (!stage.outputs().empty()) {
        bool satisfied = true;
        std::lock_guard<std::mutex> lock(mu);
        for (const Operator* out : stage.outputs()) {
          satisfied = satisfied && state.Has(out->id());
        }
        if (satisfied) {
          for (const Operator* producer : stage.boundary_inputs()) {
            auto it = consumers_left->find(producer->id());
            if (it != consumers_left->end()) --it->second;
          }
          return Status::OK();
        }
      }

      // Materialized-result reuse (paper §4.2: the Executor "reuses
      // materialized results"): when every output of this stage is cached
      // under its sub-plan fingerprint, skip execution and surface the
      // cached datasets — zero rows copied, zero platform work.
      if (use_result_cache && !stage.outputs().empty() &&
          !subplan_fps->empty()) {
        std::vector<std::shared_ptr<const Dataset>> cached;
        cached.reserve(stage.outputs().size());
        for (const Operator* out : stage.outputs()) {
          const uint64_t* fp = fingerprint_of(out->id());
          std::shared_ptr<const Dataset> hit =
              fp != nullptr ? result_cache_->Lookup(*fp) : nullptr;
          if (hit == nullptr) break;
          cached.push_back(std::move(hit));
        }
        if (cached.size() == stage.outputs().size()) {
          TraceSpan reuse_span("stage", "executor", exec_span_id);
          reuse_span.AddTag("stage", static_cast<int64_t>(stage.id()));
          reuse_span.AddTag("platform", stage.platform()->name());
          reuse_span.AddTag("reuse", "result_cache");
          CountIfEnabled(reused_counter, 1);
          ExecutionMonitor::StageRecord record;
          record.stage_id = stage.id();
          record.platform = stage.platform()->name();
          record.succeeded = true;
          record.error = "reused from result cache";
          for (const auto& data : cached) {
            record.output_records += static_cast<int64_t>(data->size());
          }
          {
            std::lock_guard<std::mutex> lock(mu);
            metrics.stages_reused += 1;
            observe_outputs_locked(stage, cached);
            for (std::size_t i = 0; i < cached.size(); ++i) {
              state.Put(stage.outputs()[i]->id(), std::move(cached[i]));
            }
            if (want_report) report_records.push_back(record);
          }
          if (monitor_ != nullptr) monitor_->RecordStage(record);
          release_inputs();
          return Status::OK();
        }
      }

      // Fault recovery: if every product of this stage survives — intact —
      // from a prior run of the same job id, restore it instead of
      // re-executing. A checkpoint failing its checksum (torn write, bit
      // rot) is counted and re-executed, never silently restored.
      if (!checkpoint_dir.empty() && !stage.outputs().empty()) {
        std::vector<Dataset> restored;
        bool all_present = true;
        for (const Operator* out : stage.outputs()) {
          auto content = ReadFileToString(checkpoint_path(out->id()));
          if (!content.ok()) {
            all_present = false;
            break;
          }
          auto payload = DecodeCheckpoint(*content);
          if (!payload.ok()) {
            CountIfEnabled(corrupt_counter, 1);
            RHEEM_LOG(Warning)
                << "discarding checkpoint " << checkpoint_path(out->id())
                << ": " << payload.status().ToString();
            all_present = false;
            break;
          }
          auto decoded = Serializer::DecodeDataset(*payload);
          if (!decoded.ok()) {
            CountIfEnabled(corrupt_counter, 1);
            all_present = false;
            break;
          }
          restored.push_back(std::move(decoded).ValueOrDie());
        }
        if (all_present) {
          TraceSpan restore_span("stage", "executor", exec_span_id);
          restore_span.AddTag("stage", static_cast<int64_t>(stage.id()));
          restore_span.AddTag("platform", stage.platform()->name());
          restore_span.AddTag("restored", "true");
          CountIfEnabled(restored_counter, 1);
          ExecutionMonitor::StageRecord record;
          record.stage_id = stage.id();
          record.platform = stage.platform()->name();
          record.succeeded = true;
          record.error = "restored from checkpoint";
          {
            std::lock_guard<std::mutex> lock(mu);
            for (std::size_t i = 0; i < restored.size(); ++i) {
              // Restored products still feed the observed-cardinality map
              // (re-estimates and the stats catalog), but never trigger a
              // re-plan themselves — they cost nothing to produce.
              Estimate& obs = observed[stage.outputs()[i]->id()];
              obs.cardinality = static_cast<double>(restored[i].size());
              obs.avg_bytes =
                  restored[i].size() > 0
                      ? static_cast<double>(restored[i].EstimatedBytes()) /
                            obs.cardinality
                      : 32.0;
              state.Put(stage.outputs()[i]->id(), std::move(restored[i]));
            }
            if (want_report) report_records.push_back(record);
          }
          if (monitor_ != nullptr) monitor_->RecordStage(record);
          return Status::OK();
        }
      }

      // Assemble this stage's boundary inputs, converting across platforms.
      // Runs once per attempt (inside the retry loop) so an injected or
      // real conversion failure is retried like any other stage failure;
      // the conversion cache keeps repeats cheap and ensures movement is
      // charged at most once per edge across all attempts.
      auto assemble = [&](BoundaryMap* boundary,
                          std::vector<std::shared_ptr<const Dataset>>* held)
          -> Status {
        held->reserve(stage.boundary_inputs().size());
        for (const Operator* producer : stage.boundary_inputs()) {
          std::shared_ptr<const Dataset> data;
          {
            std::lock_guard<std::mutex> lock(mu);
            RHEEM_ASSIGN_OR_RETURN(data, state.GetShared(producer->id()));
          }
          Platform* from =
              rplan.assignment.by_op.count(producer->id()) > 0
                  ? rplan.assignment.by_op.at(producer->id())
                  : nullptr;
          const bool crosses = from != nullptr && from != stage.platform();
          if (crosses) {
            const auto edge =
                std::make_pair(producer->id(), stage.platform()->name());
            if (serialize_boundaries) {
              std::shared_ptr<std::mutex> edge_mu;
              {
                std::lock_guard<std::mutex> lock(mu);
                auto& slot = edge_locks[edge];
                if (slot == nullptr) slot = std::make_shared<std::mutex>();
                edge_mu = slot;
              }
              std::lock_guard<std::mutex> converting(*edge_mu);
              std::shared_ptr<const Dataset> conv;
              {
                std::lock_guard<std::mutex> lock(mu);
                auto it = conversion_cache.find(edge);
                if (it != conversion_cache.end()) conv = it->second;
              }
              if (conv != nullptr) {
                // Another consumer stage already paid this edge's conversion.
                CountIfEnabled(boundary_hits_counter, 1);
                {
                  std::lock_guard<std::mutex> lock(mu);
                  metrics.boundary_conversions_reused += 1;
                }
                (*boundary)[producer->id()] = conv.get();
                held->push_back(std::move(conv));
                continue;
              }
              CountIfEnabled(boundary_misses_counter, 1);
              RHEEM_RETURN_IF_ERROR(FaultInjector::Global().Hit(
                  "executor.boundary_convert",
                  "producer=" + std::to_string(producer->id()) +
                      ",platform=" + stage.platform()->name()));
              // Real work: encode on the producer side, decode on the
              // consumer side (ChannelKind::kSerializedStream); runs
              // outside the lock.
              Stopwatch sw;
              std::string wire = Serializer::EncodeDataset(*data);
              auto decoded = Serializer::DecodeDataset(wire);
              if (!decoded.ok()) {
                return decoded.status().WithContext("boundary conversion");
              }
              auto shared = std::make_shared<const Dataset>(
                  std::move(decoded).ValueOrDie());
              {
                // Movement totals: once per (producer, platform) edge.
                std::lock_guard<std::mutex> lock(mu);
                conversion_cache[edge] = shared;
                metrics.moved_records += static_cast<int64_t>(data->size());
                metrics.moved_bytes += static_cast<int64_t>(wire.size());
                metrics.wall_micros += sw.ElapsedMicros();
              }
              CountIfEnabled(moved_records_counter,
                             static_cast<int64_t>(data->size()));
              CountIfEnabled(moved_bytes_counter,
                             static_cast<int64_t>(wire.size()));
              (*boundary)[producer->id()] = shared.get();
              held->push_back(std::move(shared));
              continue;
            }
            // Approximated movement (no real conversion): still charge each
            // edge exactly once, however many consumer stages share it.
            bool first_crossing = false;
            {
              std::lock_guard<std::mutex> lock(mu);
              first_crossing = moved_edges.insert(edge).second;
            }
            if (first_crossing) {
              const int64_t approx_bytes = Serializer::EncodedSize(*data);
              CountIfEnabled(moved_records_counter,
                             static_cast<int64_t>(data->size()));
              CountIfEnabled(moved_bytes_counter, approx_bytes);
              std::lock_guard<std::mutex> lock(mu);
              metrics.moved_records += static_cast<int64_t>(data->size());
              metrics.moved_bytes += approx_bytes;
            }
          }
          (*boundary)[producer->id()] = data.get();
          held->push_back(std::move(data));
        }
        return Status::OK();
      };

      // Execute with retries: exponential deadline-aware backoff between
      // attempts, and each attempt runs the full assemble+execute path.
      Status last_error = Status::OK();
      bool done = false;
      for (int attempt = 0; attempt <= max_retries && !done; ++attempt) {
        RHEEM_RETURN_IF_ERROR(stop_.Check());
        if (attempt > 0) {
          RHEEM_RETURN_IF_ERROR(BackoffBeforeRetry(
              attempt, backoff_base_us, backoff_cap_us, stop_));
          {
            std::lock_guard<std::mutex> lock(mu);
            ++metrics.retries;
          }
          CountIfEnabled(retries_counter, 1);
        }
        CountIfEnabled(attempts_counter, 1);
        // One span per attempt: retries render as sibling `stage` spans,
        // each tagged with its attempt number, under the job's `execute`
        // span.
        TraceSpan attempt_span("stage", "executor", exec_span_id);
        attempt_span.AddTag("stage", static_cast<int64_t>(stage.id()));
        attempt_span.AddTag("platform", stage.platform()->name());
        attempt_span.AddTag("attempt", static_cast<int64_t>(attempt));
        const std::string ops_detail = StageDeclarativeDetail(stage);
        if (!ops_detail.empty()) attempt_span.AddTag("ops", ops_detail);
        ExecutionMetrics stage_metrics;
        Stopwatch sw;
        Status injected = FaultInjector::Global().Hit(
            "executor.stage_attempt",
            "stage=" + std::to_string(stage.id()) +
                ",platform=" + stage.platform()->name() +
                ",attempt=" + std::to_string(attempt));
        BoundaryMap boundary;
        // Shares ownership of borrowed inputs and conversions for the call,
        // so concurrent eviction can never pull a dataset out from under a
        // stage.
        std::vector<std::shared_ptr<const Dataset>> held;
        Result<std::vector<Dataset>> outputs = std::vector<Dataset>{};
        if (injected.ok()) {
          Status assembled = assemble(&boundary, &held);
          outputs = assembled.ok() ? stage.platform()->ExecuteStage(
                                         stage, boundary, &stage_metrics)
                                   : Result<std::vector<Dataset>>(assembled);
        } else {
          outputs = Result<std::vector<Dataset>>(injected);
        }
        const int64_t wall = sw.ElapsedMicros();
        if (MetricsRegistry::Global().enabled()) {
          stage_wall_histogram->Observe(wall);
        }

        ExecutionMonitor::StageRecord record;
        record.stage_id = stage.id();
        record.platform = stage.platform()->name();
        record.attempt = attempt;
        record.wall_micros = wall;
        record.sim_overhead_micros = stage_metrics.sim_overhead_micros;
        record.ops_detail = ops_detail;

        if (outputs.ok()) {
          auto out = std::move(outputs).ValueOrDie();
          if (out.size() != stage.outputs().size()) {
            return Status::Internal(
                "platform '" + stage.platform()->name() + "' returned " +
                std::to_string(out.size()) + " outputs for stage " +
                std::to_string(stage.id()) + " but " +
                std::to_string(stage.outputs().size()) + " were declared");
          }
          for (std::size_t i = 0; i < out.size(); ++i) {
            record.output_records += static_cast<int64_t>(out[i].size());
            if (!checkpoint_dir.empty()) {
              const int op_id = stage.outputs()[i]->id();
              std::string framed =
                  EncodeCheckpoint(Serializer::EncodeDataset(out[i]));
              // An injected checkpoint fault simulates a torn write: half
              // the framed bytes reach disk. The checksum catches it on the
              // next restore attempt.
              if (!FaultInjector::Global()
                       .Hit("executor.checkpoint_write",
                            "op=" + std::to_string(op_id))
                       .ok()) {
                framed.resize(framed.size() / 2);
                attempt_span.AddTag("fault", "checkpoint_write");
              }
              Status written =
                  WriteStringToFile(checkpoint_path(op_id), framed);
              if (!written.ok()) {
                RHEEM_LOG(Warning) << "checkpoint write failed: "
                                   << written.ToString();
              }
            }
          }
          // Wrap outputs as shared const datasets: the same materialization
          // is handed to the execution state and (below) the cross-job
          // result cache without copying.
          std::vector<std::shared_ptr<const Dataset>> shared_outs;
          shared_outs.reserve(out.size());
          for (std::size_t i = 0; i < out.size(); ++i) {
            shared_outs.push_back(
                std::make_shared<const Dataset>(std::move(out[i])));
          }
          double est_stage_cost = 0.0;
          {
            std::lock_guard<std::mutex> lock(mu);
            metrics.MergeFrom(stage_metrics);
            metrics.wall_micros += wall;
            metrics.stages_run += 1;
            health[stage.platform()->name()] = 0;
            for (std::size_t i = 0; i < shared_outs.size(); ++i) {
              state.Put(stage.outputs()[i]->id(), shared_outs[i]);
            }
            observe_outputs_locked(stage, shared_outs);
            if (stats_catalog_ != nullptr) {
              auto est_cost = EstimateStageCost(stage, live_estimates);
              if (est_cost.ok()) est_stage_cost = *est_cost;
            }
          }
          // Cost calibration feedback: the stage's measured cost over its
          // modelled cost, attributed to every operator kind it ran —
          // persisted per (operator, platform) so later enumerations price
          // this platform with observed constants.
          if (stats_catalog_ != nullptr && est_stage_cost > 0.0) {
            const double actual_cost = static_cast<double>(
                wall + stage_metrics.sim_overhead_micros);
            if (actual_cost > 0.0) {
              const double ratio = actual_cost / est_stage_cost;
              for (const Operator* op : stage.ops()) {
                stats_catalog_->RecordCostRatio(
                    op->kind_name(), stage.platform()->name(), ratio);
              }
            }
          }
          if (use_result_cache) {
            for (std::size_t i = 0; i < shared_outs.size(); ++i) {
              const uint64_t* fp = fingerprint_of(stage.outputs()[i]->id());
              if (fp != nullptr) result_cache_->Insert(*fp, shared_outs[i]);
            }
          }
          record.succeeded = true;
          done = true;
          CountIfEnabled(stages_counter, 1);
        } else {
          last_error = outputs.status();
          record.succeeded = false;
          record.error = last_error.ToString();
          CountIfEnabled(failures_counter, 1);
          attempt_span.AddTag("error", record.error);
          if (!injected.ok() ||
              record.error.find("injected fault") != std::string::npos) {
            attempt_span.AddTag("fault", "injected");
          }
          {
            std::lock_guard<std::mutex> lock(mu);
            ++health[stage.platform()->name()];
          }
          RHEEM_LOG(Warning) << "stage " << stage.id() << " attempt "
                             << attempt
                             << " failed: " << last_error.ToString();
        }
        attempt_span.AddTag("succeeded", record.succeeded ? "true" : "false");
        attempt_span.AddTag("rows_out", record.output_records);
        if (want_report) {
          std::lock_guard<std::mutex> lock(mu);
          report_records.push_back(record);
        }
        if (monitor_ != nullptr) monitor_->RecordStage(record);
      }
      if (!done) {
        {
          std::lock_guard<std::mutex> lock(mu);
          if (suspect_platform.empty()) {
            suspect_platform = stage.platform()->name();
          }
        }
        return last_error.WithContext(
            "stage " + std::to_string(stage.id()) + " failed after " +
            std::to_string(max_retries + 1) + " attempt(s)");
      }

      // Evict boundary inputs (and their cached conversions) that no later
      // stage needs.
      release_inputs();
      return Status::OK();
    };

    // A pending re-optimization softly stops the round after in-flight
    // stages drain: the round ends *successfully* and the failover loop
    // re-plans the unexecuted remainder.
    auto soft_stop = [&]() {
      return reopt_pending.load(std::memory_order_acquire);
    };
    if (!parallel_stages || rplan.stages.size() <= 1) {
      for (const Stage& stage : rplan.stages) {
        if (soft_stop()) return Status::OK();
        RHEEM_RETURN_IF_ERROR(run_stage(stage));
      }
      return Status::OK();
    }
    ThreadPool* pool = pool_ != nullptr ? pool_ : &DefaultThreadPool();
    return RunStagesDag(rplan.stages, pool, run_stage, soft_stop);
  };

  // Failover loop: one round per plan. A round that fails because a
  // platform blacked out (>= failover_threshold consecutive failures) bans
  // the platform, pins every op whose stage already completed, and
  // re-enumerates the remaining work onto the healthy platforms — the job
  // degrades to a slower plan instead of failing ("coping with failures",
  // paper §4.2). Cancellation and deadlines are never failed over.
  ExecutionPlan replanned;
  const ExecutionPlan* current = &eplan;
  for (;;) {
    Status round_status = run_round(*current);
    if (round_status.IsCancelled() || round_status.IsDeadlineExceeded()) {
      return round_status;
    }
    if (round_status.ok()) {
      if (!reopt_pending.load(std::memory_order_acquire)) break;

      // A stage observed a cardinality divergence and softly stopped the
      // round: re-enumerate the unexecuted remainder with completed stages
      // pinned and the observed cardinalities as estimator ground truth.
      ReoptTrigger trigger;
      bool finished = false;
      EstimateMap observed_copy;
      EnumeratorOptions ropts = eplan.enum_options;
      {
        std::lock_guard<std::mutex> lock(mu);
        trigger = reopt_trigger;
        ++reopt_attempts;  // budget is consumed even if the re-plan fails
        finished = state.Has(eplan.plan->sink()->id());
        observed_copy = observed;
        for (const Stage& stage : current->stages) {
          bool complete = !stage.outputs().empty();
          for (const Operator* out : stage.outputs()) {
            complete = complete && state.Has(out->id());
          }
          if (!complete) continue;
          for (const Operator* op : stage.ops()) {
            ropts.pinned_platforms[op->id()] = stage.platform()->name();
          }
        }
      }
      reopt_pending.store(false, std::memory_order_release);
      // Everything materialized before the soft stop landed: nothing left
      // to re-plan.
      if (finished) break;
      ropts.banned_platforms.insert(blacked_out.begin(), blacked_out.end());

      char desc[256];
      std::snprintf(desc, sizeof(desc),
                    "op #%d '%s' estimated %.0f records but produced %.0f "
                    "(error %.1fx > threshold %.1fx)",
                    trigger.op_id, trigger.op_name.c_str(), trigger.estimated,
                    trigger.actual, trigger.error, reopt_threshold);

      // An injected fault here simulates the re-optimizer dying mid-flight:
      // the job must carry on with the current plan — never fail, never
      // double-execute. Real enumeration errors degrade the same way.
      Status replan_status = FaultInjector::Global().Hit(
          "executor.reoptimize",
          "op=" + std::to_string(trigger.op_id) +
              ",attempt=" + std::to_string(metrics.reoptimizations));
      EstimateMap refreshed;
      if (replan_status.ok()) {
        auto estimates =
            CardinalityEstimator::Estimate(*eplan.plan, observed_copy);
        if (estimates.ok()) {
          refreshed = std::move(estimates).ValueOrDie();
          Enumerator enumerator(registry_, movement_);
          auto assignment = enumerator.Run(*eplan.plan, refreshed, ropts);
          if (assignment.ok()) {
            auto split = StageSplitter::Split(
                *eplan.plan, std::move(assignment).ValueOrDie());
            if (split.ok()) {
              replanned = std::move(split).ValueOrDie();
              replanned.estimates = refreshed;
              replanned.enum_options = ropts;
            } else {
              replan_status = split.status();
            }
          } else {
            replan_status = assignment.status();
          }
        } else {
          replan_status = estimates.status();
        }
      }

      if (!replan_status.ok()) {
        const std::string note = std::string(desc) +
                                 "; re-optimization abandoned: " +
                                 replan_status.ToString();
        reopt_notes.push_back(note);
        RHEEM_LOG(Warning) << "re-optimization abandoned: " << note;
        continue;  // carry on with the current plan
      }

      current = &replanned;
      {
        std::lock_guard<std::mutex> lock(mu);
        live_estimates = refreshed;
        metrics.reoptimizations += 1;
      }
      CountIfEnabled(reopts_counter, 1);
      const std::string note =
          std::string(desc) + "; re-planned remaining work across " +
          std::to_string(replanned.stages.size()) + " stage(s)";
      reopt_notes.push_back(note);
      decisions.push_back(note);
      TraceSpan reopt_span("reoptimize", "executor", exec_span_id);
      reopt_span.AddTag("op", static_cast<int64_t>(trigger.op_id));
      reopt_span.AddTag("estimated",
                        static_cast<int64_t>(trigger.estimated));
      reopt_span.AddTag("observed", static_cast<int64_t>(trigger.actual));
      char error_buf[32];
      std::snprintf(error_buf, sizeof(error_buf), "%.1fx", trigger.error);
      reopt_span.AddTag("error", error_buf);
      reopt_span.AddTag("stages",
                        static_cast<int64_t>(replanned.stages.size()));
      exec_span.AddTag("reopt_" + std::to_string(metrics.reoptimizations),
                       note);
      RHEEM_LOG(Info) << "re-optimized: " << note;
      continue;
    }
    std::string culprit;
    int64_t consecutive = 0;
    {
      std::lock_guard<std::mutex> lock(mu);
      culprit = suspect_platform;
      suspect_platform.clear();
      if (!culprit.empty()) consecutive = health[culprit];
    }
    if (!failover_armed || metrics.failovers >= max_failovers ||
        culprit.empty() || consecutive < failover_threshold) {
      return round_status;
    }
    blacked_out.insert(culprit);

    EnumeratorOptions ropts;
    ropts.banned_platforms = blacked_out;
    {
      // Pin completed work to where it ran: the re-plan keeps those stages
      // intact (and they are skipped as satisfied), while unexecuted ops are
      // free to move off the blacked-out platform.
      std::lock_guard<std::mutex> lock(mu);
      for (const Stage& stage : current->stages) {
        bool complete = !stage.outputs().empty();
        for (const Operator* out : stage.outputs()) {
          complete = complete && state.Has(out->id());
        }
        if (!complete) continue;
        for (const Operator* op : stage.ops()) {
          ropts.pinned_platforms[op->id()] = stage.platform()->name();
        }
      }
      health.erase(culprit);
    }
    auto estimates = CardinalityEstimator::Estimate(*eplan.plan);
    if (!estimates.ok()) {
      return round_status.WithContext("failover re-plan failed: " +
                                      estimates.status().ToString());
    }
    Enumerator enumerator(registry_, movement_);
    auto assignment =
        enumerator.Run(*eplan.plan, *estimates, ropts);
    if (!assignment.ok()) {
      return round_status.WithContext("failover re-plan failed: " +
                                      assignment.status().ToString());
    }
    auto split =
        StageSplitter::Split(*eplan.plan, std::move(assignment).ValueOrDie());
    if (!split.ok()) {
      return round_status.WithContext("failover re-plan failed: " +
                                      split.status().ToString());
    }
    replanned = std::move(split).ValueOrDie();
    current = &replanned;
    metrics.failovers += 1;
    CountIfEnabled(failovers_counter, 1);
    const std::string note =
        "platform '" + culprit + "' blacked out after " +
        std::to_string(consecutive) +
        " consecutive failures; re-planned remaining work across " +
        std::to_string(replanned.stages.size()) + " stage(s)";
    failover_notes.push_back(note);
    exec_span.AddTag("failover_" + std::to_string(metrics.failovers), note);
    RHEEM_LOG(Warning) << "failover: " << note
                       << " (fault seed " << FaultInjector::Global().seed()
                       << ")";
  }

  RHEEM_ASSIGN_OR_RETURN(const Dataset* final_data,
                         state.Get(eplan.plan->sink()->id()));

  // Feed the learned-statistics catalog: observed cardinalities keyed by
  // *platform-free* sub-plan fingerprints, so the next compilation of this
  // (or any structurally shared) plan estimates with measured numbers.
  // Fingerprinting failures only cost the learning, never the job.
  if (stats_catalog_ != nullptr) {
    auto fps = ComputeCardinalityFingerprints(*eplan.plan);
    if (fps.ok()) {
      std::lock_guard<std::mutex> lock(mu);
      for (const auto& [op_id, est] : observed) {
        auto it = fps->find(op_id);
        if (it != fps->end()) {
          stats_catalog_->RecordCardinality(it->second, est.cardinality,
                                            est.avg_bytes);
        }
      }
    } else {
      RHEEM_LOG(Warning) << "stats-catalog fingerprinting disabled: "
                         << fps.status().ToString();
    }
  }

  ExecutionResult result;
  result.output = *final_data;
  result.metrics = metrics;
  result.decisions = std::move(decisions);
  if (want_report) {
    result.report =
        BuildExecutionReport(std::move(report_records), metrics,
                             failover_notes, reopt_notes);
  }
  return result;
}

}  // namespace rheem
