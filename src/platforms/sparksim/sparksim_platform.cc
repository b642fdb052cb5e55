#include "platforms/sparksim/sparksim_platform.h"

#include <unordered_set>

#include "core/optimizer/stage_splitter.h"
#include "platforms/sparksim/rdd.h"
#include "platforms/sparksim/scheduler.h"
#include "platforms/sparksim/sparksim_operators.h"

namespace rheem {

namespace {

BasicCostModel::Params SparkParams(const Config& config,
                                   const sparksim::SparkOverheadModel& overhead,
                                   std::size_t slots) {
  BasicCostModel::Params p;
  p.per_quantum_micros =
      config.GetDouble("sparksim.per_quantum_us", 0.03).ValueOr(0.03);
  p.parallelism = static_cast<double>(slots);
  p.stage_overhead_micros = overhead.stage_us + overhead.job_submit_us;
  p.job_overhead_micros = overhead.job_submit_us + overhead.stage_us;
  p.boundary_micros_per_byte = 0.0008;  // leaves/enters the "cluster"
  p.boundary_fixed_micros = overhead.collect_fixed_us;
  // Estimated per-quantum shuffle toll (ser+deser+hash).
  p.shuffle_micros_per_quantum = 0.05;
  // Narrow record-at-a-time chains fuse into one pass per partition.
  const bool fuse = config.GetBool("kernels.fuse", true).ValueOr(true);
  p.fusion_discount =
      fuse ? config.GetDouble("kernels.fusion_discount", 0.75).ValueOr(0.75)
           : 1.0;
  return p;
}

MappingTable SparkMappings() {
  MappingTable t;
  auto add = [&t](OpKind kind, const char* exec, double weight = 1.0,
                  const char* context = "") {
    t.Add(OperatorMapping{kind, "", exec, weight, context});
  };
  add(OpKind::kCollectionSource, "SparkParallelize");
  add(OpKind::kMap, "SparkMapPartitions");
  add(OpKind::kFlatMap, "SparkFlatMap");
  add(OpKind::kFilter, "SparkFilter");
  add(OpKind::kProject, "SparkProject");
  add(OpKind::kDistinct, "SparkDistinct", 1.0, "local distinct + shuffle");
  add(OpKind::kSort, "SparkCollectSort", 1.2, "driver-side sort");
  add(OpKind::kSample, "SparkBernoulliSample");
  add(OpKind::kZipWithId, "SparkZipWithIndex");
  add(OpKind::kReduceByKey, "SparkReduceByKey", 1.0, "map-side combine");
  t.Add(OperatorMapping{OpKind::kGroupByKey, "HashGroupBy",
                        "SparkGroupByKey+Hash", 1.0, "shuffle + hash groups"});
  t.Add(OperatorMapping{OpKind::kGroupByKey, "SortGroupBy",
                        "SparkGroupByKey+Sort", 1.0, "shuffle + sorted runs"});
  add(OpKind::kGlobalReduce, "SparkTreeReduce");
  add(OpKind::kCount, "SparkCount");
  add(OpKind::kBroadcastMap, "SparkMapWithBroadcast", 1.0,
      "broadcast variable");
  t.Add(OperatorMapping{OpKind::kJoin, "HashJoin", "SparkShuffledHashJoin",
                        1.0, ""});
  t.Add(OperatorMapping{OpKind::kJoin, "SortMergeJoin",
                        "SparkSortMergeJoin", 1.0, ""});
  add(OpKind::kThetaJoin, "SparkBroadcastNestedLoopJoin");
  add(OpKind::kIEJoin, "SparkIEJoin", 1.0,
      "broadcast right side, per-partition bit-array join");
  add(OpKind::kCrossProduct, "SparkCartesian");
  add(OpKind::kUnion, "SparkUnion");
  add(OpKind::kIntersect, "SparkIntersection", 1.0, "co-partitioned shuffle");
  add(OpKind::kSubtract, "SparkSubtract", 1.0, "co-partitioned shuffle");
  add(OpKind::kTopK, "SparkTakeOrdered", 1.0, "partition top-k + driver merge");
  add(OpKind::kRepeat, "SparkIterativeDriver", 1.0,
      "one job submission per iteration");
  add(OpKind::kDoWhile, "SparkIterativeDriverConditional");
  add(OpKind::kCollect, "SparkCollect");
  return t;
}

}  // namespace

SparkSimPlatform::SparkSimPlatform(const Config& config)
    : Platform(kName),
      overhead_(sparksim::SparkOverheadModel::FromConfig(config)),
      pool_(std::make_unique<ThreadPool>(static_cast<std::size_t>(
          config.GetInt("sparksim.slots", 8).ValueOr(8)))),
      num_partitions_(static_cast<std::size_t>(
          config.GetInt("sparksim.partitions",
                        config.GetInt("sparksim.slots", 8).ValueOr(8))
              .ValueOr(8))),
      task_retries_(static_cast<int>(
          config.GetInt("sparksim.task_retries", 3).ValueOr(3))),
      fuse_(config.GetBool("kernels.fuse", true).ValueOr(true)),
      columnar_(config.GetBool("kernels.columnar", true).ValueOr(true)),
      cost_model_(SparkParams(config, overhead_, pool_->num_threads())) {
  mappings_ = SparkMappings();
}

Result<std::vector<Dataset>> SparkSimPlatform::ExecuteStage(
    const Stage& stage, const BoundaryMap& boundary_inputs,
    ExecutionMetrics* metrics) {
  // Each task atom is an independent submission against the cluster.
  metrics->jobs_run += 1;
  metrics->sim_overhead_micros +=
      static_cast<int64_t>(overhead_.job_submit_us + overhead_.stage_us);

  sparksim::TaskScheduler scheduler(pool_.get(), overhead_, task_retries_);
  kernels::KernelOptions task_opts = kernels::KernelOptions::Serial();
  task_opts.columnar = columnar_;
  sparksim::RddWalker walker(num_partitions_, &scheduler, metrics, fuse_,
                             task_opts);

  // Parallelize incoming boundary datasets.
  std::vector<std::unique_ptr<sparksim::Rdd>> bound;
  sparksim::RddBindings bindings;
  bound.reserve(boundary_inputs.size());
  for (const auto& [op_id, dataset] : boundary_inputs) {
    bound.push_back(std::make_unique<sparksim::Rdd>(
        sparksim::Rdd::FromDataset(*dataset, num_partitions_)));
    bindings[op_id] = bound.back().get();
  }

  // Stage outputs are gathered below: never fuse them away.
  std::unordered_set<int> preserve;
  for (const Operator* out : stage.outputs()) preserve.insert(out->id());
  RHEEM_RETURN_IF_ERROR(walker.RunOps(stage.ops(), bindings, preserve));

  std::vector<Dataset> outputs;
  outputs.reserve(stage.outputs().size());
  for (const Operator* out : stage.outputs()) {
    metrics->sim_overhead_micros +=
        static_cast<int64_t>(overhead_.collect_fixed_us);
    // The walker is done with its results: gather them by move.
    RHEEM_ASSIGN_OR_RETURN(sparksim::Rdd rdd, walker.TakeResult(out->id()));
    outputs.push_back(std::move(rdd).Gather());
  }
  return outputs;
}

}  // namespace rheem
