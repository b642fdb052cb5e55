#include "platforms/sparksim/sparksim_operators.h"

#include <mutex>

#include "common/metrics.h"
#include "common/trace.h"
#include "core/operators/fusion.h"
#include "core/operators/iejoin.h"
#include "core/plan/plan.h"
#include "core/operators/kernels.h"
#include "data/table_memo.h"
#include "platforms/sparksim/shuffle.h"

namespace rheem {
namespace sparksim {

// Partitions are sparksim's parallelism unit: `opts_` is forced serial at
// construction so the virtual cluster clock prices each task's true CPU
// work (and no nested pool work hides from it); only the columnar switch
// passes through from platform config.

Status RddWalker::RunOps(const std::vector<Operator*>& ops,
                         const RddBindings& external,
                         const std::unordered_set<int>& preserve) {
  const std::vector<fusion::FusionUnit> units =
      fusion::PlanFusionUnits(ops, preserve, fuse_);
  for (const fusion::FusionUnit& unit : units) {
    if (unit.fused()) {
      // A narrow record-at-a-time chain: one fused pass per partition. The
      // chain never spans a shuffle because key-based ops are not fusable.
      Operator* head = unit.ops.front();
      Operator* tail = unit.ops.back();
      if (dynamic_cast<PhysicalOperator*>(head) == nullptr ||
          head->inputs().empty()) {
        return Status::InvalidPlan("sparksim: malformed fused chain at " +
                                   head->name());
      }
      const std::vector<kernels::FusedStep> steps = fusion::StepsFor(unit.ops);
      TraceSpan chain_span("chain", "sparksim");
      chain_span.AddTag("operators", static_cast<int64_t>(unit.ops.size()));
      chain_span.AddTag("tail", tail->name());
      RHEEM_ASSIGN_OR_RETURN(
          Rdd out, RunChain(*head->inputs()[0], external, *head, steps));
      results_[tail->id()] = std::move(out);
      if (metrics_ != nullptr) {
        metrics_->fused_operators += static_cast<int64_t>(unit.ops.size());
      }
      CountIfEnabled(
          MetricsRegistry::Global().counter("sparksim.fused_operators"),
          static_cast<int64_t>(unit.ops.size()));
      continue;
    }
    Operator* base = unit.ops.front();
    auto* op = dynamic_cast<PhysicalOperator*>(base);
    if (op == nullptr) {
      return Status::InvalidPlan("sparksim can only execute physical operators");
    }
    if (op->kind() == OpKind::kCollectionSource) {
      // Fused chains scan the table in place; it is split into partitions
      // only for a consumer that reads partitions, or as a stage output.
      tables_[op->id()] =
          static_cast<const CollectionSourceOp&>(*op).shared_data();
      if (preserve.count(op->id()) != 0) {
        RHEEM_RETURN_IF_ERROR(ResolveInput(*op, external, *op).status());
      }
      continue;
    }
    std::vector<const Rdd*> inputs;
    inputs.reserve(op->inputs().size());
    for (Operator* in : op->inputs()) {
      RHEEM_ASSIGN_OR_RETURN(const Rdd* r, ResolveInput(*in, external, *op));
      inputs.push_back(r);
    }
    TraceSpan op_span("chain", "sparksim");
    op_span.AddTag("operators", static_cast<int64_t>(1));
    op_span.AddTag("tail", op->name());
    RHEEM_ASSIGN_OR_RETURN(Rdd out, EvalOperator(*op, inputs));
    results_[op->id()] = std::move(out);
  }
  return Status::OK();
}

Result<Rdd> RddWalker::RunChain(const Operator& producer,
                                const RddBindings& external,
                                const Operator& head,
                                const std::vector<kernels::FusedStep>& steps) {
  kernels::KernelOptions chain_opts = opts_;
  auto table = tables_.find(producer.id());
  if (table != tables_.end() && kernels::FusedChainIsColumnar(steps, opts_)) {
    const std::shared_ptr<const Batch> batch =
        TableMemo::Columnar(table->second);
    if (batch != nullptr) {
      // Each task drives its row range of the table's shared Batch: the
      // ranges Rdd::FromDataset would cut, so partitions match row for row.
      const auto ranges =
          Dataset::SplitRanges(batch->num_rows(), num_partitions_);
      std::vector<Dataset> out(ranges.size());
      RHEEM_RETURN_IF_ERROR(scheduler_->RunTasks(
          ranges.size(), metrics_, [&](std::size_t i) -> Status {
            RHEEM_ASSIGN_OR_RETURN(
                out[i], kernels::FusedPipelineRange(steps, *batch,
                                                    ranges[i].first,
                                                    ranges[i].second, opts_));
            return Status::OK();
          }));
      return Rdd(std::move(out));
    }
    // The table has no columnar form, and the memo will not try again: run
    // the row engine rather than attempt a conversion per partition per job.
    chain_opts.columnar = false;
  }
  RHEEM_ASSIGN_OR_RETURN(const Rdd* in, ResolveInput(producer, external, head));
  return MapPartitions(*in, [&steps, &chain_opts](const Dataset& d,
                                                  std::size_t) {
    return kernels::FusedPipeline(steps, d, chain_opts);
  });
}

Result<const Rdd*> RddWalker::ResolveInput(const Operator& producer,
                                           const RddBindings& external,
                                           const Operator& consumer) {
  auto it = results_.find(producer.id());
  if (it != results_.end()) return &it->second;
  auto table = tables_.find(producer.id());
  if (table != tables_.end()) {
    // The one copy of a source table: its split into partitions.
    TraceSpan split_span("chain", "sparksim");
    split_span.AddTag("operators", static_cast<int64_t>(1));
    split_span.AddTag("tail", producer.name());
    Rdd& rdd = results_[producer.id()];
    rdd = Rdd::FromDataset(*table->second, num_partitions_);
    return &rdd;
  }
  auto ext = external.find(producer.id());
  if (ext == external.end()) {
    return Status::ExecutionError("sparksim: missing input #" +
                                  std::to_string(producer.id()) + " for " +
                                  consumer.name());
  }
  return ext->second;
}

Result<const Rdd*> RddWalker::ResultOf(int op_id) const {
  auto it = results_.find(op_id);
  if (it == results_.end()) {
    return Status::ExecutionError("sparksim: no result for operator #" +
                                  std::to_string(op_id));
  }
  return &it->second;
}

Result<Rdd> RddWalker::TakeResult(int op_id) {
  auto it = results_.find(op_id);
  if (it == results_.end()) {
    return Status::ExecutionError("sparksim: no result for operator #" +
                                  std::to_string(op_id));
  }
  Rdd out = std::move(it->second);
  results_.erase(it);
  return out;
}

Result<Rdd> RddWalker::MapPartitions(
    const Rdd& in,
    const std::function<Result<Dataset>(const Dataset&, std::size_t)>& fn) {
  std::vector<Dataset> out(in.num_partitions());
  RHEEM_RETURN_IF_ERROR(scheduler_->RunTasks(
      in.num_partitions(), metrics_, [&](std::size_t i) -> Status {
        auto r = fn(in.partition(i), i);
        if (!r.ok()) return r.status();
        out[i] = std::move(r).ValueOrDie();
        return Status::OK();
      }));
  return Rdd(std::move(out));
}

Result<Rdd> RddWalker::EvalOperator(const PhysicalOperator& op,
                                    const std::vector<const Rdd*>& inputs) {
  static const Rdd* const kEmpty = new Rdd();
  const Rdd& in0 = inputs.empty() ? *kEmpty : *inputs[0];
  switch (op.kind()) {
    case OpKind::kCollectionSource:
      return Status::Internal("sparksim: RunOps reads collection sources");
    case OpKind::kStageInput:
    case OpKind::kLoopState:
    case OpKind::kLoopData:
      return Status::ExecutionError(op.kind_name() +
                                    " must be bound externally");
    case OpKind::kMap: {
      const auto& udf = static_cast<const MapOp&>(op).udf();
      return MapPartitions(in0, [this, &udf](const Dataset& d, std::size_t) {
        return kernels::Map(udf, d, opts_);
      });
    }
    case OpKind::kFlatMap: {
      const auto& udf = static_cast<const FlatMapOp&>(op).udf();
      return MapPartitions(in0, [this, &udf](const Dataset& d, std::size_t) {
        return kernels::FlatMap(udf, d, opts_);
      });
    }
    case OpKind::kFilter: {
      const auto& udf = static_cast<const FilterOp&>(op).udf();
      return MapPartitions(in0, [this, &udf](const Dataset& d, std::size_t) {
        return kernels::Filter(udf, d, opts_);
      });
    }
    case OpKind::kProject: {
      const auto& cols = static_cast<const ProjectOp&>(op).columns();
      return MapPartitions(in0, [this, &cols](const Dataset& d, std::size_t) {
        return kernels::Project(cols, d, opts_);
      });
    }
    case OpKind::kDistinct: {
      // Local distinct, shuffle duplicates together, final distinct.
      RHEEM_ASSIGN_OR_RETURN(
          Rdd local, MapPartitions(in0, [](const Dataset& d, std::size_t) {
            return kernels::Distinct(d);
          }));
      RHEEM_ASSIGN_OR_RETURN(Rdd shuffled,
                             ShuffleByRecordHash(local, num_partitions_,
                                                 scheduler_, metrics_));
      return MapPartitions(shuffled, [](const Dataset& d, std::size_t) {
        return kernels::Distinct(d);
      });
    }
    case OpKind::kSort: {
      // Gather-and-sort on the driver; the output stays a single partition
      // so downstream order-sensitive consumers see a total order.
      const auto& key = static_cast<const SortOp&>(op).key();
      metrics_->sim_overhead_micros +=
          static_cast<int64_t>(scheduler_->overhead().collect_fixed_us);
      RHEEM_ASSIGN_OR_RETURN(Dataset sorted,
                             kernels::SortByKey(key, in0.Gather(), opts_));
      return Rdd::Single(std::move(sorted));
    }
    case OpKind::kSample: {
      const auto& s = static_cast<const SampleOp&>(op);
      const double fraction = s.fraction();
      const uint64_t seed = s.seed();
      // Passing each partition's global start offset makes the per-partition
      // calls keep exactly the records one whole-dataset call would keep
      // (the kernel's decision is a function of seed and global index), so
      // Sample agrees across platforms.
      std::vector<uint64_t> offsets(in0.num_partitions() + 1, 0);
      for (std::size_t i = 0; i < in0.num_partitions(); ++i) {
        offsets[i + 1] = offsets[i] + in0.partition(i).size();
      }
      return MapPartitions(in0, [this, fraction, seed, offsets](const Dataset& d,
                                                          std::size_t i) {
        return kernels::Sample(fraction, seed, d, opts_, offsets[i]);
      });
    }
    case OpKind::kZipWithId: {
      // Two phases, like Spark's zipWithIndex: size scan then offset map.
      std::vector<int64_t> offsets(in0.num_partitions() + 1, next_zip_id_);
      for (std::size_t i = 0; i < in0.num_partitions(); ++i) {
        offsets[i + 1] = offsets[i] + static_cast<int64_t>(in0.partition(i).size());
      }
      next_zip_id_ = offsets.back();
      return MapPartitions(in0, [this, &offsets](const Dataset& d, std::size_t i) {
        return kernels::ZipWithId(offsets[i], d, opts_);
      });
    }
    case OpKind::kReduceByKey: {
      const auto& r = static_cast<const ReduceByKeyOp&>(op);
      // Map-side combine before the shuffle (Spark's combiner).
      RHEEM_ASSIGN_OR_RETURN(
          Rdd combined, MapPartitions(in0, [this, &r](const Dataset& d, std::size_t) {
            return kernels::ReduceByKey(r.key(), r.reduce(), d, opts_);
          }));
      RHEEM_ASSIGN_OR_RETURN(Rdd shuffled,
                             ShuffleByKey(combined, r.key(), num_partitions_,
                                          scheduler_, metrics_));
      return MapPartitions(shuffled, [this, &r](const Dataset& d, std::size_t) {
        return kernels::ReduceByKey(r.key(), r.reduce(), d, opts_);
      });
    }
    case OpKind::kGroupByKey: {
      const auto& g = static_cast<const GroupByKeyOp&>(op);
      RHEEM_ASSIGN_OR_RETURN(Rdd shuffled,
                             ShuffleByKey(in0, g.key(), num_partitions_,
                                          scheduler_, metrics_));
      return MapPartitions(shuffled, [this, &g](const Dataset& d, std::size_t) {
        return g.algorithm() == GroupByAlgorithm::kHash
                   ? kernels::HashGroupBy(g.key(), g.group(), d, opts_)
                   : kernels::SortGroupBy(g.key(), g.group(), d,
                                          opts_);
      });
    }
    case OpKind::kGlobalReduce: {
      const auto& r = static_cast<const GlobalReduceOp&>(op);
      RHEEM_ASSIGN_OR_RETURN(
          Rdd partials, MapPartitions(in0, [this, &r](const Dataset& d, std::size_t) {
            return kernels::GlobalReduce(r.reduce(), d, opts_);
          }));
      metrics_->sim_overhead_micros +=
          static_cast<int64_t>(scheduler_->overhead().collect_fixed_us);
      RHEEM_ASSIGN_OR_RETURN(Dataset final_value,
                             kernels::GlobalReduce(r.reduce(), partials.Gather(),
                                                   opts_));
      return Rdd::Single(std::move(final_value));
    }
    case OpKind::kCount: {
      metrics_->sim_overhead_micros +=
          static_cast<int64_t>(scheduler_->overhead().collect_fixed_us);
      return Rdd::Single(Dataset(std::vector<Record>{
          Record({Value(static_cast<int64_t>(in0.TotalRows()))})}));
    }
    case OpKind::kBroadcastMap: {
      const auto& udf = static_cast<const BroadcastMapOp&>(op).udf();
      // Materialize the side input once (a broadcast variable).
      const Dataset broadcast = inputs[1]->Gather();
      metrics_->sim_overhead_micros +=
          static_cast<int64_t>(scheduler_->overhead().collect_fixed_us);
      return MapPartitions(in0, [this, &udf, &broadcast](const Dataset& d,
                                                   std::size_t) {
        return kernels::BroadcastMap(udf, d, broadcast, opts_);
      });
    }
    case OpKind::kJoin: {
      const auto& j = static_cast<const JoinOp&>(op);
      RHEEM_ASSIGN_OR_RETURN(Rdd left,
                             ShuffleByKey(in0, j.left_key(), num_partitions_,
                                          scheduler_, metrics_));
      RHEEM_ASSIGN_OR_RETURN(Rdd right,
                             ShuffleByKey(*inputs[1], j.right_key(),
                                          num_partitions_, scheduler_,
                                          metrics_));
      return MapPartitions(left, [&](const Dataset& d, std::size_t i) {
        return j.algorithm() == JoinAlgorithm::kHash
                   ? kernels::HashJoin(j.left_key(), j.right_key(), d,
                                       right.partition(i), opts_)
                   : kernels::SortMergeJoin(j.left_key(), j.right_key(), d,
                                            right.partition(i));
      });
    }
    case OpKind::kThetaJoin: {
      const auto& cond = static_cast<const ThetaJoinOp&>(op).condition();
      const Dataset broadcast = inputs[1]->Gather();  // broadcast join
      metrics_->sim_overhead_micros +=
          static_cast<int64_t>(scheduler_->overhead().collect_fixed_us);
      return MapPartitions(in0, [&cond, &broadcast](const Dataset& d,
                                                    std::size_t) {
        return kernels::ThetaJoin(cond, d, broadcast);
      });
    }
    case OpKind::kIEJoin: {
      const auto& spec = static_cast<const IEJoinOp&>(op).spec();
      const Dataset broadcast = inputs[1]->Gather();
      metrics_->sim_overhead_micros +=
          static_cast<int64_t>(scheduler_->overhead().collect_fixed_us);
      return MapPartitions(in0, [&spec, &broadcast](const Dataset& d,
                                                    std::size_t) {
        return kernels::IEJoin(spec, d, broadcast);
      });
    }
    case OpKind::kCrossProduct: {
      const Dataset broadcast = inputs[1]->Gather();
      metrics_->sim_overhead_micros +=
          static_cast<int64_t>(scheduler_->overhead().collect_fixed_us);
      return MapPartitions(in0, [&broadcast](const Dataset& d, std::size_t) {
        return kernels::CrossProduct(d, broadcast);
      });
    }
    case OpKind::kUnion: {
      std::vector<Dataset> parts = in0.partitions();
      for (const Dataset& p : inputs[1]->partitions()) parts.push_back(p);
      return Rdd(std::move(parts));
    }
    case OpKind::kIntersect:
    case OpKind::kSubtract: {
      // Co-partition both sides by record hash, then apply per partition.
      const bool is_intersect = op.kind() == OpKind::kIntersect;
      RHEEM_ASSIGN_OR_RETURN(Rdd left,
                             ShuffleByRecordHash(in0, num_partitions_,
                                                 scheduler_, metrics_));
      RHEEM_ASSIGN_OR_RETURN(Rdd right,
                             ShuffleByRecordHash(*inputs[1], num_partitions_,
                                                 scheduler_, metrics_));
      return MapPartitions(left, [&](const Dataset& d, std::size_t i) {
        return is_intersect ? kernels::Intersect(d, right.partition(i))
                            : kernels::Subtract(d, right.partition(i));
      });
    }
    case OpKind::kTopK: {
      // Per-partition top-k, then a driver-side merge of the candidates.
      const auto& t = static_cast<const TopKOp&>(op);
      RHEEM_ASSIGN_OR_RETURN(
          Rdd local, MapPartitions(in0, [&t](const Dataset& d, std::size_t) {
            return kernels::TopK(t.key(), t.k(), t.ascending(), d);
          }));
      metrics_->sim_overhead_micros +=
          static_cast<int64_t>(scheduler_->overhead().collect_fixed_us);
      RHEEM_ASSIGN_OR_RETURN(
          Dataset merged,
          kernels::TopK(t.key(), t.k(), t.ascending(), local.Gather()));
      return Rdd::Single(std::move(merged));
    }
    case OpKind::kRepeat:
    case OpKind::kDoWhile:
      return EvalLoop(op, in0, *inputs[1]);
    case OpKind::kCollect:
      metrics_->sim_overhead_micros +=
          static_cast<int64_t>(scheduler_->overhead().collect_fixed_us);
      return Rdd::Single(in0.Gather());
  }
  return Status::Unsupported("sparksim cannot execute " + op.kind_name());
}

Result<Rdd> RddWalker::EvalLoop(const PhysicalOperator& op, const Rdd& state0,
                                const Rdd& data) {
  const Plan* body = nullptr;
  int iterations = 0;
  const LoopConditionUdf* condition = nullptr;
  if (op.kind() == OpKind::kRepeat) {
    const auto& rep = static_cast<const RepeatOp&>(op);
    body = &rep.body();
    iterations = rep.num_iterations();
  } else {
    const auto& dw = static_cast<const DoWhileOp&>(op);
    body = &dw.body();
    iterations = dw.max_iterations();
    condition = &dw.condition();
  }
  RHEEM_ASSIGN_OR_RETURN(std::vector<Operator*> body_topo,
                         body->TopologicalOrder());
  const Operator* state_marker = nullptr;
  const Operator* data_marker = nullptr;
  std::vector<Operator*> body_ops;
  for (Operator* o : body_topo) {
    auto* p = dynamic_cast<PhysicalOperator*>(o);
    if (p != nullptr && p->kind() == OpKind::kLoopState) {
      state_marker = p;
      continue;
    }
    if (p != nullptr && p->kind() == OpKind::kLoopData) {
      data_marker = p;
      continue;
    }
    body_ops.push_back(o);
  }

  Rdd state = state0;
  for (int iter = 0; iter < iterations; ++iter) {
    if (condition != nullptr && condition->fn) {
      // The driver inspects the state: a collect per check.
      metrics_->sim_overhead_micros +=
          static_cast<int64_t>(scheduler_->overhead().collect_fixed_us);
      if (!condition->fn(state.Gather(), iter)) break;
    }
    // Every iteration is a fresh job submission on a cluster — the key cost
    // of iterative workloads on this platform (paper Figure 2).
    metrics_->jobs_run += 1;
    metrics_->sim_overhead_micros +=
        static_cast<int64_t>(scheduler_->overhead().job_submit_us +
                             scheduler_->overhead().stage_us);
    RddBindings bindings;
    if (state_marker != nullptr) bindings[state_marker->id()] = &state;
    if (data_marker != nullptr) bindings[data_marker->id()] = &data;
    RddWalker body_walker(num_partitions_, scheduler_, metrics_, fuse_, opts_);
    body_walker.next_zip_id_ = next_zip_id_;
    // The loop sink feeds the next iteration: it must stay addressable.
    std::unordered_set<int> body_preserve;
    if (body->sink() != nullptr) body_preserve.insert(body->sink()->id());
    RHEEM_RETURN_IF_ERROR(body_walker.RunOps(body_ops, bindings, body_preserve));
    next_zip_id_ = body_walker.next_zip_id_;
    // The body may return a marker directly (degenerate bodies).
    if (body->sink() == state_marker) continue;
    if (body->sink() == data_marker) {
      state = data;
      continue;
    }
    RHEEM_ASSIGN_OR_RETURN(state, body_walker.TakeResult(body->sink()->id()));
  }
  return state;
}

}  // namespace sparksim
}  // namespace rheem
