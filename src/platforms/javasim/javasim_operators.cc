#include "platforms/javasim/javasim_operators.h"

#include "common/metrics.h"
#include "common/trace.h"
#include "core/operators/fusion.h"
#include "core/operators/iejoin.h"
#include "core/plan/plan.h"

namespace rheem {
namespace javasim {

Result<const Dataset*> DatasetWalker::ResolveInput(
    const Operator& producer, const BoundaryMap& external,
    const Operator& consumer) const {
  auto it = results_.find(producer.id());
  if (it != results_.end()) return &it->second;
  auto ext = external.find(producer.id());
  if (ext == external.end()) {
    return Status::ExecutionError("javasim: missing input #" +
                                  std::to_string(producer.id()) + " for " +
                                  consumer.name());
  }
  return ext->second;
}

Status DatasetWalker::RunOps(const std::vector<Operator*>& ops,
                             const BoundaryMap& external,
                             const std::unordered_set<int>& preserve) {
  const std::vector<fusion::FusionUnit> units =
      fusion::PlanFusionUnits(ops, preserve, fuse_);
  for (const fusion::FusionUnit& unit : units) {
    if (unit.fused()) {
      // One pass over the head's input; only the tail's result materializes
      // (the planner guarantees no one else reads the intermediates).
      Operator* head = unit.ops.front();
      Operator* tail = unit.ops.back();
      if (dynamic_cast<PhysicalOperator*>(head) == nullptr ||
          head->inputs().empty()) {
        return Status::InvalidPlan("javasim: malformed fused chain at " +
                                   head->name());
      }
      RHEEM_ASSIGN_OR_RETURN(const Dataset* in,
                             ResolveInput(*head->inputs()[0], external, *head));
      TraceSpan chain_span("chain", "javasim");
      chain_span.AddTag("operators", static_cast<int64_t>(unit.ops.size()));
      chain_span.AddTag("tail", tail->name());
      RHEEM_ASSIGN_OR_RETURN(
          Dataset out,
          kernels::FusedPipeline(fusion::StepsFor(unit.ops), *in, opts_));
      results_[tail->id()] = std::move(out);
      if (metrics_ != nullptr) {
        metrics_->fused_operators += static_cast<int64_t>(unit.ops.size());
      }
      CountIfEnabled(
          MetricsRegistry::Global().counter("javasim.fused_operators"),
          static_cast<int64_t>(unit.ops.size()));
      continue;
    }
    Operator* base = unit.ops.front();
    auto* op = dynamic_cast<PhysicalOperator*>(base);
    if (op == nullptr) {
      return Status::InvalidPlan("javasim can only execute physical operators");
    }
    std::vector<const Dataset*> inputs;
    inputs.reserve(op->inputs().size());
    for (Operator* in : op->inputs()) {
      RHEEM_ASSIGN_OR_RETURN(const Dataset* d,
                             ResolveInput(*in, external, *op));
      inputs.push_back(d);
    }
    TraceSpan op_span("chain", "javasim");
    op_span.AddTag("operators", static_cast<int64_t>(1));
    op_span.AddTag("tail", op->name());
    RHEEM_ASSIGN_OR_RETURN(Dataset out, EvalOperator(*op, inputs));
    results_[op->id()] = std::move(out);
  }
  return Status::OK();
}

Result<const Dataset*> DatasetWalker::ResultOf(int op_id) const {
  auto it = results_.find(op_id);
  if (it == results_.end()) {
    return Status::ExecutionError("javasim: no result for operator #" +
                                  std::to_string(op_id));
  }
  return &it->second;
}

Result<Dataset> DatasetWalker::TakeResult(int op_id) {
  auto it = results_.find(op_id);
  if (it == results_.end()) {
    return Status::ExecutionError("javasim: no result for operator #" +
                                  std::to_string(op_id));
  }
  Dataset out = std::move(it->second);
  results_.erase(it);
  // Kernels reserve for their input's size, and a moved result would keep
  // that slack for as long as its holder does (result caches weigh a
  // Dataset by its rows). Trimming moves the records; it copies no values.
  out.mutable_records().shrink_to_fit();
  return out;
}

Result<Dataset> DatasetWalker::EvalOperator(
    const PhysicalOperator& op, const std::vector<const Dataset*>& inputs) {
  static const Dataset* const kEmpty = new Dataset();
  const Dataset& in0 = inputs.empty() ? *kEmpty : *inputs[0];
  switch (op.kind()) {
    case OpKind::kCollectionSource:
      return static_cast<const CollectionSourceOp&>(op).data();
    case OpKind::kStageInput:
    case OpKind::kLoopState:
    case OpKind::kLoopData:
      return Status::ExecutionError(op.kind_name() +
                                    " must be bound externally");
    case OpKind::kMap:
      return kernels::Map(static_cast<const MapOp&>(op).udf(), in0, opts_);
    case OpKind::kFlatMap:
      return kernels::FlatMap(static_cast<const FlatMapOp&>(op).udf(), in0,
                              opts_);
    case OpKind::kFilter:
      return kernels::Filter(static_cast<const FilterOp&>(op).udf(), in0,
                             opts_);
    case OpKind::kProject:
      return kernels::Project(static_cast<const ProjectOp&>(op).columns(), in0,
                              opts_);
    case OpKind::kDistinct:
      return kernels::Distinct(in0);
    case OpKind::kSort:
      return kernels::SortByKey(static_cast<const SortOp&>(op).key(), in0,
                                opts_);
    case OpKind::kSample: {
      const auto& s = static_cast<const SampleOp&>(op);
      return kernels::Sample(s.fraction(), s.seed(), in0, opts_);
    }
    case OpKind::kZipWithId: {
      auto out = kernels::ZipWithId(next_zip_id_, in0, opts_);
      if (out.ok()) next_zip_id_ += static_cast<int64_t>(in0.size());
      return out;
    }
    case OpKind::kReduceByKey: {
      const auto& r = static_cast<const ReduceByKeyOp&>(op);
      return kernels::ReduceByKey(r.key(), r.reduce(), in0, opts_);
    }
    case OpKind::kGroupByKey: {
      const auto& g = static_cast<const GroupByKeyOp&>(op);
      return g.algorithm() == GroupByAlgorithm::kHash
                 ? kernels::HashGroupBy(g.key(), g.group(), in0, opts_)
                 : kernels::SortGroupBy(g.key(), g.group(), in0, opts_);
    }
    case OpKind::kGlobalReduce:
      return kernels::GlobalReduce(
          static_cast<const GlobalReduceOp&>(op).reduce(), in0, opts_);
    case OpKind::kCount:
      return kernels::Count(in0, opts_);
    case OpKind::kBroadcastMap:
      return kernels::BroadcastMap(
          static_cast<const BroadcastMapOp&>(op).udf(), in0, *inputs[1],
          opts_);
    case OpKind::kJoin: {
      const auto& j = static_cast<const JoinOp&>(op);
      return j.algorithm() == JoinAlgorithm::kHash
                 ? kernels::HashJoin(j.left_key(), j.right_key(), in0,
                                     *inputs[1], opts_)
                 : kernels::SortMergeJoin(j.left_key(), j.right_key(), in0,
                                          *inputs[1]);
    }
    case OpKind::kThetaJoin:
      return kernels::ThetaJoin(
          static_cast<const ThetaJoinOp&>(op).condition(), in0, *inputs[1]);
    case OpKind::kIEJoin:
      return kernels::IEJoin(static_cast<const IEJoinOp&>(op).spec(), in0,
                             *inputs[1]);
    case OpKind::kCrossProduct:
      return kernels::CrossProduct(in0, *inputs[1]);
    case OpKind::kUnion:
      return kernels::Union(in0, *inputs[1]);
    case OpKind::kIntersect:
      return kernels::Intersect(in0, *inputs[1]);
    case OpKind::kSubtract:
      return kernels::Subtract(in0, *inputs[1]);
    case OpKind::kTopK: {
      const auto& t = static_cast<const TopKOp&>(op);
      return kernels::TopK(t.key(), t.k(), t.ascending(), in0);
    }
    case OpKind::kRepeat:
    case OpKind::kDoWhile:
      return EvalLoop(op, in0, *inputs[1]);
    case OpKind::kCollect:
      return in0;
  }
  return Status::Unsupported("javasim cannot execute " + op.kind_name());
}

Result<Dataset> DatasetWalker::EvalLoop(const PhysicalOperator& op,
                                        const Dataset& state0,
                                        const Dataset& data) {
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
  // Locate the marker operators once.
  const Operator* state_marker = nullptr;
  const Operator* data_marker = nullptr;
  for (Operator* o : body_topo) {
    auto* p = dynamic_cast<PhysicalOperator*>(o);
    if (p == nullptr) continue;
    if (p->kind() == OpKind::kLoopState) state_marker = p;
    if (p->kind() == OpKind::kLoopData) data_marker = p;
  }
  // The body sink's result is read back after every iteration.
  std::unordered_set<int> preserve;
  if (body->sink() != nullptr) preserve.insert(body->sink()->id());
  Dataset state = state0;
  for (int iter = 0; iter < iterations; ++iter) {
    if (condition != nullptr && condition->fn && !condition->fn(state, iter)) {
      break;
    }
    BoundaryMap bindings;
    if (state_marker != nullptr) bindings[state_marker->id()] = &state;
    if (data_marker != nullptr) bindings[data_marker->id()] = &data;
    // A fresh walker per iteration: body results must not leak across
    // iterations (ids collide), but the zip-id counter carries over.
    DatasetWalker body_walker(metrics_, opts_, fuse_);
    body_walker.next_zip_id_ = next_zip_id_;
    std::vector<Operator*> body_ops;
    for (Operator* o : body_topo) {
      auto* p = dynamic_cast<PhysicalOperator*>(o);
      if (p != nullptr && (p->kind() == OpKind::kLoopState ||
                           p->kind() == OpKind::kLoopData)) {
        continue;  // bound, not evaluated
      }
      body_ops.push_back(o);
    }
    RHEEM_RETURN_IF_ERROR(body_walker.RunOps(body_ops, bindings, preserve));
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

}  // namespace javasim
}  // namespace rheem
