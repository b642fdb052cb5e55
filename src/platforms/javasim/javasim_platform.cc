#include "platforms/javasim/javasim_platform.h"

#include "core/optimizer/stage_splitter.h"
#include "platforms/javasim/javasim_operators.h"

namespace rheem {

namespace {

BasicCostModel::Params JavaParams(const Config& config) {
  BasicCostModel::Params p;
  p.per_quantum_micros = config.GetDouble("javasim.per_quantum_us", 0.03)
                             .ValueOr(0.03);
  // Morsel parallelism gives javasim a modeled intra-process speedup; it is
  // a fixed config constant (not hardware-sniffed) so platform choices stay
  // reproducible. Still far below sparksim's slot count: heavy parallel jobs
  // keep landing on the cluster platform.
  const bool parallel = config.GetBool("kernels.parallel", true).ValueOr(true);
  p.parallelism =
      parallel ? config.GetDouble("kernels.cost_parallelism", 3.0).ValueOr(3.0)
               : 1.0;
  const bool fuse = config.GetBool("kernels.fuse", true).ValueOr(true);
  p.fusion_discount =
      fuse ? config.GetDouble("kernels.fusion_discount", 0.75).ValueOr(0.75)
           : 1.0;
  p.stage_overhead_micros = 0.0;
  p.job_overhead_micros = 0.0;
  p.boundary_micros_per_byte = 0.0004;
  p.boundary_fixed_micros = 20.0;
  p.shuffle_micros_per_quantum = 0.0;  // no shuffles in one process
  return p;
}

MappingTable JavaMappings() {
  MappingTable t;
  auto add = [&t](OpKind kind, const char* exec, double weight = 1.0,
                  const char* context = "") {
    t.Add(OperatorMapping{kind, "", exec, weight, context});
  };
  add(OpKind::kCollectionSource, "JavaCollectionSource");
  add(OpKind::kMap, "JavaMap");
  add(OpKind::kFlatMap, "JavaFlatMap");
  add(OpKind::kFilter, "JavaFilter");
  add(OpKind::kProject, "JavaProject");
  add(OpKind::kDistinct, "JavaHashDistinct");
  add(OpKind::kSort, "JavaSort");
  add(OpKind::kSample, "JavaBernoulliSample");
  add(OpKind::kZipWithId, "JavaZipWithId");
  add(OpKind::kReduceByKey, "JavaReduceByKey");
  t.Add(OperatorMapping{OpKind::kGroupByKey, "HashGroupBy", "JavaHashGroupBy",
                        1.0, "hash table over whole input"});
  t.Add(OperatorMapping{OpKind::kGroupByKey, "SortGroupBy", "JavaSortGroupBy",
                        1.0, "stable sort + run scan"});
  add(OpKind::kGlobalReduce, "JavaReduce");
  add(OpKind::kCount, "JavaCount");
  add(OpKind::kBroadcastMap, "JavaMapWithSideInput");
  t.Add(OperatorMapping{OpKind::kJoin, "HashJoin", "JavaHashJoin", 1.0, ""});
  t.Add(OperatorMapping{OpKind::kJoin, "SortMergeJoin", "JavaSortMergeJoin",
                        1.0, ""});
  add(OpKind::kThetaJoin, "JavaNestedLoopJoin");
  add(OpKind::kIEJoin, "JavaIEJoin", 1.0,
      "bit-array inequality join, single-threaded");
  add(OpKind::kCrossProduct, "JavaCartesian");
  add(OpKind::kUnion, "JavaUnionAll");
  add(OpKind::kIntersect, "JavaHashIntersect");
  add(OpKind::kSubtract, "JavaHashSubtract");
  add(OpKind::kTopK, "JavaHeapTopK", 1.0, "O(n log k) heap selection");
  add(OpKind::kRepeat, "JavaForLoop", 1.0, "plain in-process loop");
  add(OpKind::kDoWhile, "JavaWhileLoop");
  add(OpKind::kCollect, "JavaCollect");
  return t;
}

}  // namespace

JavaSimPlatform::JavaSimPlatform(const Config& config)
    : Platform(kName),
      kernel_opts_(kernels::KernelOptions::FromConfig(config)),
      fuse_(config.GetBool("kernels.fuse", true).ValueOr(true)),
      cost_model_(JavaParams(config)) {
  mappings_ = JavaMappings();
}

Result<std::vector<Dataset>> JavaSimPlatform::ExecuteStage(
    const Stage& stage, const BoundaryMap& boundary_inputs,
    ExecutionMetrics* metrics) {
  javasim::DatasetWalker walker(metrics, kernel_opts_, fuse_);
  // Stage outputs are read back by the executor: never fuse them away.
  std::unordered_set<int> preserve;
  for (const Operator* out : stage.outputs()) preserve.insert(out->id());
  RHEEM_RETURN_IF_ERROR(walker.RunOps(stage.ops(), boundary_inputs, preserve));
  std::vector<Dataset> outputs;
  outputs.reserve(stage.outputs().size());
  // The walker is done with its results: move them out.
  for (const Operator* out : stage.outputs()) {
    RHEEM_ASSIGN_OR_RETURN(Dataset d, walker.TakeResult(out->id()));
    outputs.push_back(std::move(d));
  }
  return outputs;
}

}  // namespace rheem
