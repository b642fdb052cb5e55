#ifndef RHEEM_PLATFORMS_SPARKSIM_SPARKSIM_OPERATORS_H_
#define RHEEM_PLATFORMS_SPARKSIM_SPARKSIM_OPERATORS_H_

#include <map>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "core/mapping/platform.h"
#include "core/operators/kernels.h"
#include "core/operators/physical_ops.h"
#include "platforms/sparksim/rdd.h"
#include "platforms/sparksim/scheduler.h"

namespace rheem {
namespace sparksim {

/// External inputs to a walker run: producer op id -> partitioned data.
using RddBindings = std::unordered_map<int, const Rdd*>;

/// \brief Execution-operator layer of sparksim: evaluates physical operators
/// over partitioned Rdds with task-parallel narrow transformations, real
/// hash shuffles at key boundaries, broadcast side inputs, and per-iteration
/// job submission charges for loops — the "Spark job" side of Figure 2.
///
/// Parallelism comes from one task per partition on the slot pool; kernels
/// inside a task run serially so the virtual cluster clock prices each
/// task's true CPU work. With `fuse` enabled, consecutive narrow
/// record-at-a-time operators (Map/Filter/FlatMap/Project) execute as one
/// fused pass per partition — shuffle boundaries are never crossed because
/// key-based operators are not fusable. A columnar chain fed by a collection
/// source scans the table in place, without splitting it into partitions.
class RddWalker {
 public:
  /// `task_opts` governs the kernels invoked inside scheduler tasks. It must
  /// stay serial (partitions are the parallelism unit; nested pool work would
  /// hide from the virtual cluster clock) but may enable the columnar batch
  /// path, which speeds a task up without adding threads.
  RddWalker(std::size_t num_partitions, TaskScheduler* scheduler,
            ExecutionMetrics* metrics, bool fuse = false,
            kernels::KernelOptions task_opts = kernels::KernelOptions::Serial())
      : num_partitions_(num_partitions == 0 ? 1 : num_partitions),
        scheduler_(scheduler), metrics_(metrics), fuse_(fuse),
        opts_(task_opts) {
    opts_.parallel = false;  // enforced: tasks never nest a pool
    opts_.pool = nullptr;
  }

  /// Operators whose ids appear in `preserve` keep an addressable Rdd
  /// result (stage outputs, loop sinks) and are never fused away.
  Status RunOps(const std::vector<Operator*>& ops, const RddBindings& external,
                const std::unordered_set<int>& preserve = {});

  Result<const Rdd*> ResultOf(int op_id) const;

  /// Moves an operator's result out of the walker; a later ResultOf or
  /// TakeResult for it fails.
  Result<Rdd> TakeResult(int op_id);

 private:
  /// Resolves one upstream operator's output (stage-local or external). A
  /// source table is split into partitions here, on its first such read.
  Result<const Rdd*> ResolveInput(const Operator& producer,
                                  const RddBindings& external,
                                  const Operator& consumer);

  /// Runs a fused chain over `producer`'s output. A source table with a
  /// columnar form is scanned in place when the chain runs columnar: each
  /// task drives one row range of the table's shared Batch (TableMemo).
  Result<Rdd> RunChain(const Operator& producer, const RddBindings& external,
                       const Operator& head,
                       const std::vector<kernels::FusedStep>& steps);

  Result<Rdd> EvalOperator(const PhysicalOperator& op,
                           const std::vector<const Rdd*>& inputs);
  Result<Rdd> EvalLoop(const PhysicalOperator& op, const Rdd& state0,
                       const Rdd& data);

  /// Applies a per-partition kernel as one task per partition.
  Result<Rdd> MapPartitions(
      const Rdd& in,
      const std::function<Result<Dataset>(const Dataset&, std::size_t)>& fn);

  std::size_t num_partitions_;
  TaskScheduler* scheduler_;
  ExecutionMetrics* metrics_;
  bool fuse_ = false;
  kernels::KernelOptions opts_ = kernels::KernelOptions::Serial();
  std::map<int, Rdd> results_;
  /// Source tables not (yet) split into partitions: op id -> shared table.
  std::map<int, std::shared_ptr<const Dataset>> tables_;
  int64_t next_zip_id_ = 0;
};

}  // namespace sparksim
}  // namespace rheem

#endif  // RHEEM_PLATFORMS_SPARKSIM_SPARKSIM_OPERATORS_H_
