#ifndef RHEEM_PLATFORMS_JAVASIM_JAVASIM_OPERATORS_H_
#define RHEEM_PLATFORMS_JAVASIM_JAVASIM_OPERATORS_H_

#include <map>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "core/mapping/platform.h"
#include "core/operators/kernels.h"
#include "core/operators/physical_ops.h"
#include "data/dataset.h"

namespace rheem {
namespace javasim {

/// \brief Execution-operator layer of the javasim platform: eager evaluation
/// of whole Datasets — the "plain Java program" side of the paper's Figure 2.
///
/// Each physical operator maps to one of these evaluations via the mapping
/// table declared in JavaSimPlatform; the walker executes a task atom (or a
/// loop body) in topological order with zero scheduling overhead. Kernels
/// run morsel-parallel per `opts` (kernels.* config keys), and with `fuse`
/// enabled consecutive Map/Filter/FlatMap/Project runs execute as a single
/// FusedPipeline pass with no intermediate Dataset.
class DatasetWalker {
 public:
  explicit DatasetWalker(ExecutionMetrics* metrics,
                         kernels::KernelOptions opts = {}, bool fuse = false)
      : metrics_(metrics), opts_(opts), fuse_(fuse) {}

  /// Evaluates `ops` (already topologically ordered) resolving out-of-stage
  /// inputs from `external` (producer op id -> dataset). Operators whose ids
  /// appear in `preserve` keep an addressable result (they are never fused
  /// into the middle of a pipeline).
  Status RunOps(const std::vector<Operator*>& ops, const BoundaryMap& external,
                const std::unordered_set<int>& preserve = {});

  Result<const Dataset*> ResultOf(int op_id) const;

  /// Moves an operator's result out of the walker; a later ResultOf or
  /// TakeResult for it fails.
  Result<Dataset> TakeResult(int op_id);

 private:
  /// Resolves one upstream operator's output (stage-local or external).
  Result<const Dataset*> ResolveInput(const Operator& producer,
                                      const BoundaryMap& external,
                                      const Operator& consumer) const;

  /// Dispatches one operator to its execution kernel.
  Result<Dataset> EvalOperator(const PhysicalOperator& op,
                               const std::vector<const Dataset*>& inputs);

  /// Runs a Repeat/DoWhile body to completion (inputs: state, data).
  Result<Dataset> EvalLoop(const PhysicalOperator& op, const Dataset& state0,
                           const Dataset& data);

  ExecutionMetrics* metrics_;
  kernels::KernelOptions opts_;
  bool fuse_ = false;
  std::map<int, Dataset> results_;
  int64_t next_zip_id_ = 0;
};

}  // namespace javasim
}  // namespace rheem

#endif  // RHEEM_PLATFORMS_JAVASIM_JAVASIM_OPERATORS_H_
