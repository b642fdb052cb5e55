#ifndef RHEEM_CORE_OPTIMIZER_STAGE_SPLITTER_H_
#define RHEEM_CORE_OPTIMIZER_STAGE_SPLITTER_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "core/mapping/platform.h"
#include "core/optimizer/cardinality.h"
#include "core/optimizer/enumerator.h"
#include "core/plan/plan.h"

namespace rheem {

/// \brief A task atom (paper §4.2): a maximal connected subplan whose
/// operators all execute on the same platform, scheduled as one unit.
class Stage {
 public:
  Stage(int id, Platform* platform) : id_(id), platform_(platform) {}

  int id() const { return id_; }
  Platform* platform() const { return platform_; }

  /// Operators of this stage in topological order.
  const std::vector<Operator*>& ops() const { return ops_; }

  /// Operators whose outputs leave the stage (consumed by downstream stages
  /// and/or constituting the plan result), in deterministic order. Each
  /// operator is listed once, so a platform may move each result out.
  const std::vector<Operator*>& outputs() const { return outputs_; }

  /// Upstream operators (living in other stages) whose outputs this stage
  /// consumes.
  const std::vector<Operator*>& boundary_inputs() const {
    return boundary_inputs_;
  }

  /// Stage ids this stage depends on.
  const std::vector<int>& upstream_stages() const { return upstream_stages_; }

  bool Contains(const Operator* op) const;

 private:
  friend class StageSplitter;
  int id_;
  Platform* platform_;
  std::vector<Operator*> ops_;
  std::vector<Operator*> outputs_;
  std::vector<Operator*> boundary_inputs_;
  std::vector<int> upstream_stages_;
};

/// \brief Physical plan + platform assignment compiled to scheduled stages:
/// RHEEM's execution plan (paper §3.1: "execution plans that can run on
/// multiple platforms").
struct ExecutionPlan {
  const Plan* plan = nullptr;
  PlatformAssignment assignment;
  std::vector<Stage> stages;  // topologically ordered
  int final_stage = -1;       // stage containing the plan sink

  /// Compile-time cardinality estimates the assignment was costed with.
  /// When populated (RheemContext::Compile does), the executor compares
  /// them against observed stage outputs to drive progressive
  /// re-optimization; empty means "no estimates" and disables it.
  EstimateMap estimates;

  /// Enumerator options the plan was produced with, so a mid-job re-plan
  /// (failover or re-optimization) honors the same constraints (forced
  /// platform, movement awareness, pinned operators).
  EnumeratorOptions enum_options;

  /// Multi-line explanation: stages, platforms, operators, estimates.
  std::string Explain(const EstimateMap& estimates = {}) const;
};

/// \brief Splits an assigned physical plan into task atoms (paper §4.2,
/// requirement 4: divide the plan into atoms executed by single platforms).
class StageSplitter {
 public:
  static Result<ExecutionPlan> Split(const Plan& plan,
                                     PlatformAssignment assignment);
};

}  // namespace rheem

#endif  // RHEEM_CORE_OPTIMIZER_STAGE_SPLITTER_H_
