#ifndef RHEEM_CORE_OPTIMIZER_COST_MODEL_H_
#define RHEEM_CORE_OPTIMIZER_COST_MODEL_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "core/operators/physical_ops.h"
#include "core/optimizer/cardinality.h"

namespace rheem {

class Stage;  // core/optimizer/stage_splitter.h

/// \brief Pluggable per-platform cost model (paper §4.2, requirement 2: cost
/// models are plugins registered with the optimizer, never hard-coded).
///
/// All costs are *virtual microseconds*: an abstract currency the enumerator
/// compares across platforms. Platforms with real distributed analogues remap
/// their simulated overhead constants into the same currency so estimated and
/// measured behaviour stay aligned.
class PlatformCostModel {
 public:
  virtual ~PlatformCostModel() = default;

  /// Charged once per task atom (stage) scheduled on this platform.
  virtual double StageOverheadMicros() const = 0;

  /// Charged once per job submission. Loop bodies re-submit per iteration,
  /// which is precisely what makes iterative ML expensive on a
  /// cluster-style platform for small data (paper Figure 2).
  virtual double JobOverheadMicros() const = 0;

  /// Cost of executing `op` given its input cardinalities and its estimated
  /// output cardinality.
  virtual double OperatorCostMicros(const PhysicalOperator& op,
                                    const std::vector<double>& in_cards,
                                    double out_card) const = 0;

  /// Per-byte cost of crossing this platform's boundary (serialization on
  /// egress / deserialization on ingress). Consumed by the movement model.
  virtual double BoundaryCostMicrosPerByte() const = 0;

  /// Fixed cost of setting up one boundary crossing into/out of here.
  virtual double BoundaryFixedMicros() const = 0;
};

/// \brief Reusable cost skeleton: per-quantum base cost scaled by the
/// operator's UDF cost hints and mapping weights, with a parallelism divisor.
///
/// Concrete platforms instantiate this with their constants:
///   javasim:  base ~ 0.03us/quantum, parallelism 1, zero overheads
///   sparksim: base ~ 0.03us/quantum, parallelism = slots, heavy overheads
///   relsim:   cheap scans/aggregations, no UDF loops beyond relational ops
class BasicCostModel : public PlatformCostModel {
 public:
  struct Params {
    double per_quantum_micros = 0.03;
    double parallelism = 1.0;
    double stage_overhead_micros = 0.0;
    double job_overhead_micros = 0.0;
    double boundary_micros_per_byte = 0.0005;
    double boundary_fixed_micros = 50.0;
    /// Extra per-quantum cost at shuffle boundaries (key-based operators).
    double shuffle_micros_per_quantum = 0.0;
    /// Multiplier (<= 1.0) on the per-tuple cost of pipeline-fusable
    /// operators (Map/FlatMap/Filter/Project): platforms that fuse such
    /// chains into one pass skip the per-operator materialization, so their
    /// tuples are cheaper. 1.0 = fusion off / not modeled.
    double fusion_discount = 1.0;
  };

  explicit BasicCostModel(Params params) : params_(params) {}

  double StageOverheadMicros() const override {
    return params_.stage_overhead_micros;
  }
  double JobOverheadMicros() const override {
    return params_.job_overhead_micros;
  }
  double OperatorCostMicros(const PhysicalOperator& op,
                            const std::vector<double>& in_cards,
                            double out_card) const override;
  double BoundaryCostMicrosPerByte() const override {
    return params_.boundary_micros_per_byte;
  }
  double BoundaryFixedMicros() const override {
    return params_.boundary_fixed_micros;
  }

  const Params& params() const { return params_; }

 private:
  Params params_;
};

/// Returns the UDF cost/selectivity hints attached to `op`, if any.
/// Exposed for the cardinality estimator, which shares this logic.
struct UdfHints {
  double selectivity = 1.0;
  double cost_factor = 1.0;
};
UdfHints HintsOf(const PhysicalOperator& op);

/// Estimated execution cost of one stage under its platform's cost model and
/// the given cardinalities: the operator costs (scaled by their mapping
/// weights) plus the platform's fixed stage overhead. The executor divides a
/// stage's measured time by this to calibrate the StatisticsCatalog's
/// per-(operator, platform) cost factors.
Result<double> EstimateStageCost(const Stage& stage,
                                 const EstimateMap& estimates);

}  // namespace rheem

#endif  // RHEEM_CORE_OPTIMIZER_COST_MODEL_H_
