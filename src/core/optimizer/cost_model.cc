#include "core/optimizer/cost_model.h"

#include <algorithm>
#include <cmath>

#include "core/optimizer/stage_splitter.h"

namespace rheem {

UdfHints HintsOf(const PhysicalOperator& op) {
  UdfHints h;
  switch (op.kind()) {
    case OpKind::kMap: {
      const auto& m = static_cast<const MapOp&>(op).udf().meta;
      h = {m.selectivity, m.cost_factor};
      break;
    }
    case OpKind::kFlatMap: {
      const auto& m = static_cast<const FlatMapOp&>(op).udf().meta;
      h = {m.selectivity, m.cost_factor};
      break;
    }
    case OpKind::kFilter: {
      const auto& m = static_cast<const FilterOp&>(op).udf().meta;
      h = {m.selectivity, m.cost_factor};
      break;
    }
    case OpKind::kBroadcastMap: {
      const auto& m = static_cast<const BroadcastMapOp&>(op).udf().meta;
      h = {m.selectivity, m.cost_factor};
      break;
    }
    case OpKind::kReduceByKey: {
      // The key UDF's selectivity hint is read as the distinct-key ratio.
      const auto& rb = static_cast<const ReduceByKeyOp&>(op);
      h = {rb.key().meta.selectivity, rb.reduce().meta.cost_factor};
      break;
    }
    case OpKind::kGroupByKey: {
      const auto& gb = static_cast<const GroupByKeyOp&>(op);
      h = {gb.key().meta.selectivity, gb.group().meta.cost_factor};
      break;
    }
    case OpKind::kThetaJoin: {
      const auto& m = static_cast<const ThetaJoinOp&>(op).condition().meta;
      h = {m.selectivity, m.cost_factor};
      break;
    }
    default:
      break;
  }
  return h;
}

double BasicCostModel::OperatorCostMicros(const PhysicalOperator& op,
                                          const std::vector<double>& in_cards,
                                          double out_card) const {
  const double q = params_.per_quantum_micros;
  const double par = std::max(1.0, params_.parallelism);
  const double shuffle = params_.shuffle_micros_per_quantum;
  const double fuse = params_.fusion_discount;
  const UdfHints hints = HintsOf(op);

  const double in0 = in_cards.empty() ? 0.0 : in_cards[0];
  const double in1 = in_cards.size() > 1 ? in_cards[1] : 0.0;
  auto nlogn = [](double n) { return n * std::log2(n + 2.0); };

  switch (op.kind()) {
    case OpKind::kCollectionSource:
    case OpKind::kStageInput:
    case OpKind::kLoopState:
    case OpKind::kLoopData:
      return out_card * q * 0.1;  // hand-off only
    case OpKind::kCollect:
      return in0 * q * 0.1;
    case OpKind::kMap:
    case OpKind::kFlatMap:
    case OpKind::kFilter:
      return in0 * q * hints.cost_factor * fuse / par;
    case OpKind::kBroadcastMap:  // side input blocks fusion
      return in0 * q * hints.cost_factor / par;
    case OpKind::kProject:
      return in0 * q * fuse / par;
    case OpKind::kZipWithId:
    case OpKind::kSample:
      return in0 * q / par;
    case OpKind::kDistinct:
      return in0 * q * 1.5 / par + in0 * shuffle;
    case OpKind::kSort:
      return nlogn(in0) * q * 0.4 / par + in0 * shuffle;
    case OpKind::kReduceByKey:
      return in0 * q * (1.0 + hints.cost_factor) / par + in0 * shuffle;
    case OpKind::kGroupByKey: {
      const auto& gb = static_cast<const GroupByKeyOp&>(op);
      const double build =
          gb.algorithm() == GroupByAlgorithm::kHash
              ? in0 * q * 1.2              // hash-table build + probe
              : nlogn(in0) * q * 0.4;      // sort + run detection
      return build / par + in0 * q * hints.cost_factor / par + in0 * shuffle;
    }
    case OpKind::kGlobalReduce:
    case OpKind::kCount:
      return in0 * q / par;
    case OpKind::kJoin: {
      const auto& j = static_cast<const JoinOp&>(op);
      const double work = j.algorithm() == JoinAlgorithm::kHash
                              ? (in0 + in1 + out_card) * q
                              : (nlogn(in0) + nlogn(in1) + out_card) * q * 0.5;
      return work / par + (in0 + in1) * shuffle;
    }
    case OpKind::kThetaJoin:
      return in0 * in1 * q * hints.cost_factor / par + (in0 + in1) * shuffle;
    case OpKind::kIEJoin: {
      // sorts + bit-array scan (1/64 of the pair space) + output.
      const double work =
          (nlogn(in0) + nlogn(in1)) * q * 0.5 + in0 * in1 * q / 64.0 +
          out_card * q;
      return work / par + (in0 + in1) * shuffle;
    }
    case OpKind::kCrossProduct:
      return in0 * in1 * q / par + (in0 + in1) * shuffle;
    case OpKind::kUnion:
      return (in0 + in1) * q * 0.1 / par;
    case OpKind::kIntersect:
    case OpKind::kSubtract:
      return (in0 + in1) * q * 1.2 / par + (in0 + in1) * shuffle;
    case OpKind::kTopK: {
      const double k = static_cast<double>(
          static_cast<const TopKOp&>(op).k());
      return in0 * std::log2(k + 2.0) * q * 0.3 / par;
    }
    case OpKind::kRepeat:
    case OpKind::kDoWhile:
      // Loop cost = iterations x (body + job overhead); computed by the
      // enumerator, which can recurse into the body with cardinalities.
      return 0.0;
  }
  return in0 * q / par;
}

Result<double> EstimateStageCost(const Stage& stage,
                                 const EstimateMap& estimates) {
  const PlatformCostModel& model = stage.platform()->cost_model();
  double total = model.StageOverheadMicros();
  for (Operator* base : stage.ops()) {
    auto* op = dynamic_cast<PhysicalOperator*>(base);
    if (op == nullptr) {
      return Status::InvalidPlan("stage contains a non-physical operator");
    }
    auto self = estimates.find(op->id());
    if (self == estimates.end()) {
      return Status::InvalidArgument("missing estimate for operator " +
                                     op->name());
    }
    std::vector<double> in_cards;
    for (Operator* in : op->inputs()) {
      auto it = estimates.find(in->id());
      in_cards.push_back(it != estimates.end() ? it->second.cardinality : 0.0);
    }
    const auto* mapping = stage.platform()->mappings().Find(*op);
    const double weight = mapping != nullptr ? mapping->cost_weight : 1.0;
    total += weight *
             model.OperatorCostMicros(*op, in_cards, self->second.cardinality);
  }
  return total;
}

}  // namespace rheem
