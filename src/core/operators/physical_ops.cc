#include "core/operators/physical_ops.h"

#include "core/expr/expr.h"
#include "core/optimizer/fingerprint.h"

namespace rheem {

std::string CollectionSourceOp::FingerprintToken() const {
  return kind_name() + "|data=" +
         std::to_string(PlanFingerprint::OfShared(data_));
}

std::string RepeatOp::FingerprintToken() const {
  std::string t = kind_name() + "|iters=" + std::to_string(num_iterations_);
  if (body_ != nullptr) {
    t += "|body=" + std::to_string(PlanFingerprint::Compute(*body_).ValueOr(0));
  }
  return t;
}

std::string DoWhileOp::FingerprintToken() const {
  std::string t = kind_name() + "|max=" + std::to_string(max_iterations_);
  if (body_ != nullptr) {
    t += "|body=" + std::to_string(PlanFingerprint::Compute(*body_).ValueOr(0));
  }
  return t;
}

// Declarative payloads fold their canonical encoding so the executor's
// result cache (keyed on physical fingerprints) distinguishes plans that
// differ only in an expression constant. Closure-only operators keep the
// bare kind token: their parameters are invisible, by construction.
std::string MapOp::FingerprintToken() const {
  std::string t = kind_name();
  if (!udf_.projection.empty()) {
    t += "|proj=";
    for (const auto& f : udf_.projection) t += expr::Canonical(*f) + ";";
  }
  return t;
}

std::string FilterOp::FingerprintToken() const {
  std::string t = kind_name();
  if (udf_.expr != nullptr) t += "|expr=" + expr::Canonical(*udf_.expr);
  return t;
}

std::string JoinOp::FingerprintToken() const {
  std::string t = kind_name();
  if (left_key_.expr != nullptr) {
    t += "|lk=" + expr::Canonical(*left_key_.expr);
  }
  if (right_key_.expr != nullptr) {
    t += "|rk=" + expr::Canonical(*right_key_.expr);
  }
  return t;
}

std::string ThetaJoinOp::FingerprintToken() const {
  std::string t = kind_name();
  if (condition_.pair_expr != nullptr) {
    t += "|expr=" + expr::Canonical(*condition_.pair_expr);
  }
  return t;
}

std::string DeclarativeDetail(const PhysicalOperator& op) {
  switch (op.kind()) {
    case OpKind::kFilter: {
      const auto& udf = static_cast<const FilterOp&>(op).udf();
      if (udf.expr != nullptr) return "filter=" + expr::Pretty(*udf.expr);
      return "";
    }
    case OpKind::kMap: {
      const auto& udf = static_cast<const MapOp&>(op).udf();
      if (udf.projection.empty()) return "";
      std::string out = "map=[";
      for (std::size_t i = 0; i < udf.projection.size(); ++i) {
        if (i > 0) out += ", ";
        out += expr::Pretty(*udf.projection[i]);
      }
      return out + "]";
    }
    case OpKind::kJoin: {
      const auto& j = static_cast<const JoinOp&>(op);
      if (j.left_key().expr == nullptr || j.right_key().expr == nullptr) {
        return "";
      }
      return "join=(" + expr::Pretty(*j.left_key().expr) + ", " +
             expr::Pretty(*j.right_key().expr) + ")";
    }
    case OpKind::kThetaJoin: {
      const auto& udf = static_cast<const ThetaJoinOp&>(op).condition();
      if (udf.pair_expr != nullptr) {
        return "theta=" + expr::Pretty(*udf.pair_expr);
      }
      return "";
    }
    default:
      return "";
  }
}

bool HasOpaqueUdf(const PhysicalOperator& op) {
  switch (op.kind()) {
    case OpKind::kFilter:
      return static_cast<const FilterOp&>(op).udf().expr == nullptr;
    case OpKind::kMap:
      return static_cast<const MapOp&>(op).udf().projection.empty();
    case OpKind::kFlatMap:
    case OpKind::kBroadcastMap:
    case OpKind::kGlobalReduce:
      return true;
    case OpKind::kJoin: {
      const auto& j = static_cast<const JoinOp&>(op);
      return j.left_key().expr == nullptr || j.right_key().expr == nullptr;
    }
    case OpKind::kThetaJoin:
      return static_cast<const ThetaJoinOp&>(op).condition().pair_expr ==
             nullptr;
    case OpKind::kSort:
    case OpKind::kTopK:
    case OpKind::kReduceByKey:
    case OpKind::kGroupByKey:
      return true;  // key/reduce/group closures
    default:
      return false;
  }
}

const char* OpKindToString(OpKind kind) {
  switch (kind) {
    case OpKind::kCollectionSource: return "CollectionSource";
    case OpKind::kStageInput: return "StageInput";
    case OpKind::kLoopState: return "LoopState";
    case OpKind::kLoopData: return "LoopData";
    case OpKind::kMap: return "Map";
    case OpKind::kFlatMap: return "FlatMap";
    case OpKind::kFilter: return "Filter";
    case OpKind::kProject: return "Project";
    case OpKind::kDistinct: return "Distinct";
    case OpKind::kSort: return "Sort";
    case OpKind::kSample: return "Sample";
    case OpKind::kZipWithId: return "ZipWithId";
    case OpKind::kReduceByKey: return "ReduceByKey";
    case OpKind::kGroupByKey: return "GroupByKey";
    case OpKind::kGlobalReduce: return "GlobalReduce";
    case OpKind::kCount: return "Count";
    case OpKind::kTopK: return "TopK";
    case OpKind::kBroadcastMap: return "BroadcastMap";
    case OpKind::kJoin: return "Join";
    case OpKind::kThetaJoin: return "ThetaJoin";
    case OpKind::kIEJoin: return "IEJoin";
    case OpKind::kCrossProduct: return "CrossProduct";
    case OpKind::kUnion: return "Union";
    case OpKind::kIntersect: return "Intersect";
    case OpKind::kSubtract: return "Subtract";
    case OpKind::kRepeat: return "Repeat";
    case OpKind::kDoWhile: return "DoWhile";
    case OpKind::kCollect: return "Collect";
  }
  return "?";
}

Result<OpKind> OpKindFromString(const std::string& name) {
  static const OpKind kAll[] = {
      OpKind::kCollectionSource, OpKind::kStageInput, OpKind::kLoopState,
      OpKind::kLoopData,         OpKind::kMap,        OpKind::kFlatMap,
      OpKind::kFilter,           OpKind::kProject,    OpKind::kDistinct,
      OpKind::kSort,             OpKind::kSample,     OpKind::kZipWithId,
      OpKind::kReduceByKey,      OpKind::kGroupByKey, OpKind::kGlobalReduce,
      OpKind::kCount,            OpKind::kBroadcastMap, OpKind::kJoin,
      OpKind::kThetaJoin,        OpKind::kIEJoin,     OpKind::kCrossProduct,
      OpKind::kUnion,            OpKind::kRepeat,     OpKind::kDoWhile,
      OpKind::kIntersect,        OpKind::kSubtract,   OpKind::kTopK,
      OpKind::kCollect};
  for (OpKind kind : kAll) {
    if (name == OpKindToString(kind)) return kind;
  }
  return Status::NotFound("unknown operator kind '" + name + "'");
}

}  // namespace rheem
