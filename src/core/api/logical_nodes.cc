#include "core/api/logical_nodes.h"

#include <limits>

#include "core/expr/expr.h"
#include "core/optimizer/fingerprint.h"

namespace rheem {

int GenericLogicalOp::arity() const {
  switch (kind_) {
    case OpKind::kCollectionSource:
    case OpKind::kStageInput:
    case OpKind::kLoopState:
    case OpKind::kLoopData:
      return 0;
    case OpKind::kBroadcastMap:
    case OpKind::kJoin:
    case OpKind::kThetaJoin:
    case OpKind::kIEJoin:
    case OpKind::kCrossProduct:
    case OpKind::kUnion:
    case OpKind::kIntersect:
    case OpKind::kSubtract:
    case OpKind::kRepeat:
    case OpKind::kDoWhile:
      return 2;
    default:
      return 1;
  }
}

Status GenericLogicalOp::ApplyOp(const Record& in, std::vector<Record>* out) {
  switch (kind_) {
    case OpKind::kMap:
      if (!map.fn) return Status::InvalidArgument("Map UDF not set");
      out->push_back(map.fn(in));
      return Status::OK();
    case OpKind::kFlatMap: {
      if (!flat_map.fn) return Status::InvalidArgument("FlatMap UDF not set");
      for (auto& r : flat_map.fn(in)) out->push_back(std::move(r));
      return Status::OK();
    }
    case OpKind::kFilter:
      if (!predicate.fn) return Status::InvalidArgument("Filter UDF not set");
      if (predicate.fn(in)) out->push_back(in);
      return Status::OK();
    case OpKind::kProject:
      out->push_back(in.Project(columns));
      return Status::OK();
    default:
      return Status::Unsupported(
          kind_name() +
          " is a set-oriented template; it has no per-quantum ApplyOp");
  }
}

double GenericLogicalOp::SelectivityHint() const {
  switch (kind_) {
    case OpKind::kMap: return map.meta.selectivity;
    case OpKind::kFlatMap: return flat_map.meta.selectivity;
    case OpKind::kFilter: return predicate.meta.selectivity;
    case OpKind::kSample: return fraction;
    case OpKind::kReduceByKey:
    case OpKind::kGroupByKey:
      return key.meta.selectivity;
    case OpKind::kThetaJoin: return theta.meta.selectivity;
    default: return 1.0;
  }
}

std::string GenericLogicalOp::FingerprintToken() const {
  std::string t = kind_name();
  if (!pinned_platform.empty()) t += "|pin=" + pinned_platform;
  t += "|sel=" + std::to_string(SelectivityHint());
  t += "|cost=" + std::to_string(CostHint());
  switch (kind_) {
    case OpKind::kCollectionSource:
      t += "|data=" + std::to_string(PlanFingerprint::OfShared(source_data));
      break;
    case OpKind::kFilter:
      // Declarative predicates fold their canonical encoding — including
      // every constant — so two jobs differing only in a predicate literal
      // can never share a plan-cache entry. Closure predicates have no
      // encoding and remain "assumed by shape" (see docs/job_service.md).
      if (predicate.expr != nullptr) {
        t += "|expr=" + expr::Canonical(*predicate.expr);
      }
      break;
    case OpKind::kMap:
      if (!map.projection.empty()) {
        t += "|proj=";
        for (const auto& f : map.projection) {
          t += expr::Canonical(*f) + ";";
        }
      }
      break;
    case OpKind::kThetaJoin:
      if (theta.pair_expr != nullptr) {
        t += "|expr=" + expr::Canonical(*theta.pair_expr);
      }
      break;
    case OpKind::kProject:
      t += "|cols=";
      for (int c : columns) t += std::to_string(c) + ",";
      break;
    case OpKind::kSample:
      t += "|frac=" + std::to_string(fraction) +
           "|seed=" + std::to_string(seed);
      break;
    case OpKind::kReduceByKey:
      // Declarative reductions fold the key expression and the column-wise
      // aggregate spec, so two jobs aggregating the same shape differently
      // (sum vs. max, different key column) never share a cache entry.
      // Closure reductions stay "assumed by shape" like closure filters.
      if (key.expr != nullptr) t += "|key=" + expr::Canonical(*key.expr);
      if (!reduce.aggs.empty()) {
        t += "|aggs=";
        for (const AggSpec& a : reduce.aggs) {
          t += std::string(AggKindToString(a.kind)) + "(" +
               std::to_string(a.column) + ");";
        }
      }
      break;
    case OpKind::kGroupByKey:
      t += groupby_algorithm == GroupByAlgorithm::kHash ? "|hash" : "|sort";
      if (key.expr != nullptr) t += "|key=" + expr::Canonical(*key.expr);
      break;
    case OpKind::kJoin:
      t += join_algorithm == JoinAlgorithm::kHash ? "|hash" : "|merge";
      if (key.expr != nullptr) t += "|lk=" + expr::Canonical(*key.expr);
      if (key2.expr != nullptr) t += "|rk=" + expr::Canonical(*key2.expr);
      break;
    case OpKind::kIEJoin:
      t += "|ie=" + std::to_string(iejoin.left_col1) +
           CompareOpToString(iejoin.op1) + std::to_string(iejoin.right_col1) +
           "&" + std::to_string(iejoin.left_col2) +
           CompareOpToString(iejoin.op2) + std::to_string(iejoin.right_col2);
      break;
    case OpKind::kTopK:
      t += "|k=" + std::to_string(topk) + (ascending ? "|asc" : "|desc");
      // Declarative order keys fold their canonical encoding: two SQL
      // queries differing only in the ORDER BY expression must never share
      // a plan-cache entry.
      if (key.expr != nullptr) t += "|key=" + expr::Canonical(*key.expr);
      break;
    case OpKind::kSort:
      if (key.expr != nullptr) t += "|key=" + expr::Canonical(*key.expr);
      break;
    case OpKind::kRepeat:
    case OpKind::kDoWhile:
      if (loop != nullptr) {
        t += "|iters=" + std::to_string(loop->is_do_while
                                            ? loop->max_iterations
                                            : loop->iterations);
        if (loop->body != nullptr) {
          auto body_fp = PlanFingerprint::Compute(*loop->body);
          t += "|body=" + std::to_string(body_fp.ValueOr(0));
        }
      }
      break;
    default:
      break;
  }
  return t;
}

std::string GenericLogicalOp::Detail() const {
  switch (kind_) {
    case OpKind::kFilter:
      if (predicate.expr != nullptr) {
        return "filter=" + expr::Pretty(*predicate.expr);
      }
      return "";
    case OpKind::kMap: {
      if (map.projection.empty()) return "";
      std::string out = "map=[";
      for (std::size_t i = 0; i < map.projection.size(); ++i) {
        if (i > 0) out += ", ";
        out += expr::Pretty(*map.projection[i]);
      }
      return out + "]";
    }
    case OpKind::kJoin:
      if (key.expr == nullptr || key2.expr == nullptr) return "";
      return "join=(" + expr::Pretty(*key.expr) + ", " +
             expr::Pretty(*key2.expr) + ")";
    case OpKind::kThetaJoin:
      if (theta.pair_expr != nullptr) {
        return "theta=" + expr::Pretty(*theta.pair_expr);
      }
      return "";
    case OpKind::kReduceByKey: {
      if (key.expr == nullptr || reduce.aggs.empty()) return "";
      std::string out = "key=" + expr::Pretty(*key.expr) + " aggs=[";
      for (std::size_t i = 0; i < reduce.aggs.size(); ++i) {
        if (i > 0) out += ", ";
        out += std::string(AggKindToString(reduce.aggs[i].kind)) + "($" +
               std::to_string(reduce.aggs[i].column) + ")";
      }
      return out + "]";
    }
    case OpKind::kTopK: {
      // INT64_MAX is the "no LIMIT" sentinel (full ORDER BY).
      std::string out =
          (topk == std::numeric_limits<int64_t>::max()
               ? std::string("k=all")
               : "k=" + std::to_string(topk)) +
          (ascending ? " asc" : " desc");
      if (key.expr != nullptr) out += " key=" + expr::Pretty(*key.expr);
      return out;
    }
    default:
      return "";
  }
}

double GenericLogicalOp::CostHint() const {
  switch (kind_) {
    case OpKind::kMap: return map.meta.cost_factor;
    case OpKind::kFlatMap: return flat_map.meta.cost_factor;
    case OpKind::kFilter: return predicate.meta.cost_factor;
    case OpKind::kBroadcastMap: return broadcast_map.meta.cost_factor;
    case OpKind::kReduceByKey: return reduce.meta.cost_factor;
    case OpKind::kGroupByKey: return group.meta.cost_factor;
    case OpKind::kThetaJoin: return theta.meta.cost_factor;
    default: return 1.0;
  }
}

}  // namespace rheem
