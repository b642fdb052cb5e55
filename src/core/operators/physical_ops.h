#ifndef RHEEM_CORE_OPERATORS_PHYSICAL_OPS_H_
#define RHEEM_CORE_OPERATORS_PHYSICAL_OPS_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/operators/descriptors.h"
#include "core/plan/operator.h"
#include "data/dataset.h"

namespace rheem {

class Plan;

/// Kinds of platform-independent physical operators in RHEEM's pool
/// (paper §3.1, "Core Layer"). Each kind may have several algorithmic
/// variants (e.g. GroupBy: hash vs sort) and, per platform, one or more
/// execution operators bound via the mapping registry.
enum class OpKind {
  // Sources / plumbing
  kCollectionSource,  // in-memory Dataset source
  kStageInput,        // placeholder for a task-atom boundary input
  kLoopState,         // placeholder: loop body's current state input
  kLoopData,          // placeholder: loop body's loop-invariant data input
  // Unary transforms
  kMap,
  kFlatMap,
  kFilter,
  kProject,
  kDistinct,
  kSort,
  kSample,
  kZipWithId,
  // Aggregations
  kReduceByKey,
  kGroupByKey,
  kGlobalReduce,
  kCount,
  kTopK,
  // Binary
  kBroadcastMap,
  kJoin,
  kThetaJoin,
  kIEJoin,
  kCrossProduct,
  kUnion,
  kIntersect,
  kSubtract,
  // Control flow
  kRepeat,
  kDoWhile,
  // Sink
  kCollect,
};

const char* OpKindToString(OpKind kind);

/// Inverse of OpKindToString; NotFound for unknown names. Used by the
/// declarative mapping loader.
Result<OpKind> OpKindFromString(const std::string& name);

enum class GroupByAlgorithm { kHash, kSort };
enum class JoinAlgorithm { kHash, kSortMerge };

/// \brief Base of all physical operators: a platform-independent algorithmic
/// decision the multi-platform optimizer later assigns to a platform.
class PhysicalOperator : public Operator {
 public:
  OpLevel level() const override { return OpLevel::kPhysical; }
  std::string kind_name() const override { return OpKindToString(kind()); }

  virtual OpKind kind() const = 0;
};

/// In-memory dataset source. The table is held by shared immutable
/// reference: translating, caching or re-planning a plan never copies it,
/// and its content hash is computed once per table object
/// (PlanFingerprint::OfShared). A null table reads as an empty dataset.
class CollectionSourceOp : public PhysicalOperator {
 public:
  explicit CollectionSourceOp(std::shared_ptr<const Dataset> data)
      : data_(data != nullptr ? std::move(data)
                              : std::make_shared<const Dataset>()) {}
  explicit CollectionSourceOp(Dataset data)
      : CollectionSourceOp(std::make_shared<const Dataset>(std::move(data))) {}
  OpKind kind() const override { return OpKind::kCollectionSource; }
  int arity() const override { return 0; }
  std::string FingerprintToken() const override;
  const Dataset& data() const { return *data_; }
  const std::shared_ptr<const Dataset>& shared_data() const { return data_; }

 private:
  std::shared_ptr<const Dataset> data_;
};

/// Placeholder bound by the executor when a stage consumes the output of an
/// upstream stage (a task-atom boundary). `slot` is the boundary input index.
class StageInputOp : public PhysicalOperator {
 public:
  explicit StageInputOp(int slot) : slot_(slot) {}
  OpKind kind() const override { return OpKind::kStageInput; }
  int arity() const override { return 0; }
  std::string FingerprintToken() const override {
    return kind_name() + "|slot=" + std::to_string(slot_);
  }
  int slot() const { return slot_; }

 private:
  int slot_;
};

/// Loop-body placeholder: the evolving state dataset of the enclosing loop.
class LoopStateOp : public PhysicalOperator {
 public:
  OpKind kind() const override { return OpKind::kLoopState; }
  int arity() const override { return 0; }
};

/// Loop-body placeholder: the loop-invariant dataset of the enclosing loop.
class LoopDataOp : public PhysicalOperator {
 public:
  OpKind kind() const override { return OpKind::kLoopData; }
  int arity() const override { return 0; }
};

class MapOp : public PhysicalOperator {
 public:
  explicit MapOp(MapUdf udf) : udf_(std::move(udf)) {}
  OpKind kind() const override { return OpKind::kMap; }
  int arity() const override { return 1; }
  std::string FingerprintToken() const override;
  const MapUdf& udf() const { return udf_; }

 private:
  MapUdf udf_;
};

class FlatMapOp : public PhysicalOperator {
 public:
  explicit FlatMapOp(FlatMapUdf udf) : udf_(std::move(udf)) {}
  OpKind kind() const override { return OpKind::kFlatMap; }
  int arity() const override { return 1; }
  const FlatMapUdf& udf() const { return udf_; }

 private:
  FlatMapUdf udf_;
};

class FilterOp : public PhysicalOperator {
 public:
  explicit FilterOp(PredicateUdf udf) : udf_(std::move(udf)) {}
  OpKind kind() const override { return OpKind::kFilter; }
  int arity() const override { return 1; }
  std::string FingerprintToken() const override;
  const PredicateUdf& udf() const { return udf_; }
  /// Used by the filter-reordering rewrite, which swaps payloads in place.
  void set_udf(PredicateUdf udf) { udf_ = std::move(udf); }

 private:
  PredicateUdf udf_;
};

/// Structural projection onto column indices; cheaper than a Map for the
/// optimizer to reason about (enables projection push-down).
class ProjectOp : public PhysicalOperator {
 public:
  explicit ProjectOp(std::vector<int> columns) : columns_(std::move(columns)) {}
  OpKind kind() const override { return OpKind::kProject; }
  int arity() const override { return 1; }
  std::string FingerprintToken() const override {
    std::string t = kind_name() + "|cols=";
    for (int c : columns_) t += std::to_string(c) + ",";
    return t;
  }
  const std::vector<int>& columns() const { return columns_; }

 private:
  std::vector<int> columns_;
};

class DistinctOp : public PhysicalOperator {
 public:
  OpKind kind() const override { return OpKind::kDistinct; }
  int arity() const override { return 1; }
};

/// Sorts by an extracted key, ascending (descending via negated keys).
class SortOp : public PhysicalOperator {
 public:
  explicit SortOp(KeyUdf key) : key_(std::move(key)) {}
  OpKind kind() const override { return OpKind::kSort; }
  int arity() const override { return 1; }
  const KeyUdf& key() const { return key_; }

 private:
  KeyUdf key_;
};

/// Bernoulli sample with the given fraction and seed.
class SampleOp : public PhysicalOperator {
 public:
  SampleOp(double fraction, uint64_t seed)
      : fraction_(fraction), seed_(seed) {}
  OpKind kind() const override { return OpKind::kSample; }
  int arity() const override { return 1; }
  std::string FingerprintToken() const override {
    return kind_name() + "|frac=" + std::to_string(fraction_) +
           "|seed=" + std::to_string(seed_);
  }
  double fraction() const { return fraction_; }
  uint64_t seed() const { return seed_; }

 private:
  double fraction_;
  uint64_t seed_;
};

/// Appends a unique dense int64 id as the last field of each record.
class ZipWithIdOp : public PhysicalOperator {
 public:
  OpKind kind() const override { return OpKind::kZipWithId; }
  int arity() const override { return 1; }
};

class ReduceByKeyOp : public PhysicalOperator {
 public:
  ReduceByKeyOp(KeyUdf key, ReduceUdf reduce)
      : key_(std::move(key)), reduce_(std::move(reduce)) {}
  OpKind kind() const override { return OpKind::kReduceByKey; }
  int arity() const override { return 1; }
  const KeyUdf& key() const { return key_; }
  const ReduceUdf& reduce() const { return reduce_; }

 private:
  KeyUdf key_;
  ReduceUdf reduce_;
};

/// Groups by key and runs a whole-group UDF. The algorithm variant is the
/// paper's flagship example of a physical-level decision (SortGroupBy vs
/// HashGroupBy, §3.1 Example 2); the core-layer optimizer picks one when the
/// plan leaves `algorithm` unset (see Enumerator).
class GroupByKeyOp : public PhysicalOperator {
 public:
  GroupByKeyOp(KeyUdf key, GroupUdf group,
               GroupByAlgorithm algorithm = GroupByAlgorithm::kHash)
      : key_(std::move(key)), group_(std::move(group)), algorithm_(algorithm) {}
  OpKind kind() const override { return OpKind::kGroupByKey; }
  std::string kind_name() const override {
    return algorithm_ == GroupByAlgorithm::kHash ? "HashGroupBy"
                                                 : "SortGroupBy";
  }
  int arity() const override { return 1; }
  const KeyUdf& key() const { return key_; }
  const GroupUdf& group() const { return group_; }
  GroupByAlgorithm algorithm() const { return algorithm_; }
  void set_algorithm(GroupByAlgorithm a) { algorithm_ = a; }

 private:
  KeyUdf key_;
  GroupUdf group_;
  GroupByAlgorithm algorithm_;
};

/// Reduces the whole input to a single record (empty input -> empty output).
class GlobalReduceOp : public PhysicalOperator {
 public:
  explicit GlobalReduceOp(ReduceUdf reduce) : reduce_(std::move(reduce)) {}
  OpKind kind() const override { return OpKind::kGlobalReduce; }
  int arity() const override { return 1; }
  const ReduceUdf& reduce() const { return reduce_; }

 private:
  ReduceUdf reduce_;
};

/// Emits a single record holding the input cardinality as int64.
class CountOp : public PhysicalOperator {
 public:
  OpKind kind() const override { return OpKind::kCount; }
  int arity() const override { return 1; }
};

/// Map with a broadcast side input: input 0 is the main dataflow, input 1 is
/// materialized in full and handed to every UDF call (Spark-style broadcast).
class BroadcastMapOp : public PhysicalOperator {
 public:
  explicit BroadcastMapOp(BroadcastMapUdf udf) : udf_(std::move(udf)) {}
  OpKind kind() const override { return OpKind::kBroadcastMap; }
  int arity() const override { return 2; }
  const BroadcastMapUdf& udf() const { return udf_; }

 private:
  BroadcastMapUdf udf_;
};

/// Equi-join on extracted keys; output is Record::Concat(left, right).
class JoinOp : public PhysicalOperator {
 public:
  JoinOp(KeyUdf left_key, KeyUdf right_key,
         JoinAlgorithm algorithm = JoinAlgorithm::kHash)
      : left_key_(std::move(left_key)), right_key_(std::move(right_key)),
        algorithm_(algorithm) {}
  OpKind kind() const override { return OpKind::kJoin; }
  std::string kind_name() const override {
    return algorithm_ == JoinAlgorithm::kHash ? "HashJoin" : "SortMergeJoin";
  }
  int arity() const override { return 2; }
  std::string FingerprintToken() const override;
  const KeyUdf& left_key() const { return left_key_; }
  const KeyUdf& right_key() const { return right_key_; }
  JoinAlgorithm algorithm() const { return algorithm_; }
  void set_algorithm(JoinAlgorithm a) { algorithm_ = a; }

 private:
  KeyUdf left_key_;
  KeyUdf right_key_;
  JoinAlgorithm algorithm_;
};

/// General theta join evaluated by nested loops over the pair space.
class ThetaJoinOp : public PhysicalOperator {
 public:
  explicit ThetaJoinOp(ThetaUdf condition) : condition_(std::move(condition)) {}
  OpKind kind() const override { return OpKind::kThetaJoin; }
  int arity() const override { return 2; }
  std::string FingerprintToken() const override;
  const ThetaUdf& condition() const { return condition_; }

 private:
  ThetaUdf condition_;
};

/// Inequality join on two column pairs via the IEJoin algorithm — the
/// extensibility showcase the paper adds to RHEEM's operator pool (§5.1).
class IEJoinOp : public PhysicalOperator {
 public:
  explicit IEJoinOp(IEJoinSpec spec) : spec_(spec) {}
  OpKind kind() const override { return OpKind::kIEJoin; }
  int arity() const override { return 2; }
  const IEJoinSpec& spec() const { return spec_; }

 private:
  IEJoinSpec spec_;
};

class CrossProductOp : public PhysicalOperator {
 public:
  OpKind kind() const override { return OpKind::kCrossProduct; }
  int arity() const override { return 2; }
};

class UnionOp : public PhysicalOperator {
 public:
  OpKind kind() const override { return OpKind::kUnion; }
  int arity() const override { return 2; }
};

/// Set intersection (distinct output; a record qualifies when it appears in
/// both inputs). Matches Spark's RDD::intersection semantics.
class IntersectOp : public PhysicalOperator {
 public:
  OpKind kind() const override { return OpKind::kIntersect; }
  int arity() const override { return 2; }
};

/// Set difference: distinct records of the left input absent from the right.
class SubtractOp : public PhysicalOperator {
 public:
  OpKind kind() const override { return OpKind::kSubtract; }
  int arity() const override { return 2; }
};

/// The k records with the smallest keys (ascending=false: largest), output
/// in key order — a fused Sort + Limit the optimizer can cost as O(n log k).
class TopKOp : public PhysicalOperator {
 public:
  TopKOp(KeyUdf key, int64_t k, bool ascending = true)
      : key_(std::move(key)), k_(k), ascending_(ascending) {}
  OpKind kind() const override { return OpKind::kTopK; }
  int arity() const override { return 1; }
  std::string FingerprintToken() const override {
    return kind_name() + "|k=" + std::to_string(k_) +
           (ascending_ ? "|asc" : "|desc");
  }
  const KeyUdf& key() const { return key_; }
  int64_t k() const { return k_; }
  bool ascending() const { return ascending_; }

 private:
  KeyUdf key_;
  int64_t k_;
  bool ascending_;
};

/// \brief Fixed-iteration loop (the ML apps' `Loop` logical operator compiles
/// here). Inputs: 0 = initial state, 1 = loop-invariant data. The body is a
/// nested Plan reading LoopStateOp/LoopDataOp placeholders and producing the
/// next state from its sink. After `num_iterations` rounds the final state is
/// this operator's output.
class RepeatOp : public PhysicalOperator {
 public:
  RepeatOp(int num_iterations, std::shared_ptr<Plan> body)
      : num_iterations_(num_iterations), body_(std::move(body)) {}
  OpKind kind() const override { return OpKind::kRepeat; }
  int arity() const override { return 2; }
  std::string FingerprintToken() const override;
  int num_iterations() const { return num_iterations_; }
  const Plan& body() const { return *body_; }
  std::shared_ptr<Plan> body_ptr() const { return body_; }

 private:
  int num_iterations_;
  std::shared_ptr<Plan> body_;
};

/// Condition-driven loop: runs the body while `condition(state, iter)` is
/// true, up to `max_iterations` as a safety bound.
class DoWhileOp : public PhysicalOperator {
 public:
  DoWhileOp(LoopConditionUdf condition, int max_iterations,
            std::shared_ptr<Plan> body)
      : condition_(std::move(condition)), max_iterations_(max_iterations),
        body_(std::move(body)) {}
  OpKind kind() const override { return OpKind::kDoWhile; }
  int arity() const override { return 2; }
  std::string FingerprintToken() const override;
  const LoopConditionUdf& condition() const { return condition_; }
  int max_iterations() const { return max_iterations_; }
  const Plan& body() const { return *body_; }
  std::shared_ptr<Plan> body_ptr() const { return body_; }

 private:
  LoopConditionUdf condition_;
  int max_iterations_;
  std::shared_ptr<Plan> body_;
};

/// Terminal sink: materializes its input as the job result.
class CollectOp : public PhysicalOperator {
 public:
  OpKind kind() const override { return OpKind::kCollect; }
  int arity() const override { return 1; }
};

/// Pretty-printed declarative payload of `op` for EXPLAIN output and trace
/// spans — e.g. `filter=age>30 AND dept=="eng"`, `map=[$0, $1+1]`,
/// `join=($1, $0)`, `theta=$3>$8` — or "" when the operator carries no
/// expression.
std::string DeclarativeDetail(const PhysicalOperator& op);

/// True when `op` carries a UDF closure the optimizer cannot introspect
/// (i.e. a udf/key slot with no declarative expression attached).
bool HasOpaqueUdf(const PhysicalOperator& op);

}  // namespace rheem

#endif  // RHEEM_CORE_OPERATORS_PHYSICAL_OPS_H_
