#ifndef RHEEM_CORE_API_LOGICAL_NODES_H_
#define RHEEM_CORE_API_LOGICAL_NODES_H_

#include <memory>
#include <string>
#include <vector>

#include "core/operators/descriptors.h"
#include "core/operators/physical_ops.h"
#include "core/plan/operator.h"
#include "core/plan/plan.h"
#include "data/dataset.h"

namespace rheem {

class GenericLogicalOp;

/// \brief Loop description carried by Repeat/DoWhile logical nodes: the body
/// is its own logical plan reading LoopState/LoopData marker nodes.
struct LogicalLoopSpec {
  bool is_do_while = false;
  int iterations = 0;               // Repeat
  LoopConditionUdf condition;       // DoWhile
  int max_iterations = 0;           // DoWhile safety bound
  std::shared_ptr<Plan> body;       // plan of GenericLogicalOp nodes
};

/// \brief The application layer's generic operator template used by the
/// fluent DataQuanta API.
///
/// One class covers the whole generic pool: `kind` selects the semantics and
/// the UDF slots carry the user's logic. Applications with richer
/// domain-specific templates (the ML and cleaning apps) subclass
/// LogicalOperator directly instead — this type is merely the built-in
/// application that exposes a dataflow language.
class GenericLogicalOp : public LogicalOperator {
 public:
  explicit GenericLogicalOp(OpKind kind) : kind_(kind) {}

  OpKind kind() const { return kind_; }
  std::string kind_name() const override {
    return std::string("L:") + OpKindToString(kind_);
  }
  int arity() const override;

  /// Per-quantum semantics for quantum-wise kinds (Map/Filter/FlatMap/
  /// Project); set-oriented kinds return Unsupported — they are templates
  /// whose semantics need the whole group/pair context.
  Status ApplyOp(const Record& in, std::vector<Record>* out) override;

  double SelectivityHint() const override;
  double CostHint() const override;

  /// Folds the payload slots that determine semantics beyond the kind —
  /// source data content, projection columns, sample parameters, algorithm
  /// choices, TopK/loop bounds, platform pin, UDF metadata — so the plan
  /// cache never conflates two differently-parameterized queries.
  std::string FingerprintToken() const override;

  /// Human-readable rendering of the declarative payload (predicate /
  /// projection / key expressions, aggregate specs, TopK bounds), or "" when
  /// the operator carries only opaque closures. Used to annotate logical
  /// plan printouts (SQL EXPLAIN, golden tests) the same way
  /// DeclarativeDetail annotates physical plans.
  std::string Detail() const;

  // --- payload slots (filled by the DataQuanta builder) -------------------
  /// CollectionSource table, shared read-only with the physical plan and
  /// every plan-cache entry; null reads as an empty dataset.
  std::shared_ptr<const Dataset> source_data;
  MapUdf map;
  FlatMapUdf flat_map;
  PredicateUdf predicate;
  KeyUdf key;        // primary key extractor (sort/group/reduce/join-left)
  KeyUdf key2;       // join-right key extractor
  ReduceUdf reduce;
  GroupUdf group;
  BroadcastMapUdf broadcast_map;
  ThetaUdf theta;
  IEJoinSpec iejoin;
  std::vector<int> columns;  // Project
  double fraction = 1.0;     // Sample
  uint64_t seed = 42;        // Sample
  GroupByAlgorithm groupby_algorithm = GroupByAlgorithm::kHash;
  JoinAlgorithm join_algorithm = JoinAlgorithm::kHash;
  int64_t topk = 0;          // TopK
  bool ascending = true;     // TopK direction
  std::shared_ptr<LogicalLoopSpec> loop;
  /// Non-empty: the user pinned this operator to a platform.
  std::string pinned_platform;

 private:
  OpKind kind_;
};

}  // namespace rheem

#endif  // RHEEM_CORE_API_LOGICAL_NODES_H_
