#ifndef RHEEM_CORE_API_DATA_QUANTA_H_
#define RHEEM_CORE_API_DATA_QUANTA_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/api/context.h"
#include "core/api/logical_nodes.h"
#include "core/expr/expr.h"
#include "core/executor/executor.h"
#include "data/dataset.h"
#include "storage/storage_plan.h"

namespace rheem {

class RheemContext;
class RheemJob;

/// \brief Fluent handle over a logical operator's output: the built-in
/// dataflow language of the application layer.
///
/// DataQuanta methods append GenericLogicalOp nodes to the enclosing
/// RheemJob's logical plan. Terminal methods (Collect/CollectWithMetrics/
/// Explain) push the plan through the application optimizer, the
/// multi-platform optimizer and the Executor.
///
/// A DataQuanta is a cheap value object; it stays valid as long as its
/// RheemJob does.
class DataQuanta {
 public:
  DataQuanta() = default;

  bool valid() const { return job_ != nullptr && node_ != nullptr; }

  /// Plan-operator id of the node this handle points at (-1 when invalid).
  /// Lets callers that annotate plan printouts — e.g. the SQL frontend
  /// labelling source nodes with table names — address the operator.
  int node_id() const;

  // --- unary transforms ---------------------------------------------------
  DataQuanta Map(std::function<Record(const Record&)> fn,
                 UdfMeta meta = UdfMeta()) const;
  DataQuanta FlatMap(std::function<std::vector<Record>(const Record&)> fn,
                     UdfMeta meta = UdfMeta()) const;
  DataQuanta Filter(std::function<bool(const Record&)> fn,
                    UdfMeta meta = UdfMeta{0.5, 1.0}) const;

  // --- declarative overloads ----------------------------------------------
  // These carry a typed expression tree (core/expr) alongside the compiled
  // closure. Semantics are identical on every platform, but the optimizer
  // can push the predicate down, split conjuncts, estimate selectivity from
  // the tree, and fold the canonical encoding into plan fingerprints —
  // none of which is possible for closure UDFs. An ill-typed expression is
  // reported by the terminal methods (Collect/Seal/Explain), keeping the
  // fluent chain total.

  /// Declarative filter: keeps records where `predicate` (a bool expression)
  /// evaluates to true; Null drops (SQL WHERE semantics).
  DataQuanta Filter(expr::ExprPtr predicate) const;
  /// Declarative projection Map: output field i is `fields[i]` evaluated
  /// over the input record.
  DataQuanta Map(std::vector<expr::ExprPtr> fields) const;
  /// Declarative equi-join on key expressions over each side.
  DataQuanta Join(const DataQuanta& right, expr::ExprPtr left_key,
                  expr::ExprPtr right_key,
                  JoinAlgorithm algorithm = JoinAlgorithm::kHash) const;
  /// Declarative theta join: `pair_predicate` addresses the concatenation
  /// (left ++ right), left fields first.
  DataQuanta ThetaJoin(const DataQuanta& right,
                       expr::ExprPtr pair_predicate) const;

  DataQuanta Project(std::vector<int> columns) const;
  DataQuanta Distinct() const;
  DataQuanta Sort(std::function<Value(const Record&)> key) const;
  DataQuanta Sample(double fraction, uint64_t seed = 42) const;
  DataQuanta ZipWithId() const;

  // --- aggregations ---------------------------------------------------------
  /// `key_distinct_ratio` is the expected #distinct-keys / #records hint.
  DataQuanta ReduceByKey(std::function<Value(const Record&)> key,
                         std::function<Record(const Record&, const Record&)> reduce,
                         double key_distinct_ratio = 0.1) const;
  /// Declarative grouped aggregation: groups by the key expression and
  /// combines records column-wise (output column i is aggs[i].kind over
  /// input column i; aggs[i].column must equal i — pairwise reduction is
  /// positional). Identical results to the closure form, but the optimizer
  /// folds the spec into plan fingerprints and the kernels may run the
  /// whole reduction columnar.
  DataQuanta ReduceByKey(expr::ExprPtr key, std::vector<AggSpec> aggs,
                         double key_distinct_ratio = 0.1) const;
  DataQuanta GroupByKey(
      std::function<Value(const Record&)> key,
      std::function<std::vector<Record>(const Value&, const std::vector<Record>&)> group,
      double key_distinct_ratio = 0.1,
      GroupByAlgorithm algorithm = GroupByAlgorithm::kHash) const;
  DataQuanta GlobalReduce(
      std::function<Record(const Record&, const Record&)> reduce) const;
  DataQuanta Count() const;

  // --- binary ----------------------------------------------------------------
  DataQuanta BroadcastMap(
      const DataQuanta& broadcast,
      std::function<Record(const Record&, const Dataset&)> fn,
      UdfMeta meta = UdfMeta()) const;
  DataQuanta Join(const DataQuanta& right,
                  std::function<Value(const Record&)> left_key,
                  std::function<Value(const Record&)> right_key,
                  JoinAlgorithm algorithm = JoinAlgorithm::kHash) const;
  DataQuanta ThetaJoin(const DataQuanta& right,
                       std::function<bool(const Record&, const Record&)> condition,
                       double selectivity = 0.1) const;
  DataQuanta IEJoin(const DataQuanta& right, IEJoinSpec spec) const;
  DataQuanta Cross(const DataQuanta& right) const;
  DataQuanta Union(const DataQuanta& right) const;
  /// Set intersection / difference with distinct output (Spark semantics).
  DataQuanta Intersect(const DataQuanta& right) const;
  DataQuanta Subtract(const DataQuanta& right) const;
  /// The k records with the smallest (ascending) or largest keys, in order.
  DataQuanta TopK(int64_t k, std::function<Value(const Record&)> key,
                  bool ascending = true) const;
  /// Declarative TopK: orders by a key expression, whose canonical encoding
  /// is folded into plan fingerprints (closure keys are assumed by shape).
  /// `k = INT64_MAX` means "no limit" — a full ORDER BY; the kernels clamp
  /// to the input size. This is what SQL ORDER BY [LIMIT] compiles to.
  DataQuanta TopK(int64_t k, expr::ExprPtr key, bool ascending = true) const;

  // --- iteration --------------------------------------------------------------
  /// Runs `body` for `iterations` rounds. `*this` is the initial state and
  /// `data` the loop-invariant dataset; the body receives DataQuanta for the
  /// current state and the data and returns the next state.
  DataQuanta Repeat(
      int iterations, const DataQuanta& data,
      const std::function<DataQuanta(DataQuanta state, DataQuanta data)>& body)
      const;
  /// Runs `body` while `condition(state, iteration)` holds (bounded by
  /// `max_iterations`).
  DataQuanta DoWhile(
      std::function<bool(const Dataset&, int)> condition, int max_iterations,
      const DataQuanta& data,
      const std::function<DataQuanta(DataQuanta state, DataQuanta data)>& body)
      const;

  /// Pins this operator (and nothing else) to the named platform.
  DataQuanta OnPlatform(const std::string& platform) const;

  // --- terminals ---------------------------------------------------------------
  Result<Dataset> Collect() const;
  /// Appends a Collect sink and returns the job's logical plan WITHOUT
  /// executing — the handoff point for RheemContext::Submit. The plan stays
  /// owned by the RheemJob, which must outlive any submitted jobs.
  Result<Plan*> Seal() const;
  Result<ExecutionResult> CollectWithMetrics() const;
  /// Compiles without executing; returns the multi-stage execution plan
  /// rendered as text.
  Result<std::string> Explain() const;

 private:
  friend class RheemJob;
  DataQuanta(RheemJob* job, GenericLogicalOp* node) : job_(job), node_(node) {}

  GenericLogicalOp* Append(OpKind kind,
                           std::vector<GenericLogicalOp*> inputs) const;

  static std::shared_ptr<LogicalLoopSpec> BuildLoopBody(
      const std::function<DataQuanta(DataQuanta, DataQuanta)>& body);

  RheemJob* job_ = nullptr;
  GenericLogicalOp* node_ = nullptr;
};

/// \brief One logical plan under construction plus its execution options.
class RheemJob {
 public:
  explicit RheemJob(RheemContext* ctx);

  RheemJob(const RheemJob&) = delete;
  RheemJob& operator=(const RheemJob&) = delete;

  /// Starts a dataflow from an in-memory dataset.
  DataQuanta LoadCollection(Dataset data);

  /// Same, sharing `data` instead of copying it: the plan, its physical
  /// translation and any plan-cache entry all read this one table, which
  /// must not be mutated afterwards. Null reads as an empty dataset.
  DataQuanta LoadCollection(std::shared_ptr<const Dataset> data);

  /// Starts a dataflow from a dataset resident on the storage layer —
  /// locating it on whichever backend holds it (the processing/storage
  /// bridge between the paper's two abstractions). When `manager` is the one
  /// attached to the context (RheemContext::AttachStorage), the load is
  /// served through the context's hot-data buffer: repeated loads skip the
  /// backend parse path, and writes through the manager invalidate the
  /// buffered entry.
  Result<DataQuanta> LoadFromStorage(const storage::StorageManager& manager,
                                     const std::string& dataset);

  /// Same, against the context's attached storage layer; errors when no
  /// storage is attached.
  Result<DataQuanta> LoadFromStorage(const std::string& dataset);

  RheemContext* context() const { return ctx_; }
  Plan& logical_plan() { return *plan_; }
  const std::shared_ptr<Plan>& plan_ptr() const { return plan_; }

  /// Execution knobs applied by the terminal methods.
  ExecutionOptions& options() { return options_; }

  /// First error recorded while building the plan (e.g. an ill-typed
  /// declarative expression); terminal methods return it instead of running.
  const Status& build_status() const { return build_status_; }

 private:
  friend class DataQuanta;
  void RecordBuildError(Status status) {
    if (build_status_.ok()) build_status_ = std::move(status);
  }
  // Body-plan constructor used by Repeat/DoWhile.
  RheemJob(RheemContext* ctx, std::shared_ptr<Plan> plan)
      : ctx_(ctx), plan_(std::move(plan)) {}

  RheemContext* ctx_;
  std::shared_ptr<Plan> plan_;
  ExecutionOptions options_;
  Status build_status_ = Status::OK();
};

}  // namespace rheem

#endif  // RHEEM_CORE_API_DATA_QUANTA_H_
