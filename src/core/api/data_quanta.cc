#include "core/api/data_quanta.h"

#include "common/logging.h"
#include "storage/hot_buffer.h"

namespace rheem {

RheemJob::RheemJob(RheemContext* ctx)
    : ctx_(ctx), plan_(std::make_shared<Plan>()) {}

DataQuanta RheemJob::LoadCollection(Dataset data) {
  return LoadCollection(std::make_shared<const Dataset>(std::move(data)));
}

DataQuanta RheemJob::LoadCollection(std::shared_ptr<const Dataset> data) {
  auto* node = plan_->Add<GenericLogicalOp>({}, OpKind::kCollectionSource);
  node->source_data = std::move(data);
  return DataQuanta(this, node);
}

Result<DataQuanta> RheemJob::LoadFromStorage(
    const storage::StorageManager& manager, const std::string& dataset) {
  storage::HotDataBuffer* buffer = ctx_->hot_buffer();
  if (buffer != nullptr && buffer->manager() == &manager) {
    RHEEM_ASSIGN_OR_RETURN(std::shared_ptr<const Dataset> data,
                           buffer->Load(dataset));
    return LoadCollection(std::move(data));
  }
  RHEEM_ASSIGN_OR_RETURN(Dataset data, manager.Load(dataset));
  return LoadCollection(std::move(data));
}

Result<DataQuanta> RheemJob::LoadFromStorage(const std::string& dataset) {
  storage::HotDataBuffer* buffer = ctx_->hot_buffer();
  if (buffer == nullptr) {
    return Status::InvalidArgument(
        "no storage attached to this context — call "
        "RheemContext::AttachStorage first");
  }
  RHEEM_ASSIGN_OR_RETURN(std::shared_ptr<const Dataset> data,
                         buffer->Load(dataset));
  return LoadCollection(std::move(data));
}

int DataQuanta::node_id() const { return node_ != nullptr ? node_->id() : -1; }

GenericLogicalOp* DataQuanta::Append(
    OpKind kind, std::vector<GenericLogicalOp*> inputs) const {
  std::vector<Operator*> ins(inputs.begin(), inputs.end());
  return job_->plan_->Add<GenericLogicalOp>(std::move(ins), kind);
}

DataQuanta DataQuanta::Map(std::function<Record(const Record&)> fn,
                           UdfMeta meta) const {
  auto* node = Append(OpKind::kMap, {node_});
  node->map = MapUdf{std::move(fn), meta};
  return DataQuanta(job_, node);
}

DataQuanta DataQuanta::FlatMap(
    std::function<std::vector<Record>(const Record&)> fn, UdfMeta meta) const {
  auto* node = Append(OpKind::kFlatMap, {node_});
  node->flat_map = FlatMapUdf{std::move(fn), meta};
  return DataQuanta(job_, node);
}

DataQuanta DataQuanta::Filter(std::function<bool(const Record&)> fn,
                              UdfMeta meta) const {
  auto* node = Append(OpKind::kFilter, {node_});
  node->predicate = PredicateUdf{std::move(fn), meta};
  return DataQuanta(job_, node);
}

DataQuanta DataQuanta::Filter(expr::ExprPtr predicate) const {
  auto udf = expr::MakePredicateUdf(std::move(predicate));
  if (!udf.ok()) {
    job_->RecordBuildError(udf.status());
    return *this;
  }
  auto* node = Append(OpKind::kFilter, {node_});
  node->predicate = std::move(udf).ValueOrDie();
  return DataQuanta(job_, node);
}

DataQuanta DataQuanta::Map(std::vector<expr::ExprPtr> fields) const {
  auto udf = expr::MakeMapUdf(std::move(fields));
  if (!udf.ok()) {
    job_->RecordBuildError(udf.status());
    return *this;
  }
  auto* node = Append(OpKind::kMap, {node_});
  node->map = std::move(udf).ValueOrDie();
  return DataQuanta(job_, node);
}

DataQuanta DataQuanta::Join(const DataQuanta& right, expr::ExprPtr left_key,
                            expr::ExprPtr right_key,
                            JoinAlgorithm algorithm) const {
  auto lk = expr::MakeKeyUdf(std::move(left_key));
  auto rk = expr::MakeKeyUdf(std::move(right_key));
  if (!lk.ok() || !rk.ok()) {
    job_->RecordBuildError(lk.ok() ? rk.status() : lk.status());
    return *this;
  }
  auto* node = Append(OpKind::kJoin, {node_, right.node_});
  node->key = std::move(lk).ValueOrDie();
  node->key2 = std::move(rk).ValueOrDie();
  node->join_algorithm = algorithm;
  return DataQuanta(job_, node);
}

DataQuanta DataQuanta::ThetaJoin(const DataQuanta& right,
                                 expr::ExprPtr pair_predicate) const {
  auto udf = expr::MakeThetaUdf(std::move(pair_predicate));
  if (!udf.ok()) {
    job_->RecordBuildError(udf.status());
    return *this;
  }
  auto* node = Append(OpKind::kThetaJoin, {node_, right.node_});
  node->theta = std::move(udf).ValueOrDie();
  return DataQuanta(job_, node);
}

DataQuanta DataQuanta::Project(std::vector<int> columns) const {
  auto* node = Append(OpKind::kProject, {node_});
  node->columns = std::move(columns);
  return DataQuanta(job_, node);
}

DataQuanta DataQuanta::Distinct() const {
  return DataQuanta(job_, Append(OpKind::kDistinct, {node_}));
}

DataQuanta DataQuanta::Sort(std::function<Value(const Record&)> key) const {
  auto* node = Append(OpKind::kSort, {node_});
  node->key = KeyUdf{std::move(key), UdfMeta()};
  return DataQuanta(job_, node);
}

DataQuanta DataQuanta::Sample(double fraction, uint64_t seed) const {
  auto* node = Append(OpKind::kSample, {node_});
  node->fraction = fraction;
  node->seed = seed;
  return DataQuanta(job_, node);
}

DataQuanta DataQuanta::ZipWithId() const {
  return DataQuanta(job_, Append(OpKind::kZipWithId, {node_}));
}

DataQuanta DataQuanta::ReduceByKey(
    std::function<Value(const Record&)> key,
    std::function<Record(const Record&, const Record&)> reduce,
    double key_distinct_ratio) const {
  auto* node = Append(OpKind::kReduceByKey, {node_});
  node->key = KeyUdf{std::move(key), UdfMeta::Selective(key_distinct_ratio)};
  node->reduce = ReduceUdf{std::move(reduce), UdfMeta()};
  return DataQuanta(job_, node);
}

DataQuanta DataQuanta::ReduceByKey(expr::ExprPtr key,
                                   std::vector<AggSpec> aggs,
                                   double key_distinct_ratio) const {
  auto k = expr::MakeKeyUdf(std::move(key));
  auto r = MakeAggReduceUdf(std::move(aggs));
  if (!k.ok() || !r.ok()) {
    job_->RecordBuildError(k.ok() ? r.status() : k.status());
    return *this;
  }
  auto* node = Append(OpKind::kReduceByKey, {node_});
  node->key = std::move(k).ValueOrDie();
  node->key.meta = UdfMeta::Selective(key_distinct_ratio);
  node->reduce = std::move(r).ValueOrDie();
  return DataQuanta(job_, node);
}

DataQuanta DataQuanta::GroupByKey(
    std::function<Value(const Record&)> key,
    std::function<std::vector<Record>(const Value&, const std::vector<Record>&)>
        group,
    double key_distinct_ratio, GroupByAlgorithm algorithm) const {
  auto* node = Append(OpKind::kGroupByKey, {node_});
  node->key = KeyUdf{std::move(key), UdfMeta::Selective(key_distinct_ratio)};
  node->group = GroupUdf{std::move(group), UdfMeta()};
  node->groupby_algorithm = algorithm;
  return DataQuanta(job_, node);
}

DataQuanta DataQuanta::GlobalReduce(
    std::function<Record(const Record&, const Record&)> reduce) const {
  auto* node = Append(OpKind::kGlobalReduce, {node_});
  node->reduce = ReduceUdf{std::move(reduce), UdfMeta()};
  return DataQuanta(job_, node);
}

DataQuanta DataQuanta::Count() const {
  return DataQuanta(job_, Append(OpKind::kCount, {node_}));
}

DataQuanta DataQuanta::BroadcastMap(
    const DataQuanta& broadcast,
    std::function<Record(const Record&, const Dataset&)> fn,
    UdfMeta meta) const {
  auto* node = Append(OpKind::kBroadcastMap, {node_, broadcast.node_});
  node->broadcast_map = BroadcastMapUdf{std::move(fn), meta};
  return DataQuanta(job_, node);
}

DataQuanta DataQuanta::Join(const DataQuanta& right,
                            std::function<Value(const Record&)> left_key,
                            std::function<Value(const Record&)> right_key,
                            JoinAlgorithm algorithm) const {
  auto* node = Append(OpKind::kJoin, {node_, right.node_});
  node->key = KeyUdf{std::move(left_key), UdfMeta()};
  node->key2 = KeyUdf{std::move(right_key), UdfMeta()};
  node->join_algorithm = algorithm;
  return DataQuanta(job_, node);
}

DataQuanta DataQuanta::ThetaJoin(
    const DataQuanta& right,
    std::function<bool(const Record&, const Record&)> condition,
    double selectivity) const {
  auto* node = Append(OpKind::kThetaJoin, {node_, right.node_});
  node->theta = ThetaUdf{std::move(condition), UdfMeta::Selective(selectivity)};
  return DataQuanta(job_, node);
}

DataQuanta DataQuanta::IEJoin(const DataQuanta& right, IEJoinSpec spec) const {
  auto* node = Append(OpKind::kIEJoin, {node_, right.node_});
  node->iejoin = spec;
  return DataQuanta(job_, node);
}

DataQuanta DataQuanta::Cross(const DataQuanta& right) const {
  return DataQuanta(job_, Append(OpKind::kCrossProduct, {node_, right.node_}));
}

DataQuanta DataQuanta::Union(const DataQuanta& right) const {
  return DataQuanta(job_, Append(OpKind::kUnion, {node_, right.node_}));
}

DataQuanta DataQuanta::Intersect(const DataQuanta& right) const {
  return DataQuanta(job_, Append(OpKind::kIntersect, {node_, right.node_}));
}

DataQuanta DataQuanta::Subtract(const DataQuanta& right) const {
  return DataQuanta(job_, Append(OpKind::kSubtract, {node_, right.node_}));
}

DataQuanta DataQuanta::TopK(int64_t k, std::function<Value(const Record&)> key,
                            bool ascending) const {
  auto* node = Append(OpKind::kTopK, {node_});
  node->key = KeyUdf{std::move(key), UdfMeta()};
  node->topk = k;
  node->ascending = ascending;
  return DataQuanta(job_, node);
}

DataQuanta DataQuanta::TopK(int64_t k, expr::ExprPtr key,
                            bool ascending) const {
  auto udf = expr::MakeKeyUdf(std::move(key));
  if (!udf.ok()) {
    job_->RecordBuildError(udf.status());
    return *this;
  }
  auto* node = Append(OpKind::kTopK, {node_});
  node->key = std::move(udf).ValueOrDie();
  node->topk = k;
  node->ascending = ascending;
  return DataQuanta(job_, node);
}

std::shared_ptr<LogicalLoopSpec> DataQuanta::BuildLoopBody(
    const std::function<DataQuanta(DataQuanta, DataQuanta)>& body) {
  auto spec = std::make_shared<LogicalLoopSpec>();
  spec->body = std::make_shared<Plan>();
  // Body jobs carry no context: terminal methods are rejected inside bodies.
  RheemJob body_job(nullptr, spec->body);
  auto* state_marker =
      spec->body->Add<GenericLogicalOp>({}, OpKind::kLoopState);
  auto* data_marker = spec->body->Add<GenericLogicalOp>({}, OpKind::kLoopData);
  DataQuanta next = body(DataQuanta(&body_job, state_marker),
                         DataQuanta(&body_job, data_marker));
  spec->body->SetSink(next.node_);
  return spec;
}

DataQuanta DataQuanta::Repeat(
    int iterations, const DataQuanta& data,
    const std::function<DataQuanta(DataQuanta, DataQuanta)>& body) const {
  auto* node = Append(OpKind::kRepeat, {node_, data.node_});
  node->loop = BuildLoopBody(body);
  node->loop->iterations = iterations;
  return DataQuanta(job_, node);
}

DataQuanta DataQuanta::DoWhile(
    std::function<bool(const Dataset&, int)> condition, int max_iterations,
    const DataQuanta& data,
    const std::function<DataQuanta(DataQuanta, DataQuanta)>& body) const {
  auto* node = Append(OpKind::kDoWhile, {node_, data.node_});
  node->loop = BuildLoopBody(body);
  node->loop->is_do_while = true;
  node->loop->condition = LoopConditionUdf{std::move(condition)};
  node->loop->max_iterations = max_iterations;
  return DataQuanta(job_, node);
}

DataQuanta DataQuanta::OnPlatform(const std::string& platform) const {
  node_->pinned_platform = platform;
  return *this;
}

Result<Dataset> DataQuanta::Collect() const {
  RHEEM_ASSIGN_OR_RETURN(ExecutionResult result, CollectWithMetrics());
  return std::move(result.output);
}

Result<ExecutionResult> DataQuanta::CollectWithMetrics() const {
  if (!valid()) return Status::InvalidArgument("empty DataQuanta");
  if (job_->ctx_ == nullptr) {
    return Status::InvalidArgument(
        "cannot Collect inside a loop body; return the DataQuanta instead");
  }
  RHEEM_RETURN_IF_ERROR(job_->build_status());
  auto* sink = Append(OpKind::kCollect, {node_});
  job_->plan_->SetSink(sink);
  return job_->ctx_->Execute(*job_->plan_, job_->options_);
}

Result<Plan*> DataQuanta::Seal() const {
  if (!valid()) return Status::InvalidArgument("empty DataQuanta");
  if (job_->ctx_ == nullptr) {
    return Status::InvalidArgument("cannot Seal inside a loop body");
  }
  RHEEM_RETURN_IF_ERROR(job_->build_status());
  auto* sink = Append(OpKind::kCollect, {node_});
  job_->plan_->SetSink(sink);
  return job_->plan_.get();
}

Result<std::string> DataQuanta::Explain() const {
  if (!valid()) return Status::InvalidArgument("empty DataQuanta");
  if (job_->ctx_ == nullptr) {
    return Status::InvalidArgument("cannot Explain inside a loop body");
  }
  RHEEM_RETURN_IF_ERROR(job_->build_status());
  auto* sink = Append(OpKind::kCollect, {node_});
  job_->plan_->SetSink(sink);
  RHEEM_ASSIGN_OR_RETURN(CompiledJob compiled,
                         job_->ctx_->Compile(*job_->plan_, job_->options_));
  return compiled.Explain();
}

}  // namespace rheem
