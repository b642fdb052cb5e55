#ifndef RHEEM_CORE_OPERATORS_KERNELS_H_
#define RHEEM_CORE_OPERATORS_KERNELS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "core/operators/descriptors.h"
#include "data/batch.h"
#include "data/dataset.h"

namespace rheem {
namespace kernels {

/// \brief Platform-neutral evaluation kernels for the physical operator pool.
///
/// Execution operators are platform-*dependent* wrappers (paper §3.1): the
/// javasim platform applies a kernel to its whole input eagerly; sparksim
/// applies the same kernel per partition and adds shuffles around the
/// key-based ones; relsim substitutes its own relational engine where it can.
/// Centralizing the data-path logic here keeps the three platforms honest:
/// they differ in *execution strategy* (the thing the paper studies), not in
/// operator semantics.
///
/// Kernels are morsel-parallel: inputs larger than one morsel are split into
/// contiguous chunks executed on a ThreadPool, with per-morsel outputs
/// concatenated in morsel order (or per-morsel partial accumulators merged in
/// morsel order). Output is *identical* to the serial path for every kernel
/// — parallelism changes wall time, never results. See
/// docs/parallel_kernels.md for the determinism argument per kernel.

/// Execution knobs threaded through every parallelizable kernel.
///
/// Config keys (read by KernelOptions::FromConfig):
///   kernels.parallel     (bool,  default true)  enable morsel parallelism
///   kernels.morsel_size  (int,   default 16384) records per morsel
///   kernels.columnar     (bool,  default true)  allow columnar batch paths
struct KernelOptions {
  bool parallel = true;
  /// Allow eligible kernels to convert to a columnar Batch and execute
  /// column-at-a-time (see docs/parallel_kernels.md for eligibility and the
  /// row fallback rules). Orthogonal to `parallel`: the serial columnar
  /// path is what the 1.5x single-thread bench gate measures.
  bool columnar = true;
  std::size_t morsel_size = 16384;
  /// Pool for morsel execution; nullptr means DefaultThreadPool().
  ThreadPool* pool = nullptr;

  static KernelOptions FromConfig(const Config& config,
                                  ThreadPool* pool = nullptr);
  static KernelOptions Serial() {
    KernelOptions o;
    o.parallel = false;
    return o;
  }
};

/// Process-wide columnar master switch, initialized from the environment:
/// RHEEM_FORCE_ROW=1 forces the row path everywhere (used by the fuzz
/// differential to replay a plan on both engines). SetColumnarEnabled
/// overrides it at runtime; both engines are byte-identical by contract.
bool ColumnarEnabled();
void SetColumnarEnabled(bool enabled);

/// \brief Cumulative per-kernel timing counters (thread-safe, process-wide).
///
/// `parallel_cpu_micros` is the summed thread-CPU time of all morsel bodies
/// and `critical_path_micros` the sum over calls of the slowest morsel; both
/// are zero for serial-path calls. They let benches model the latency a
/// `w`-wide pool would achieve even when the host has fewer cores — the same
/// virtual-clock substitution the sparksim TaskScheduler performs
/// (DESIGN.md §3).
struct KernelTiming {
  std::string kernel;
  int64_t invocations = 0;
  int64_t records_in = 0;
  int64_t wall_micros = 0;           // measured end-to-end on this host
  int64_t parallel_cpu_micros = 0;   // Σ thread-CPU time of morsel bodies
  int64_t critical_path_micros = 0;  // Σ per-call max morsel CPU time
  int64_t serial_micros = 0;         // wall time outside the morsel loop
};

/// Snapshot of all kernels invoked since the last reset (zero rows omitted).
std::vector<KernelTiming> SnapshotKernelTimings();
void ResetKernelTimings();

/// Latency a `workers`-wide pool would achieve for the recorded calls:
/// serial + max(parallel_cpu / workers, critical_path).
int64_t ModeledMicrosAtWidth(const KernelTiming& t, std::size_t workers);

Result<Dataset> Map(const MapUdf& udf, const Dataset& in,
                    const KernelOptions& opts = {});
Result<Dataset> FlatMap(const FlatMapUdf& udf, const Dataset& in,
                        const KernelOptions& opts = {});
Result<Dataset> Filter(const PredicateUdf& udf, const Dataset& in,
                       const KernelOptions& opts = {});
Result<Dataset> Project(const std::vector<int>& columns, const Dataset& in,
                        const KernelOptions& opts = {});
Result<Dataset> Distinct(const Dataset& in);
Result<Dataset> SortByKey(const KeyUdf& key, const Dataset& in,
                          const KernelOptions& opts = {});
/// Bernoulli sample. The keep decision for a record is a pure function of
/// (seed, index_offset + position), so partitioned callers that pass each
/// partition's global start offset reproduce exactly the records a single
/// whole-dataset call keeps.
Result<Dataset> Sample(double fraction, uint64_t seed, const Dataset& in,
                       const KernelOptions& opts = {},
                       uint64_t index_offset = 0);

/// Appends ids [first_id, first_id + in.size()) as a trailing int64 field.
Result<Dataset> ZipWithId(int64_t first_id, const Dataset& in,
                          const KernelOptions& opts = {});

/// Hash-based key/combine aggregation; emits one record per key (the reduced
/// record, key not re-attached — reducers see full records). The parallel
/// path folds per-morsel partial maps merged in morsel order; identical to
/// serial for associative reducers (the ReduceUdf contract).
Result<Dataset> ReduceByKey(const KeyUdf& key, const ReduceUdf& reduce,
                            const Dataset& in, const KernelOptions& opts = {});

/// Hash-grouping, then the whole-group UDF per key (iteration order is the
/// first-seen key order to keep results deterministic).
Result<Dataset> HashGroupBy(const KeyUdf& key, const GroupUdf& group,
                            const Dataset& in, const KernelOptions& opts = {});

/// Sort-grouping: sorts by key then runs the group UDF over runs.
Result<Dataset> SortGroupBy(const KeyUdf& key, const GroupUdf& group,
                            const Dataset& in, const KernelOptions& opts = {});

/// Pairwise reduction of the whole input to <=1 record.
Result<Dataset> GlobalReduce(const ReduceUdf& reduce, const Dataset& in,
                             const KernelOptions& opts = {});

Result<Dataset> Count(const Dataset& in, const KernelOptions& opts = {});

Result<Dataset> BroadcastMap(const BroadcastMapUdf& udf, const Dataset& main,
                             const Dataset& broadcast,
                             const KernelOptions& opts = {});

/// Build-side = right input (hashed); probe-side = left. The parallel path
/// builds a partitioned hash table and probes left morsels concurrently.
Result<Dataset> HashJoin(const KeyUdf& left_key, const KeyUdf& right_key,
                         const Dataset& left, const Dataset& right,
                         const KernelOptions& opts = {});

Result<Dataset> SortMergeJoin(const KeyUdf& left_key, const KeyUdf& right_key,
                              const Dataset& left, const Dataset& right);

/// O(|L|*|R|) nested-loop evaluation of an arbitrary pair predicate.
Result<Dataset> ThetaJoin(const ThetaUdf& condition, const Dataset& left,
                          const Dataset& right);

Result<Dataset> CrossProduct(const Dataset& left, const Dataset& right);

Result<Dataset> Union(const Dataset& left, const Dataset& right);

/// Set intersection with distinct output (first-seen order of `left`).
Result<Dataset> Intersect(const Dataset& left, const Dataset& right);

/// Distinct records of `left` not present in `right` (first-seen order).
Result<Dataset> Subtract(const Dataset& left, const Dataset& right);

/// The k records with the smallest keys (ascending=false: largest), emitted
/// in key order; ties resolved by input order. O(n log k) heap selection.
Result<Dataset> TopK(const KeyUdf& key, int64_t k, bool ascending,
                     const Dataset& in);

/// \brief One step of a fused record-at-a-time pipeline.
///
/// Hueske et al. ("Opening the Black Boxes in Data Flow Optimization") show
/// map/filter/flatmap/project chains can be evaluated in a single pass with
/// unchanged semantics; FusedPipeline is that pass. Each input record is
/// driven through every step in order with no intermediate Dataset
/// materialization.
struct FusedStep {
  enum class Kind { kMap, kFilter, kFlatMap, kProject };
  Kind kind = Kind::kMap;
  MapUdf map;
  PredicateUdf filter;
  FlatMapUdf flat_map;
  std::vector<int> columns;

  static FusedStep OfMap(MapUdf udf);
  static FusedStep OfFilter(PredicateUdf udf);
  static FusedStep OfFlatMap(FlatMapUdf udf);
  static FusedStep OfProject(std::vector<int> columns);
};

/// Evaluates the fused chain over `in` (morsel-parallel like Map). An empty
/// chain is the identity. Output is identical to applying the steps as
/// separate kernels in sequence.
Result<Dataset> FusedPipeline(const std::vector<FusedStep>& steps,
                              const Dataset& in,
                              const KernelOptions& opts = {});

/// True when FusedPipeline runs `steps` column-at-a-time under `opts`: every
/// step has a columnar form (declarative filters and maps, projects) and the
/// columnar path is allowed (`opts.columnar` and ColumnarEnabled()).
bool FusedChainIsColumnar(const std::vector<FusedStep>& steps,
                          const KernelOptions& opts);

/// The columnar pass of FusedPipeline over rows [begin, end) of `batch`
/// (its selection ignored): the same records, order and errors as
/// FusedPipeline over a Dataset holding exactly those rows, with no
/// conversion. Lets a caller that holds a table's Batch scan row ranges of
/// it in place. Every step must have a columnar form (FusedChainIsColumnar
/// checks that, and whether the columnar path is allowed).
Result<Dataset> FusedPipelineRange(const std::vector<FusedStep>& steps,
                                   const Batch& batch, std::size_t begin,
                                   std::size_t end,
                                   const KernelOptions& opts = {});

// ---------------------------------------------------------------------------
// Batch-level kernels
// ---------------------------------------------------------------------------
//
// Operate directly on a columnar Batch with no Dataset conversion at either
// end, so a caller that already holds batches pays the boundary cost exactly
// once per pipeline. All are morsel-parallel under `opts` and byte-identical
// (after ToDataset) to the corresponding row kernels. They require the
// declarative UDF forms — a Batch has no records to feed a closure without
// boxing, which is precisely what this API avoids; Unsupported otherwise.

/// Narrows the batch's selection vector to the rows the declarative
/// predicate accepts (in selection order). Columns are untouched.
Status FilterBatch(const PredicateUdf& udf, Batch* batch,
                   const KernelOptions& opts = {});

/// Evaluates the declarative projection over the selected rows and returns a
/// dense output batch (one column per projection expression, no selection).
Result<Batch> MapBatch(const MapUdf& udf, const Batch& in,
                       const KernelOptions& opts = {});

/// Columnar grouped aggregation over the selected rows: requires a
/// declarative key and a column-wise aggregate spec (ReduceUdf::aggs), and
/// key/aggregate columns that meet the vectorization rules (no nulls,
/// numeric aggregates, non-NaN keys) — Unsupported otherwise, so callers
/// can fall back to the row kernel. Emits one record per key, sorted by key
/// like the row ReduceByKey.
Result<Dataset> ReduceByKeyBatch(const KeyUdf& key, const ReduceUdf& reduce,
                                 const Batch& in,
                                 const KernelOptions& opts = {});

}  // namespace kernels
}  // namespace rheem

#endif  // RHEEM_CORE_OPERATORS_KERNELS_H_
