#include "core/operators/kernels.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/metrics.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "core/expr/expr.h"
#include "data/record.h"

namespace rheem {
namespace kernels {
namespace {

// ---------------------------------------------------------------------------
// Per-kernel timing registry
// ---------------------------------------------------------------------------

enum KernelId : int {
  kIdMap = 0,
  kIdFlatMap,
  kIdFilter,
  kIdProject,
  kIdZipWithId,
  kIdSample,
  kIdBroadcastMap,
  kIdReduceByKey,
  kIdHashGroupBy,
  kIdSortByKey,
  kIdSortGroupBy,
  kIdGlobalReduce,
  kIdCount,
  kIdHashJoin,
  kIdFusedPipeline,
  kNumKernelIds,
};

constexpr const char* kKernelNames[kNumKernelIds] = {
    "Map",         "FlatMap",     "Filter",    "Project",
    "ZipWithId",   "Sample",      "BroadcastMap", "ReduceByKey",
    "HashGroupBy", "SortByKey",   "SortGroupBy",  "GlobalReduce",
    "Count",       "HashJoin",    "FusedPipeline"};

struct TimingCell {
  std::atomic<int64_t> invocations{0};
  std::atomic<int64_t> records_in{0};
  std::atomic<int64_t> wall{0};
  std::atomic<int64_t> parallel_cpu{0};
  std::atomic<int64_t> critical{0};
  std::atomic<int64_t> serial{0};
};

TimingCell* Cells() {
  static TimingCell cells[kNumKernelIds];
  return cells;
}

// Registry mirrors of the timing cells, aggregated across kernels. Pointers
// are resolved once (the registry never invalidates them) so the enabled path
// pays one relaxed atomic add per event and the disabled path only the
// enabled() check inside CountIfEnabled.
Counter* InvocationsCounter() {
  static Counter* c = MetricsRegistry::Global().counter("kernels.invocations");
  return c;
}
Counter* RecordsInCounter() {
  static Counter* c = MetricsRegistry::Global().counter("kernels.records_in");
  return c;
}
Counter* MorselsCounter() {
  static Counter* c =
      MetricsRegistry::Global().counter("kernels.morsels_executed");
  return c;
}

/// Accumulates one kernel call's timing and flushes it into the registry on
/// destruction. Morsel bodies report their thread-CPU time via AddMorselCpu
/// (any thread); the caller reports the wall time of each parallel region via
/// AddLoopWall (caller thread only). Everything not inside a parallel region
/// counts as the call's serial part.
class TimingScope {
 public:
  TimingScope(int id, std::size_t records) : id_(id), records_(records) {
    // One span per kernel invocation ("morsel level" of the trace tree); it
    // nests under whatever stage/chain span the calling thread has open.
    if (Tracer::Global().enabled()) {
      span_.emplace("kernel", "kernels");
      span_->AddTag("kernel", kKernelNames[id_]);
      span_->AddTag("records_in", static_cast<int64_t>(records_));
    }
  }

  ~TimingScope() {
    const int64_t wall = wall_.ElapsedMicros();
    TimingCell& c = Cells()[id_];
    c.invocations.fetch_add(1, std::memory_order_relaxed);
    c.records_in.fetch_add(static_cast<int64_t>(records_),
                           std::memory_order_relaxed);
    c.wall.fetch_add(wall, std::memory_order_relaxed);
    c.parallel_cpu.fetch_add(pcpu_.load(std::memory_order_relaxed),
                             std::memory_order_relaxed);
    c.critical.fetch_add(critical_.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
    c.serial.fetch_add(std::max<int64_t>(0, wall - loop_wall_),
                       std::memory_order_relaxed);
    CountIfEnabled(InvocationsCounter(), 1);
    CountIfEnabled(RecordsInCounter(), static_cast<int64_t>(records_));
  }

  void AddMorselCpu(int64_t micros) {
    pcpu_.fetch_add(micros, std::memory_order_relaxed);
    int64_t cur = critical_.load(std::memory_order_relaxed);
    while (micros > cur && !critical_.compare_exchange_weak(
                               cur, micros, std::memory_order_relaxed)) {
    }
  }

  void AddLoopWall(int64_t micros) { loop_wall_ += micros; }

 private:
  int id_;
  std::size_t records_;
  std::optional<TraceSpan> span_;  // open only while tracing is enabled
  Stopwatch wall_;
  std::atomic<int64_t> pcpu_{0};
  std::atomic<int64_t> critical_{0};
  int64_t loop_wall_ = 0;  // touched by the calling thread only
};

// ---------------------------------------------------------------------------
// Morsel helpers
// ---------------------------------------------------------------------------

using MorselRange = std::pair<std::size_t, std::size_t>;

std::vector<MorselRange> MorselRanges(std::size_t n, std::size_t morsel_size) {
  if (morsel_size == 0) morsel_size = 1;
  std::vector<MorselRange> ranges;
  ranges.reserve((n + morsel_size - 1) / morsel_size);
  for (std::size_t b = 0; b < n; b += morsel_size) {
    ranges.emplace_back(b, std::min(n, b + morsel_size));
  }
  return ranges;
}

/// Inputs of at most one morsel stay on the serial path: no task overhead for
/// small data, and every existing small-input caller keeps byte-exact
/// behavior regardless of the `kernels.parallel` setting.
bool UseParallel(const KernelOptions& opts, std::size_t n) {
  return opts.parallel && n > std::max<std::size_t>(1, opts.morsel_size);
}

ThreadPool& PoolFor(const KernelOptions& opts) {
  return opts.pool != nullptr ? *opts.pool : DefaultThreadPool();
}

/// Runs body(m, begin, end) for every morsel on the pool. Reports the first
/// failure in *morsel order*, so errors are as deterministic as the serial
/// scan (the first failing record lives in the first failing morsel).
template <typename Body>
Status RunMorsels(const KernelOptions& opts,
                  const std::vector<MorselRange>& ranges, TimingScope& scope,
                  const Body& body) {
  std::vector<Status> statuses(ranges.size());
  Stopwatch loop;
  PoolFor(opts).ParallelFor(ranges.size(), [&](std::size_t m) {
    ThreadCpuTimer cpu;
    statuses[m] = body(m, ranges[m].first, ranges[m].second);
    scope.AddMorselCpu(cpu.ElapsedMicros());
  });
  scope.AddLoopWall(loop.ElapsedMicros());
  CountIfEnabled(MorselsCounter(), static_cast<int64_t>(ranges.size()));
  for (Status& st : statuses) {
    if (!st.ok()) return std::move(st);
  }
  return Status::OK();
}

/// Splices per-morsel outputs in morsel order, reserving the final size once.
Dataset ConcatMorsels(std::vector<std::vector<Record>> parts) {
  std::size_t total = 0;
  for (const auto& p : parts) total += p.size();
  std::vector<Record> out;
  out.reserve(total);
  for (auto& p : parts) {
    out.insert(out.end(), std::make_move_iterator(p.begin()),
               std::make_move_iterator(p.end()));
  }
  return Dataset(std::move(out));
}

/// Greedily packs consecutive groups (given per-group record counts) into
/// chunks of roughly `target` input records, so group-UDF application
/// parallelizes without spawning a task per tiny group.
std::vector<MorselRange> ChunkBySize(const std::vector<std::size_t>& sizes,
                                     std::size_t target) {
  if (target == 0) target = 1;
  std::vector<MorselRange> chunks;
  std::size_t start = 0;
  std::size_t load = 0;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    load += sizes[i];
    if (load >= target) {
      chunks.emplace_back(start, i + 1);
      start = i + 1;
      load = 0;
    }
  }
  if (start < sizes.size()) chunks.emplace_back(start, sizes.size());
  return chunks;
}

Status CheckProjection(const std::vector<int>& columns, const Record& r) {
  for (int c : columns) {
    if (static_cast<std::size_t>(c) >= r.size()) {
      return Status::OutOfRange("projection column " + std::to_string(c) +
                                " out of range for record of arity " +
                                std::to_string(r.size()));
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Columnar execution layer
// ---------------------------------------------------------------------------
//
// Eligible kernels convert their input to a columnar Batch at the operator
// boundary (conversions are counted by batch.cc in batch.conversions_total),
// evaluate declarative expressions column-at-a-time via
// expr::EvalPredicateView / EvalExprView, and box records only at the output
// boundary. Every columnar path is byte-identical to the row path; shapes
// the vectorized code cannot reproduce exactly (null or NaN keys, nulls in
// aggregate columns, mixed-type columns, ragged arity) fall back to the row
// path and count batch.fallbacks_total.

Counter* RowsVectorizedCounter() {
  static Counter* c =
      MetricsRegistry::Global().counter("batch.rows_vectorized_total");
  return c;
}
Counter* BatchFallbacksCounter() {
  static Counter* c =
      MetricsRegistry::Global().counter("batch.fallbacks_total");
  return c;
}

std::atomic<bool>& ColumnarFlag() {
  static std::atomic<bool> flag{[] {
    const char* env = std::getenv("RHEEM_FORCE_ROW");
    return env == nullptr || env[0] != '1';
  }()};
  return flag;
}

bool CanGoColumnar(const KernelOptions& opts) {
  return opts.columnar && ColumnarEnabled();
}

/// Sub-range [b, e) of a full-batch view, for per-morsel vectorized
/// evaluation over selection positions.
BatchView SubView(const BatchView& full, std::size_t b, std::size_t e) {
  BatchView v = full;
  if (full.sel != nullptr) {
    v.sel = full.sel + b;
  } else {
    v.base = full.base + b;
  }
  v.n = e - b;
  return v;
}

uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

/// Canonical 64-bit key of a numeric/bool group value: the bits of its
/// double representation, which is exactly Value's cross-type equality class
/// (Value::Compare runs int64/double through doubles, so Value(2) and
/// Value(2.0) — or int64s beyond 2^53 whose doubles collide — merge here the
/// same way the row path's Value maps merge them). -0.0 collapses to +0.0
/// because Compare treats them as equal. NaN has no canonical key;
/// ColumnarKeyable rejects it.
uint64_t NumericKeyBits(double d) {
  if (d == 0.0) d = 0.0;  // -0.0 and +0.0 are one key
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

double NumericKeyValue(const ColumnData& c, std::size_t row) {
  switch (c.type) {
    case ValueType::kInt64:
      return static_cast<double>(c.i64[row]);
    case ValueType::kDouble:
      return c.f64[row];
    case ValueType::kBool:
      return c.b8[row] != 0 ? 1.0 : 0.0;
    default:
      return 0.0;
  }
}

/// Can `c` drive a columnar group/join key? Requires a concrete scalar type
/// and no nulls or NaNs among rows row(0..n): null keys group fine in the
/// row path's Value maps, and NaN compares equal to *everything* under
/// Value::Compare — both need the row path's semantics.
template <typename RowFn>
bool ColumnarKeyable(const ColumnData& c, std::size_t n, const RowFn& row) {
  if (c.type != ValueType::kInt64 && c.type != ValueType::kDouble &&
      c.type != ValueType::kBool && c.type != ValueType::kString) {
    return false;
  }
  if (c.has_nulls()) {
    for (std::size_t i = 0; i < n; ++i) {
      if (c.IsNull(row(i))) return false;
    }
  }
  if (c.type == ValueType::kDouble) {
    for (std::size_t i = 0; i < n; ++i) {
      const double d = c.f64[row(i)];
      if (d != d) return false;
    }
  }
  return true;
}

/// Open-addressing uint64 -> group-id table (power-of-two capacity, linear
/// probing, SplitMix64 finalizer). The per-morsel group tables are the
/// hottest structure of the columnar aggregation path; a flat table avoids
/// unordered_map's per-node allocations and pointer chasing.
class FlatU64Table {
 public:
  FlatU64Table() { Rehash(16); }

  /// Group id for `k`; assigns `next_id` (setting *inserted) when new.
  uint32_t FindOrInsert(uint64_t k, uint32_t next_id, bool* inserted) {
    if ((count_ + 1) * 2 > slots_.size()) Rehash(slots_.size() * 2);
    std::size_t i = SplitMix64(k) & mask_;
    while (slots_[i].used != 0) {
      if (slots_[i].key == k) {
        *inserted = false;
        return slots_[i].id;
      }
      i = (i + 1) & mask_;
    }
    slots_[i] = Slot{k, next_id, 1};
    ++count_;
    *inserted = true;
    return next_id;
  }

  /// Group id for `k`, or UINT32_MAX when absent.
  uint32_t Find(uint64_t k) const {
    std::size_t i = SplitMix64(k) & mask_;
    while (slots_[i].used != 0) {
      if (slots_[i].key == k) return slots_[i].id;
      i = (i + 1) & mask_;
    }
    return UINT32_MAX;
  }

 private:
  struct Slot {
    uint64_t key = 0;
    uint32_t id = 0;
    uint8_t used = 0;
  };
  void Rehash(std::size_t cap) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(cap, Slot{});
    mask_ = cap - 1;
    for (const Slot& s : old) {
      if (s.used == 0) continue;
      std::size_t i = SplitMix64(s.key) & mask_;
      while (slots_[i].used != 0) i = (i + 1) & mask_;
      slots_[i] = s;
    }
  }
  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t count_ = 0;
};

// --- columnar grouped aggregation (ReduceByKey core) -----------------------

/// Per-morsel (and merged) group accumulators, id-indexed parallel arrays.
/// Aggregate state is group-major: slot [g * naggs + a] holds column a of
/// group g, in the int64 or double array according to the column's type
/// (the other array's slot is dead weight, never read).
struct GroupState {
  std::vector<uint32_t> first_row;  // physical row of the first member
  std::vector<uint32_t> count;
  std::vector<double> num_rep;            // numeric/bool keys: sort value
  std::vector<uint64_t> key_bits;         // numeric/bool keys: canonical bits
  std::vector<std::string_view> str_rep;  // string keys (into the key column)
  std::vector<int64_t> acc_i;
  std::vector<double> acc_d;
  FlatU64Table ntable;
  std::unordered_map<std::string_view, uint32_t> stable;

  std::size_t size() const { return first_row.size(); }
};

/// Folds selection positions [b, e) of `in` into `st`. `keys` holds the key
/// for position p at dense index p - b. Accumulator updates mirror
/// CombineAgg exactly: int64 sums wrap via unsigned arithmetic, min/max
/// compare through doubles (Value::Compare's numeric tower) and keep the
/// accumulator on ties — which also makes NaN aggregate values keep the
/// accumulator, like Compare's "NaN equals everything".
void AccumulateGroups(const Batch& in, const ColumnData& keys,
                      const std::vector<AggSpec>& aggs, std::size_t b,
                      std::size_t e, GroupState* st) {
  const bool str_key = keys.type == ValueType::kString;
  const std::size_t naggs = aggs.size();
  for (std::size_t p = b; p < e; ++p) {
    const std::size_t row = in.RowAt(p);
    const uint32_t next = static_cast<uint32_t>(st->size());
    bool inserted = false;
    uint32_t gid;
    if (str_key) {
      auto [it, fresh] = st->stable.try_emplace(keys.StringAt(p - b), next);
      inserted = fresh;
      gid = it->second;
      if (fresh) st->str_rep.push_back(it->first);
    } else {
      const double kd = NumericKeyValue(keys, p - b);
      gid = st->ntable.FindOrInsert(NumericKeyBits(kd), next, &inserted);
      if (inserted) {
        st->num_rep.push_back(kd);
        st->key_bits.push_back(NumericKeyBits(kd));
      }
    }
    if (inserted) {
      st->first_row.push_back(static_cast<uint32_t>(row));
      st->count.push_back(1);
      for (std::size_t a = 0; a < naggs; ++a) {
        int64_t vi = 0;
        double vd = 0.0;
        if (aggs[a].kind != AggKind::kFirst) {
          const ColumnData& col = in.column(a);
          if (col.type == ValueType::kInt64) {
            vi = col.i64[row];
          } else {
            vd = col.f64[row];
          }
        }
        st->acc_i.push_back(vi);
        st->acc_d.push_back(vd);
      }
      continue;
    }
    ++st->count[gid];
    const std::size_t base = static_cast<std::size_t>(gid) * naggs;
    for (std::size_t a = 0; a < naggs; ++a) {
      const AggKind kind = aggs[a].kind;
      if (kind == AggKind::kFirst) continue;
      const ColumnData& col = in.column(a);
      if (col.type == ValueType::kInt64) {
        const int64_t v = col.i64[row];
        int64_t& acc = st->acc_i[base + a];
        switch (kind) {
          case AggKind::kSum:
            acc = static_cast<int64_t>(static_cast<uint64_t>(acc) +
                                       static_cast<uint64_t>(v));
            break;
          case AggKind::kMin:
            if (static_cast<double>(acc) > static_cast<double>(v)) acc = v;
            break;
          case AggKind::kMax:
            if (static_cast<double>(acc) < static_cast<double>(v)) acc = v;
            break;
          default:
            break;
        }
      } else {
        const double v = col.f64[row];
        double& acc = st->acc_d[base + a];
        switch (kind) {
          case AggKind::kSum:
            acc += v;
            break;
          case AggKind::kMin:
            if (acc > v) acc = v;
            break;
          case AggKind::kMax:
            if (acc < v) acc = v;
            break;
          default:
            break;
        }
      }
    }
  }
}

/// Merges partial `p` into `g` — fn(global, partial) operand order, the same
/// order the row path's morsel merge feeds reduce.fn, so ties keep the
/// earlier-morsel accumulator. Sum/min/max apply to both acc arrays; the
/// column's dead array carries zeros on both sides and stays dead.
void MergeGroupStates(const std::vector<AggSpec>& aggs, bool str_key,
                      GroupState* g, const GroupState& p) {
  const std::size_t naggs = aggs.size();
  for (std::size_t s = 0; s < p.size(); ++s) {
    const uint32_t next = static_cast<uint32_t>(g->size());
    bool inserted = false;
    uint32_t gid;
    if (str_key) {
      auto [it, fresh] = g->stable.try_emplace(p.str_rep[s], next);
      inserted = fresh;
      gid = it->second;
      if (fresh) g->str_rep.push_back(it->first);
    } else {
      gid = g->ntable.FindOrInsert(p.key_bits[s], next, &inserted);
      if (inserted) {
        g->num_rep.push_back(p.num_rep[s]);
        g->key_bits.push_back(p.key_bits[s]);
      }
    }
    const std::size_t pb = s * naggs;
    if (inserted) {
      g->first_row.push_back(p.first_row[s]);
      g->count.push_back(p.count[s]);
      for (std::size_t a = 0; a < naggs; ++a) {
        g->acc_i.push_back(p.acc_i[pb + a]);
        g->acc_d.push_back(p.acc_d[pb + a]);
      }
      continue;
    }
    g->count[gid] += p.count[s];
    const std::size_t gb = static_cast<std::size_t>(gid) * naggs;
    for (std::size_t a = 0; a < naggs; ++a) {
      switch (aggs[a].kind) {
        case AggKind::kFirst:
          break;
        case AggKind::kSum:
          g->acc_i[gb + a] = static_cast<int64_t>(
              static_cast<uint64_t>(g->acc_i[gb + a]) +
              static_cast<uint64_t>(p.acc_i[pb + a]));
          g->acc_d[gb + a] += p.acc_d[pb + a];
          break;
        case AggKind::kMin:
          if (static_cast<double>(g->acc_i[gb + a]) >
              static_cast<double>(p.acc_i[pb + a])) {
            g->acc_i[gb + a] = p.acc_i[pb + a];
          }
          if (g->acc_d[gb + a] > p.acc_d[pb + a]) {
            g->acc_d[gb + a] = p.acc_d[pb + a];
          }
          break;
        case AggKind::kMax:
          if (static_cast<double>(g->acc_i[gb + a]) <
              static_cast<double>(p.acc_i[pb + a])) {
            g->acc_i[gb + a] = p.acc_i[pb + a];
          }
          if (g->acc_d[gb + a] < p.acc_d[pb + a]) {
            g->acc_d[gb + a] = p.acc_d[pb + a];
          }
          break;
      }
    }
  }
}

/// Boxes the merged groups in ascending key order (the row path's std::map
/// order: numerics through doubles, strings lexicographic). A single-member
/// group's "reduction" is the untouched input record, full arity.
Dataset EmitGroups(const Batch& in, const std::vector<AggSpec>& aggs,
                   bool str_key, const GroupState& g) {
  std::vector<uint32_t> order(g.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<uint32_t>(i);
  }
  if (str_key) {
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      return g.str_rep[a] < g.str_rep[b];
    });
  } else {
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      return g.num_rep[a] < g.num_rep[b];
    });
  }
  const std::size_t naggs = aggs.size();
  std::vector<Record> out;
  out.reserve(g.size());
  for (uint32_t gi : order) {
    if (g.count[gi] == 1) {
      out.push_back(in.RecordAt(g.first_row[gi]));
      continue;
    }
    std::vector<Value> fields;
    fields.reserve(naggs);
    const std::size_t base = static_cast<std::size_t>(gi) * naggs;
    for (std::size_t a = 0; a < naggs; ++a) {
      if (aggs[a].kind == AggKind::kFirst) {
        fields.push_back(in.column(a).ValueAt(g.first_row[gi]));
      } else if (in.column(a).type == ValueType::kInt64) {
        fields.push_back(Value(g.acc_i[base + a]));
      } else {
        fields.push_back(Value(g.acc_d[base + a]));
      }
    }
    out.push_back(Record(std::move(fields)));
  }
  return Dataset(std::move(out));
}

/// The shared columnar grouped-aggregation core (Dataset-level ReduceByKey
/// and ReduceByKeyBatch). Unsupported when the batch shapes don't meet the
/// vectorization rules; callers fall back to the row path.
Result<Dataset> GroupedAggregate(const expr::Expr& key_expr,
                                 const std::vector<AggSpec>& aggs,
                                 const Batch& in, const KernelOptions& opts,
                                 TimingScope& scope) {
  const std::size_t n = in.num_selected();
  if (n == 0) return Dataset();
  if (aggs.empty() || aggs.size() > in.num_columns()) {
    return Status::Unsupported("aggregate spec wider than the batch");
  }
  for (std::size_t a = 0; a < aggs.size(); ++a) {
    if (aggs[a].column != static_cast<int>(a)) {
      return Status::Unsupported("non-positional aggregate spec");
    }
    if (aggs[a].kind == AggKind::kFirst) continue;
    const ColumnData& col = in.column(a);
    if (col.type != ValueType::kInt64 && col.type != ValueType::kDouble) {
      return Status::Unsupported("non-numeric aggregate column");
    }
    if (col.has_nulls()) {
      for (std::size_t i = 0; i < n; ++i) {
        if (col.IsNull(in.RowAt(i))) {
          return Status::Unsupported("nulls in an aggregate column");
        }
      }
    }
  }
  std::vector<const ColumnData*> ptrs;
  const BatchView view = in.View(&ptrs);
  const auto ranges = UseParallel(opts, n)
                          ? MorselRanges(n, opts.morsel_size)
                          : std::vector<MorselRange>{{0, n}};
  std::vector<ColumnData> keys(ranges.size());
  std::vector<GroupState> partials(ranges.size());
  auto body = [&](std::size_t m, std::size_t b, std::size_t e) -> Status {
    expr::EvalExprView(key_expr, SubView(view, b, e), &keys[m]);
    auto ident = [](std::size_t i) { return i; };
    if (!ColumnarKeyable(keys[m], e - b, ident)) {
      return Status::Unsupported("key column not columnar-keyable");
    }
    AccumulateGroups(in, keys[m], aggs, b, e, &partials[m]);
    return Status::OK();
  };
  if (ranges.size() == 1) {
    RHEEM_RETURN_IF_ERROR(body(0, 0, n));
  } else {
    RHEEM_RETURN_IF_ERROR(RunMorsels(opts, ranges, scope, body));
  }
  const bool str_key = keys[0].type == ValueType::kString;
  GroupState merged = std::move(partials[0]);
  for (std::size_t m = 1; m < partials.size(); ++m) {
    MergeGroupStates(aggs, str_key, &merged, partials[m]);
  }
  CountIfEnabled(RowsVectorizedCounter(), static_cast<int64_t>(n));
  return EmitGroups(in, aggs, str_key, merged);
}

// --- columnar HashGroupBy / HashJoin ---------------------------------------

/// Columnar HashGroupBy front half: vectorized key evaluation + flat-table
/// group-id assignment + two-pass bucketing. The group-UDF phase is the same
/// boxed-record code as the row path (whole groups reach the closure either
/// way); group order is first-seen, members ascend — exactly the row path's
/// try_emplace + key_order bookkeeping.
Result<Dataset> HashGroupByColumnar(const KeyUdf& key, const GroupUdf& group,
                                    const Dataset& in,
                                    const KernelOptions& opts,
                                    TimingScope& scope) {
  const std::size_t width =
      static_cast<std::size_t>(expr::MaxFieldIndex(*key.expr) + 1);
  auto converted = Batch::FromDatasetPrefix(in, width);
  if (!converted.ok()) return converted.status();
  const Batch& batch = *converted;
  std::vector<const ColumnData*> ptrs;
  const BatchView view = batch.View(&ptrs);
  ColumnData keys;
  expr::EvalExprView(*key.expr, view, &keys);
  const std::size_t n = in.size();
  auto ident = [](std::size_t i) { return i; };
  if (!ColumnarKeyable(keys, n, ident)) {
    return Status::Unsupported("key column not columnar-keyable");
  }
  const bool str_key = keys.type == ValueType::kString;
  std::vector<uint32_t> gid(n);
  std::vector<uint32_t> first_row;
  std::vector<std::size_t> counts;
  FlatU64Table ntable;
  std::unordered_map<std::string_view, uint32_t> stable;
  for (std::size_t i = 0; i < n; ++i) {
    const uint32_t next = static_cast<uint32_t>(first_row.size());
    bool inserted = false;
    uint32_t g;
    if (str_key) {
      auto [it, fresh] = stable.try_emplace(keys.StringAt(i), next);
      inserted = fresh;
      g = it->second;
    } else {
      g = ntable.FindOrInsert(NumericKeyBits(NumericKeyValue(keys, i)), next,
                              &inserted);
    }
    if (inserted) {
      first_row.push_back(static_cast<uint32_t>(i));
      counts.push_back(0);
    }
    ++counts[g];
    gid[i] = g;
  }
  CountIfEnabled(RowsVectorizedCounter(), static_cast<int64_t>(n));
  const std::size_t num_groups = first_row.size();
  std::vector<std::size_t> offsets(num_groups + 1, 0);
  for (std::size_t g2 = 0; g2 < num_groups; ++g2) {
    offsets[g2 + 1] = offsets[g2] + counts[g2];
  }
  std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
  std::vector<uint32_t> members(n);
  for (std::size_t i = 0; i < n; ++i) {
    members[cursor[gid[i]]++] = static_cast<uint32_t>(i);
  }
  auto run_groups = [&](std::size_t gb, std::size_t ge,
                        std::vector<Record>& out) -> Status {
    for (std::size_t g2 = gb; g2 < ge; ++g2) {
      std::vector<Record> mem;
      mem.reserve(offsets[g2 + 1] - offsets[g2]);
      for (std::size_t s = offsets[g2]; s < offsets[g2 + 1]; ++s) {
        mem.push_back(in.at(members[s]));
      }
      std::vector<Record> produced =
          group.fn(keys.ValueAt(first_row[g2]), mem);
      for (auto& p : produced) out.push_back(std::move(p));
    }
    return Status::OK();
  };
  if (!UseParallel(opts, n)) {
    std::vector<Record> out;
    RHEEM_RETURN_IF_ERROR(run_groups(0, num_groups, out));
    return Dataset(std::move(out));
  }
  const auto chunks = ChunkBySize(counts, opts.morsel_size);
  std::vector<std::vector<Record>> parts(chunks.size());
  RHEEM_RETURN_IF_ERROR(RunMorsels(
      opts, chunks, scope, [&](std::size_t c, std::size_t b, std::size_t e) {
        return run_groups(b, e, parts[c]);
      }));
  return ConcatMorsels(std::move(parts));
}

/// Columnar HashJoin: vectorized key evaluation on both sides, a flat
/// bits -> row-list table on the build (right) side, morsel-parallel probe.
/// Output rows are Record::Concat of the original records — probe order x
/// build input order, like the row kernel.
Result<Dataset> HashJoinColumnar(const KeyUdf& left_key,
                                 const KeyUdf& right_key, const Dataset& left,
                                 const Dataset& right,
                                 const KernelOptions& opts,
                                 TimingScope& scope) {
  const std::size_t lw =
      static_cast<std::size_t>(expr::MaxFieldIndex(*left_key.expr) + 1);
  const std::size_t rw =
      static_cast<std::size_t>(expr::MaxFieldIndex(*right_key.expr) + 1);
  auto lconv = Batch::FromDatasetPrefix(left, lw);
  if (!lconv.ok()) return lconv.status();
  auto rconv = Batch::FromDatasetPrefix(right, rw);
  if (!rconv.ok()) return rconv.status();
  std::vector<const ColumnData*> lptrs, rptrs;
  const BatchView lview = lconv->View(&lptrs);
  const BatchView rview = rconv->View(&rptrs);
  ColumnData lkeys, rkeys;
  expr::EvalExprView(*left_key.expr, lview, &lkeys);
  expr::EvalExprView(*right_key.expr, rview, &rkeys);
  auto ident = [](std::size_t i) { return i; };
  if (!ColumnarKeyable(lkeys, left.size(), ident) ||
      !ColumnarKeyable(rkeys, right.size(), ident)) {
    return Status::Unsupported("join key column not columnar-keyable");
  }
  CountIfEnabled(RowsVectorizedCounter(),
                 static_cast<int64_t>(left.size() + right.size()));
  // Value equality never crosses type classes (bool, numeric, and string
  // rank differently in Value::Compare), so class-mismatched keys join to
  // nothing — exactly what the row path's probe misses produce.
  auto cls = [](ValueType t) {
    if (t == ValueType::kString) return 2;
    if (t == ValueType::kBool) return 1;
    return 0;
  };
  if (cls(lkeys.type) != cls(rkeys.type)) return Dataset();
  const bool str_key = lkeys.type == ValueType::kString;
  FlatU64Table ntable;
  std::unordered_map<std::string_view, uint32_t> stable;
  std::vector<std::vector<uint32_t>> rows_by_id;
  for (std::size_t j = 0; j < right.size(); ++j) {
    const uint32_t next = static_cast<uint32_t>(rows_by_id.size());
    bool inserted = false;
    uint32_t id;
    if (str_key) {
      auto [it, fresh] = stable.try_emplace(rkeys.StringAt(j), next);
      inserted = fresh;
      id = it->second;
    } else {
      id = ntable.FindOrInsert(NumericKeyBits(NumericKeyValue(rkeys, j)),
                               next, &inserted);
    }
    if (inserted) rows_by_id.emplace_back();
    rows_by_id[id].push_back(static_cast<uint32_t>(j));
  }
  auto probe_range = [&](std::size_t b, std::size_t e,
                         std::vector<Record>& out) {
    for (std::size_t i = b; i < e; ++i) {
      const std::vector<uint32_t>* matches = nullptr;
      if (str_key) {
        auto it = stable.find(lkeys.StringAt(i));
        if (it != stable.end()) matches = &rows_by_id[it->second];
      } else {
        const uint32_t id =
            ntable.Find(NumericKeyBits(NumericKeyValue(lkeys, i)));
        if (id != UINT32_MAX) matches = &rows_by_id[id];
      }
      if (matches == nullptr) continue;
      for (uint32_t j : *matches) {
        out.push_back(Record::Concat(left.at(i), right.at(j)));
      }
    }
  };
  if (!UseParallel(opts, std::max(left.size(), right.size()))) {
    std::vector<Record> out;
    probe_range(0, left.size(), out);
    return Dataset(std::move(out));
  }
  const auto ranges = MorselRanges(left.size(), opts.morsel_size);
  std::vector<std::vector<Record>> parts(ranges.size());
  RHEEM_RETURN_IF_ERROR(RunMorsels(
      opts, ranges, scope, [&](std::size_t m, std::size_t b, std::size_t e) {
        probe_range(b, e, parts[m]);
        return Status::OK();
      }));
  return ConcatMorsels(std::move(parts));
}

/// Appends the `src_rows` dense rows of `src` onto `dst` (holding `dst_rows`
/// so far, out of `total_rows`). Per-morsel evaluation of one expression
/// over sub-views of the same columns always yields one output type, so a
/// type mismatch here is a logic error, not a data condition.
Status AppendColumn(ColumnData* dst, std::size_t dst_rows,
                    std::size_t total_rows, const ColumnData& src,
                    std::size_t src_rows) {
  if (dst_rows == 0) {
    dst->type = src.type;
  } else if (dst->type != src.type) {
    return Status::Internal("columnar morsel output type drift");
  }
  switch (src.type) {
    case ValueType::kInt64:
      dst->i64.insert(dst->i64.end(), src.i64.begin(), src.i64.end());
      break;
    case ValueType::kDouble:
      dst->f64.insert(dst->f64.end(), src.f64.begin(), src.f64.end());
      break;
    case ValueType::kBool:
      dst->b8.insert(dst->b8.end(), src.b8.begin(), src.b8.end());
      break;
    case ValueType::kString: {
      if (dst->str_offsets.empty()) dst->str_offsets.push_back(0);
      const uint32_t base = dst->str_offsets.back();
      for (std::size_t i = 1; i <= src_rows; ++i) {
        dst->str_offsets.push_back(base + src.str_offsets[i]);
      }
      dst->str_bytes.append(src.str_bytes);
      break;
    }
    case ValueType::kNull:
      break;  // all-null: only the bitmap below carries information
    default:
      return Status::Internal("unexpected columnar output type");
  }
  if (src.has_nulls() || src.type == ValueType::kNull) {
    for (std::size_t i = 0; i < src_rows; ++i) {
      if (src.type == ValueType::kNull || src.IsNull(i)) {
        dst->MarkNull(dst_rows + i, total_rows);
      }
    }
  }
  return Status::OK();
}

/// Decorated sort entry for the parallel run-sort + merge. Ordering by
/// (key, original index) is a total order equivalent to stable_sort by key.
struct SortEntry {
  Value key;
  std::size_t index = 0;
};

bool SortEntryLess(const SortEntry& a, const SortEntry& b) {
  const int c = a.key.Compare(b.key);
  if (c != 0) return c < 0;
  return a.index < b.index;
}

/// Parallel decorate + per-morsel sort + pairwise parallel merge. On return
/// `buf_a` and `buf_b` are sized n and the returned pointer (into one of
/// them) holds all n entries in stable key order.
template <typename KeyFn>
SortEntry* ParallelSortEntries(const KeyFn& key_fn, const Dataset& in,
                               const KernelOptions& opts, TimingScope& scope,
                               std::vector<SortEntry>& buf_a,
                               std::vector<SortEntry>& buf_b) {
  const std::size_t n = in.size();
  const auto ranges = MorselRanges(n, opts.morsel_size);
  buf_a.resize(n);
  buf_b.resize(n);
  Stopwatch sort_loop;
  PoolFor(opts).ParallelFor(ranges.size(), [&](std::size_t m) {
    ThreadCpuTimer cpu;
    const auto [b, e] = ranges[m];
    for (std::size_t i = b; i < e; ++i) {
      buf_a[i] = SortEntry{key_fn(in.at(i)), i};
    }
    std::sort(buf_a.begin() + static_cast<std::ptrdiff_t>(b),
              buf_a.begin() + static_cast<std::ptrdiff_t>(e), SortEntryLess);
    scope.AddMorselCpu(cpu.ElapsedMicros());
  });
  scope.AddLoopWall(sort_loop.ElapsedMicros());
  CountIfEnabled(MorselsCounter(), static_cast<int64_t>(ranges.size()));

  std::vector<std::size_t> bounds;
  bounds.reserve(ranges.size() + 1);
  bounds.push_back(0);
  for (const auto& r : ranges) bounds.push_back(r.second);
  SortEntry* src = buf_a.data();
  SortEntry* dst = buf_b.data();
  while (bounds.size() > 2) {
    const std::size_t runs = bounds.size() - 1;
    const std::size_t merged_runs = (runs + 1) / 2;
    Stopwatch level;
    PoolFor(opts).ParallelFor(merged_runs, [&](std::size_t p) {
      ThreadCpuTimer cpu;
      const std::size_t lo = bounds[2 * p];
      const std::size_t mid = bounds[std::min(2 * p + 1, runs)];
      const std::size_t hi = bounds[std::min(2 * p + 2, runs)];
      if (mid == hi) {
        // Odd run out: carry it to the next level unchanged.
        std::move(src + lo, src + mid, dst + lo);
      } else {
        std::merge(std::make_move_iterator(src + lo),
                   std::make_move_iterator(src + mid),
                   std::make_move_iterator(src + mid),
                   std::make_move_iterator(src + hi), dst + lo, SortEntryLess);
      }
      scope.AddMorselCpu(cpu.ElapsedMicros());
    });
    scope.AddLoopWall(level.ElapsedMicros());
    std::vector<std::size_t> next_bounds;
    next_bounds.reserve(merged_runs + 1);
    next_bounds.push_back(0);
    for (std::size_t p = 0; p < merged_runs; ++p) {
      next_bounds.push_back(bounds[std::min(2 * p + 2, runs)]);
    }
    bounds = std::move(next_bounds);
    std::swap(src, dst);
  }
  return src;
}

}  // namespace

// ---------------------------------------------------------------------------
// KernelOptions / timing API
// ---------------------------------------------------------------------------

KernelOptions KernelOptions::FromConfig(const Config& config,
                                        ThreadPool* pool) {
  KernelOptions o;
  o.parallel = config.GetBool("kernels.parallel", o.parallel).ValueOr(o.parallel);
  o.columnar = config.GetBool("kernels.columnar", o.columnar).ValueOr(o.columnar);
  const int64_t morsel =
      config.GetInt("kernels.morsel_size", static_cast<int64_t>(o.morsel_size))
          .ValueOr(static_cast<int64_t>(o.morsel_size));
  if (morsel > 0) o.morsel_size = static_cast<std::size_t>(morsel);
  o.pool = pool;
  return o;
}

bool ColumnarEnabled() {
  return ColumnarFlag().load(std::memory_order_relaxed);
}

void SetColumnarEnabled(bool enabled) {
  ColumnarFlag().store(enabled, std::memory_order_relaxed);
}

std::vector<KernelTiming> SnapshotKernelTimings() {
  std::vector<KernelTiming> out;
  for (int id = 0; id < kNumKernelIds; ++id) {
    TimingCell& c = Cells()[id];
    KernelTiming t;
    t.kernel = kKernelNames[id];
    t.invocations = c.invocations.load(std::memory_order_relaxed);
    if (t.invocations == 0) continue;
    t.records_in = c.records_in.load(std::memory_order_relaxed);
    t.wall_micros = c.wall.load(std::memory_order_relaxed);
    t.parallel_cpu_micros = c.parallel_cpu.load(std::memory_order_relaxed);
    t.critical_path_micros = c.critical.load(std::memory_order_relaxed);
    t.serial_micros = c.serial.load(std::memory_order_relaxed);
    out.push_back(std::move(t));
  }
  return out;
}

void ResetKernelTimings() {
  for (int id = 0; id < kNumKernelIds; ++id) {
    TimingCell& c = Cells()[id];
    c.invocations.store(0, std::memory_order_relaxed);
    c.records_in.store(0, std::memory_order_relaxed);
    c.wall.store(0, std::memory_order_relaxed);
    c.parallel_cpu.store(0, std::memory_order_relaxed);
    c.critical.store(0, std::memory_order_relaxed);
    c.serial.store(0, std::memory_order_relaxed);
  }
}

int64_t ModeledMicrosAtWidth(const KernelTiming& t, std::size_t workers) {
  if (workers == 0) workers = 1;
  const int64_t spread =
      t.parallel_cpu_micros / static_cast<int64_t>(workers);
  return t.serial_micros + std::max(spread, t.critical_path_micros);
}

// ---------------------------------------------------------------------------
// Record-at-a-time kernels
// ---------------------------------------------------------------------------

Result<Dataset> Map(const MapUdf& udf, const Dataset& in,
                    const KernelOptions& opts) {
  if (!udf.fn) return Status::InvalidArgument("Map UDF is empty");
  TimingScope scope(kIdMap, in.size());
  // Declarative projections run columnar: one vectorized evaluation per
  // output expression over the converted batch, boxed once at the end.
  if (!udf.projection.empty() && CanGoColumnar(opts) && !in.empty()) {
    int width = 0;
    for (const auto& f : udf.projection) {
      width = std::max(width, expr::MaxFieldIndex(*f) + 1);
    }
    auto converted =
        Batch::FromDatasetPrefix(in, static_cast<std::size_t>(width));
    if (converted.ok()) {
      CountIfEnabled(RowsVectorizedCounter(), static_cast<int64_t>(in.size()));
      std::vector<const ColumnData*> ptrs;
      const BatchView view = converted->View(&ptrs);
      auto eval_range = [&](std::size_t b, std::size_t e,
                            std::vector<Record>& out) {
        const BatchView v = SubView(view, b, e);
        std::vector<ColumnData> cols(udf.projection.size());
        for (std::size_t j = 0; j < udf.projection.size(); ++j) {
          expr::EvalExprView(*udf.projection[j], v, &cols[j]);
        }
        out.reserve(out.size() + (e - b));
        for (std::size_t i = 0; i < e - b; ++i) {
          std::vector<Value> fields;
          fields.reserve(cols.size());
          for (const ColumnData& c : cols) fields.push_back(c.ValueAt(i));
          out.push_back(Record(std::move(fields)));
        }
      };
      if (!UseParallel(opts, in.size())) {
        std::vector<Record> out;
        eval_range(0, in.size(), out);
        return Dataset(std::move(out));
      }
      const auto ranges = MorselRanges(in.size(), opts.morsel_size);
      std::vector<std::vector<Record>> parts(ranges.size());
      RHEEM_RETURN_IF_ERROR(RunMorsels(
          opts, ranges, scope,
          [&](std::size_t m, std::size_t b, std::size_t e) {
            eval_range(b, e, parts[m]);
            return Status::OK();
          }));
      return ConcatMorsels(std::move(parts));
    }
    CountIfEnabled(BatchFallbacksCounter(), 1);
  }
  if (!UseParallel(opts, in.size())) {
    std::vector<Record> out;
    out.reserve(in.size());
    for (const auto& r : in.records()) out.push_back(udf.fn(r));
    return Dataset(std::move(out));
  }
  const auto ranges = MorselRanges(in.size(), opts.morsel_size);
  std::vector<std::vector<Record>> parts(ranges.size());
  RHEEM_RETURN_IF_ERROR(RunMorsels(
      opts, ranges, scope, [&](std::size_t m, std::size_t b, std::size_t e) {
        auto& part = parts[m];
        part.reserve(e - b);
        for (std::size_t i = b; i < e; ++i) part.push_back(udf.fn(in.at(i)));
        return Status::OK();
      }));
  return ConcatMorsels(std::move(parts));
}

Result<Dataset> FlatMap(const FlatMapUdf& udf, const Dataset& in,
                        const KernelOptions& opts) {
  if (!udf.fn) return Status::InvalidArgument("FlatMap UDF is empty");
  TimingScope scope(kIdFlatMap, in.size());
  if (!UseParallel(opts, in.size())) {
    std::vector<Record> out;
    out.reserve(in.size());
    for (const auto& r : in.records()) {
      std::vector<Record> produced = udf.fn(r);
      for (auto& p : produced) out.push_back(std::move(p));
    }
    return Dataset(std::move(out));
  }
  const auto ranges = MorselRanges(in.size(), opts.morsel_size);
  std::vector<std::vector<Record>> parts(ranges.size());
  RHEEM_RETURN_IF_ERROR(RunMorsels(
      opts, ranges, scope, [&](std::size_t m, std::size_t b, std::size_t e) {
        auto& part = parts[m];
        part.reserve(e - b);
        for (std::size_t i = b; i < e; ++i) {
          std::vector<Record> produced = udf.fn(in.at(i));
          for (auto& p : produced) part.push_back(std::move(p));
        }
        return Status::OK();
      }));
  return ConcatMorsels(std::move(parts));
}

Result<Dataset> Filter(const PredicateUdf& udf, const Dataset& in,
                       const KernelOptions& opts) {
  if (!udf.fn && udf.expr == nullptr) {
    return Status::InvalidArgument("Filter UDF is empty");
  }
  TimingScope scope(kIdFilter, in.size());
  // Declarative predicates take the vectorized path: the expression tree is
  // evaluated column-at-a-time over the whole batch (morsel) instead of one
  // virtual call per record.
  const expr::Expr* tree = udf.expr.get();
  // True columnar path: convert the referenced column prefix once, evaluate
  // the predicate over typed vectors, gather survivors from the input.
  if (tree != nullptr && CanGoColumnar(opts) && !in.empty()) {
    const std::size_t width =
        static_cast<std::size_t>(expr::MaxFieldIndex(*tree) + 1);
    auto converted = Batch::FromDatasetPrefix(in, width);
    if (converted.ok()) {
      CountIfEnabled(RowsVectorizedCounter(), static_cast<int64_t>(in.size()));
      std::vector<const ColumnData*> ptrs;
      const BatchView view = converted->View(&ptrs);
      auto gather_range = [&](std::size_t b, std::size_t e,
                              std::vector<Record>& out) {
        std::vector<unsigned char> keep;
        expr::EvalPredicateView(*tree, SubView(view, b, e), &keep);
        std::size_t kept = 0;
        for (unsigned char k : keep) kept += k;
        out.reserve(out.size() + kept);
        for (std::size_t i = b; i < e; ++i) {
          if (keep[i - b]) out.push_back(in.at(i));
        }
      };
      if (!UseParallel(opts, in.size())) {
        std::vector<Record> out;
        gather_range(0, in.size(), out);
        return Dataset(std::move(out));
      }
      const auto ranges = MorselRanges(in.size(), opts.morsel_size);
      std::vector<std::vector<Record>> parts(ranges.size());
      RHEEM_RETURN_IF_ERROR(RunMorsels(
          opts, ranges, scope,
          [&](std::size_t m, std::size_t b, std::size_t e) {
            gather_range(b, e, parts[m]);
            return Status::OK();
          }));
      return ConcatMorsels(std::move(parts));
    }
    CountIfEnabled(BatchFallbacksCounter(), 1);
  }
  auto decide = [&](std::size_t b, std::size_t e,
                    std::vector<std::size_t>* kept) {
    if (tree != nullptr) {
      std::vector<unsigned char> keep;
      expr::EvalPredicateBatch(*tree, in.records(), b, e, &keep);
      for (std::size_t i = b; i < e; ++i) {
        if (keep[i - b]) kept->push_back(i);
      }
    } else {
      for (std::size_t i = b; i < e; ++i) {
        if (udf.fn(in.at(i))) kept->push_back(i);
      }
    }
  };
  if (!UseParallel(opts, in.size())) {
    // Index gather: decide first, then copy exactly the survivors into a
    // right-sized vector — no reallocation churn on large outputs.
    std::vector<std::size_t> kept;
    decide(0, in.size(), &kept);
    std::vector<Record> out;
    out.reserve(kept.size());
    for (std::size_t i : kept) out.push_back(in.at(i));
    return Dataset(std::move(out));
  }
  const auto ranges = MorselRanges(in.size(), opts.morsel_size);
  std::vector<std::vector<Record>> parts(ranges.size());
  RHEEM_RETURN_IF_ERROR(RunMorsels(
      opts, ranges, scope, [&](std::size_t m, std::size_t b, std::size_t e) {
        std::vector<std::size_t> kept;
        decide(b, e, &kept);
        auto& part = parts[m];
        part.reserve(kept.size());
        for (std::size_t i : kept) part.push_back(in.at(i));
        return Status::OK();
      }));
  return ConcatMorsels(std::move(parts));
}

Result<Dataset> Project(const std::vector<int>& columns, const Dataset& in,
                        const KernelOptions& opts) {
  for (int c : columns) {
    if (c < 0) return Status::InvalidArgument("negative projection column");
  }
  TimingScope scope(kIdProject, in.size());
  if (!UseParallel(opts, in.size())) {
    std::vector<Record> out;
    out.reserve(in.size());
    for (const auto& r : in.records()) {
      RHEEM_RETURN_IF_ERROR(CheckProjection(columns, r));
      out.push_back(r.Project(columns));
    }
    return Dataset(std::move(out));
  }
  const auto ranges = MorselRanges(in.size(), opts.morsel_size);
  std::vector<std::vector<Record>> parts(ranges.size());
  RHEEM_RETURN_IF_ERROR(RunMorsels(
      opts, ranges, scope, [&](std::size_t m, std::size_t b, std::size_t e) {
        auto& part = parts[m];
        part.reserve(e - b);
        for (std::size_t i = b; i < e; ++i) {
          RHEEM_RETURN_IF_ERROR(CheckProjection(columns, in.at(i)));
          part.push_back(in.at(i).Project(columns));
        }
        return Status::OK();
      }));
  return ConcatMorsels(std::move(parts));
}

Result<Dataset> Distinct(const Dataset& in) {
  // Keyed by pointers into the input — records are hashed/compared in place
  // and copied exactly once, into the right-sized output.
  struct PtrHash {
    std::size_t operator()(const Record* r) const { return r->Hash(); }
  };
  struct PtrEq {
    bool operator()(const Record* a, const Record* b) const { return *a == *b; }
  };
  std::unordered_set<const Record*, PtrHash, PtrEq> seen;
  seen.reserve(in.size());
  std::vector<std::size_t> kept;
  for (std::size_t i = 0; i < in.size(); ++i) {
    if (seen.insert(&in.at(i)).second) kept.push_back(i);
  }
  std::vector<Record> out;
  out.reserve(kept.size());
  for (std::size_t i : kept) out.push_back(in.at(i));
  return Dataset(std::move(out));
}

Result<Dataset> SortByKey(const KeyUdf& key, const Dataset& in,
                          const KernelOptions& opts) {
  if (!key.fn) return Status::InvalidArgument("Sort key UDF is empty");
  TimingScope scope(kIdSortByKey, in.size());
  if (!UseParallel(opts, in.size())) {
    // Decorate-sort-undecorate: evaluate the key once per record.
    std::vector<std::pair<Value, const Record*>> decorated;
    decorated.reserve(in.size());
    for (const auto& r : in.records()) decorated.emplace_back(key.fn(r), &r);
    std::stable_sort(decorated.begin(), decorated.end(),
                     [](const auto& a, const auto& b) {
                       return a.first.Compare(b.first) < 0;
                     });
    std::vector<Record> out;
    out.reserve(in.size());
    for (const auto& [k, r] : decorated) out.push_back(*r);
    return Dataset(std::move(out));
  }
  std::vector<SortEntry> buf_a, buf_b;
  const SortEntry* sorted =
      ParallelSortEntries(key.fn, in, opts, scope, buf_a, buf_b);
  std::vector<Record> out;
  out.reserve(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    out.push_back(in.at(sorted[i].index));
  }
  return Dataset(std::move(out));
}

Result<Dataset> Sample(double fraction, uint64_t seed, const Dataset& in,
                       const KernelOptions& opts, uint64_t index_offset) {
  if (fraction < 0.0 || fraction > 1.0) {
    return Status::InvalidArgument("sample fraction must be in [0,1]");
  }
  TimingScope scope(kIdSample, in.size());
  // Keep/drop is a stateless function of (seed, global index) — a SplitMix64
  // finalizer driving a Bernoulli draw — so element `index_offset + i` gets
  // the same decision no matter how the input is partitioned. That is what
  // makes Sample agree byte-for-byte across javasim (one call over the whole
  // dataset) and sparksim (one call per partition with that partition's
  // global offset).
  std::vector<char> keep(in.size(), 0);
  std::size_t kept = 0;
  for (std::size_t i = 0; i < in.size(); ++i) {
    uint64_t x = seed ^ ((index_offset + i) * 0x9E3779B97F4A7C15ULL);
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ULL;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBULL;
    x ^= x >> 31;
    keep[i] = (static_cast<double>(x >> 11) * 0x1.0p-53) < fraction ? 1 : 0;
    kept += keep[i];
  }
  if (!UseParallel(opts, in.size())) {
    std::vector<Record> out;
    out.reserve(kept);
    for (std::size_t i = 0; i < in.size(); ++i) {
      if (keep[i]) out.push_back(in.at(i));
    }
    return Dataset(std::move(out));
  }
  const auto ranges = MorselRanges(in.size(), opts.morsel_size);
  std::vector<std::vector<Record>> parts(ranges.size());
  RHEEM_RETURN_IF_ERROR(RunMorsels(
      opts, ranges, scope, [&](std::size_t m, std::size_t b, std::size_t e) {
        std::size_t local = 0;
        for (std::size_t i = b; i < e; ++i) local += keep[i];
        auto& part = parts[m];
        part.reserve(local);
        for (std::size_t i = b; i < e; ++i) {
          if (keep[i]) part.push_back(in.at(i));
        }
        return Status::OK();
      }));
  return ConcatMorsels(std::move(parts));
}

Result<Dataset> ZipWithId(int64_t first_id, const Dataset& in,
                          const KernelOptions& opts) {
  TimingScope scope(kIdZipWithId, in.size());
  if (!UseParallel(opts, in.size())) {
    std::vector<Record> out;
    out.reserve(in.size());
    int64_t id = first_id;
    for (const auto& r : in.records()) {
      // Build the widened field vector directly: copying the record and
      // appending would size the vector for the input arity and then
      // reallocate for the id.
      std::vector<Value> fields;
      fields.reserve(r.size() + 1);
      for (std::size_t c = 0; c < r.size(); ++c) fields.push_back(r.at(c));
      fields.push_back(Value(id++));
      out.push_back(Record(std::move(fields)));
    }
    return Dataset(std::move(out));
  }
  const auto ranges = MorselRanges(in.size(), opts.morsel_size);
  std::vector<std::vector<Record>> parts(ranges.size());
  RHEEM_RETURN_IF_ERROR(RunMorsels(
      opts, ranges, scope, [&](std::size_t m, std::size_t b, std::size_t e) {
        auto& part = parts[m];
        part.reserve(e - b);
        for (std::size_t i = b; i < e; ++i) {
          const Record& r = in.at(i);
          std::vector<Value> fields;
          fields.reserve(r.size() + 1);
          for (std::size_t c = 0; c < r.size(); ++c) fields.push_back(r.at(c));
          fields.push_back(Value(first_id + static_cast<int64_t>(i)));
          part.push_back(Record(std::move(fields)));
        }
        return Status::OK();
      }));
  return ConcatMorsels(std::move(parts));
}

// ---------------------------------------------------------------------------
// Aggregation kernels
// ---------------------------------------------------------------------------

Result<Dataset> ReduceByKey(const KeyUdf& key, const ReduceUdf& reduce,
                            const Dataset& in, const KernelOptions& opts) {
  if (!key.fn) return Status::InvalidArgument("ReduceByKey key UDF is empty");
  if (!reduce.fn) return Status::InvalidArgument("ReduceByKey reduce UDF is empty");
  TimingScope scope(kIdReduceByKey, in.size());
  // Fully declarative reductions (expression key + column-wise aggregate
  // spec) run columnar: typed accumulators instead of boxed-Record folds.
  if (key.expr != nullptr && !reduce.aggs.empty() && CanGoColumnar(opts) &&
      !in.empty()) {
    auto converted = Batch::FromDataset(in);
    if (converted.ok()) {
      auto columnar =
          GroupedAggregate(*key.expr, reduce.aggs, *converted, opts, scope);
      if (columnar.ok()) return columnar;
    }
    // Inconvertible input or an ineligible shape: the row path below is the
    // semantic ground truth.
    CountIfEnabled(BatchFallbacksCounter(), 1);
  }
  // std::map keeps output deterministic across platforms and partitionings.
  if (!UseParallel(opts, in.size())) {
    std::map<Value, Record> acc;
    for (const auto& r : in.records()) {
      Value k = key.fn(r);
      auto it = acc.find(k);
      if (it == acc.end()) {
        acc.emplace(std::move(k), r);
      } else {
        it->second = reduce.fn(it->second, r);
      }
    }
    std::vector<Record> out;
    out.reserve(acc.size());
    for (auto& [k, v] : acc) out.push_back(std::move(v));
    return Dataset(std::move(out));
  }
  // Per-morsel partial maps folded in input order, merged in morsel order:
  // for the associative/commutative combiners ReduceUdf requires, the result
  // equals the serial left fold; output order (sorted by key) is identical.
  const auto ranges = MorselRanges(in.size(), opts.morsel_size);
  std::vector<std::map<Value, Record>> partials(ranges.size());
  RHEEM_RETURN_IF_ERROR(RunMorsels(
      opts, ranges, scope, [&](std::size_t m, std::size_t b, std::size_t e) {
        auto& acc = partials[m];
        for (std::size_t i = b; i < e; ++i) {
          const Record& r = in.at(i);
          Value k = key.fn(r);
          auto it = acc.find(k);
          if (it == acc.end()) {
            acc.emplace(std::move(k), r);
          } else {
            it->second = reduce.fn(it->second, r);
          }
        }
        return Status::OK();
      }));
  std::map<Value, Record> acc = std::move(partials[0]);
  for (std::size_t m = 1; m < partials.size(); ++m) {
    for (auto& [k, v] : partials[m]) {
      auto it = acc.find(k);
      if (it == acc.end()) {
        acc.emplace(k, std::move(v));
      } else {
        it->second = reduce.fn(it->second, v);
      }
    }
  }
  std::vector<Record> out;
  out.reserve(acc.size());
  for (auto& [k, v] : acc) out.push_back(std::move(v));
  return Dataset(std::move(out));
}

Result<Dataset> HashGroupBy(const KeyUdf& key, const GroupUdf& group,
                            const Dataset& in, const KernelOptions& opts) {
  if (!key.fn) return Status::InvalidArgument("GroupBy key UDF is empty");
  if (!group.fn) return Status::InvalidArgument("GroupBy group UDF is empty");
  TimingScope scope(kIdHashGroupBy, in.size());
  if (key.expr != nullptr && CanGoColumnar(opts) && !in.empty()) {
    auto columnar = HashGroupByColumnar(key, group, in, opts, scope);
    if (columnar.ok()) return columnar;
    CountIfEnabled(BatchFallbacksCounter(), 1);
  }
  using IndexGroups =
      std::unordered_map<Value, std::vector<std::size_t>, ValueHasher>;
  if (!UseParallel(opts, in.size())) {
    // Group by index, materializing each member list once, right-sized, at
    // the point of the UDF call.
    IndexGroups groups;
    groups.reserve(in.size());
    // Track first-seen order of keys for deterministic output.
    std::vector<const Value*> key_order;
    for (std::size_t i = 0; i < in.size(); ++i) {
      Value k = key.fn(in.at(i));
      auto [it, inserted] = groups.try_emplace(std::move(k));
      if (inserted) key_order.push_back(&it->first);
      it->second.push_back(i);
    }
    std::vector<Record> out;
    for (const Value* k : key_order) {
      const std::vector<std::size_t>& idx = groups.at(*k);
      std::vector<Record> members;
      members.reserve(idx.size());
      for (std::size_t i : idx) members.push_back(in.at(i));
      std::vector<Record> produced = group.fn(*k, members);
      for (auto& p : produced) out.push_back(std::move(p));
    }
    return Dataset(std::move(out));
  }
  // Phase 1: per-morsel index groups with local first-seen key order.
  struct Partial {
    IndexGroups groups;
    std::vector<const Value*> order;
  };
  const auto ranges = MorselRanges(in.size(), opts.morsel_size);
  std::vector<Partial> partials(ranges.size());
  RHEEM_RETURN_IF_ERROR(RunMorsels(
      opts, ranges, scope, [&](std::size_t m, std::size_t b, std::size_t e) {
        Partial& p = partials[m];
        p.groups.reserve(e - b);
        for (std::size_t i = b; i < e; ++i) {
          Value k = key.fn(in.at(i));
          auto [it, inserted] = p.groups.try_emplace(std::move(k));
          if (inserted) p.order.push_back(&it->first);
          it->second.push_back(i);
        }
        return Status::OK();
      }));
  // Phase 2 (serial): merge in morsel order. Global key order = first-seen
  // order over the input, member indices ascend per key — exactly serial.
  IndexGroups merged;
  merged.reserve(in.size());
  std::vector<const Value*> key_order;
  for (const Partial& p : partials) {
    for (const Value* k : p.order) {
      auto src = p.groups.find(*k);
      auto [it, inserted] = merged.try_emplace(*k);
      if (inserted) key_order.push_back(&it->first);
      it->second.insert(it->second.end(), src->second.begin(),
                        src->second.end());
    }
  }
  // Phase 3: apply the group UDF over key chunks in parallel; chunking is
  // deterministic (by member counts), output concatenated in key order.
  std::vector<std::size_t> sizes;
  sizes.reserve(key_order.size());
  for (const Value* k : key_order) sizes.push_back(merged.at(*k).size());
  const auto chunks = ChunkBySize(sizes, opts.morsel_size);
  std::vector<std::vector<Record>> parts(chunks.size());
  RHEEM_RETURN_IF_ERROR(RunMorsels(
      opts, chunks, scope, [&](std::size_t c, std::size_t b, std::size_t e) {
        auto& part = parts[c];
        for (std::size_t ki = b; ki < e; ++ki) {
          const Value* k = key_order[ki];
          const std::vector<std::size_t>& idx = merged.at(*k);
          std::vector<Record> members;
          members.reserve(idx.size());
          for (std::size_t i : idx) members.push_back(in.at(i));
          std::vector<Record> produced = group.fn(*k, members);
          for (auto& p : produced) part.push_back(std::move(p));
        }
        return Status::OK();
      }));
  return ConcatMorsels(std::move(parts));
}

Result<Dataset> SortGroupBy(const KeyUdf& key, const GroupUdf& group,
                            const Dataset& in, const KernelOptions& opts) {
  if (!key.fn) return Status::InvalidArgument("GroupBy key UDF is empty");
  if (!group.fn) return Status::InvalidArgument("GroupBy group UDF is empty");
  TimingScope scope(kIdSortGroupBy, in.size());
  if (!UseParallel(opts, in.size())) {
    std::vector<std::pair<Value, const Record*>> decorated;
    decorated.reserve(in.size());
    for (const auto& r : in.records()) decorated.emplace_back(key.fn(r), &r);
    std::stable_sort(decorated.begin(), decorated.end(),
                     [](const auto& a, const auto& b) {
                       return a.first.Compare(b.first) < 0;
                     });
    std::vector<Record> out;
    std::size_t i = 0;
    while (i < decorated.size()) {
      std::size_t j = i;
      std::vector<Record> members;
      while (j < decorated.size() &&
             decorated[j].first.Compare(decorated[i].first) == 0) {
        members.push_back(*decorated[j].second);
        ++j;
      }
      std::vector<Record> produced = group.fn(decorated[i].first, members);
      for (auto& p : produced) out.push_back(std::move(p));
      i = j;
    }
    return Dataset(std::move(out));
  }
  std::vector<SortEntry> buf_a, buf_b;
  const SortEntry* sorted =
      ParallelSortEntries(key.fn, in, opts, scope, buf_a, buf_b);
  // Serial run-boundary scan, then the group UDF over run chunks in parallel.
  std::vector<MorselRange> runs;
  std::size_t i = 0;
  while (i < in.size()) {
    std::size_t j = i + 1;
    while (j < in.size() && sorted[j].key.Compare(sorted[i].key) == 0) ++j;
    runs.emplace_back(i, j);
    i = j;
  }
  std::vector<std::size_t> sizes;
  sizes.reserve(runs.size());
  for (const auto& r : runs) sizes.push_back(r.second - r.first);
  const auto chunks = ChunkBySize(sizes, opts.morsel_size);
  std::vector<std::vector<Record>> parts(chunks.size());
  RHEEM_RETURN_IF_ERROR(RunMorsels(
      opts, chunks, scope, [&](std::size_t c, std::size_t b, std::size_t e) {
        auto& part = parts[c];
        for (std::size_t g = b; g < e; ++g) {
          const auto [s0, s1] = runs[g];
          std::vector<Record> members;
          members.reserve(s1 - s0);
          for (std::size_t k = s0; k < s1; ++k) {
            members.push_back(in.at(sorted[k].index));
          }
          std::vector<Record> produced = group.fn(sorted[s0].key, members);
          for (auto& p : produced) part.push_back(std::move(p));
        }
        return Status::OK();
      }));
  return ConcatMorsels(std::move(parts));
}

Result<Dataset> GlobalReduce(const ReduceUdf& reduce, const Dataset& in,
                             const KernelOptions& opts) {
  if (!reduce.fn) return Status::InvalidArgument("GlobalReduce UDF is empty");
  if (in.empty()) return Dataset();
  TimingScope scope(kIdGlobalReduce, in.size());
  if (!UseParallel(opts, in.size())) {
    Record acc = in.at(0);
    for (std::size_t i = 1; i < in.size(); ++i) {
      acc = reduce.fn(acc, in.at(i));
    }
    return Dataset(std::vector<Record>{std::move(acc)});
  }
  // Per-morsel left folds combined left-to-right: equal to the serial fold
  // by associativity alone (operand order is preserved).
  const auto ranges = MorselRanges(in.size(), opts.morsel_size);
  std::vector<Record> partials(ranges.size());
  RHEEM_RETURN_IF_ERROR(RunMorsels(
      opts, ranges, scope, [&](std::size_t m, std::size_t b, std::size_t e) {
        Record acc = in.at(b);
        for (std::size_t i = b + 1; i < e; ++i) {
          acc = reduce.fn(acc, in.at(i));
        }
        partials[m] = std::move(acc);
        return Status::OK();
      }));
  Record acc = std::move(partials[0]);
  for (std::size_t m = 1; m < partials.size(); ++m) {
    acc = reduce.fn(acc, partials[m]);
  }
  return Dataset(std::vector<Record>{std::move(acc)});
}

Result<Dataset> Count(const Dataset& in, const KernelOptions& opts) {
  (void)opts;  // counting a materialized Dataset is O(1)
  TimingScope scope(kIdCount, in.size());
  return Dataset(std::vector<Record>{
      Record({Value(static_cast<int64_t>(in.size()))})});
}

Result<Dataset> BroadcastMap(const BroadcastMapUdf& udf, const Dataset& main,
                             const Dataset& broadcast,
                             const KernelOptions& opts) {
  if (!udf.fn) return Status::InvalidArgument("BroadcastMap UDF is empty");
  TimingScope scope(kIdBroadcastMap, main.size());
  if (!UseParallel(opts, main.size())) {
    std::vector<Record> out;
    out.reserve(main.size());
    for (const auto& r : main.records()) out.push_back(udf.fn(r, broadcast));
    return Dataset(std::move(out));
  }
  const auto ranges = MorselRanges(main.size(), opts.morsel_size);
  std::vector<std::vector<Record>> parts(ranges.size());
  RHEEM_RETURN_IF_ERROR(RunMorsels(
      opts, ranges, scope, [&](std::size_t m, std::size_t b, std::size_t e) {
        auto& part = parts[m];
        part.reserve(e - b);
        for (std::size_t i = b; i < e; ++i) {
          part.push_back(udf.fn(main.at(i), broadcast));
        }
        return Status::OK();
      }));
  return ConcatMorsels(std::move(parts));
}

// ---------------------------------------------------------------------------
// Join kernels
// ---------------------------------------------------------------------------

Result<Dataset> HashJoin(const KeyUdf& left_key, const KeyUdf& right_key,
                         const Dataset& left, const Dataset& right,
                         const KernelOptions& opts) {
  if (!left_key.fn || !right_key.fn) {
    return Status::InvalidArgument("Join key UDF is empty");
  }
  TimingScope scope(kIdHashJoin, left.size() + right.size());
  if (left_key.expr != nullptr && right_key.expr != nullptr &&
      CanGoColumnar(opts) && !left.empty() && !right.empty()) {
    auto columnar =
        HashJoinColumnar(left_key, right_key, left, right, opts, scope);
    if (columnar.ok()) return columnar;
    CountIfEnabled(BatchFallbacksCounter(), 1);
  }
  if (!UseParallel(opts, std::max(left.size(), right.size()))) {
    std::unordered_map<Value, std::vector<const Record*>, ValueHasher> build;
    build.reserve(right.size());
    for (const auto& r : right.records()) {
      build[right_key.fn(r)].push_back(&r);
    }
    std::vector<Record> out;
    for (const auto& l : left.records()) {
      auto it = build.find(left_key.fn(l));
      if (it == build.end()) continue;
      for (const Record* r : it->second) {
        out.push_back(Record::Concat(l, *r));
      }
    }
    return Dataset(std::move(out));
  }
  // Partitioned build: all rows of a key hash to one partition and are
  // appended in input order, so the per-key match lists — and therefore the
  // probe output — are independent of the partition count.
  const std::size_t P =
      std::max<std::size_t>(1, std::min<std::size_t>(
                                   PoolFor(opts).num_threads() + 1, 64));
  std::vector<Value> rkeys(right.size());
  std::vector<std::size_t> rpart(right.size());
  const auto rranges = MorselRanges(right.size(), opts.morsel_size);
  RHEEM_RETURN_IF_ERROR(RunMorsels(
      opts, rranges, scope, [&](std::size_t m, std::size_t b, std::size_t e) {
        (void)m;
        for (std::size_t i = b; i < e; ++i) {
          rkeys[i] = right_key.fn(right.at(i));
          rpart[i] = ValueHasher{}(rkeys[i]) % P;
        }
        return Status::OK();
      }));
  std::vector<std::size_t> counts(P, 0);
  for (std::size_t p : rpart) ++counts[p];
  std::vector<std::vector<std::size_t>> part_rows(P);
  for (std::size_t p = 0; p < P; ++p) part_rows[p].reserve(counts[p]);
  for (std::size_t i = 0; i < rpart.size(); ++i) {
    part_rows[rpart[i]].push_back(i);
  }
  using Table =
      std::unordered_map<Value, std::vector<std::size_t>, ValueHasher>;
  std::vector<Table> tables(P);
  Stopwatch build_loop;
  PoolFor(opts).ParallelFor(P, [&](std::size_t p) {
    ThreadCpuTimer cpu;
    Table& t = tables[p];
    t.reserve(part_rows[p].size());
    for (std::size_t i : part_rows[p]) t[rkeys[i]].push_back(i);
    scope.AddMorselCpu(cpu.ElapsedMicros());
  });
  scope.AddLoopWall(build_loop.ElapsedMicros());
  const auto lranges = MorselRanges(left.size(), opts.morsel_size);
  std::vector<std::vector<Record>> parts(lranges.size());
  RHEEM_RETURN_IF_ERROR(RunMorsels(
      opts, lranges, scope, [&](std::size_t m, std::size_t b, std::size_t e) {
        auto& part = parts[m];
        for (std::size_t i = b; i < e; ++i) {
          const Record& l = left.at(i);
          Value k = left_key.fn(l);
          const Table& t = tables[ValueHasher{}(k) % P];
          auto it = t.find(k);
          if (it == t.end()) continue;
          for (std::size_t j : it->second) {
            part.push_back(Record::Concat(l, right.at(j)));
          }
        }
        return Status::OK();
      }));
  return ConcatMorsels(std::move(parts));
}

Result<Dataset> SortMergeJoin(const KeyUdf& left_key, const KeyUdf& right_key,
                              const Dataset& left, const Dataset& right) {
  if (!left_key.fn || !right_key.fn) {
    return Status::InvalidArgument("Join key UDF is empty");
  }
  std::vector<std::pair<Value, const Record*>> ls, rs;
  ls.reserve(left.size());
  rs.reserve(right.size());
  for (const auto& r : left.records()) ls.emplace_back(left_key.fn(r), &r);
  for (const auto& r : right.records()) rs.emplace_back(right_key.fn(r), &r);
  auto less = [](const auto& a, const auto& b) {
    return a.first.Compare(b.first) < 0;
  };
  std::stable_sort(ls.begin(), ls.end(), less);
  std::stable_sort(rs.begin(), rs.end(), less);

  std::vector<Record> out;
  std::size_t i = 0, j = 0;
  while (i < ls.size() && j < rs.size()) {
    const int c = ls[i].first.Compare(rs[j].first);
    if (c < 0) {
      ++i;
    } else if (c > 0) {
      ++j;
    } else {
      // Emit the full run x run block.
      std::size_t i_end = i;
      while (i_end < ls.size() && ls[i_end].first.Compare(ls[i].first) == 0) ++i_end;
      std::size_t j_end = j;
      while (j_end < rs.size() && rs[j_end].first.Compare(rs[j].first) == 0) ++j_end;
      for (std::size_t a = i; a < i_end; ++a) {
        for (std::size_t b = j; b < j_end; ++b) {
          out.push_back(Record::Concat(*ls[a].second, *rs[b].second));
        }
      }
      i = i_end;
      j = j_end;
    }
  }
  return Dataset(std::move(out));
}

Result<Dataset> ThetaJoin(const ThetaUdf& condition, const Dataset& left,
                          const Dataset& right) {
  if (!condition.fn && condition.pair_expr == nullptr) {
    return Status::InvalidArgument("ThetaJoin UDF is empty");
  }
  std::vector<Record> out;
  // The declarative path skips materializing Concat(l, r) for rejected
  // pairs: the expression evaluates over the implicit concatenation.
  const expr::Expr* tree = condition.pair_expr.get();
  for (const auto& l : left.records()) {
    for (const auto& r : right.records()) {
      const bool match = tree != nullptr ? expr::EvalPredicatePair(*tree, l, r)
                                         : condition.fn(l, r);
      if (match) out.push_back(Record::Concat(l, r));
    }
  }
  return Dataset(std::move(out));
}

Result<Dataset> CrossProduct(const Dataset& left, const Dataset& right) {
  std::vector<Record> out;
  out.reserve(left.size() * right.size());
  for (const auto& l : left.records()) {
    for (const auto& r : right.records()) {
      out.push_back(Record::Concat(l, r));
    }
  }
  return Dataset(std::move(out));
}

Result<Dataset> Union(const Dataset& left, const Dataset& right) {
  std::vector<Record> out;
  out.reserve(left.size() + right.size());
  for (const auto& r : left.records()) out.push_back(r);
  for (const auto& r : right.records()) out.push_back(r);
  return Dataset(std::move(out));
}

Result<Dataset> Intersect(const Dataset& left, const Dataset& right) {
  std::unordered_map<Record, bool, RecordHasher> in_right;
  in_right.reserve(right.size());
  for (const auto& r : right.records()) in_right.emplace(r, true);
  std::unordered_map<Record, bool, RecordHasher> emitted;
  std::vector<Record> out;
  for (const auto& r : left.records()) {
    if (in_right.count(r) == 0) continue;
    auto [it, inserted] = emitted.emplace(r, true);
    if (inserted) out.push_back(r);
  }
  return Dataset(std::move(out));
}

Result<Dataset> Subtract(const Dataset& left, const Dataset& right) {
  std::unordered_map<Record, bool, RecordHasher> in_right;
  in_right.reserve(right.size());
  for (const auto& r : right.records()) in_right.emplace(r, true);
  std::unordered_map<Record, bool, RecordHasher> emitted;
  std::vector<Record> out;
  for (const auto& r : left.records()) {
    if (in_right.count(r) > 0) continue;
    auto [it, inserted] = emitted.emplace(r, true);
    if (inserted) out.push_back(r);
  }
  return Dataset(std::move(out));
}

Result<Dataset> TopK(const KeyUdf& key, int64_t k, bool ascending,
                     const Dataset& in) {
  if (!key.fn) return Status::InvalidArgument("TopK key UDF is empty");
  if (k < 0) return Status::InvalidArgument("TopK wants k >= 0");
  if (k == 0) return Dataset();
  // Decorated entries carry the input index to keep ties deterministic.
  struct Entry {
    Value key;
    std::size_t index;
  };
  // `better(a, b)`: should a be kept over b? Heaping with this comparator
  // leaves the *worst* retained entry on top, ready for replacement.
  auto better = [ascending](const Entry& a, const Entry& b) {
    const int c = a.key.Compare(b.key);
    if (c != 0) return ascending ? c < 0 : c > 0;
    return a.index < b.index;  // earlier input wins ties
  };
  std::vector<Entry> heap;
  // k may be a "no limit" sentinel (e.g. SQL ORDER BY without LIMIT compiles
  // to TopK with k = INT64_MAX); never reserve beyond the input size.
  heap.reserve(std::min<std::size_t>(static_cast<std::size_t>(k), in.size()));
  for (std::size_t i = 0; i < in.size(); ++i) {
    Entry e{key.fn(in.at(i)), i};
    if (heap.size() < static_cast<std::size_t>(k)) {
      heap.push_back(std::move(e));
      std::push_heap(heap.begin(), heap.end(), better);
    } else if (better(e, heap.front())) {
      std::pop_heap(heap.begin(), heap.end(), better);
      heap.back() = std::move(e);
      std::push_heap(heap.begin(), heap.end(), better);
    }
  }
  std::sort_heap(heap.begin(), heap.end(), better);
  // sort_heap leaves the sequence ordered best-first under `better`.
  std::vector<Record> out;
  out.reserve(heap.size());
  for (const Entry& e : heap) out.push_back(in.at(e.index));
  return Dataset(std::move(out));
}

// ---------------------------------------------------------------------------
// Fused pipeline
// ---------------------------------------------------------------------------

FusedStep FusedStep::OfMap(MapUdf udf) {
  FusedStep s;
  s.kind = Kind::kMap;
  s.map = std::move(udf);
  return s;
}

FusedStep FusedStep::OfFilter(PredicateUdf udf) {
  FusedStep s;
  s.kind = Kind::kFilter;
  s.filter = std::move(udf);
  return s;
}

FusedStep FusedStep::OfFlatMap(FlatMapUdf udf) {
  FusedStep s;
  s.kind = Kind::kFlatMap;
  s.flat_map = std::move(udf);
  return s;
}

FusedStep FusedStep::OfProject(std::vector<int> columns) {
  FusedStep s;
  s.kind = Kind::kProject;
  s.columns = std::move(columns);
  return s;
}

namespace {

Status ValidateSteps(const std::vector<FusedStep>& steps) {
  for (const FusedStep& s : steps) {
    switch (s.kind) {
      case FusedStep::Kind::kMap:
        if (!s.map.fn) return Status::InvalidArgument("Map UDF is empty");
        break;
      case FusedStep::Kind::kFilter:
        if (!s.filter.fn && s.filter.expr == nullptr)
          return Status::InvalidArgument("Filter UDF is empty");
        break;
      case FusedStep::Kind::kFlatMap:
        if (!s.flat_map.fn)
          return Status::InvalidArgument("FlatMap UDF is empty");
        break;
      case FusedStep::Kind::kProject:
        for (int c : s.columns) {
          if (c < 0) return Status::InvalidArgument("negative projection column");
        }
        break;
    }
  }
  return Status::OK();
}

/// Drives one record through steps[s..], appending survivors to `out` —
/// depth-first, so emission order matches running the kernels one at a time.
Status DriveRecord(const std::vector<FusedStep>& steps, std::size_t s,
                   const Record& r, std::vector<Record>& out) {
  if (s == steps.size()) {
    out.push_back(r);
    return Status::OK();
  }
  const FusedStep& step = steps[s];
  const bool last = (s + 1 == steps.size());
  switch (step.kind) {
    case FusedStep::Kind::kMap: {
      Record next = step.map.fn(r);
      if (last) {
        out.push_back(std::move(next));
        return Status::OK();
      }
      return DriveRecord(steps, s + 1, next, out);
    }
    case FusedStep::Kind::kFilter: {
      const bool keep = step.filter.expr != nullptr
                            ? expr::EvalPredicate(*step.filter.expr, r)
                            : step.filter.fn(r);
      if (!keep) return Status::OK();
      return DriveRecord(steps, s + 1, r, out);
    }
    case FusedStep::Kind::kFlatMap: {
      std::vector<Record> produced = step.flat_map.fn(r);
      for (Record& p : produced) {
        if (last) {
          out.push_back(std::move(p));
        } else {
          RHEEM_RETURN_IF_ERROR(DriveRecord(steps, s + 1, p, out));
        }
      }
      return Status::OK();
    }
    case FusedStep::Kind::kProject: {
      RHEEM_RETURN_IF_ERROR(CheckProjection(step.columns, r));
      Record next = r.Project(step.columns);
      if (last) {
        out.push_back(std::move(next));
        return Status::OK();
      }
      return DriveRecord(steps, s + 1, next, out);
    }
  }
  return Status::OK();
}

/// A fused-frame column: either a borrowed base-batch column or one computed
/// by a Map step (owned). Project steps shuffle FrameCols by pointer — no
/// column data moves until the final gather.
struct FrameCol {
  const ColumnData* ptr = nullptr;
  std::shared_ptr<const ColumnData> owned;
};

/// Every step must have a columnar form: declarative filters narrow the
/// selection, declarative maps compute fresh columns, projects reorder
/// FrameCols. FlatMap produces a variable number of rows per row and has
/// none.
bool FusibleColumnar(const std::vector<FusedStep>& steps) {
  for (const FusedStep& s : steps) {
    switch (s.kind) {
      case FusedStep::Kind::kFilter:
        if (s.filter.expr == nullptr) return false;
        break;
      case FusedStep::Kind::kMap:
        if (s.map.projection.empty()) return false;
        break;
      case FusedStep::Kind::kProject:
        break;
      case FusedStep::Kind::kFlatMap:
        return false;
    }
  }
  return true;
}

/// Drives base-batch rows [b, e) through the steps column-at-a-time and
/// boxes the survivors into `out` — same records, same order, same errors
/// as DriveRecord over each row in turn.
Status DriveMorselColumnar(const std::vector<FusedStep>& steps,
                           const Batch& base, std::size_t b, std::size_t e,
                           std::vector<Record>& out) {
  std::vector<FrameCol> frame;
  frame.reserve(base.num_columns());
  for (std::size_t c = 0; c < base.num_columns(); ++c) {
    frame.push_back(FrameCol{&base.column(c), nullptr});
  }
  // Active rows: the dense range [dense_base, dense_base + dense_n) until
  // the first filter, a selection vector of physical row ids afterwards. A
  // Map step rebases the frame onto its dense output columns, so all frame
  // columns always share one indexing domain.
  bool dense = true;
  std::size_t dense_base = b;
  std::size_t dense_n = e - b;
  std::vector<uint32_t> sel;
  std::vector<const ColumnData*> ptrs;
  auto view = [&]() {
    ptrs.clear();
    for (const FrameCol& f : frame) ptrs.push_back(f.ptr);
    BatchView v;
    v.cols = ptrs.data();
    v.num_cols = ptrs.size();
    if (dense) {
      v.base = dense_base;
      v.n = dense_n;
    } else {
      v.sel = sel.data();
      v.n = sel.size();
    }
    return v;
  };
  for (const FusedStep& step : steps) {
    switch (step.kind) {
      case FusedStep::Kind::kFilter: {
        const BatchView v = view();
        std::vector<unsigned char> keep;
        expr::EvalPredicateView(*step.filter.expr, v, &keep);
        std::vector<uint32_t> next;
        next.reserve(v.n);
        for (std::size_t i = 0; i < v.n; ++i) {
          if (keep[i]) next.push_back(static_cast<uint32_t>(v.row(i)));
        }
        sel = std::move(next);
        dense = false;
        break;
      }
      case FusedStep::Kind::kMap: {
        const BatchView v = view();
        std::vector<FrameCol> next;
        next.reserve(step.map.projection.size());
        for (const auto& fe : step.map.projection) {
          auto col = std::make_shared<ColumnData>();
          expr::EvalExprView(*fe, v, col.get());
          next.push_back(FrameCol{col.get(), std::move(col)});
        }
        frame = std::move(next);
        dense = true;
        dense_base = 0;
        dense_n = v.n;
        sel.clear();
        break;
      }
      case FusedStep::Kind::kProject: {
        const std::size_t active = dense ? dense_n : sel.size();
        if (active == 0) {
          // No surviving rows reach this step, so the row path never runs
          // its per-record arity check here; keep an empty frame.
          frame.clear();
          break;
        }
        for (int c : step.columns) {
          if (static_cast<std::size_t>(c) >= frame.size()) {
            return Status::OutOfRange(
                "projection column " + std::to_string(c) +
                " out of range for record of arity " +
                std::to_string(frame.size()));
          }
        }
        std::vector<FrameCol> next;
        next.reserve(step.columns.size());
        for (int c : step.columns) {
          next.push_back(frame[static_cast<std::size_t>(c)]);
        }
        frame = std::move(next);
        break;
      }
      case FusedStep::Kind::kFlatMap:
        return Status::Internal("flat_map reached the columnar fused path");
    }
  }
  const BatchView v = view();
  for (std::size_t i = 0; i < v.n; ++i) {
    const std::size_t row = v.row(i);
    std::vector<Value> fields;
    fields.reserve(frame.size());
    for (const FrameCol& f : frame) fields.push_back(f.ptr->ValueAt(row));
    out.push_back(Record(std::move(fields)));
  }
  return Status::OK();
}

/// The columnar fused pass over base-batch rows [begin, end): one drive
/// over the range, or morsels of it on the pool when `opts` allows.
Result<Dataset> FusedColumnarRange(const std::vector<FusedStep>& steps,
                                   const Batch& batch, std::size_t begin,
                                   std::size_t end, const KernelOptions& opts,
                                   TimingScope& scope) {
  const std::size_t n = end - begin;
  CountIfEnabled(RowsVectorizedCounter(), static_cast<int64_t>(n));
  if (!UseParallel(opts, n)) {
    std::vector<Record> out;
    out.reserve(n);
    RHEEM_RETURN_IF_ERROR(DriveMorselColumnar(steps, batch, begin, end, out));
    return Dataset(std::move(out));
  }
  const auto ranges = MorselRanges(n, opts.morsel_size);
  std::vector<std::vector<Record>> parts(ranges.size());
  RHEEM_RETURN_IF_ERROR(RunMorsels(
      opts, ranges, scope, [&](std::size_t m, std::size_t b, std::size_t e) {
        parts[m].reserve(e - b);
        return DriveMorselColumnar(steps, batch, begin + b, begin + e,
                                   parts[m]);
      }));
  return ConcatMorsels(std::move(parts));
}

}  // namespace

bool FusedChainIsColumnar(const std::vector<FusedStep>& steps,
                          const KernelOptions& opts) {
  return CanGoColumnar(opts) && FusibleColumnar(steps);
}

Result<Dataset> FusedPipelineRange(const std::vector<FusedStep>& steps,
                                   const Batch& batch, std::size_t begin,
                                   std::size_t end, const KernelOptions& opts) {
  RHEEM_RETURN_IF_ERROR(ValidateSteps(steps));
  assert(FusibleColumnar(steps) && "FusedPipelineRange needs a columnar chain");
  if (begin > end || end > batch.num_rows()) {
    return Status::OutOfRange("row range [" + std::to_string(begin) + ", " +
                              std::to_string(end) + ") outside a batch of " +
                              std::to_string(batch.num_rows()) + " rows");
  }
  TimingScope scope(kIdFusedPipeline, end - begin);
  return FusedColumnarRange(steps, batch, begin, end, opts, scope);
}

Result<Dataset> FusedPipeline(const std::vector<FusedStep>& steps,
                              const Dataset& in, const KernelOptions& opts) {
  RHEEM_RETURN_IF_ERROR(ValidateSteps(steps));
  TimingScope scope(kIdFusedPipeline, in.size());
  if (steps.empty()) {
    std::vector<Record> out(in.records());
    return Dataset(std::move(out));
  }
  // Fully declarative chains run columnar end-to-end: the input converts to
  // a Batch once, filters narrow a selection vector, maps compute fresh
  // columns, projects shuffle column pointers, and only the survivors box
  // back to records at the tail of each morsel.
  if (FusedChainIsColumnar(steps, opts)) {
    auto converted = Batch::FromDataset(in);
    if (converted.ok()) {
      return FusedColumnarRange(steps, *converted, 0, in.size(), opts, scope);
    }
    CountIfEnabled(BatchFallbacksCounter(), 1);
  }
  // Vector-of-records fast path: a prefix of declarative filters is ANDed
  // and evaluated column-at-a-time over the whole morsel, so only the
  // survivors enter the per-record drive. Keep set is identical — Kleene
  // AND is true exactly when every conjunct is (Null drops either way).
  std::size_t lead = 0;
  while (lead < steps.size() &&
         steps[lead].kind == FusedStep::Kind::kFilter &&
         steps[lead].filter.expr != nullptr) {
    ++lead;
  }
  expr::ExprPtr lead_pred;
  if (lead > 0) {
    std::vector<expr::ExprPtr> conjuncts;
    for (std::size_t i = 0; i < lead; ++i) {
      conjuncts.push_back(steps[i].filter.expr);
    }
    lead_pred = expr::AndAll(conjuncts);
  }
  auto drive_range = [&](std::size_t b, std::size_t e,
                         std::vector<Record>& out) -> Status {
    if (lead_pred != nullptr) {
      std::vector<unsigned char> keep;
      expr::EvalPredicateBatch(*lead_pred, in.records(), b, e, &keep);
      for (std::size_t i = b; i < e; ++i) {
        if (!keep[i - b]) continue;
        RHEEM_RETURN_IF_ERROR(DriveRecord(steps, lead, in.at(i), out));
      }
      return Status::OK();
    }
    for (std::size_t i = b; i < e; ++i) {
      RHEEM_RETURN_IF_ERROR(DriveRecord(steps, 0, in.at(i), out));
    }
    return Status::OK();
  };
  if (!UseParallel(opts, in.size())) {
    std::vector<Record> out;
    out.reserve(in.size());
    RHEEM_RETURN_IF_ERROR(drive_range(0, in.size(), out));
    return Dataset(std::move(out));
  }
  const auto ranges = MorselRanges(in.size(), opts.morsel_size);
  std::vector<std::vector<Record>> parts(ranges.size());
  RHEEM_RETURN_IF_ERROR(RunMorsels(
      opts, ranges, scope, [&](std::size_t m, std::size_t b, std::size_t e) {
        auto& part = parts[m];
        part.reserve(e - b);
        return drive_range(b, e, part);
      }));
  return ConcatMorsels(std::move(parts));
}

// ---------------------------------------------------------------------------
// Batch-level kernels
// ---------------------------------------------------------------------------

Status FilterBatch(const PredicateUdf& udf, Batch* batch,
                   const KernelOptions& opts) {
  if (udf.expr == nullptr) {
    return Status::Unsupported("FilterBatch needs a declarative predicate");
  }
  TimingScope scope(kIdFilter, batch->num_selected());
  CountIfEnabled(RowsVectorizedCounter(),
                 static_cast<int64_t>(batch->num_selected()));
  std::vector<const ColumnData*> ptrs;
  const BatchView view = batch->View(&ptrs);
  const std::size_t n = view.n;
  if (!UseParallel(opts, n)) {
    std::vector<unsigned char> keep;
    expr::EvalPredicateView(*udf.expr, view, &keep);
    std::vector<uint32_t> sel;
    sel.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (keep[i]) sel.push_back(static_cast<uint32_t>(view.row(i)));
    }
    batch->SetSelection(std::move(sel));
    return Status::OK();
  }
  const auto ranges = MorselRanges(n, opts.morsel_size);
  std::vector<std::vector<uint32_t>> parts(ranges.size());
  RHEEM_RETURN_IF_ERROR(RunMorsels(
      opts, ranges, scope, [&](std::size_t m, std::size_t b, std::size_t e) {
        const BatchView v = SubView(view, b, e);
        std::vector<unsigned char> keep;
        expr::EvalPredicateView(*udf.expr, v, &keep);
        auto& part = parts[m];
        part.reserve(e - b);
        for (std::size_t i = 0; i < v.n; ++i) {
          if (keep[i]) part.push_back(static_cast<uint32_t>(v.row(i)));
        }
        return Status::OK();
      }));
  std::size_t total = 0;
  for (const auto& p : parts) total += p.size();
  std::vector<uint32_t> sel;
  sel.reserve(total);
  for (const auto& p : parts) sel.insert(sel.end(), p.begin(), p.end());
  batch->SetSelection(std::move(sel));
  return Status::OK();
}

Result<Batch> MapBatch(const MapUdf& udf, const Batch& in,
                       const KernelOptions& opts) {
  if (udf.projection.empty()) {
    return Status::Unsupported("MapBatch needs a declarative projection");
  }
  const std::size_t n = in.num_selected();
  TimingScope scope(kIdMap, n);
  CountIfEnabled(RowsVectorizedCounter(), static_cast<int64_t>(n));
  std::vector<const ColumnData*> ptrs;
  const BatchView view = in.View(&ptrs);
  const std::size_t ncols = udf.projection.size();
  if (!UseParallel(opts, n)) {
    std::vector<ColumnData> cols(ncols);
    for (std::size_t j = 0; j < ncols; ++j) {
      expr::EvalExprView(*udf.projection[j], view, &cols[j]);
    }
    return Batch(std::move(cols), n);
  }
  const auto ranges = MorselRanges(n, opts.morsel_size);
  std::vector<std::vector<ColumnData>> parts(ranges.size());
  RHEEM_RETURN_IF_ERROR(RunMorsels(
      opts, ranges, scope, [&](std::size_t m, std::size_t b, std::size_t e) {
        auto& part = parts[m];
        part.resize(ncols);
        const BatchView v = SubView(view, b, e);
        for (std::size_t j = 0; j < ncols; ++j) {
          expr::EvalExprView(*udf.projection[j], v, &part[j]);
        }
        return Status::OK();
      }));
  std::vector<ColumnData> cols(ncols);
  std::size_t done = 0;
  for (std::size_t m = 0; m < parts.size(); ++m) {
    const std::size_t rows = ranges[m].second - ranges[m].first;
    for (std::size_t j = 0; j < ncols; ++j) {
      RHEEM_RETURN_IF_ERROR(AppendColumn(&cols[j], done, n, parts[m][j], rows));
    }
    done += rows;
  }
  return Batch(std::move(cols), n);
}

Result<Dataset> ReduceByKeyBatch(const KeyUdf& key, const ReduceUdf& reduce,
                                 const Batch& in, const KernelOptions& opts) {
  if (key.expr == nullptr) {
    return Status::Unsupported("ReduceByKeyBatch needs a declarative key");
  }
  if (reduce.aggs.empty()) {
    return Status::Unsupported("ReduceByKeyBatch needs an aggregate spec");
  }
  TimingScope scope(kIdReduceByKey, in.num_selected());
  return GroupedAggregate(*key.expr, reduce.aggs, in, opts, scope);
}

}  // namespace kernels
}  // namespace rheem
