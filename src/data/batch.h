#ifndef RHEEM_DATA_BATCH_H_
#define RHEEM_DATA_BATCH_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "data/dataset.h"
#include "data/schema.h"

namespace rheem {

/// \brief One typed column of a Batch: contiguous values plus a packed null
/// bitmap.
///
/// Exactly one of the value vectors is populated, chosen by `type`. Strings
/// live in a single arena (`str_bytes`) addressed by `str_offsets` — no
/// per-string heap allocation, which is where the row representation loses
/// most of its time. A column whose `type` is kNull holds only nulls.
struct ColumnData {
  ValueType type = ValueType::kNull;  // kBool/kInt64/kDouble/kString, or
                                      // kNull for an all-null column
  std::vector<int64_t> i64;           // type == kInt64
  std::vector<double> f64;            // type == kDouble
  std::vector<uint8_t> b8;            // type == kBool (0/1)
  std::string str_bytes;              // type == kString: concatenated payloads
  std::vector<uint32_t> str_offsets;  // type == kString: size rows+1
  /// Packed null bitmap (bit i set = row i is null). Empty means "no nulls":
  /// the common all-valid column never allocates or consults the bitmap.
  std::vector<uint64_t> null_words;

  bool has_nulls() const { return !null_words.empty(); }
  bool IsNull(std::size_t i) const {
    return !null_words.empty() && ((null_words[i >> 6] >> (i & 63)) & 1) != 0;
  }
  /// Marks row i null, allocating the bitmap for `rows` total rows on first
  /// use.
  void MarkNull(std::size_t i, std::size_t rows) {
    if (null_words.empty()) null_words.assign((rows + 63) / 64, 0);
    null_words[i >> 6] |= uint64_t{1} << (i & 63);
  }
  /// Adopts a byte mask (1 = null) of length `rows`; no-op when all zero.
  void SetNullsFromBytes(const std::vector<uint8_t>& mask);

  std::string_view StringAt(std::size_t i) const {
    return std::string_view(str_bytes.data() + str_offsets[i],
                            str_offsets[i + 1] - str_offsets[i]);
  }
  /// Boxes row i back into a Value (exact round-trip of the converted cell).
  Value ValueAt(std::size_t i) const;

  void Reserve(std::size_t rows);
  int64_t EstimatedBytes() const;
};

/// \brief Read-only view of a column set for vectorized evaluation.
///
/// The view decouples "which rows are active" from storage: `sel` (when set)
/// lists active physical row ids; otherwise the view is the dense range
/// [base, base + n). Kernels evaluate expressions over views so a fused
/// chain can mix base-batch columns with freshly computed ones without
/// re-materializing anything.
struct BatchView {
  const ColumnData* const* cols = nullptr;
  std::size_t num_cols = 0;
  const uint32_t* sel = nullptr;  // active row ids; nullptr = dense
  std::size_t base = 0;           // dense start row (ignored when sel set)
  std::size_t n = 0;              // active row count
  std::size_t row(std::size_t i) const { return sel ? sel[i] : base + i; }
};

/// \brief Columnar counterpart of Dataset: per-column typed vectors plus a
/// selection vector.
///
/// Following Whiz's decoupled data plane, operators choose the layout that is
/// fast on real hardware: kernels convert a Dataset to a Batch at operator
/// boundaries (`batch.conversions_total` counts every attempt, rejected ones
/// included, and every ToDataset), run column-at-a-time over contiguous
/// memory, and narrow the *selection vector* instead of materializing
/// intermediate records. ToDataset() restores the exact row
/// representation — conversion is lossless for every convertible Dataset, so
/// columnar execution is byte-identical to the row path.
class Batch {
 public:
  Batch() = default;
  Batch(std::vector<ColumnData> columns, std::size_t rows)
      : cols_(std::move(columns)), rows_(rows) {}

  /// Strict, lossless conversion: every record must have the same arity and
  /// each column must hold exactly one runtime type (plus nulls).
  /// Unsupported on ragged arity, mixed int64/double columns, or
  /// kDoubleList cells — the caller falls back to the row path.
  static Result<Batch> FromDataset(const Dataset& in);

  /// Lenient prefix conversion for predicate/key evaluation only: converts
  /// columns [0, num_columns); a cell missing because its record is shorter
  /// converts to null — exactly what scalar field evaluation yields for an
  /// out-of-range reference. Still fails on mixed-type columns (the row path
  /// distinguishes int64 from double per cell; a widened column could not).
  static Result<Batch> FromDatasetPrefix(const Dataset& in,
                                         std::size_t num_columns);

  /// Materializes the selected rows back into records, in selection order.
  /// Carries no schema (matching what the row kernels emit).
  Dataset ToDataset() const;

  /// Boxes one physical row (ignores the selection).
  Record RecordAt(std::size_t physical_row) const;

  std::size_t num_rows() const { return rows_; }  // physical rows
  std::size_t num_columns() const { return cols_.size(); }
  std::size_t num_selected() const {
    return has_selection_ ? selection_.size() : rows_;
  }
  /// Physical row id of the i-th selected row.
  std::size_t RowAt(std::size_t i) const {
    return has_selection_ ? selection_[i] : i;
  }

  const ColumnData& column(std::size_t c) const { return cols_[c]; }
  ColumnData& mutable_column(std::size_t c) { return cols_[c]; }
  const std::vector<ColumnData>& columns() const { return cols_; }

  bool has_selection() const { return has_selection_; }
  const std::vector<uint32_t>& selection() const { return selection_; }
  void SetSelection(std::vector<uint32_t> selection) {
    selection_ = std::move(selection);
    has_selection_ = true;
  }
  void ClearSelection() {
    selection_.clear();
    has_selection_ = false;
  }

  /// A view over all columns and the current selection. `ptrs` is caller
  /// storage for the column-pointer array (kept alive as long as the view).
  BatchView View(std::vector<const ColumnData*>* ptrs) const;

  /// Checks arity and per-column type against a Schema (all-null columns
  /// pass any field type, like null cells in Schema::ValidateRecord).
  Status ValidateAgainst(const Schema& schema) const;

  int64_t EstimatedBytes() const;

 private:
  std::vector<ColumnData> cols_;
  std::size_t rows_ = 0;
  std::vector<uint32_t> selection_;
  bool has_selection_ = false;
};

}  // namespace rheem

#endif  // RHEEM_DATA_BATCH_H_
