#include "data/batch.h"

#include <algorithm>

#include "common/metrics.h"

namespace rheem {

namespace {

Counter* ConversionsCounter() {
  static Counter* c =
      MetricsRegistry::Global().counter("batch.conversions_total");
  return c;
}

constexpr std::size_t kMaxBatchRows = 0xFFFFFFFFu;  // selection ids are u32

/// Shared column-at-a-time conversion. `strict` additionally requires uniform
/// arity == num_columns; lenient treats a missing trailing cell as null.
Result<Batch> Convert(const Dataset& in, std::size_t num_columns, bool strict) {
  // Every attempt counts, a rejected one too: it scanned the rows up to the
  // cell that rejected it.
  CountIfEnabled(ConversionsCounter(), 1);
  const std::size_t n = in.size();
  if (n > kMaxBatchRows) {
    return Status::Unsupported("dataset too large for a Batch");
  }
  if (strict) {
    for (std::size_t i = 0; i < n; ++i) {
      if (in.at(i).size() != num_columns) {
        return Status::Unsupported(
            "ragged dataset: record arity " + std::to_string(in.at(i).size()) +
            " != " + std::to_string(num_columns));
      }
    }
  }
  std::vector<ColumnData> cols(num_columns);
  for (std::size_t c = 0; c < num_columns; ++c) {
    ColumnData& col = cols[c];
    // Pass 1: the column's type is the type of its first non-null cell.
    for (std::size_t i = 0; i < n; ++i) {
      const Record& r = in.at(i);
      if (c >= r.size()) continue;  // lenient missing cell
      const ValueType t = r.at(c).type();
      if (t == ValueType::kNull) continue;
      if (t == ValueType::kDoubleList) {
        return Status::Unsupported(
            "double_list cells have no columnar representation");
      }
      col.type = t;
      break;
    }
    if (col.type == ValueType::kNull) {
      // All-null column: bitmap only.
      if (n > 0) {
        col.null_words.assign((n + 63) / 64, ~uint64_t{0});
        const std::size_t tail = n & 63;
        if (tail != 0) col.null_words.back() = (uint64_t{1} << tail) - 1;
      }
      continue;
    }
    // Pass 2: fill, rejecting any cell whose runtime type differs (a mixed
    // int64/double column cannot preserve per-cell types once widened).
    col.Reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const Record& r = in.at(i);
      const bool missing = c >= r.size();
      const Value* v = missing ? nullptr : &r.at(c);
      if (missing || v->is_null()) {
        col.MarkNull(i, n);
        switch (col.type) {
          case ValueType::kInt64: col.i64.push_back(0); break;
          case ValueType::kDouble: col.f64.push_back(0.0); break;
          case ValueType::kBool: col.b8.push_back(0); break;
          case ValueType::kString:
            col.str_offsets.push_back(
                static_cast<uint32_t>(col.str_bytes.size()));
            break;
          default: break;
        }
        continue;
      }
      if (v->type() != col.type) {
        return Status::Unsupported(
            std::string("mixed column types: ") +
            ValueTypeToString(col.type) + " vs " +
            ValueTypeToString(v->type()) + " in column " + std::to_string(c));
      }
      switch (col.type) {
        case ValueType::kInt64:
          col.i64.push_back(v->int64_unchecked());
          break;
        case ValueType::kDouble:
          col.f64.push_back(v->double_unchecked());
          break;
        case ValueType::kBool:
          col.b8.push_back(v->bool_unchecked() ? 1 : 0);
          break;
        case ValueType::kString: {
          const std::string& s = v->string_unchecked();
          col.str_offsets.push_back(
              static_cast<uint32_t>(col.str_bytes.size()));
          col.str_bytes.append(s);
          break;
        }
        default:
          break;
      }
    }
    if (col.type == ValueType::kString) {
      col.str_offsets.push_back(static_cast<uint32_t>(col.str_bytes.size()));
    }
  }
  return Batch(std::move(cols), n);
}

}  // namespace

void ColumnData::SetNullsFromBytes(const std::vector<uint8_t>& mask) {
  bool any = false;
  for (uint8_t m : mask) {
    if (m != 0) {
      any = true;
      break;
    }
  }
  if (!any) return;
  null_words.assign((mask.size() + 63) / 64, 0);
  for (std::size_t i = 0; i < mask.size(); ++i) {
    if (mask[i] != 0) null_words[i >> 6] |= uint64_t{1} << (i & 63);
  }
}

Value ColumnData::ValueAt(std::size_t i) const {
  if (IsNull(i)) return Value::Null();
  switch (type) {
    case ValueType::kInt64: return Value(i64[i]);
    case ValueType::kDouble: return Value(f64[i]);
    case ValueType::kBool: return Value(b8[i] != 0);
    case ValueType::kString: return Value(std::string(StringAt(i)));
    default: return Value::Null();
  }
}

void ColumnData::Reserve(std::size_t rows) {
  switch (type) {
    case ValueType::kInt64: i64.reserve(rows); break;
    case ValueType::kDouble: f64.reserve(rows); break;
    case ValueType::kBool: b8.reserve(rows); break;
    case ValueType::kString: str_offsets.reserve(rows + 1); break;
    default: break;
  }
}

int64_t ColumnData::EstimatedBytes() const {
  return static_cast<int64_t>(i64.size() * sizeof(int64_t) +
                              f64.size() * sizeof(double) + b8.size() +
                              str_bytes.size() +
                              str_offsets.size() * sizeof(uint32_t) +
                              null_words.size() * sizeof(uint64_t));
}

Result<Batch> Batch::FromDataset(const Dataset& in) {
  return Convert(in, in.empty() ? 0 : in.at(0).size(), /*strict=*/true);
}

Result<Batch> Batch::FromDatasetPrefix(const Dataset& in,
                                       std::size_t num_columns) {
  return Convert(in, num_columns, /*strict=*/false);
}

Dataset Batch::ToDataset() const {
  std::vector<Record> out;
  out.reserve(num_selected());
  for (std::size_t i = 0; i < num_selected(); ++i) {
    out.push_back(RecordAt(RowAt(i)));
  }
  CountIfEnabled(ConversionsCounter(), 1);
  return Dataset(std::move(out));
}

Record Batch::RecordAt(std::size_t physical_row) const {
  std::vector<Value> fields;
  fields.reserve(cols_.size());
  for (const ColumnData& c : cols_) fields.push_back(c.ValueAt(physical_row));
  return Record(std::move(fields));
}

BatchView Batch::View(std::vector<const ColumnData*>* ptrs) const {
  ptrs->clear();
  ptrs->reserve(cols_.size());
  for (const ColumnData& c : cols_) ptrs->push_back(&c);
  BatchView v;
  v.cols = ptrs->data();
  v.num_cols = ptrs->size();
  if (has_selection_) {
    v.sel = selection_.data();
    v.n = selection_.size();
  } else {
    v.base = 0;
    v.n = rows_;
  }
  return v;
}

Status Batch::ValidateAgainst(const Schema& schema) const {
  if (schema.num_fields() != cols_.size()) {
    return Status::InvalidArgument(
        "batch arity " + std::to_string(cols_.size()) +
        " does not match schema arity " +
        std::to_string(schema.num_fields()));
  }
  for (std::size_t c = 0; c < cols_.size(); ++c) {
    const ValueType want = schema.field(c).type;
    const ValueType got = cols_[c].type;
    // All-null columns pass any declared type, like null cells in
    // Schema::ValidateRecord; a kNull schema field accepts anything.
    if (got == ValueType::kNull || want == ValueType::kNull) continue;
    if (got != want) {
      return Status::InvalidArgument(
          "column " + std::to_string(c) + " (" + schema.field(c).name +
          ") is " + ValueTypeToString(got) + ", schema wants " +
          ValueTypeToString(want));
    }
  }
  return Status::OK();
}

int64_t Batch::EstimatedBytes() const {
  int64_t total = static_cast<int64_t>(selection_.size() * sizeof(uint32_t));
  for (const ColumnData& c : cols_) total += c.EstimatedBytes();
  return total;
}

}  // namespace rheem
