#ifndef RHEEM_DATA_DATASET_H_
#define RHEEM_DATA_DATASET_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "data/record.h"
#include "data/schema.h"

namespace rheem {

/// \brief Batch of data quanta flowing between execution operators.
///
/// Execution operators process multiple quanta per call (paper Section 3.1),
/// so the unit of exchange on channels, shuffles and storage reads is a
/// Dataset, not a Record. A Dataset optionally carries a Schema; UDF-heavy
/// plans typically leave it empty.
class Dataset {
 public:
  Dataset() = default;
  explicit Dataset(std::vector<Record> records)
      : records_(std::move(records)) {}
  Dataset(std::vector<Record> records, Schema schema)
      : records_(std::move(records)), schema_(std::move(schema)),
        has_schema_(true) {}

  std::size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }

  const Record& at(std::size_t i) const { return records_[i]; }
  Record& at(std::size_t i) { return records_[i]; }
  const std::vector<Record>& records() const { return records_; }
  std::vector<Record>& mutable_records() { return records_; }

  void Append(Record r) { records_.push_back(std::move(r)); }
  void AppendAll(const Dataset& other);
  void AppendAll(Dataset&& other);

  bool has_schema() const { return has_schema_; }
  const Schema& schema() const { return schema_; }
  void set_schema(Schema schema) {
    schema_ = std::move(schema);
    has_schema_ = true;
  }

  /// Validates every record against the schema (no-op when schema absent).
  Status Validate() const;

  /// Splits into `n` contiguous chunks of near-equal size (some may be
  /// empty when size() < n). Used to partition input for sparksim.
  std::vector<Dataset> SplitInto(std::size_t n) const;

  /// The row ranges [begin, end) SplitInto(n) cuts from `total` rows: the
  /// first total % n chunks hold one row more than the rest.
  static std::vector<std::pair<std::size_t, std::size_t>> SplitRanges(
      std::size_t total, std::size_t n);

  /// Stable sort by the given comparator.
  void Sort(const std::function<bool(const Record&, const Record&)>& less);

  /// Total estimated bytes (drives movement/serialization cost models).
  int64_t EstimatedBytes() const;

  std::string ToString(std::size_t max_rows = 10) const;

  auto begin() const { return records_.begin(); }
  auto end() const { return records_.end(); }

 private:
  std::vector<Record> records_;
  Schema schema_;
  bool has_schema_ = false;
};

}  // namespace rheem

#endif  // RHEEM_DATA_DATASET_H_
