#include "data/dataset.h"

#include <algorithm>

namespace rheem {

void Dataset::AppendAll(const Dataset& other) {
  records_.reserve(records_.size() + other.records_.size());
  records_.insert(records_.end(), other.records_.begin(), other.records_.end());
}

void Dataset::AppendAll(Dataset&& other) {
  if (records_.empty()) {
    records_ = std::move(other.records_);
    return;
  }
  records_.reserve(records_.size() + other.records_.size());
  records_.insert(records_.end(),
                  std::make_move_iterator(other.records_.begin()),
                  std::make_move_iterator(other.records_.end()));
  other.records_.clear();
}

Status Dataset::Validate() const {
  if (!has_schema_) return Status::OK();
  for (std::size_t i = 0; i < records_.size(); ++i) {
    Status st = schema_.ValidateRecord(records_[i]);
    if (!st.ok()) {
      return st.WithContext("record " + std::to_string(i));
    }
  }
  return Status::OK();
}

std::vector<std::pair<std::size_t, std::size_t>> Dataset::SplitRanges(
    std::size_t total, std::size_t n) {
  if (n == 0) n = 1;
  std::vector<std::pair<std::size_t, std::size_t>> ranges(n);
  const std::size_t base = total / n;
  const std::size_t extra = total % n;
  std::size_t pos = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t len = base + (i < extra ? 1 : 0);
    ranges[i] = {pos, pos + len};
    pos += len;
  }
  return ranges;
}

std::vector<Dataset> Dataset::SplitInto(std::size_t n) const {
  const auto ranges = SplitRanges(records_.size(), n);
  std::vector<Dataset> out(ranges.size());
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    std::vector<Record> chunk(
        records_.begin() + static_cast<std::ptrdiff_t>(ranges[i].first),
        records_.begin() + static_cast<std::ptrdiff_t>(ranges[i].second));
    if (has_schema_) {
      out[i] = Dataset(std::move(chunk), schema_);
    } else {
      out[i] = Dataset(std::move(chunk));
    }
  }
  return out;
}

void Dataset::Sort(
    const std::function<bool(const Record&, const Record&)>& less) {
  std::stable_sort(records_.begin(), records_.end(), less);
}

int64_t Dataset::EstimatedBytes() const {
  int64_t total = 0;
  for (const auto& r : records_) total += r.EstimatedSize();
  return total;
}

std::string Dataset::ToString(std::size_t max_rows) const {
  std::string out = "Dataset[" + std::to_string(records_.size()) + " rows]";
  if (has_schema_) out += " " + schema_.ToString();
  out += "\n";
  for (std::size_t i = 0; i < records_.size() && i < max_rows; ++i) {
    out += "  " + records_[i].ToString() + "\n";
  }
  if (records_.size() > max_rows) {
    out += "  ... (" + std::to_string(records_.size() - max_rows) + " more)\n";
  }
  return out;
}

}  // namespace rheem
