#include "platforms/sparksim/rdd.h"

namespace rheem {
namespace sparksim {

Rdd Rdd::FromDataset(const Dataset& data, std::size_t num_partitions) {
  return Rdd(data.SplitInto(num_partitions == 0 ? 1 : num_partitions));
}

Rdd Rdd::Single(Dataset data) {
  std::vector<Dataset> parts;
  parts.push_back(std::move(data));
  return Rdd(std::move(parts));
}

std::size_t Rdd::TotalRows() const {
  std::size_t n = 0;
  for (const auto& p : partitions_) n += p.size();
  return n;
}

Dataset Rdd::Gather() const& {
  Dataset out;
  for (const auto& p : partitions_) out.AppendAll(p);
  return out;
}

Dataset Rdd::Gather() && {
  Dataset out;
  for (auto& p : partitions_) out.AppendAll(std::move(p));
  partitions_.clear();
  return out;
}

}  // namespace sparksim
}  // namespace rheem
