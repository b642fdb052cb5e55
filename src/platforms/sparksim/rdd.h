#ifndef RHEEM_PLATFORMS_SPARKSIM_RDD_H_
#define RHEEM_PLATFORMS_SPARKSIM_RDD_H_

#include <cstddef>
#include <vector>

#include "data/dataset.h"

namespace rheem {
namespace sparksim {

/// \brief Partitioned dataset: the sparksim platform's native representation
/// (the analogue of a Spark RDD). Each partition is processed by one task.
class Rdd {
 public:
  Rdd() = default;
  explicit Rdd(std::vector<Dataset> partitions)
      : partitions_(std::move(partitions)) {}

  /// Splits `data` into `num_partitions` near-equal contiguous partitions.
  static Rdd FromDataset(const Dataset& data, std::size_t num_partitions);

  /// Single-partition RDD (used for small states and sorted outputs).
  static Rdd Single(Dataset data);

  std::size_t num_partitions() const { return partitions_.size(); }
  const Dataset& partition(std::size_t i) const { return partitions_[i]; }
  Dataset& mutable_partition(std::size_t i) { return partitions_[i]; }
  const std::vector<Dataset>& partitions() const { return partitions_; }

  std::size_t TotalRows() const;

  /// Concatenates all partitions in order (a driver-side collect). The
  /// rvalue form moves the records out instead of copying them.
  Dataset Gather() const&;
  Dataset Gather() &&;

 private:
  std::vector<Dataset> partitions_;
};

}  // namespace sparksim
}  // namespace rheem

#endif  // RHEEM_PLATFORMS_SPARKSIM_RDD_H_
