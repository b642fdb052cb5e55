#ifndef RHEEM_STORAGE_HOT_BUFFER_H_
#define RHEEM_STORAGE_HOT_BUFFER_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/result.h"
#include "storage/storage_plan.h"

namespace rheem {
namespace storage {

/// \brief Hot-data buffer (paper §6, "Embracing hot data"): keeps frequently
/// accessed datasets cached in the consumer's native row format so repeated
/// analytics skip the backend's parse/convert path.
///
/// LRU-evicted by an estimated-bytes capacity. The ablation_hot_buffer
/// benchmark measures the exact effect the paper predicts: repeated
/// analytics over a CSV-resident dataset pay the text parse once instead of
/// every run.
///
/// Thread-safe: the DAG-parallel executor and concurrent JobServer workers
/// load sources from many threads at once; all bookkeeping is guarded by an
/// internal mutex. A hit is O(1) — the cached dataset is returned as a
/// shared const pointer, never copied. On construction the buffer registers
/// itself as a write observer of its StorageManager, so any write routed
/// through the manager (Put/Delete/Execute) invalidates the stale entry;
/// writes that go straight to a backend bypass this hook and require a
/// manual Invalidate().
///
/// Columnar form: a resident table that a declarative chain scans on
/// sparksim also gets a columnar Batch, built on the first such scan and
/// shared by every later one (TableMemo). From the table's next load on, the
/// Batch counts in `resident_bytes` and against the capacity, and evicting
/// or invalidating the table drops the memo's Batch at once (a running job
/// that holds it keeps it until the job ends). Until that next load it is
/// uncharged. Destroying the buffer drops the memo's Batches too. For the
/// 1M-row `orders` table of perfbench `batch_sql` the Batch costs about
/// 47 MiB (five 8-byte columns and one string column), beside the row
/// form's estimated 65 MiB.
///
/// Emits `hot_buffer.hits` / `hot_buffer.misses` counters and the
/// `hot_buffer.resident_bytes` gauge into the process-wide MetricsRegistry.
class HotDataBuffer {
 public:
  HotDataBuffer(StorageManager* manager, int64_t capacity_bytes);
  ~HotDataBuffer();

  HotDataBuffer(const HotDataBuffer&) = delete;
  HotDataBuffer& operator=(const HotDataBuffer&) = delete;

  /// Loads `dataset` through the cache. Hits return the cached dataset
  /// without copying a single row; callers must treat it as immutable.
  Result<std::shared_ptr<const Dataset>> Load(const std::string& dataset);

  /// Drops a cached entry (e.g. after the dataset was rewritten).
  void Invalidate(const std::string& dataset);
  void Clear();

  StorageManager* manager() const { return manager_; }

  int64_t hits() const;
  int64_t misses() const;
  int64_t resident_bytes() const;
  std::size_t resident_entries() const;

 private:
  void EvictUntilFitsLocked(int64_t incoming_bytes);

  struct Entry {
    std::shared_ptr<const Dataset> data;
    int64_t bytes = 0;           // row form plus columnar_bytes
    int64_t columnar_bytes = 0;  // the table's Batch, once charged
    std::list<std::string>::iterator lru_pos;
  };

  StorageManager* manager_;
  const int64_t capacity_bytes_;
  int observer_id_ = -1;

  mutable std::mutex mu_;
  std::map<std::string, Entry> cache_;
  std::list<std::string> lru_;  // front = most recent
  int64_t resident_bytes_ = 0;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
};

}  // namespace storage
}  // namespace rheem

#endif  // RHEEM_STORAGE_HOT_BUFFER_H_
