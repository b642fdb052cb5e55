#include "storage/hot_buffer.h"

#include "common/metrics.h"
#include "data/table_memo.h"

namespace rheem {
namespace storage {

HotDataBuffer::HotDataBuffer(StorageManager* manager, int64_t capacity_bytes)
    : manager_(manager), capacity_bytes_(capacity_bytes) {
  observer_id_ = manager_->AddWriteObserver(
      [this](const std::string& dataset) { Invalidate(dataset); });
}

HotDataBuffer::~HotDataBuffer() {
  manager_->RemoveWriteObserver(observer_id_);
  for (const auto& [name, entry] : cache_) TableMemo::Forget(entry.data);
}

Result<std::shared_ptr<const Dataset>> HotDataBuffer::Load(
    const std::string& dataset) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cache_.find(dataset);
    if (it != cache_.end()) {
      ++hits_;
      lru_.erase(it->second.lru_pos);
      lru_.push_front(dataset);
      it->second.lru_pos = lru_.begin();
      CountIfEnabled(registry.counter("hot_buffer.hits"), 1);
      std::shared_ptr<const Dataset> data = it->second.data;
      // A columnar form built since the last load counts from now on. When
      // the two forms outgrow the capacity, the LRU tail goes first, and
      // this entry too if it alone does not fit.
      const int64_t columnar = TableMemo::ColumnarBytes(data);
      if (columnar != it->second.columnar_bytes) {
        resident_bytes_ += columnar - it->second.columnar_bytes;
        it->second.bytes += columnar - it->second.columnar_bytes;
        it->second.columnar_bytes = columnar;
        EvictUntilFitsLocked(0);
        if (registry.enabled()) {
          registry.gauge("hot_buffer.resident_bytes")->Set(resident_bytes_);
        }
      }
      return data;
    }
    ++misses_;
  }
  CountIfEnabled(registry.counter("hot_buffer.misses"), 1);
  // The backend parse runs outside the lock so concurrent loads of other
  // datasets are not serialized behind it. Two racing misses on the same
  // dataset both parse; the second insert below simply wins.
  RHEEM_ASSIGN_OR_RETURN(Dataset loaded, manager_->Load(dataset));
  auto data = std::make_shared<const Dataset>(std::move(loaded));
  const int64_t bytes = data->EstimatedBytes();
  if (bytes <= capacity_bytes_) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cache_.find(dataset);
    if (it != cache_.end()) {  // raced with another miss: replace
      resident_bytes_ -= it->second.bytes;
      lru_.erase(it->second.lru_pos);
      TableMemo::Forget(it->second.data);
      cache_.erase(it);
    }
    EvictUntilFitsLocked(bytes);
    lru_.push_front(dataset);
    Entry entry;
    entry.data = data;
    entry.bytes = bytes;
    entry.lru_pos = lru_.begin();
    cache_.emplace(dataset, std::move(entry));
    resident_bytes_ += bytes;
    if (registry.enabled()) {
      registry.gauge("hot_buffer.resident_bytes")->Set(resident_bytes_);
    }
  }
  return data;
}

void HotDataBuffer::Invalidate(const std::string& dataset) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cache_.find(dataset);
  if (it == cache_.end()) return;
  resident_bytes_ -= it->second.bytes;
  lru_.erase(it->second.lru_pos);
  TableMemo::Forget(it->second.data);
  cache_.erase(it);
  MetricsRegistry& registry = MetricsRegistry::Global();
  if (registry.enabled()) {
    registry.counter("hot_buffer.invalidations")->Add(1);
    registry.gauge("hot_buffer.resident_bytes")->Set(resident_bytes_);
  }
}

void HotDataBuffer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, entry] : cache_) TableMemo::Forget(entry.data);
  cache_.clear();
  lru_.clear();
  resident_bytes_ = 0;
  MetricsRegistry& registry = MetricsRegistry::Global();
  if (registry.enabled()) {
    registry.gauge("hot_buffer.resident_bytes")->Set(0);
  }
}

int64_t HotDataBuffer::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

int64_t HotDataBuffer::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

int64_t HotDataBuffer::resident_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return resident_bytes_;
}

std::size_t HotDataBuffer::resident_entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cache_.size();
}

void HotDataBuffer::EvictUntilFitsLocked(int64_t incoming_bytes) {
  while (!lru_.empty() && resident_bytes_ + incoming_bytes > capacity_bytes_) {
    const std::string victim = lru_.back();
    auto it = cache_.find(victim);
    if (it != cache_.end()) {
      resident_bytes_ -= it->second.bytes;
      TableMemo::Forget(it->second.data);
      cache_.erase(it);
    }
    lru_.pop_back();
  }
}

}  // namespace storage
}  // namespace rheem
