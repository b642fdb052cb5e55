#include "data/table_memo.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <unordered_map>

namespace rheem {

namespace {

/// The derived forms of one table object, each computed at most once.
struct Forms {
  std::once_flag hash_once;
  uint64_t hash = 0;
  std::once_flag batch_once;
  std::shared_ptr<const Batch> batch;  // null: not convertible
  /// batch's EstimatedBytes once built, readable without batch_once.
  std::atomic<int64_t> batch_bytes{0};
};

struct Entry {
  std::weak_ptr<const Dataset> owner;
  std::shared_ptr<Forms> forms;
};

struct Memo {
  std::mutex mu;
  std::unordered_map<const Dataset*, Entry> entries;
  std::size_t sweep_at = 64;
};

// Leaked on purpose: fingerprints may be taken during static destruction.
Memo& TheMemo() {
  static Memo* const memo = new Memo();
  return *memo;
}

/// Drops entries of freed tables, and with them their columnar forms.
void SweepLocked(Memo& memo) {
  std::erase_if(memo.entries,
                [](const auto& kv) { return kv.second.owner.expired(); });
  memo.sweep_at = std::max<std::size_t>(64, 2 * memo.entries.size());
}

/// Same address and same owner means the same live object. A stale entry
/// holds an expired weak_ptr, whose control block stays allocated, so a new
/// table at a reused address always has a different owner.
bool IsEntryOf(const Entry& e, const std::shared_ptr<const Dataset>& table) {
  return !e.owner.owner_before(table) && !table.owner_before(e.owner);
}

/// The forms slot of a live table, created on first use.
std::shared_ptr<Forms> FormsOf(const std::shared_ptr<const Dataset>& table) {
  Memo& memo = TheMemo();
  std::lock_guard<std::mutex> lock(memo.mu);
  auto [it, inserted] = memo.entries.try_emplace(table.get());
  if (!inserted && IsEntryOf(it->second, table)) return it->second.forms;
  it->second = Entry{table, std::make_shared<Forms>()};
  std::shared_ptr<Forms> forms = it->second.forms;
  if (memo.entries.size() >= memo.sweep_at) SweepLocked(memo);
  return forms;
}

}  // namespace

uint64_t TableMemo::Hash(const std::shared_ptr<const Dataset>& table,
                         uint64_t (*compute)(const Dataset&)) {
  std::shared_ptr<Forms> forms = FormsOf(table);
  std::call_once(forms->hash_once,
                 [&] { forms->hash = compute(*table); });
  return forms->hash;
}

std::shared_ptr<const Batch> TableMemo::Columnar(
    const std::shared_ptr<const Dataset>& table) {
  if (table == nullptr) return nullptr;
  std::shared_ptr<Forms> forms = FormsOf(table);
  std::call_once(forms->batch_once, [&] {
    auto converted = Batch::FromDataset(*table);
    if (converted.ok()) {
      forms->batch =
          std::make_shared<const Batch>(std::move(converted).ValueOrDie());
      forms->batch_bytes.store(forms->batch->EstimatedBytes(),
                               std::memory_order_release);
    }
    // A new columnar form is the memory worth reclaiming: release the ones
    // of tables freed since the last sweep.
    Memo& memo = TheMemo();
    std::lock_guard<std::mutex> lock(memo.mu);
    SweepLocked(memo);
  });
  return forms->batch;
}

int64_t TableMemo::ColumnarBytes(const std::shared_ptr<const Dataset>& table) {
  if (table == nullptr) return 0;
  Memo& memo = TheMemo();
  std::lock_guard<std::mutex> lock(memo.mu);
  auto it = memo.entries.find(table.get());
  if (it == memo.entries.end() || !IsEntryOf(it->second, table)) return 0;
  return it->second.forms->batch_bytes.load(std::memory_order_acquire);
}

void TableMemo::Forget(const std::shared_ptr<const Dataset>& table) {
  if (table == nullptr) return;
  std::shared_ptr<Forms> dropped;  // freed after the lock is released
  Memo& memo = TheMemo();
  std::lock_guard<std::mutex> lock(memo.mu);
  auto it = memo.entries.find(table.get());
  if (it == memo.entries.end() || !IsEntryOf(it->second, table)) return;
  dropped = std::move(it->second.forms);
  memo.entries.erase(it);
}

}  // namespace rheem
