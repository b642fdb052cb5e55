#ifndef RHEEM_DATA_TABLE_MEMO_H_
#define RHEEM_DATA_TABLE_MEMO_H_

#include <cstdint>
#include <memory>

#include "data/batch.h"
#include "data/dataset.h"

namespace rheem {

/// \brief Forms derived from a shared immutable table, computed once per
/// table object and reused by every later caller: its content hash (for
/// plan fingerprints) and its columnar Batch (for in-place scans).
///
/// The memo is keyed by address and checked against the object's owner
/// through a weak_ptr, so a new table allocated where a freed one lived is
/// derived afresh. Rewriting a table therefore means sharing a new object (as
/// the hot buffer and InMemoryCatalog::Register do); a shared table must
/// never be mutated in place. Entries of freed tables are swept when a
/// columnar form is built and whenever the memo doubles in size, so a dead
/// table's Batch lives until the next conversion at the latest, unless its
/// holder calls Forget first (the hot buffer does on eviction). No budget
/// bounds the memo itself: the hot buffer charges the Batch of each table it
/// holds to its capacity (see HotDataBuffer); any other table's Batch lives
/// as long as the table object.
///
/// Thread-safe. Concurrent first uses of one table compute each form once:
/// the other callers wait for it rather than repeat the work.
class TableMemo {
 public:
  /// `compute(*table)`, memoized per table object. `compute` must be a pure
  /// function of the table's content and the same on every call.
  static uint64_t Hash(const std::shared_ptr<const Dataset>& table,
                       uint64_t (*compute)(const Dataset&));

  /// The table as a Batch (Batch::FromDataset), converted on first use and
  /// shared by every later caller. Null when the table has no columnar form
  /// (ragged arity, mixed column types): that outcome is remembered too, so
  /// a table is tried once. Null for a null table.
  static std::shared_ptr<const Batch> Columnar(
      const std::shared_ptr<const Dataset>& table);

  /// The estimated bytes of the table's Batch if one has been built, else 0.
  /// Never converts.
  static int64_t ColumnarBytes(const std::shared_ptr<const Dataset>& table);

  /// Drops the memo's forms of `table` now, releasing its Batch once no
  /// caller holds it. A later use derives them afresh.
  static void Forget(const std::shared_ptr<const Dataset>& table);
};

}  // namespace rheem

#endif  // RHEEM_DATA_TABLE_MEMO_H_
