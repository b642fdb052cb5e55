#ifndef RHEEM_CORE_SQL_CATALOG_H_
#define RHEEM_CORE_SQL_CATALOG_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/result.h"
#include "core/api/data_quanta.h"
#include "data/dataset.h"
#include "data/schema.h"

namespace rheem {
namespace sql {

/// A table resolved by a Catalog: a source DataQuanta rooted in the
/// compiling job's plan, plus the schema the analyzer binds columns against.
struct TableHandle {
  DataQuanta quanta;
  Schema schema;
};

/// Name -> table resolution for the SQL frontend. Table names are matched
/// case-insensitively, like every other identifier in the dialect.
class Catalog {
 public:
  virtual ~Catalog() = default;

  /// Loads `name` as a source DataQuanta rooted in `job`. NotFound (or a
  /// schema complaint) when the table cannot be served; the compiler
  /// prefixes the FROM token's position.
  virtual Result<TableHandle> Load(RheemJob* job, const std::string& name) = 0;
};

/// Catalog over registered in-memory datasets. Thread-safe: concurrent
/// Load() calls (e.g. parallel SQL compilations against one context) and
/// Register() calls may interleave freely. A registered table is shared
/// read-only by every plan compiled against it, never copied per compile.
/// Register() replaces the entry with a new table object: plans compiled
/// before keep reading the old one, and plans compiled after hash the new
/// one's content afresh.
class InMemoryCatalog : public Catalog {
 public:
  /// Registers `data` under `name` (replacing any existing entry). The
  /// dataset must carry a schema — SQL needs named, typed columns.
  Status Register(const std::string& name, Dataset data);
  /// Same, attaching `schema` to the dataset first.
  Status Register(const std::string& name, Dataset data, Schema schema);

  Result<TableHandle> Load(RheemJob* job, const std::string& name) override;

 private:
  mutable std::mutex mu_;
  // Keyed by upper-cased name.
  std::map<std::string, std::shared_ptr<const Dataset>> tables_;
};

/// Catalog over the context's attached storage layer: table `name` is the
/// storage dataset of the same name, served through the hot-data buffer.
/// The dataset must have been stored with a schema (CsvStore persists one
/// as a `#schema` header row). Plans share the buffer's resident table
/// rather than copying it.
class StorageCatalog : public Catalog {
 public:
  Result<TableHandle> Load(RheemJob* job, const std::string& name) override;
};

}  // namespace sql
}  // namespace rheem

#endif  // RHEEM_CORE_SQL_CATALOG_H_
