#ifndef RHEEM_DATA_SCHEMA_H_
#define RHEEM_DATA_SCHEMA_H_

#include <cassert>
#include <string>
#include <vector>

#include "common/result.h"
#include "data/record.h"
#include "data/value.h"

namespace rheem {

/// \brief One named, typed column of a Schema.
struct Field {
  std::string name;
  ValueType type = ValueType::kNull;
};

/// \brief Ordered list of named, typed columns describing a Dataset.
///
/// Schemas are advisory in RHEEM's UDF-first model (operators may emit
/// records of any shape), but the relational platform (relsim) and the
/// storage layer require them, and Validate() lets tests pin shapes down.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Field> fields) : fields_(std::move(fields)) {}

  static Schema Of(std::initializer_list<Field> fields) {
    return Schema(std::vector<Field>(fields));
  }

  std::size_t num_fields() const { return fields_.size(); }
  /// Field `i`. An index past num_fields() is a caller bug, which a debug
  /// build stops here; code indexing with untrusted input (the SQL
  /// analyzer's `$N`) range-checks against num_fields() first.
  const Field& field(std::size_t i) const {
    assert(i < fields_.size() && "Schema::field index out of range");
    return fields_[i];
  }
  const std::vector<Field>& fields() const { return fields_; }

  /// Column index by name, or NotFound.
  Result<int> IndexOf(const std::string& name) const;

  /// Checks arity and per-field type (null cells always pass).
  Status ValidateRecord(const Record& r) const;

  /// Schema of `left JOIN right` output (left fields then right fields;
  /// duplicate names get a "_r" suffix).
  static Schema Concat(const Schema& left, const Schema& right);

  Schema Project(const std::vector<int>& columns) const;

  std::string ToString() const;

  friend bool operator==(const Schema& a, const Schema& b);

 private:
  std::vector<Field> fields_;
};

}  // namespace rheem

#endif  // RHEEM_DATA_SCHEMA_H_
