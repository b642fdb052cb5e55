#ifndef RHEEM_CORE_SQL_AST_H_
#define RHEEM_CORE_SQL_AST_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/sql/tokenizer.h"
#include "data/value.h"

namespace rheem {
namespace sql {

/// Parsed (unresolved) expression nodes. Every node keeps the token it was
/// parsed from, so the analyzer can report errors with source positions.
enum class SqlExprKind : uint8_t {
  kColumn,      // [qualifier.]name
  kPositional,  // $N
  kLiteral,     // number / string / bool / NULL
  kUnary,       // NOT expr
  kBinary,      // arithmetic, comparison, AND/OR
  kAggregate,   // SUM/MIN/MAX/COUNT/AVG(expr) or COUNT(*)
};

enum class AggFunc : uint8_t { kSum, kMin, kMax, kCount, kAvg };

const char* AggFuncName(AggFunc f);

struct SqlExpr;
using SqlExprPtr = std::shared_ptr<const SqlExpr>;

struct SqlExpr {
  SqlExprKind kind = SqlExprKind::kLiteral;
  Token tok;  // name / operator / literal token

  std::string qualifier;  // kColumn: optional table qualifier ("" = none)
  std::string name;       // kColumn: column; kUnary/kBinary: op spelling
  int position = -1;      // kPositional: field index
  Value literal;          // kLiteral
  AggFunc agg = AggFunc::kSum;  // kAggregate
  bool agg_star = false;        // COUNT(*)

  SqlExprPtr left;   // kBinary; sole child of kUnary / kAggregate
  SqlExprPtr right;  // kBinary only
  int depth = 1;     // height of the tree rooted here; a leaf is 1
};

struct SelectItem {
  SqlExprPtr expr;    // null when is_star
  bool is_star = false;
  std::string alias;  // AS alias ("" = none)
  std::string text;   // source slice, the output column's default name
  Token tok;
};

struct SelectStmt;

/// FROM / JOIN operand: a named catalog table or a parenthesized subquery
/// (derived table), optionally aliased.
struct TableRef {
  std::string name;  // "" for derived tables
  std::shared_ptr<const SelectStmt> subquery;
  std::string alias;  // "" = none (derived tables default to "_subquery")
  Token tok;
};

struct JoinClause {
  TableRef table;
  SqlExprPtr on;
  Token on_tok;
};

struct SelectStmt {
  bool distinct = false;
  std::vector<SelectItem> items;
  TableRef from;
  std::vector<JoinClause> joins;
  SqlExprPtr where;                   // null = none
  std::vector<SqlExprPtr> group_by;   // empty = none
  SqlExprPtr order_by;                // null = none
  bool order_ascending = true;
  Token order_tok;
  int64_t limit = -1;  // -1 = none
  Token limit_tok;
};

}  // namespace sql
}  // namespace rheem

#endif  // RHEEM_CORE_SQL_AST_H_
