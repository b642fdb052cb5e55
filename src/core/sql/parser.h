#ifndef RHEEM_CORE_SQL_PARSER_H_
#define RHEEM_CORE_SQL_PARSER_H_

#include <memory>
#include <string>

#include "common/result.h"
#include "core/sql/ast.h"

namespace rheem {
namespace sql {

/// Deepest expression the parser accepts, counted both as the height of the
/// tree it builds (so long left-associative chains like a+a+...+a count
/// every operator) and as the parser's own nesting of parentheses, unary
/// operators, aggregate arguments and subqueries. Everything downstream of
/// the parser — binding, expr::TypeCheck, Canonical, Pretty, Eval — recurses
/// over these trees, so this bound keeps hostile SQL text (the network
/// service accepts up to 1 MiB of it) from overflowing the stack. Nested
/// parentheses are the hungriest shape (each level passes through every
/// precedence function); at this limit they need well under 1 MiB of stack,
/// leaving headroom on 8 MiB thread stacks even in sanitizer builds.
inline constexpr int kMaxExpressionDepth = 256;

/// Parses one SELECT statement (the whole input). Errors are
/// InvalidArgument prefixed with the offending token's 1-based "line:col";
/// that includes expressions nested deeper than kMaxExpressionDepth.
Result<std::shared_ptr<const SelectStmt>> ParseSelect(const std::string& query);

/// Parses a standalone scalar/boolean expression (the whole input) — the
/// entry point for re-parsing expr::Pretty output and for tests that bind
/// expressions directly.
Result<SqlExprPtr> ParseExpressionAst(const std::string& text);

}  // namespace sql
}  // namespace rheem

#endif  // RHEEM_CORE_SQL_PARSER_H_
