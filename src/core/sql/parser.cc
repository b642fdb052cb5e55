#include "core/sql/parser.h"

#include <algorithm>
#include <cstdlib>
#include <set>
#include <utility>

#include "common/string_util.h"

namespace rheem {
namespace sql {

const char* AggFuncName(AggFunc f) {
  switch (f) {
    case AggFunc::kSum: return "SUM";
    case AggFunc::kMin: return "MIN";
    case AggFunc::kMax: return "MAX";
    case AggFunc::kCount: return "COUNT";
    case AggFunc::kAvg: return "AVG";
  }
  return "?";
}

namespace {

/// Words with clause meaning: rejected as bare column names so a malformed
/// query fails at the keyword instead of mis-binding it as a column.
bool IsReservedWord(const std::string& upper) {
  static const std::set<std::string> kReserved = {
      "SELECT", "DISTINCT", "FROM",  "JOIN",  "INNER", "ON",
      "WHERE",  "GROUP",    "BY",    "ORDER", "ASC",   "DESC",
      "LIMIT",  "AS",       "AND",   "OR",    "NOT"};
  return kReserved.count(upper) > 0;
}

Result<AggFunc> AggFromName(const std::string& upper) {
  if (upper == "SUM") return AggFunc::kSum;
  if (upper == "MIN") return AggFunc::kMin;
  if (upper == "MAX") return AggFunc::kMax;
  if (upper == "COUNT") return AggFunc::kCount;
  if (upper == "AVG") return AggFunc::kAvg;
  return Status::NotFound("not an aggregate");
}

class Parser {
 public:
  Parser(const std::string& query, std::vector<Token> tokens)
      : query_(query), tokens_(std::move(tokens)) {}

  Result<std::shared_ptr<const SelectStmt>> ParseStatement() {
    RHEEM_ASSIGN_OR_RETURN(auto stmt, ParseSelectStmt());
    RHEEM_RETURN_IF_ERROR(ExpectEnd());
    return std::shared_ptr<const SelectStmt>(std::move(stmt));
  }

  Result<SqlExprPtr> ParseStandaloneExpression() {
    RHEEM_ASSIGN_OR_RETURN(SqlExprPtr e, ParseExpr());
    RHEEM_RETURN_IF_ERROR(ExpectEnd());
    return e;
  }

 private:
  const Token& Peek(std::size_t ahead = 0) const {
    const std::size_t i = std::min(pos_ + ahead, tokens_.size() - 1);
    return tokens_[i];
  }

  const Token& Take() {
    const Token& t = tokens_[pos_];
    if (pos_ + 1 < tokens_.size()) ++pos_;
    return t;
  }

  bool TakeKeyword(const char* keyword) {
    if (Peek().IsKeyword(keyword)) {
      Take();
      return true;
    }
    return false;
  }

  bool TakeSymbol(const char* symbol) {
    if (Peek().IsSymbol(symbol)) {
      Take();
      return true;
    }
    return false;
  }

  static Status ErrorAt(const Token& t, const std::string& msg) {
    return Status::InvalidArgument(t.Pos() + ": " + msg);
  }

  static std::string Describe(const Token& t) {
    return t.kind == TokenKind::kEnd ? std::string("end of input")
                                     : "'" + t.raw + "'";
  }

  Status Expect(const char* keyword) {
    if (!TakeKeyword(keyword)) {
      return ErrorAt(Peek(), std::string("expected ") + keyword + ", got " +
                                 Describe(Peek()));
    }
    return Status::OK();
  }

  Status ExpectSymbol(const char* symbol) {
    if (!TakeSymbol(symbol)) {
      return ErrorAt(Peek(), std::string("expected '") + symbol + "', got " +
                                 Describe(Peek()));
    }
    return Status::OK();
  }

  Status ExpectEnd() {
    if (Peek().kind != TokenKind::kEnd) {
      return ErrorAt(Peek(), "trailing input " + Describe(Peek()));
    }
    return Status::OK();
  }

  /// Counts one level of parser recursion (parentheses, unary operators,
  /// aggregate arguments, subqueries) while in scope.
  class Nesting {
   public:
    explicit Nesting(int* level) : level_(level) { ++*level_; }
    ~Nesting() { --*level_; }
    Nesting(const Nesting&) = delete;
    Nesting& operator=(const Nesting&) = delete;

    bool too_deep() const { return *level_ > kMaxExpressionDepth; }

   private:
    int* level_;
  };

  static Status TooDeep(const Token& t) {
    return ErrorAt(t, "expression nested too deeply (limit " +
                          std::to_string(kMaxExpressionDepth) + " levels)");
  }

  /// Finishes an operator node over its children: records its height and
  /// rejects trees taller than the depth limit.
  static Result<SqlExprPtr> WithDepth(const Token& op,
                                      std::shared_ptr<SqlExpr> e) {
    e->depth = 1 + std::max(e->left ? e->left->depth : 0,
                            e->right ? e->right->depth : 0);
    if (e->depth > kMaxExpressionDepth) return TooDeep(op);
    return SqlExprPtr(std::move(e));
  }

  /// The source text spanned by tokens [from, to_exclusive_end), trimmed.
  std::string Slice(const Token& from, const Token& upto) const {
    return std::string(TrimWhitespace(
        std::string_view(query_).substr(from.offset,
                                        upto.end_offset - from.offset)));
  }

  Result<std::unique_ptr<SelectStmt>> ParseSelectStmt() {
    auto stmt = std::make_unique<SelectStmt>();
    RHEEM_RETURN_IF_ERROR(Expect("SELECT"));
    stmt->distinct = TakeKeyword("DISTINCT");
    RHEEM_RETURN_IF_ERROR(ParseSelectList(stmt.get()));
    RHEEM_RETURN_IF_ERROR(Expect("FROM"));
    RHEEM_ASSIGN_OR_RETURN(stmt->from, ParseTableRef());
    while (Peek().IsKeyword("INNER") || Peek().IsKeyword("JOIN")) {
      TakeKeyword("INNER");
      RHEEM_RETURN_IF_ERROR(Expect("JOIN"));
      JoinClause join;
      RHEEM_ASSIGN_OR_RETURN(join.table, ParseTableRef());
      RHEEM_RETURN_IF_ERROR(Expect("ON"));
      join.on_tok = Peek();
      RHEEM_ASSIGN_OR_RETURN(join.on, ParseExpr());
      stmt->joins.push_back(std::move(join));
    }
    if (TakeKeyword("WHERE")) {
      RHEEM_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
    }
    if (TakeKeyword("GROUP")) {
      RHEEM_RETURN_IF_ERROR(Expect("BY"));
      do {
        RHEEM_ASSIGN_OR_RETURN(SqlExprPtr e, ParseExpr());
        stmt->group_by.push_back(std::move(e));
      } while (TakeSymbol(","));
    }
    if (TakeKeyword("ORDER")) {
      RHEEM_RETURN_IF_ERROR(Expect("BY"));
      stmt->order_tok = Peek();
      RHEEM_ASSIGN_OR_RETURN(stmt->order_by, ParseExpr());
      if (TakeKeyword("DESC")) {
        stmt->order_ascending = false;
      } else {
        TakeKeyword("ASC");
      }
    }
    if (TakeKeyword("LIMIT")) {
      stmt->limit_tok = Peek();
      if (Peek().kind != TokenKind::kNumber || Peek().is_double) {
        return ErrorAt(Peek(), "LIMIT expects a non-negative integer, got " +
                                   Describe(Peek()));
      }
      stmt->limit = Take().int_value;
      if (stmt->limit < 0) {
        return ErrorAt(stmt->limit_tok, "negative LIMIT");
      }
    }
    return stmt;
  }

  Status ParseSelectList(SelectStmt* stmt) {
    if (Peek().IsSymbol("*")) {
      SelectItem star;
      star.tok = Take();
      star.is_star = true;
      star.text = "*";
      stmt->items.push_back(std::move(star));
      return Status::OK();
    }
    do {
      SelectItem item;
      item.tok = Peek();
      RHEEM_ASSIGN_OR_RETURN(item.expr, ParseExpr());
      item.text = Slice(item.tok, tokens_[pos_ > 0 ? pos_ - 1 : 0]);
      if (TakeKeyword("AS")) {
        if (Peek().kind != TokenKind::kIdent || IsReservedWord(Peek().text)) {
          return ErrorAt(Peek(), "AS expects a name, got " + Describe(Peek()));
        }
        item.alias = Take().raw;
      }
      stmt->items.push_back(std::move(item));
    } while (TakeSymbol(","));
    return Status::OK();
  }

  Result<TableRef> ParseTableRef() {
    TableRef ref;
    ref.tok = Peek();
    if (TakeSymbol("(")) {
      Nesting nested(&nesting_);
      if (nested.too_deep()) return TooDeep(ref.tok);
      RHEEM_ASSIGN_OR_RETURN(auto sub, ParseSelectStmt());
      RHEEM_RETURN_IF_ERROR(ExpectSymbol(")"));
      ref.subquery = std::shared_ptr<const SelectStmt>(std::move(sub));
    } else {
      if (Peek().kind != TokenKind::kIdent || IsReservedWord(Peek().text)) {
        return ErrorAt(Peek(),
                       "expected a table name, got " + Describe(Peek()));
      }
      ref.name = Take().raw;
    }
    if (TakeKeyword("AS")) {
      if (Peek().kind != TokenKind::kIdent || IsReservedWord(Peek().text)) {
        return ErrorAt(Peek(), "AS expects a name, got " + Describe(Peek()));
      }
      ref.alias = Take().raw;
    } else if (Peek().kind == TokenKind::kIdent &&
               !IsReservedWord(Peek().text) &&
               AggFromName(Peek().text).ok() == false) {
      // Bare alias: FROM t a.
      ref.alias = Take().raw;
    }
    return ref;
  }

  // --- expressions, loosest-binding first --------------------------------

  Result<SqlExprPtr> ParseExpr() { return ParseOr(); }

  static Result<SqlExprPtr> MakeBinary(const Token& op, SqlExprPtr l,
                                       SqlExprPtr r) {
    auto e = std::make_shared<SqlExpr>();
    e->kind = SqlExprKind::kBinary;
    e->tok = op;
    e->name = op.text;
    e->left = std::move(l);
    e->right = std::move(r);
    return WithDepth(op, std::move(e));
  }

  Result<SqlExprPtr> ParseOr() {
    RHEEM_ASSIGN_OR_RETURN(SqlExprPtr left, ParseAnd());
    while (Peek().IsKeyword("OR")) {
      const Token op = Take();
      RHEEM_ASSIGN_OR_RETURN(SqlExprPtr right, ParseAnd());
      RHEEM_ASSIGN_OR_RETURN(left,
                             MakeBinary(op, std::move(left), std::move(right)));
    }
    return left;
  }

  Result<SqlExprPtr> ParseAnd() {
    RHEEM_ASSIGN_OR_RETURN(SqlExprPtr left, ParseNot());
    while (Peek().IsKeyword("AND")) {
      const Token op = Take();
      RHEEM_ASSIGN_OR_RETURN(SqlExprPtr right, ParseNot());
      RHEEM_ASSIGN_OR_RETURN(left,
                             MakeBinary(op, std::move(left), std::move(right)));
    }
    return left;
  }

  Result<SqlExprPtr> ParseNot() {
    if (Peek().IsKeyword("NOT")) {
      const Token op = Take();
      Nesting nested(&nesting_);
      if (nested.too_deep()) return TooDeep(op);
      RHEEM_ASSIGN_OR_RETURN(SqlExprPtr inner, ParseNot());
      auto e = std::make_shared<SqlExpr>();
      e->kind = SqlExprKind::kUnary;
      e->tok = op;
      e->name = "NOT";
      e->left = std::move(inner);
      return WithDepth(op, std::move(e));
    }
    return ParseComparison();
  }

  Result<SqlExprPtr> ParseComparison() {
    RHEEM_ASSIGN_OR_RETURN(SqlExprPtr left, ParseAdditive());
    for (;;) {
      const Token& t = Peek();
      if (t.kind == TokenKind::kSymbol &&
          (t.text == "=" || t.text == "==" || t.text == "!=" ||
           t.text == "<>" || t.text == "<" || t.text == "<=" ||
           t.text == ">" || t.text == ">=")) {
        const Token op = Take();
        RHEEM_ASSIGN_OR_RETURN(SqlExprPtr right, ParseAdditive());
        RHEEM_ASSIGN_OR_RETURN(
            left, MakeBinary(op, std::move(left), std::move(right)));
        continue;
      }
      return left;
    }
  }

  Result<SqlExprPtr> ParseAdditive() {
    RHEEM_ASSIGN_OR_RETURN(SqlExprPtr left, ParseMultiplicative());
    while (Peek().IsSymbol("+") || Peek().IsSymbol("-")) {
      const Token op = Take();
      RHEEM_ASSIGN_OR_RETURN(SqlExprPtr right, ParseMultiplicative());
      RHEEM_ASSIGN_OR_RETURN(left,
                             MakeBinary(op, std::move(left), std::move(right)));
    }
    return left;
  }

  Result<SqlExprPtr> ParseMultiplicative() {
    RHEEM_ASSIGN_OR_RETURN(SqlExprPtr left, ParseUnary());
    while (Peek().IsSymbol("*") || Peek().IsSymbol("/") ||
           Peek().IsSymbol("%")) {
      const Token op = Take();
      RHEEM_ASSIGN_OR_RETURN(SqlExprPtr right, ParseUnary());
      RHEEM_ASSIGN_OR_RETURN(left,
                             MakeBinary(op, std::move(left), std::move(right)));
    }
    return left;
  }

  Result<SqlExprPtr> ParseUnary() {
    if (Peek().IsSymbol("-")) {
      const Token op = Take();
      // A minus directly on a number literal folds into a negative literal
      // (so Pretty output like "-5" round-trips to the same constant, not
      // to 0-5); anything else becomes 0 - operand.
      if (Peek().kind == TokenKind::kNumber) {
        RHEEM_ASSIGN_OR_RETURN(SqlExprPtr lit, ParsePrimary());
        auto e = std::make_shared<SqlExpr>();
        e->kind = SqlExprKind::kLiteral;
        e->tok = op;
        e->literal = lit->literal.type() == ValueType::kDouble
                         ? Value(-lit->literal.double_unchecked())
                         : Value(-lit->literal.int64_unchecked());
        return SqlExprPtr(std::move(e));
      }
      Nesting nested(&nesting_);
      if (nested.too_deep()) return TooDeep(op);
      RHEEM_ASSIGN_OR_RETURN(SqlExprPtr inner, ParseUnary());
      auto zero = std::make_shared<SqlExpr>();
      zero->kind = SqlExprKind::kLiteral;
      zero->tok = op;
      zero->literal = Value(static_cast<int64_t>(0));
      Token minus = op;
      minus.text = "-";
      return MakeBinary(minus, SqlExprPtr(std::move(zero)), std::move(inner));
    }
    return ParsePrimary();
  }

  Result<SqlExprPtr> ParsePrimary() {
    const Token& t = Peek();
    switch (t.kind) {
      case TokenKind::kNumber: {
        const Token tok = Take();
        auto e = std::make_shared<SqlExpr>();
        e->kind = SqlExprKind::kLiteral;
        e->tok = tok;
        e->literal =
            tok.is_double ? Value(tok.double_value) : Value(tok.int_value);
        return SqlExprPtr(std::move(e));
      }
      case TokenKind::kString: {
        const Token tok = Take();
        auto e = std::make_shared<SqlExpr>();
        e->kind = SqlExprKind::kLiteral;
        e->tok = tok;
        e->literal = Value(tok.raw);
        return SqlExprPtr(std::move(e));
      }
      case TokenKind::kIdent:
        return ParseIdentExpr();
      case TokenKind::kSymbol:
        if (t.text == "(") {
          Nesting nested(&nesting_);
          if (nested.too_deep()) return TooDeep(t);
          Take();
          RHEEM_ASSIGN_OR_RETURN(SqlExprPtr inner, ParseExpr());
          RHEEM_RETURN_IF_ERROR(ExpectSymbol(")"));
          return inner;
        }
        break;
      case TokenKind::kEnd:
        break;
    }
    return ErrorAt(t, "unexpected " + Describe(t) + " in expression");
  }

  Result<SqlExprPtr> ParseIdentExpr() {
    const Token tok = Take();
    // Positional reference $N.
    if (tok.raw[0] == '$') {
      auto e = std::make_shared<SqlExpr>();
      e->kind = SqlExprKind::kPositional;
      e->tok = tok;
      e->position =
          static_cast<int>(std::strtol(tok.raw.c_str() + 1, nullptr, 10));
      return SqlExprPtr(std::move(e));
    }
    if (tok.text == "TRUE" || tok.text == "FALSE") {
      auto e = std::make_shared<SqlExpr>();
      e->kind = SqlExprKind::kLiteral;
      e->tok = tok;
      e->literal = Value(tok.text == "TRUE");
      return SqlExprPtr(std::move(e));
    }
    if (tok.text == "NULL") {
      auto e = std::make_shared<SqlExpr>();
      e->kind = SqlExprKind::kLiteral;
      e->tok = tok;
      e->literal = Value::Null();
      return SqlExprPtr(std::move(e));
    }
    // Aggregate call?
    if (Peek().IsSymbol("(")) {
      auto agg = AggFromName(tok.text);
      if (agg.ok()) {
        Take();  // (
        auto e = std::make_shared<SqlExpr>();
        e->kind = SqlExprKind::kAggregate;
        e->tok = tok;
        e->agg = agg.ValueOrDie();
        if (TakeSymbol("*")) {
          if (e->agg != AggFunc::kCount) {
            return ErrorAt(tok, std::string(AggFuncName(e->agg)) +
                                    "(*) is not valid; only COUNT takes *");
          }
          e->agg_star = true;
        } else {
          Nesting nested(&nesting_);
          if (nested.too_deep()) return TooDeep(tok);
          RHEEM_ASSIGN_OR_RETURN(e->left, ParseExpr());
        }
        RHEEM_RETURN_IF_ERROR(ExpectSymbol(")"));
        return WithDepth(tok, std::move(e));
      }
      return ErrorAt(tok, "unknown function '" + tok.raw + "'");
    }
    if (IsReservedWord(tok.text)) {
      return ErrorAt(tok, "unexpected keyword " + Describe(tok) +
                              " in expression");
    }
    auto e = std::make_shared<SqlExpr>();
    e->kind = SqlExprKind::kColumn;
    e->tok = tok;
    e->name = tok.raw;
    // Qualified reference table.column.
    if (Peek().IsSymbol(".")) {
      Take();
      if (Peek().kind != TokenKind::kIdent || IsReservedWord(Peek().text)) {
        return ErrorAt(Peek(),
                       "expected a column name after '" + tok.raw + ".'");
      }
      e->qualifier = tok.raw;
      const Token col = Take();
      e->name = col.raw;
      e->tok = col;
    }
    return SqlExprPtr(std::move(e));
  }

  const std::string& query_;
  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  int nesting_ = 0;  // current recursion level, see Nesting
};

}  // namespace

Result<std::shared_ptr<const SelectStmt>> ParseSelect(
    const std::string& query) {
  RHEEM_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(query));
  Parser parser(query, std::move(tokens));
  return parser.ParseStatement();
}

Result<SqlExprPtr> ParseExpressionAst(const std::string& text) {
  RHEEM_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  Parser parser(text, std::move(tokens));
  return parser.ParseStandaloneExpression();
}

}  // namespace sql
}  // namespace rheem
