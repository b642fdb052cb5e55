// Golden suite for the core SQL frontend: accepted queries snapshot their
// compiled logical plans (the dialect's EXPLAIN), rejected queries assert
// exact error text with 1-based line:col token positions, and expr::Pretty
// output is proven to re-parse through the expression grammar to a tree with
// an identical canonical encoding. The randomized SQL-vs-plan differential
// lives in fuzz_plans_test.cc; this file is the directed complement.

#include "core/sql/sql.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/string_util.h"
#include "core/api/context.h"
#include "core/service/job_server.h"
#include "core/sql/tokenizer.h"
#include "random_plans.h"
#include "storage/mem_column_store.h"
#include "storage/storage_plan.h"

namespace rheem {
namespace {

using expr::Canonical;
using expr::Pretty;
using testutil::AsMultiset;

class SqlFrontendTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(ctx_.RegisterDefaultPlatforms().ok());
    Dataset emp(
        {
            Record({Value(1), Value("eng"), Value(100.0), Value(30)}),
            Record({Value(2), Value("eng"), Value(120.0), Value(35)}),
            Record({Value(3), Value("ops"), Value(90.0), Value(28)}),
            Record({Value(4), Value("hr"), Value(70.0), Value(50)}),
        },
        Schema::Of({{"id", ValueType::kInt64},
                    {"dept", ValueType::kString},
                    {"salary", ValueType::kDouble},
                    {"age", ValueType::kInt64}}));
    Dataset site(
        {
            Record({Value("eng"), Value(static_cast<int64_t>(3))}),
            Record({Value("ops"), Value(static_cast<int64_t>(1))}),
            Record({Value("hr"), Value(static_cast<int64_t>(2))}),
        },
        Schema::Of(
            {{"dept", ValueType::kString}, {"floor", ValueType::kInt64}}));
    ASSERT_TRUE(catalog_.Register("emp", emp).ok());
    ASSERT_TRUE(catalog_.Register("site", site).ok());
  }

  std::string PlanOf(const std::string& query) {
    auto stmt = ctx_.Sql(query, catalog_);
    EXPECT_TRUE(stmt.ok()) << query << "\n" << stmt.status().ToString();
    return stmt.ok() ? stmt->PlanText() : "";
  }

  RheemContext ctx_;
  sql::InMemoryCatalog catalog_;
};

// --- accepted-query plan snapshots -----------------------------------------

TEST_F(SqlFrontendTest, SelectStarPlan) {
  EXPECT_EQ(PlanOf("SELECT * FROM emp"),
            "#0 L:CollectionSource [table=emp]\n"
            "#1 L:Collect <- #0 (sink)\n");
}

TEST_F(SqlFrontendTest, FilterThenProjectionPlan) {
  EXPECT_EQ(
      PlanOf("SELECT id, salary * 1.1 AS raised FROM emp "
             "WHERE age > 30 AND dept <> 'hr'"),
      "#0 L:CollectionSource [table=emp]\n"
      "#1 L:Filter <- #0 [filter=age>30 AND dept!=\"hr\"]\n"
      "#2 L:Map <- #1 [map=[id, salary*1.1]]\n"
      "#3 L:Collect <- #2 (sink)\n");
}

TEST_F(SqlFrontendTest, EquiJoinWithResidualFilterPlan) {
  EXPECT_EQ(PlanOf("SELECT e.id, s.floor FROM emp AS e "
                   "JOIN site AS s ON e.dept = s.dept WHERE s.floor < 3"),
            "#0 L:CollectionSource [table=emp]\n"
            "#1 L:CollectionSource [table=site]\n"
            "#2 L:Join <- #0, #1 [join=(dept, dept_r)]\n"
            "#3 L:Filter <- #2 [filter=floor<3]\n"
            "#4 L:Map <- #3 [map=[id, floor]]\n"
            "#5 L:Collect <- #4 (sink)\n");
}

TEST_F(SqlFrontendTest, ThetaJoinPlan) {
  EXPECT_EQ(PlanOf("SELECT e.id FROM emp AS e JOIN site AS s "
                   "ON e.age < s.floor"),
            "#0 L:CollectionSource [table=emp]\n"
            "#1 L:CollectionSource [table=site]\n"
            "#2 L:ThetaJoin <- #0, #1 [theta=age<floor]\n"
            "#3 L:Map <- #2 [map=[id]]\n"
            "#4 L:Collect <- #3 (sink)\n");
}

TEST_F(SqlFrontendTest, GroupByOrderByLimitPlan) {
  // SUM/AVG/COUNT(*) intern into one pre-aggregation Map; AVG is rewritten
  // as sum * 1.0 / count over the grouped columns.
  EXPECT_EQ(
      PlanOf("SELECT dept, SUM(salary) AS total, AVG(age) AS mean_age, "
             "COUNT(*) AS n FROM emp GROUP BY dept "
             "ORDER BY total DESC LIMIT 2"),
      "#0 L:CollectionSource [table=emp]\n"
      "#1 L:Map <- #0 [map=[dept, salary, age, 1]]\n"
      "#2 L:ReduceByKey <- #1 [key=$0 aggs=[first($0), sum($1), sum($2), "
      "sum($3)]]\n"
      "#3 L:Map <- #2 [map=[dept, $1, $2*1.0/$3, $3]]\n"
      "#4 L:TopK <- #3 [k=2 desc key=total]\n"
      "#5 L:Collect <- #4 (sink)\n");
}

TEST_F(SqlFrontendTest, DistinctPlan) {
  EXPECT_EQ(PlanOf("SELECT DISTINCT dept FROM emp"),
            "#0 L:CollectionSource [table=emp]\n"
            "#1 L:Map <- #0 [map=[dept]]\n"
            "#2 L:Distinct <- #1\n"
            "#3 L:Collect <- #2 (sink)\n");
}

// --- execution smoke over the same queries ---------------------------------

TEST_F(SqlFrontendTest, ExecutesFilterJoinAndAggregate) {
  auto stmt = ctx_.Sql(
      "SELECT e.dept, SUM(e.salary) AS total FROM emp AS e "
      "JOIN site AS s ON e.dept = s.dept WHERE s.floor >= 2 GROUP BY e.dept",
      catalog_);
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt->schema().field(0).name, "dept");
  EXPECT_EQ(stmt->schema().field(1).name, "total");
  auto got = stmt->Collect();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(AsMultiset(*got),
            AsMultiset(Dataset({Record({Value("eng"), Value(220.0)}),
                                Record({Value("hr"), Value(70.0)})})));
}

TEST_F(SqlFrontendTest, KeywordsAndIdentifiersAreCaseInsensitive) {
  auto stmt =
      ctx_.Sql("select ID from EMP where AGE > 30 order by id asc limit 10",
               catalog_);
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  auto got = stmt->Collect();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(AsMultiset(*got), AsMultiset(Dataset({Record({Value(2)}),
                                                  Record({Value(4)})})));
}

// --- directed rejections: exact text, 1-based token positions ---------------

TEST_F(SqlFrontendTest, RejectionsCarryPositionsAndReasons) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"SELECT", "1:7: unexpected end of input in expression"},
      {"SELECT * FROM missing", "1:15: unknown table 'missing'"},
      {"SELECT bogus FROM emp", "1:8: unknown column 'bogus'"},
      {"SELECT id + dept FROM emp",
       "1:11: arithmetic '+' requires numeric operands, got int64 and "
       "string"},
      {"SELECT id FROM emp WHERE id = 'x'",
       "1:29: comparison '==' over incompatible types int64 and string"},
      {"SELECT * FROM emp WHERE salary",
       "1:25: WHERE condition must be boolean, got double"},
      {"SELECT * FROM emp LIMIT 3",
       "1:25: LIMIT requires ORDER BY: which rows survive would otherwise "
       "be nondeterministic"},
      {"SELECT id FROM emp WHERE SUM(id) > 1",
       "1:34: aggregates are not allowed in WHERE"},
      {"SELECT dept, salary FROM emp GROUP BY dept",
       "1:14: 'salary' must appear in GROUP BY or inside an aggregate"},
      {"SELECT id FROM emp GROUP BY dept, age",
       "1:35: only a single GROUP BY expression is supported"},
      {"SELECT e.id FROM emp", "1:10: unknown table 'e'"},
      {"SELECT dept FROM emp JOIN site ON emp.dept = site.dept",
       "1:8: ambiguous column 'dept'; qualify it with a table name"},
      {"SELECT NULL FROM emp",
       "1:8: NULL literals are not supported: expressions are checked with "
       "non-null static types"},
      {"SELECT COUNT(salary) FROM emp GROUP BY dept",
       "1:8: COUNT over an expression is not supported (the expression IR "
       "has no null-skipping); use COUNT(*)"},
      {"SELECT MIN(*) FROM emp", "1:8: MIN(*) is not valid; only COUNT "
                                 "takes *"},
      {"SELECT * FROM emp ORDER BY SUM(age)",
       "1:28: aggregates are not allowed in ORDER BY; select the aggregate "
       "and order by its output name"},
      {"SELECT 'abc FROM emp", "1:8: unterminated string literal"},
      {"SELECT \"abc FROM emp", "1:8: unterminated string literal"},
      {"SELECT # FROM emp", "1:8: unexpected character '#'"},
      {"", "1:1: expected SELECT, got end of input"},
      {"SELECT id FROM emp x y", "1:22: trailing input 'y'"},
      {"SELECT FOO(id) FROM emp", "1:8: unknown function 'FOO'"},
      {"SELECT $9 FROM emp",
       "1:8: field $9 out of range (row has 4 fields)"},
      {"SELECT id FROM (SELECT id FROM emp",
       "1:35: expected ')', got end of input"},
      {"SELECT id AS FROM emp", "1:14: AS expects a name, got 'FROM'"},
      {"SELECT id FROM emp ORDER BY id LIMIT x",
       "1:38: LIMIT expects a non-negative integer, got 'x'"},
      {"SELECT *, id FROM emp", "1:9: expected FROM, got ','"},
      {"SELECT id FROM emp WHERE NOT id",
       "1:26: NOT requires a bool operand, got int64"},
      {"SELECT DISTINCT FROM emp",
       "1:17: unexpected keyword 'FROM' in expression"},
      {"SELECT id FROM emp JOIN site",
       "1:29: expected ON, got end of input"},
      {"SELECT AVG(dept) AS a FROM emp GROUP BY id",
       "1:8: AVG requires a numeric argument, got string"},
      {"SELECT SUM(SUM(id)) AS s FROM emp GROUP BY dept",
       "1:8: nested aggregates are not supported"},
      {"SELECT * FROM emp GROUP BY dept",
       "1:8: SELECT * cannot be combined with GROUP BY or aggregates"},
      {"SELECT id, COUNT(*) AS n FROM emp",
       "1:8: 'id' must appear in GROUP BY or inside an aggregate"},
  };
  for (const auto& [query, want] : cases) {
    auto stmt = ctx_.Sql(query, catalog_);
    ASSERT_FALSE(stmt.ok()) << "accepted: " << query;
    EXPECT_EQ(stmt.status().message(), want) << query;
  }
}

TEST_F(SqlFrontendTest, MultiLinePositionsAreLineRelative) {
  auto stmt = ctx_.Sql("SELECT id\nFROM emp\nWHERE bogus > 1", catalog_);
  ASSERT_FALSE(stmt.ok());
  EXPECT_EQ(stmt.status().message(), "3:7: unknown column 'bogus'");
}

// --- Pretty round-trip: expr -> text -> expr with identical Canonical -------

void ExpectRoundTrip(const expr::Expr& tree, const Schema& schema) {
  const std::string text = Pretty(tree);
  auto parsed = sql::ParseExpression(text, schema);
  ASSERT_TRUE(parsed.ok()) << "failed to re-parse: " << text << "\n"
                           << parsed.status().ToString();
  EXPECT_EQ(Canonical(**parsed), Canonical(tree)) << "re-parse of: " << text;
}

TEST_F(SqlFrontendTest, PrettyRoundTripsDirectedTrees) {
  namespace e = expr;
  const Schema schema = Schema::Of({{"id", ValueType::kInt64},
                                    {"dept", ValueType::kString},
                                    {"salary", ValueType::kDouble},
                                    {"age", ValueType::kInt64}});
  const auto id = e::Field(0, ValueType::kInt64, "id");
  const auto dept = e::Field(1, ValueType::kString, "dept");
  const auto salary = e::Field(2, ValueType::kDouble, "salary");
  const auto age = e::Field(3, ValueType::kInt64, "age");
  ExpectRoundTrip(*e::Add(e::Mul(salary, e::Lit(1.1)), e::Lit(0.1)), schema);
  ExpectRoundTrip(*e::Sub(id, e::Lit(static_cast<int64_t>(-5))), schema);
  ExpectRoundTrip(*e::Sub(e::Lit(static_cast<int64_t>(0)), e::Sub(id, age)),
                  schema);
  ExpectRoundTrip(*e::Div(e::Mod(id, e::Lit(static_cast<int64_t>(7))),
                          e::Lit(static_cast<int64_t>(3))),
                  schema);
  ExpectRoundTrip(*e::And(e::Or(e::Gt(age, e::Lit(static_cast<int64_t>(30))),
                                e::Eq(dept, e::Lit("eng"))),
                          e::Not(e::Le(salary, e::Lit(-2.5)))),
                  schema);
  ExpectRoundTrip(*e::Eq(dept, e::Lit("O'Brien")), schema);
  ExpectRoundTrip(*e::Eq(dept, e::Lit("say \"hi\"")), schema);
  ExpectRoundTrip(*e::Eq(dept, e::Lit("back\\slash")), schema);
  ExpectRoundTrip(*e::Eq(dept, e::Lit("caf\xC3\xA9")), schema);
  ExpectRoundTrip(*e::Lt(salary, e::Lit(1e300)), schema);
  ExpectRoundTrip(*e::Ge(salary, e::Lit(3.0)), schema);
  // Unnamed fields print as positionals and bind back by index.
  ExpectRoundTrip(*e::Gt(e::Add(e::Field(0, ValueType::kInt64),
                                e::Field(3, ValueType::kInt64)),
                         e::Lit(static_cast<int64_t>(0))),
                  schema);
}

TEST_F(SqlFrontendTest, PrettyRoundTripsRandomTrees) {
  const Schema schema =
      Schema::Of({{"a", ValueType::kInt64}, {"b", ValueType::kInt64}});
  Rng rng(20260808);
  for (int i = 0; i < 300; ++i) {
    const auto scalar = testutil::RandomScalarExpr(&rng, 3);
    ExpectRoundTrip(*scalar.tree, schema);
    const auto pred = testutil::RandomPredicateExpr(&rng, 3);
    ExpectRoundTrip(*pred.tree, schema);
  }
}

// --- expression depth limit --------------------------------------------------

std::string Repeat(const std::string& piece, int n) {
  std::string out;
  out.reserve(piece.size() * static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) out += piece;
  return out;
}

TEST_F(SqlFrontendTest, ExpressionsAtTheDepthLimitRunEndToEnd) {
  constexpr int kMax = sql::kMaxExpressionDepth;
  // Each shape at exactly the limit: a left-deep chain (kMax levels), kMax
  // nested parentheses, and kMax - 1 unary minuses (each one 0 - operand,
  // over the leaf).
  const std::string chain = "id" + Repeat("+id", kMax - 1);
  const std::string parens = Repeat("(", kMax) + "id" + Repeat(")", kMax);
  const std::string negations = Repeat("- ", kMax - 1) + "id";
  const std::string nots = Repeat("NOT ", kMax - 2) + "(id = 2)";
  struct Case {
    std::string text;
    Value expected;  // over the row with id = 2
  };
  for (const Case& c :
       {Case{chain, Value(static_cast<int64_t>(2 * kMax))},
        Case{parens, Value(static_cast<int64_t>(2))},
        Case{negations, Value(static_cast<int64_t>(kMax % 2 == 0 ? -2 : 2))},
        Case{nots, Value(kMax % 2 == 0)}}) {
    auto stmt = ctx_.Sql("SELECT " + c.text + " FROM emp WHERE id = 2",
                         catalog_);
    ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
    auto rows = stmt->Collect();  // Eval over the deep tree
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    ASSERT_EQ(rows->size(), 1u);
    EXPECT_EQ(rows->at(0)[0], c.expected);

    // TypeCheck, Canonical and Pretty recurse over the same tree.
    const Schema schema = Schema::Of({{"id", ValueType::kInt64}});
    auto tree = sql::ParseExpression(c.text, schema);
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();
    EXPECT_TRUE(expr::TypeCheck(**tree).ok());
    EXPECT_EQ(expr::Eval(**tree, Record({Value(2)})), c.expected);
    EXPECT_FALSE(Canonical(**tree).empty());
    EXPECT_FALSE(Pretty(**tree).empty());
  }
}

TEST_F(SqlFrontendTest, ExpressionsPastTheDepthLimitAreRejectedWithPosition) {
  constexpr int kMax = sql::kMaxExpressionDepth;
  const std::string too_deep =
      "expression nested too deeply (limit " + std::to_string(kMax) +
      " levels)";
  // "SELECT id+id+...": the kMax-th '+' (column 10 + 3 * (kMax - 1)) would
  // build a tree of height kMax + 1.
  auto chain =
      sql::ParseSelect("SELECT id" + Repeat("+id", kMax) + " FROM emp");
  ASSERT_FALSE(chain.ok());
  EXPECT_EQ(chain.status().message(),
            "1:" + std::to_string(10 + 3 * (kMax - 1)) + ": " + too_deep);
  // The (kMax + 1)-th opening parenthesis is one level too many.
  auto parens = sql::ParseSelect("SELECT " + Repeat("(", kMax + 1) + "id" +
                                 Repeat(")", kMax + 1) + " FROM emp");
  ASSERT_FALSE(parens.ok());
  EXPECT_EQ(parens.status().message(),
            "1:" + std::to_string(8 + kMax) + ": " + too_deep);

  // Hostile inputs far past the limit fail cleanly instead of overflowing
  // the stack — in the parser, and in every recursion downstream of it.
  constexpr int kHostile = 100000;
  for (const std::string& query : {
           "SELECT " + Repeat("(", kHostile) + "id" + Repeat(")", kHostile) +
               " FROM emp",
           "SELECT id" + Repeat("+id", kHostile) + " FROM emp",
           "SELECT id FROM emp WHERE " + Repeat("id = 1 OR ", kHostile) +
               "id = 2",
           "SELECT " + Repeat("- ", kHostile) + "id FROM emp",
           "SELECT id FROM emp WHERE " + Repeat("NOT ", kHostile) + "id = 2",
           "SELECT " + Repeat("SUM(", kHostile) + "id" + Repeat(")", kHostile) +
               " FROM emp",
           Repeat("SELECT * FROM (", kHostile) + "SELECT * FROM emp" +
               Repeat(")", kHostile),
       }) {
    auto stmt = ctx_.Sql(query, catalog_);
    ASSERT_FALSE(stmt.ok()) << query.substr(0, 60);
    EXPECT_TRUE(stmt.status().IsInvalidArgument()) << stmt.status().ToString();
    EXPECT_NE(stmt.status().message().find(too_deep), std::string::npos)
        << stmt.status().ToString();
  }
}

// --- string literal quoting across the dialect ------------------------------

TEST_F(SqlFrontendTest, StringLiteralQuotingAndNonAsciiBytes) {
  Dataset people(
      {
          Record({Value("O'Brien")}),
          Record({Value("caf\xC3\xA9")}),
          Record({Value("say \"hi\"")}),
      },
      Schema::Of({{"name", ValueType::kString}}));
  ASSERT_TRUE(catalog_.Register("people", people).ok());

  // SQL-standard single quotes with '' escaping.
  auto a = ctx_.Sql("SELECT name FROM people WHERE name = 'O''Brien'",
                    catalog_);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  auto ra = a->Collect();
  ASSERT_TRUE(ra.ok());
  EXPECT_EQ(AsMultiset(*ra),
            AsMultiset(Dataset({Record({Value("O'Brien")})})));

  // Double-quoted literals use backslash escapes (the Pretty spelling).
  auto b = ctx_.Sql("SELECT name FROM people WHERE name = \"O'Brien\"",
                    catalog_);
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  auto rb = b->Collect();
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(AsMultiset(*rb), AsMultiset(*ra));

  auto c = ctx_.Sql(
      "SELECT name FROM people WHERE name = \"say \\\"hi\\\"\"", catalog_);
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  auto rc = c->Collect();
  ASSERT_TRUE(rc.ok());
  EXPECT_EQ(AsMultiset(*rc),
            AsMultiset(Dataset({Record({Value("say \"hi\"")})})));

  // Non-ASCII bytes pass through literals byte-for-byte.
  auto d = ctx_.Sql("SELECT name FROM people WHERE name = 'caf\xC3\xA9'",
                    catalog_);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  auto rd = d->Collect();
  ASSERT_TRUE(rd.ok());
  EXPECT_EQ(AsMultiset(*rd),
            AsMultiset(Dataset({Record({Value("caf\xC3\xA9")})})));

  // The shared quoting helper emits text this dialect parses back.
  auto e = ctx_.Sql(
      "SELECT name FROM people WHERE name = " + SqlQuoteString("O'Brien"),
      catalog_);
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  auto re = e->Collect();
  ASSERT_TRUE(re.ok());
  EXPECT_EQ(AsMultiset(*re), AsMultiset(*ra));
}

// --- JobServer integration ---------------------------------------------------

TEST_F(SqlFrontendTest, SubmitSqlRunsThroughJobServer) {
  auto handle = ctx_.SubmitSql(
      "SELECT dept, COUNT(*) AS n FROM emp GROUP BY dept", catalog_);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  auto result = handle->Wait();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(
      AsMultiset(result->output),
      AsMultiset(Dataset(
          {Record({Value("eng"), Value(static_cast<int64_t>(2))}),
           Record({Value("ops"), Value(static_cast<int64_t>(1))}),
           Record({Value("hr"), Value(static_cast<int64_t>(1))})})));

  // Bad SQL fails at submission with a positioned error, not at execution.
  auto bad = ctx_.SubmitSql("SELECT nope FROM emp", catalog_);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().message(), "1:8: unknown column 'nope'");
}

TEST_F(SqlFrontendTest, EquivalentSpellingsShareAPlanCacheEntry) {
  // Fingerprints fold the compiled plan, never the SQL text: a re-spelled
  // but semantically identical query must hit the plan cache.
  const auto before = ctx_.job_server().stats().cache;
  auto first = ctx_.SubmitSql("SELECT id FROM emp WHERE age > 30", catalog_);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(first->Wait().ok());
  auto second =
      ctx_.SubmitSql("select  ID  from EMP\nwhere AGE > 30", catalog_);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  ASSERT_TRUE(second->Wait().ok());
  const auto after = ctx_.job_server().stats().cache;
  EXPECT_GE(after.hits - before.hits, 1);

  // A query differing only in a constant must NOT collide.
  auto third =
      ctx_.SubmitSql("SELECT id FROM emp WHERE age > 31", catalog_);
  ASSERT_TRUE(third.ok());
  auto r3 = third->Wait();
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(AsMultiset(r3->output),
            AsMultiset(Dataset({Record({Value(2)}), Record({Value(4)})})));
}

// --- concurrency: 8 threads compiling (and running) against one context -----

TEST_F(SqlFrontendTest, ConcurrentCompilationIsThreadSafe) {
  const std::vector<std::string> queries = {
      "SELECT * FROM emp",
      "SELECT id, salary * 1.1 AS raised FROM emp WHERE age > 30",
      "SELECT e.id, s.floor FROM emp AS e JOIN site AS s ON e.dept = s.dept",
      "SELECT dept, SUM(salary) AS total FROM emp GROUP BY dept",
      "SELECT DISTINCT dept FROM emp",
      "SELECT * FROM emp ORDER BY id DESC LIMIT 2",
  };
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(8);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 25; ++i) {
        const std::string& q = queries[(t + i) % queries.size()];
        auto stmt = ctx_.Sql(q, catalog_);
        if (!stmt.ok()) {
          ++failures;
          continue;
        }
        if (i % 5 == 0 && !stmt->Collect().ok()) ++failures;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

// --- catalogs: schema requirements and storage resolution --------------------

TEST_F(SqlFrontendTest, CatalogRejectsSchemalessTablesAndUnknownNames) {
  sql::InMemoryCatalog catalog;
  Dataset bare({Record({Value(7)})});
  auto st = catalog.Register("bare", bare);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_NE(st.message().find("no schema"), std::string::npos) << st.ToString();

  // The two-argument overload attaches the schema on the way in.
  ASSERT_TRUE(
      catalog.Register("bare", bare, Schema::Of({{"x", ValueType::kInt64}}))
          .ok());
  auto stmt = ctx_.Sql("SELECT x FROM bare", catalog);
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  auto rows = stmt->Collect();
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->records().size(), 1u);
  EXPECT_EQ(rows->records()[0].at(0), Value(7));

  // Catalog misses surface as positioned analyzer errors, like every other
  // rejection in the dialect.
  auto missing = ctx_.Sql("SELECT * FROM ghosts", catalog);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().message(), "1:15: unknown table 'ghosts'");
}

TEST_F(SqlFrontendTest, StorageCatalogNeedsAttachedStorageThenResolvesCase) {
  // The default (catalog-less) overload reads attached storage; without any
  // it must fail up front with a pointer at AttachStorage.
  auto detached = ctx_.Sql("SELECT * FROM people");
  ASSERT_FALSE(detached.ok());
  EXPECT_NE(detached.status().message().find("AttachStorage"),
            std::string::npos)
      << detached.status().ToString();

  // The manager is declared before the context that borrows it, matching the
  // AttachStorage lifetime contract.
  storage::StorageManager manager;
  ASSERT_TRUE(
      manager.RegisterBackend(std::make_unique<storage::MemColumnStore>())
          .ok());
  Dataset people(
      {
          Record({Value("ada"), Value(36)}),
          Record({Value("grace"), Value(45)}),
      },
      Schema::Of({{"name", ValueType::kString}, {"age", ValueType::kInt64}}));
  ASSERT_TRUE(manager.Put("mem-column", "people", people).ok());
  RheemContext ctx;
  ASSERT_TRUE(ctx.RegisterDefaultPlatforms().ok());
  ASSERT_TRUE(ctx.AttachStorage(&manager).ok());

  // Identifiers are case-insensitive in the dialect but storage keys are
  // exact: 'PEOPLE' resolves through the lower-cased conventional name.
  auto stmt = ctx.Sql("SELECT NAME FROM PEOPLE WHERE AGE > 40");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  auto rows = stmt->Collect();
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->records().size(), 1u);
  EXPECT_EQ(rows->records()[0].at(0), Value("grace"));

  auto missing = ctx.Sql("SELECT * FROM nope");
  ASSERT_FALSE(missing.ok());
  EXPECT_NE(missing.status().message().find("1:15: unknown table 'nope'"),
            std::string::npos)
      << missing.status().ToString();
}

// --- the expression language, parsed from text and evaluated per row ------

class ExpressionTest : public ::testing::Test {
 protected:
  /// Parses `text` against (id, dept, salary) and evaluates it as a WHERE
  /// predicate over `row`.
  static bool Holds(const std::string& text, const Record& row) {
    auto tree = sql::ParseExpression(
        text, Schema::Of({{"id", ValueType::kInt64},
                          {"dept", ValueType::kString},
                          {"salary", ValueType::kDouble}}));
    EXPECT_TRUE(tree.ok()) << text << ": " << tree.status().ToString();
    return tree.ok() && expr::EvalPredicate(**tree, row);
  }

  const Record eng_ = Record({Value(1), Value("eng"), Value(100.0)});
  const Record ops_ = Record({Value(4), Value("ops"), Value(80.0)});
};

TEST_F(ExpressionTest, ColumnLiteralComparison) {
  EXPECT_TRUE(Holds("salary > 95", eng_));
  EXPECT_FALSE(Holds("salary > 95", ops_));
}

TEST_F(ExpressionTest, ArithmeticAndLogic) {
  EXPECT_TRUE(Holds("salary * 2 >= 200 AND dept = 'eng'", eng_));
  EXPECT_FALSE(Holds("salary * 2 >= 200 AND dept = 'eng'", ops_));
}

TEST_F(ExpressionTest, NotAndOr) {
  EXPECT_FALSE(Holds("NOT dept = 'eng'", eng_));
  EXPECT_TRUE(Holds("NOT dept = 'eng'", ops_));
  EXPECT_TRUE(Holds("dept = 'eng' OR NOT dept = 'eng'", ops_));
}

TEST_F(ExpressionTest, NullComparisonIsFalsy) {
  const Record null_id({Value(), Value("eng"), Value(100.0)});
  EXPECT_FALSE(Holds("id = 1", null_id));
  EXPECT_FALSE(Holds("NOT id = 1", null_id));
}

TEST_F(ExpressionTest, DivisionByZeroFails) {
  // Division by zero evaluates to NULL, so any comparison over it fails —
  // and so does its negation: the row is dropped either way.
  auto tree = sql::ParseExpression("salary / 0",
                                   Schema::Of({{"id", ValueType::kInt64},
                                               {"dept", ValueType::kString},
                                               {"salary", ValueType::kDouble}}));
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  EXPECT_TRUE(expr::Eval(**tree, eng_).is_null());
  EXPECT_FALSE(Holds("salary / 0 > 0", eng_));
  EXPECT_FALSE(Holds("NOT salary / 0 > 0", eng_));
  EXPECT_FALSE(Holds("id % 0 = 0", eng_));
}

TEST_F(ExpressionTest, UnknownColumnNameFails) {
  auto tree = sql::ParseExpression("nope > 1",
                                   Schema::Of({{"id", ValueType::kInt64}}));
  ASSERT_FALSE(tree.ok());
  EXPECT_EQ(tree.status().message(), "1:1: unknown column 'nope'");
}

// Register and look up tables by name. The in-memory catalog has no Drop or
// List: re-registering a name replaces its table, and a name never
// registered is NotFound at Load.
TEST(CatalogTest, RegisterGetDropList) {
  RheemContext ctx;
  ASSERT_TRUE(ctx.RegisterDefaultPlatforms().ok());
  const Schema schema = Schema::Of({{"id", ValueType::kInt64}});
  sql::InMemoryCatalog catalog;
  ASSERT_TRUE(catalog
                  .Register("emp", Dataset({Record({Value(1)}),
                                            Record({Value(2)})},
                                           schema))
                  .ok());
  auto rows_of = [&](const std::string& name) -> Result<Dataset> {
    RheemJob job(&ctx);
    RHEEM_ASSIGN_OR_RETURN(sql::TableHandle table, catalog.Load(&job, name));
    EXPECT_EQ(table.schema.field(0).name, "id");
    return table.quanta.Collect();
  };
  auto first = rows_of("EMP");  // names are case-insensitive
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->size(), 2u);

  ASSERT_TRUE(
      catalog.Register("emp", Dataset({Record({Value(3)})}, schema)).ok());
  auto replaced = rows_of("emp");
  ASSERT_TRUE(replaced.ok()) << replaced.status().ToString();
  EXPECT_EQ(AsMultiset(*replaced), AsMultiset(Dataset({Record({Value(3)})})));

  EXPECT_TRUE(rows_of("dept").status().IsNotFound());
}

// --- query semantics over a five-row table ---------------------------------

class SqlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(ctx_.RegisterDefaultPlatforms().ok());
    Dataset emp(
        {
            Record({Value(1), Value("eng"), Value(100.0), Value(30)}),
            Record({Value(2), Value("eng"), Value(120.0), Value(35)}),
            Record({Value(3), Value("ops"), Value(90.0), Value(28)}),
            Record({Value(4), Value("ops"), Value(80.0), Value(41)}),
            Record({Value(5), Value("hr"), Value(70.0), Value(50)}),
        },
        Schema::Of({{"id", ValueType::kInt64},
                    {"dept", ValueType::kString},
                    {"salary", ValueType::kDouble},
                    {"age", ValueType::kInt64}}));
    ASSERT_TRUE(catalog_.Register("emp", emp).ok());
  }

  /// Compiles and runs `query`; `platform` non-empty forces every operator
  /// onto that platform.
  Result<Dataset> Run(const std::string& query,
                      const std::string& platform = "") {
    RHEEM_ASSIGN_OR_RETURN(sql::SqlStatement stmt, ctx_.Sql(query, catalog_));
    ExecutionOptions options;
    options.force_platform = platform;
    return stmt.Collect(options);
  }

  /// The rejection message of `query`, which must fail to compile with a
  /// positioned InvalidArgument.
  std::string Rejection(const std::string& query) {
    auto stmt = ctx_.Sql(query, catalog_);
    if (stmt.ok()) return "accepted: " + query;
    EXPECT_TRUE(stmt.status().IsInvalidArgument()) << stmt.status().ToString();
    return stmt.status().message();
  }

  RheemContext ctx_;
  sql::InMemoryCatalog catalog_;
};

TEST_F(SqlTest, SelectStar) {
  auto stmt = ctx_.Sql("SELECT * FROM emp", catalog_);
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt->schema().num_fields(), 4u);
  auto rows = stmt->Collect();
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->size(), 5u);
}

TEST_F(SqlTest, WhereComparisonAndLogic) {
  auto t = Run("SELECT id FROM emp WHERE salary >= 90 AND dept <> 'hr'");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(t->size(), 3u);
  auto t2 = Run("SELECT id FROM emp WHERE dept = 'hr' OR age > 40");
  ASSERT_TRUE(t2.ok()) << t2.status().ToString();
  EXPECT_EQ(AsMultiset(*t2),
            AsMultiset(Dataset({Record({Value(4)}), Record({Value(5)})})));
  auto t3 = Run("SELECT id FROM emp WHERE NOT dept = 'eng'");
  ASSERT_TRUE(t3.ok()) << t3.status().ToString();
  EXPECT_EQ(t3->size(), 3u);
}

TEST_F(SqlTest, ComputedProjectionWithAlias) {
  auto stmt =
      ctx_.Sql("SELECT id, salary * 1.1 AS raised FROM emp WHERE id = 1",
               catalog_);
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt->schema().field(1).name, "raised");
  auto t = stmt->Collect();
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_EQ(t->size(), 1u);
  EXPECT_NEAR(t->at(0)[1].ToDoubleOr(0), 110.0, 1e-9);
}

TEST_F(SqlTest, ArithmeticPrecedence) {
  auto t = Run("SELECT 2 + 3 * 4 AS v FROM emp WHERE id = 1");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_EQ(t->size(), 1u);
  EXPECT_EQ(t->at(0)[0], Value(14));
  auto t2 = Run("SELECT (2 + 3) * 4 AS v FROM emp WHERE id = 1");
  ASSERT_TRUE(t2.ok()) << t2.status().ToString();
  ASSERT_EQ(t2->size(), 1u);
  EXPECT_EQ(t2->at(0)[0], Value(20));
}

TEST_F(SqlTest, UnaryMinus) {
  auto t = Run("SELECT -age AS neg FROM emp WHERE id = 1");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_EQ(t->size(), 1u);
  EXPECT_EQ(t->at(0)[0], Value(-30));
}

TEST_F(SqlTest, GroupByWithAggregates) {
  auto t = Run(
      "SELECT dept, COUNT(*) AS n, SUM(salary) AS total, AVG(age) AS avg_age "
      "FROM emp GROUP BY dept ORDER BY dept");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_EQ(t->size(), 3u);
  EXPECT_EQ(t->at(0), Record({Value("eng"), Value(int64_t{2}), Value(220.0),
                              Value(32.5)}));
}

TEST_F(SqlTest, GlobalAggregate) {
  auto t = Run("SELECT COUNT(*) AS n, MAX(salary) AS top FROM emp");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_EQ(t->size(), 1u);
  EXPECT_EQ(t->at(0), Record({Value(int64_t{5}), Value(120.0)}));
}

TEST_F(SqlTest, AggregateWithWhere) {
  auto t = Run("SELECT MIN(salary) AS low FROM emp WHERE dept = 'eng'");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_EQ(t->size(), 1u);
  EXPECT_EQ(t->at(0)[0], Value(100.0));
}

TEST_F(SqlTest, OrderByDescAndLimit) {
  auto t = Run("SELECT id, salary FROM emp ORDER BY salary DESC LIMIT 2");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_EQ(t->size(), 2u);
  EXPECT_EQ(t->at(0)[0], Value(2));
  EXPECT_EQ(t->at(1)[0], Value(1));
}

TEST_F(SqlTest, LimitLargerThanTableIsNoOp) {
  auto t = Run("SELECT * FROM emp ORDER BY id LIMIT 100");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(t->size(), 5u);
}

TEST_F(SqlTest, KeywordsAreCaseInsensitive) {
  auto t = Run(
      "select dept, count(*) as n from emp group by dept "
      "order by n desc limit 1");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_EQ(t->size(), 1u);
  EXPECT_EQ(t->at(0)[1], Value(int64_t{2}));
}

TEST_F(SqlTest, ParseErrorsAreReported) {
  EXPECT_EQ(Rejection("SELECT FROM emp"),
            "1:8: unexpected keyword 'FROM' in expression");
  EXPECT_EQ(Rejection("SELECT * emp"), "1:10: expected FROM, got 'emp'");
  EXPECT_EQ(Rejection("SELECT * FROM emp WHERE"),
            "1:24: unexpected end of input in expression");
  EXPECT_EQ(Rejection("SELECT * FROM emp garbage more"),
            "1:27: trailing input 'more'");
  EXPECT_EQ(Rejection("SELECT SUM(*) FROM emp"),
            "1:8: SUM(*) is not valid; only COUNT takes *");
  EXPECT_EQ(Rejection("SELECT * FROM emp WHERE name = 'x"),
            "1:32: unterminated string literal");
  EXPECT_EQ(Rejection("SELECT * FROM emp ORDER BY id LIMIT x"),
            "1:37: LIMIT expects a non-negative integer, got 'x'");
}

TEST_F(SqlTest, SemanticErrorsAreReported) {
  EXPECT_EQ(Rejection("SELECT * FROM ghosts"), "1:15: unknown table 'ghosts'");
  EXPECT_EQ(Rejection("SELECT nope FROM emp"), "1:8: unknown column 'nope'");
  EXPECT_EQ(Rejection("SELECT age, COUNT(*) FROM emp GROUP BY dept"),
            "1:8: 'age' must appear in GROUP BY or inside an aggregate");
  EXPECT_EQ(Rejection("SELECT *, COUNT(*) FROM emp"),
            "1:9: expected FROM, got ','");
}

TEST_F(SqlTest, StringLiteralQuotingSharedWithCoreDialect) {
  ASSERT_TRUE(catalog_
                  .Register("people",
                            Dataset({Record({Value("O'Brien")}),
                                     Record({Value("caf\xC3\xA9")})},
                                    Schema::Of({{"name", ValueType::kString}})))
                  .ok());
  // SqlQuoteString is the one quoting helper; what it emits parses back to
  // the same literal, embedded quotes and non-ASCII bytes included.
  EXPECT_EQ(SqlQuoteString("O'Brien"), "'O''Brien'");
  for (const std::string name : {"O'Brien", "caf\xC3\xA9"}) {
    auto t = Run("SELECT name FROM people WHERE name = " +
                 SqlQuoteString(name));
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    EXPECT_EQ(AsMultiset(*t), AsMultiset(Dataset({Record({Value(name)})})))
        << name;
  }
  auto none = Run("SELECT name FROM people WHERE name = " +
                  SqlQuoteString("it's 'quoted'"));
  ASSERT_TRUE(none.ok()) << none.status().ToString();
  EXPECT_EQ(none->size(), 0u);
}

TEST_F(SqlTest, ExplainRendersNormalizedQuery) {
  auto stmt = ctx_.Sql(
      "select dept, sum(salary) from emp where age > 30 group by dept "
      "order by dept limit 3",
      catalog_);
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt->PlanText(),
            "#0 L:CollectionSource [table=emp]\n"
            "#1 L:Filter <- #0 [filter=age>30]\n"
            "#2 L:Map <- #1 [map=[dept, salary]]\n"
            "#3 L:ReduceByKey <- #2 [key=$0 aggs=[first($0), sum($1)]]\n"
            "#4 L:Map <- #3 [map=[dept, $1]]\n"
            "#5 L:TopK <- #4 [k=3 asc key=dept]\n"
            "#6 L:Collect <- #5 (sink)\n");
}

TEST_F(SqlTest, ExplainRejectsBadQuery) {
  EXPECT_EQ(Rejection("DELETE FROM emp"), "1:1: expected SELECT, got 'DELETE'");
}

class SqlJoinTest : public SqlTest {
 protected:
  void SetUp() override {
    SqlTest::SetUp();
    Dataset depts({Record({Value("eng"), Value(3)}),
                   Record({Value("ops"), Value(1)})},
                  Schema::Of({{"name", ValueType::kString},
                              {"floor", ValueType::kInt64}}));
    ASSERT_TRUE(catalog_.Register("depts", depts).ok());
  }
};

TEST_F(SqlJoinTest, EquiJoinProducesConcatenatedRows) {
  auto t = Run(
      "SELECT id, name, floor FROM emp JOIN depts ON dept = name ORDER BY id");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  // hr has no matching department: the inner join drops id 5.
  ASSERT_EQ(t->size(), 4u);
  EXPECT_EQ(t->at(0), Record({Value(1), Value("eng"), Value(3)}));
}

TEST_F(SqlJoinTest, JoinComposesWithWhereAndAggregation) {
  auto t = Run(
      "SELECT floor, SUM(salary) AS total FROM emp JOIN depts ON dept = name "
      "WHERE salary >= 90 GROUP BY floor ORDER BY floor");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_EQ(t->size(), 2u);
  EXPECT_EQ(t->at(0), Record({Value(1), Value(90.0)}));  // ops floor
  EXPECT_EQ(t->at(1), Record({Value(3), Value(220.0)}));
}

TEST_F(SqlJoinTest, JoinErrorsReported) {
  EXPECT_EQ(Rejection("SELECT * FROM emp JOIN ON x = y"),
            "1:24: expected a table name, got 'ON'");
  EXPECT_EQ(Rejection("SELECT * FROM emp JOIN depts"),
            "1:29: expected ON, got end of input");
  EXPECT_EQ(Rejection("SELECT * FROM emp JOIN depts ON dept = nope"),
            "1:40: unknown column 'nope'");
  EXPECT_EQ(Rejection("SELECT * FROM emp JOIN ghosts ON a = b"),
            "1:24: unknown table 'ghosts'");
}

TEST_F(SqlJoinTest, ExplainRendersJoin) {
  auto stmt = ctx_.Sql("select * from emp join depts on dept = name", catalog_);
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt->PlanText(),
            "#0 L:CollectionSource [table=emp]\n"
            "#1 L:CollectionSource [table=depts]\n"
            "#2 L:Join <- #0, #1 [join=(dept, name)]\n"
            "#3 L:Collect <- #2 (sink)\n");
}

// relsim has no Map, so it runs exactly the SQL shapes that compile without
// a projection: SELECT * under WHERE, ORDER BY ... LIMIT and equi-joins.
TEST_F(SqlJoinTest, RelsimAgreesWithJavasimOnRelationalShapes) {
  for (const std::string query : {
           "SELECT * FROM emp WHERE salary >= 90 AND dept <> 'hr'",
           "SELECT * FROM emp ORDER BY salary DESC LIMIT 3",
           "SELECT * FROM emp JOIN depts ON dept = name WHERE age < 40",
           "SELECT DISTINCT * FROM emp WHERE NOT dept = 'eng'",
       }) {
    auto java = Run(query, "javasim");
    ASSERT_TRUE(java.ok()) << query << ": " << java.status().ToString();
    auto rel = Run(query, "relsim");
    ASSERT_TRUE(rel.ok()) << query << ": " << rel.status().ToString();
    EXPECT_FALSE(java->empty()) << query;
    EXPECT_EQ(AsMultiset(*rel), AsMultiset(*java)) << query;
  }
  EXPECT_TRUE(Run("SELECT id FROM emp", "relsim").status().IsUnsupported());
}

// --- fuzzing: every input compiles or fails with a positioned error ---------
//
// Two seeded generators feed the frontend: grammar-aware mutations of valid
// queries (tokens deleted, duplicated, swapped, truncated or replaced from
// the dialect's token classes) and raw garbage bytes. An input must either
// compile, and then execute, or be rejected with InvalidArgument/NotFound
// whose message starts with a 1-based "line:col". A failure names the
// input's seed; RHEEM_FUZZ_SEED=<seed> replays exactly that input, and
// RHEEM_FUZZ_SEED_OFFSET shifts the base seed.

/// True when `message` starts with "<line>:<col>: ".
bool HasPosition(const std::string& message) {
  std::size_t i = 0;
  auto digits = [&] {
    const std::size_t start = i;
    while (i < message.size() && message[i] >= '0' && message[i] <= '9') ++i;
    return i > start;
  };
  return digits() && i < message.size() && message[i++] == ':' && digits() &&
         message.compare(i, 2, ": ") == 0;
}

class SqlFuzzTest : public SqlJoinTest {
 protected:
  /// Runs `generate` once per seed: `rounds` seeds drawn from `base`, or the
  /// single RHEEM_FUZZ_SEED replay seed. Returns how many inputs compiled.
  template <typename Generate>
  int Fuzz(uint64_t base, int rounds, Generate generate) {
    uint64_t replay = 0;
    const bool has_replay = testutil::EnvReplaySeed("RHEEM_FUZZ_SEED", &replay);
    Rng seeds(base + testutil::EnvU64("RHEEM_FUZZ_SEED_OFFSET"));
    int compiled = 0;
    for (int round = 0; round < (has_replay ? 1 : rounds); ++round) {
      const uint64_t seed = has_replay ? replay : seeds.NextU64();
      Rng tape(seed);
      compiled += Check(generate(&tape), seed) ? 1 : 0;
      if (HasFailure()) break;
    }
    return compiled;
  }

  /// True when `query` compiled.
  bool Check(const std::string& query, uint64_t seed) {
    auto stmt = ctx_.Sql(query, catalog_);
    if (stmt.ok()) {
      auto rows = stmt->Collect();
      EXPECT_TRUE(rows.ok())
          << "compiled but failed to run; replay with RHEEM_FUZZ_SEED=" << seed
          << "\n  query: " << query << "\n  " << rows.status().ToString();
      return true;
    }
    const Status& st = stmt.status();
    EXPECT_TRUE(st.IsInvalidArgument() || st.IsNotFound())
        << "replay with RHEEM_FUZZ_SEED=" << seed << "\n  query: " << query
        << "\n  " << st.ToString();
    EXPECT_TRUE(HasPosition(st.message()))
        << "unpositioned error; replay with RHEEM_FUZZ_SEED=" << seed
        << "\n  query: " << query << "\n  " << st.ToString();
    return false;
  }
};

TEST_F(SqlFuzzTest, GrammarAwareMutationsCompileOrFailWithPosition) {
  const std::vector<std::string> corpus = {
      "SELECT * FROM emp",
      "SELECT DISTINCT dept FROM emp WHERE NOT (age > 30 OR id = 2)",
      "SELECT id, salary * 1.1 AS raised FROM emp WHERE dept <> 'hr'",
      "SELECT e.id, d.floor FROM emp AS e JOIN depts AS d ON e.dept = d.name",
      "SELECT e.id FROM emp AS e JOIN depts AS d ON e.age < d.floor",
      "SELECT dept, COUNT(*) AS n, AVG(age) AS a FROM emp GROUP BY dept "
      "ORDER BY n DESC LIMIT 2",
      "SELECT MIN(salary) AS lo, MAX(salary) AS hi FROM emp",
      "SELECT x.id FROM (SELECT id, age FROM emp WHERE age >= 30) AS x "
      "ORDER BY x.id ASC LIMIT 3",
      "SELECT $0 + -$3 % 7, \"q\" FROM emp -- comment\nWHERE $1 = 'O''Brien'",
  };
  // Token classes: a replacement drawn from the replaced token's own class
  // usually keeps the query valid, so mutants reach the optimizer and the
  // executor, not only the parser.
  const std::vector<std::vector<std::string>> classes = {
      {"id", "dept", "salary", "age", "name", "floor", "$0", "$3", "$99",
       "bogus", "e.id", "d.floor"},
      {"0", "1", "-1", "2.5", "1e308", "9223372036854775807",
       "99999999999999999999"},
      {"'x'", "''", "'O''Brien'", "\"q\\\"\""},
      {"=", "<>", "!=", "<", "<=", ">", ">="},
      {"+", "-", "*", "/", "%"},
      {"AND", "OR"},
      {"COUNT", "SUM", "AVG", "MIN", "MAX"},
      {"ASC", "DESC"},
      {"emp", "depts", "e", "d", "x"},
      {"SELECT", "DISTINCT", "FROM", "JOIN", "ON", "WHERE", "GROUP", "BY",
       "ORDER", "LIMIT", "AS", "NOT", "NULL", "(", ")", ",", ".", "*", "--",
       "\n", "'", "\"", "#", ";"},
  };
  std::vector<std::vector<std::string>> tokenized;
  for (const std::string& query : corpus) {
    auto tokens = sql::Tokenize(query);
    ASSERT_TRUE(tokens.ok()) << tokens.status().ToString();
    std::vector<std::string> pieces;
    for (const sql::Token& t : *tokens) {
      if (t.kind == sql::TokenKind::kEnd) break;
      pieces.push_back(query.substr(t.offset, t.end_offset - t.offset));
    }
    tokenized.push_back(std::move(pieces));
  }
  const int rounds = 3000;
  const int compiled = Fuzz(20261019, rounds, [&](Rng* tape) {
    std::vector<std::string> pieces =
        tokenized[tape->NextBounded(tokenized.size())];
    auto pick = [&](const std::vector<std::string>& from) {
      return from[tape->NextBounded(from.size())];
    };
    auto any_token = [&] {
      return pick(classes[tape->NextBounded(classes.size())]);
    };
    auto like = [&](const std::string& piece) {
      for (const auto& tokens : classes) {
        if (std::find(tokens.begin(), tokens.end(), piece) != tokens.end()) {
          return pick(tokens);
        }
      }
      return any_token();
    };
    const int mutations = 1 + static_cast<int>(tape->NextBounded(2));
    for (int m = 0; m < mutations && !pieces.empty(); ++m) {
      const std::size_t at = tape->NextBounded(pieces.size());
      switch (tape->NextBounded(10)) {
        case 0: pieces.erase(pieces.begin() + at); break;
        case 1: pieces.insert(pieces.begin() + at, pieces[at]); break;
        case 2:
          std::swap(pieces[at], pieces[tape->NextBounded(pieces.size())]);
          break;
        case 3: pieces[at] = any_token(); break;
        case 4: pieces.insert(pieces.begin() + at, any_token()); break;
        case 5: pieces.resize(at); break;
        default: pieces[at] = like(pieces[at]); break;
      }
    }
    std::string query;
    for (const std::string& piece : pieces) query += piece + " ";
    return query;
  });
  // A generator that stopped producing valid queries would test only the
  // parser's error paths.
  uint64_t replay = 0;
  if (!testutil::EnvReplaySeed("RHEEM_FUZZ_SEED", &replay)) {
    EXPECT_GE(compiled, rounds / 20);
  }
}

TEST_F(SqlFuzzTest, RawGarbageCompilesOrFailsWithPosition) {
  const std::string sqlish =
      "SELECT*FROM emp WHERE()'\",.;$-+=<>!0123456789\n\t";
  Fuzz(20261020, 3000, [&](Rng* tape) {
    std::string query = tape->NextBool(0.3) ? "SELECT " : "";
    const bool bytes = tape->NextBool();
    const int length = static_cast<int>(tape->NextBounded(64));
    for (int i = 0; i < length; ++i) {
      query += bytes ? static_cast<char>(tape->NextBounded(256))
                     : sqlish[tape->NextBounded(sqlish.size())];
    }
    return query;
  });
}

}  // namespace
}  // namespace rheem
