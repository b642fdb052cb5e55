// Golden suite for the core SQL frontend: accepted queries snapshot their
// compiled logical plans (the dialect's EXPLAIN), rejected queries assert
// exact error text with 1-based line:col token positions, and expr::Pretty
// output is proven to re-parse through the expression grammar to a tree with
// an identical canonical encoding. The randomized SQL-vs-plan differential
// lives in fuzz_plans_test.cc; this file is the directed complement.

#include "core/sql/sql.h"

#include <atomic>
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

}  // namespace
}  // namespace rheem
