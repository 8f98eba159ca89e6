// Tests for Froid inlining and decorrelation — the "Aggify+" pipeline:
// cursor loop -> custom aggregate (Aggify) -> inlined correlated subquery
// (Froid) -> GROUP BY + LEFT JOIN (decorrelation).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>

#include "aggify/rewriter.h"
#include "froid/froid.h"
#include "procedural/session.h"
#include "test_util.h"

namespace aggify {
namespace {

class FroidTest : public ::testing::Test {
 protected:
  void SetUp() override {
    session_ = std::make_unique<Session>(&db_);
    ASSERT_OK(session_->RunSql(R"(
      CREATE TABLE part (p_partkey INT, p_name CHAR(25));
      CREATE TABLE partsupp (ps_partkey INT, ps_suppkey INT,
                             ps_supplycost DECIMAL(15,2));
      CREATE TABLE supplier (s_suppkey INT, s_name CHAR(25));
      INSERT INTO part VALUES (1, 'p1'), (2, 'p2'), (3, 'p3'), (4, 'p4');
      INSERT INTO partsupp VALUES (1, 10, 50.0), (1, 11, 30.0), (1, 12, 70.0),
                                  (2, 10, 5.0), (2, 12, 8.0), (3, 11, 99.0);
      INSERT INTO supplier VALUES (10, 'supp_ten'), (11, 'supp_eleven'),
                                  (12, 'supp_twelve');
      CREATE FUNCTION mincostsupp(@pkey INT, @lb INT = -1) RETURNS CHAR(25) AS
      BEGIN
        DECLARE @pcost DECIMAL(15,2);
        DECLARE @scname CHAR(25);
        DECLARE @mincost DECIMAL(15,2) = 100000;
        DECLARE @suppname CHAR(25);
        IF (@lb = -1)
          SET @lb = 0;
        DECLARE c CURSOR FOR
          SELECT ps_supplycost, s_name FROM partsupp, supplier
          WHERE ps_partkey = @pkey AND ps_suppkey = s_suppkey;
        OPEN c;
        FETCH NEXT FROM c INTO @pcost, @scname;
        WHILE @@FETCH_STATUS = 0
        BEGIN
          IF (@pcost < @mincost AND @pcost >= @lb)
          BEGIN
            SET @mincost = @pcost;
            SET @suppname = @scname;
          END
          FETCH NEXT FROM c INTO @pcost, @scname;
        END
        CLOSE c;
        DEALLOCATE c;
        RETURN @suppname;
      END
    )"));
  }

  Database db_;
  std::unique_ptr<Session> session_;
};

TEST_F(FroidTest, CursorUdfIsNotInlinableUntilAggified) {
  Froid froid(&db_);
  ASSERT_OK_AND_ASSIGN(auto def, db_.catalog().GetFunction("mincostsupp"));
  auto tmpl = froid.BuildInlineTemplate(*def);
  ASSERT_FALSE(tmpl.ok());
  EXPECT_TRUE(tmpl.status().IsNotApplicable());

  Aggify aggify(&db_);
  ASSERT_OK(aggify.RewriteFunction("mincostsupp").status());
  ASSERT_OK_AND_ASSIGN(auto def2, db_.catalog().GetFunction("mincostsupp"));
  ASSERT_OK(froid.BuildInlineTemplate(*def2).status());
}

TEST_F(FroidTest, InlinedQueryMatchesUdfResults) {
  // Reference: per-row UDF invocation on the original cursor program.
  ASSERT_OK_AND_ASSIGN(
      QueryResult reference,
      session_->Query("SELECT p_partkey, mincostsupp(p_partkey) AS s "
                      "FROM part ORDER BY p_partkey"));

  Aggify aggify(&db_);
  ASSERT_OK(aggify.RewriteFunction("mincostsupp").status());

  ASSERT_OK_AND_ASSIGN(auto stmt,
                       ParseSelect("SELECT p_partkey, mincostsupp(p_partkey) "
                                   "AS s FROM part ORDER BY p_partkey"));
  Froid froid(&db_);
  ASSERT_OK_AND_ASSIGN(int rewrites, froid.RewriteQuery(stmt.get()));
  EXPECT_GE(rewrites, 2);  // one inline + one decorrelation

  // The rewritten statement no longer calls the UDF.
  std::string text = stmt->ToString();
  EXPECT_EQ(text.find("mincostsupp("), std::string::npos) << text;
  EXPECT_NE(text.find("LEFT JOIN"), std::string::npos) << text;

  ExecContext ctx = session_->MakeContext();
  VariableEnv env;
  ctx.set_vars(&env);
  ASSERT_OK_AND_ASSIGN(QueryResult rewritten,
                       session_->engine().Execute(*stmt, ctx));
  ASSERT_EQ(rewritten.rows.size(), reference.rows.size());
  for (size_t i = 0; i < reference.rows.size(); ++i) {
    EXPECT_TRUE(RowsEqual(rewritten.rows[i], reference.rows[i]))
        << "row " << i << ": " << RowToString(rewritten.rows[i]) << " vs "
        << RowToString(reference.rows[i]);
  }
}

TEST_F(FroidTest, DecorrelationExecutesOneQueryNotPerRow) {
  Aggify aggify(&db_);
  ASSERT_OK(aggify.RewriteFunction("mincostsupp").status());
  Froid froid(&db_);

  ASSERT_OK_AND_ASSIGN(auto stmt,
                       ParseSelect("SELECT p_partkey, mincostsupp(p_partkey) "
                                   "AS s FROM part"));
  ASSERT_OK(froid.RewriteQuery(stmt.get()).status());

  db_.stats().Reset();
  ExecContext ctx = session_->MakeContext();
  VariableEnv env;
  ctx.set_vars(&env);
  ASSERT_OK(session_->engine().Execute(*stmt, ctx).status());
  // Set-oriented plan: a small constant number of nested query executions
  // (outer + derived tables), not one per part.
  EXPECT_LE(db_.stats().queries_executed, 4);
}

TEST_F(FroidTest, PlainBuiltinAggregateSubqueryDecorrelates) {
  ASSERT_OK_AND_ASSIGN(
      QueryResult reference,
      session_->Query("SELECT p_partkey, (SELECT MIN(ps_supplycost) "
                      "FROM partsupp WHERE ps_partkey = p_partkey) AS m "
                      "FROM part ORDER BY p_partkey"));
  ASSERT_OK_AND_ASSIGN(
      auto stmt,
      ParseSelect("SELECT p_partkey, (SELECT MIN(ps_supplycost) "
                  "FROM partsupp WHERE ps_partkey = p_partkey) AS m "
                  "FROM part ORDER BY p_partkey"));
  Froid froid(&db_);
  ASSERT_OK_AND_ASSIGN(int n, froid.DecorrelateScalarSubqueries(stmt.get()));
  EXPECT_EQ(n, 1);

  ExecContext ctx = session_->MakeContext();
  VariableEnv env;
  ctx.set_vars(&env);
  ASSERT_OK_AND_ASSIGN(QueryResult rewritten,
                       session_->engine().Execute(*stmt, ctx));
  ASSERT_EQ(rewritten.rows.size(), reference.rows.size());
  for (size_t i = 0; i < reference.rows.size(); ++i) {
    EXPECT_TRUE(RowsEqual(rewritten.rows[i], reference.rows[i]))
        << RowToString(rewritten.rows[i]) << " vs "
        << RowToString(reference.rows[i]);
  }
}

TEST_F(FroidTest, CountSubqueryDecorrelatesCountBugSafe) {
  // COUNT over an empty group is 0, not the NULL a bare LEFT JOIN pads with
  // (the COUNT bug): part 4 has no partsupp rows. Each variant must
  // decorrelate and match the correlated query row for row.
  struct Variant {
    std::string item;
    std::string empty;  ///< part 4's value
  };
  const std::vector<Variant> variants = {
      {"COUNT(ps_suppkey)", "0"},
      {"COUNT(*)", "0"},
      {"COUNT(ps_suppkey) + 1", "1"},
      // The native-fold lowering of a SUM loop.
      {"CASE WHEN COUNT(ps_supplycost) < COUNT(*) THEN NULL "
       "ELSE 0.0 + SUM(ps_supplycost) END",
       "NULL"},
  };
  for (const auto& [item, empty] : variants) {
    SCOPED_TRACE(item);
    const std::string sql = "SELECT p_partkey, (SELECT " + item +
                            " FROM partsupp WHERE ps_partkey = p_partkey) "
                            "AS c FROM part ORDER BY p_partkey";
    ASSERT_OK_AND_ASSIGN(QueryResult reference, session_->Query(sql));
    ASSERT_OK_AND_ASSIGN(auto stmt, ParseSelect(sql));
    Froid froid(&db_);
    ASSERT_OK_AND_ASSIGN(int n, froid.DecorrelateScalarSubqueries(stmt.get()));
    EXPECT_EQ(n, 1);
    EXPECT_NE(stmt->ToString().find("LEFT JOIN"), std::string::npos);

    ExecContext ctx = session_->MakeContext();
    VariableEnv env;
    ctx.set_vars(&env);
    ASSERT_OK_AND_ASSIGN(QueryResult rewritten,
                         session_->engine().Execute(*stmt, ctx));
    ASSERT_EQ(rewritten.rows.size(), reference.rows.size());
    for (size_t i = 0; i < reference.rows.size(); ++i) {
      EXPECT_TRUE(RowsEqual(rewritten.rows[i], reference.rows[i]))
          << RowToString(rewritten.rows[i]) << " vs "
          << RowToString(reference.rows[i]);
    }
    ASSERT_EQ(reference.rows.size(), 4u);
    EXPECT_EQ(rewritten.rows[3][1].ToString(), empty);
  }
}

TEST_F(FroidTest, StraightLineUdfInlinesIntoExpression) {
  ASSERT_OK(session_->RunSql(R"(
    CREATE FUNCTION clamp(@x INT, @lo INT, @hi INT) RETURNS INT AS
    BEGIN
      DECLARE @r INT = @x;
      IF (@x < @lo)
        SET @r = @lo;
      IF (@x > @hi)
        SET @r = @hi;
      RETURN @r;
    END
  )"));
  ASSERT_OK_AND_ASSIGN(auto def, db_.catalog().GetFunction("clamp"));
  Froid froid(&db_);
  ASSERT_OK_AND_ASSIGN(ExprPtr tmpl, froid.BuildInlineTemplate(*def));
  // CASE WHEN structure with all three parameters present.
  std::string text = tmpl->ToString();
  EXPECT_NE(text.find("CASE"), std::string::npos) << text;

  ASSERT_OK_AND_ASSIGN(
      auto stmt, ParseSelect("SELECT clamp(p_partkey, 2, 3) AS c FROM part"));
  ASSERT_OK_AND_ASSIGN(int n, froid.InlineUdfCalls(stmt.get()));
  EXPECT_EQ(n, 1);
  ExecContext ctx = session_->MakeContext();
  VariableEnv env;
  ctx.set_vars(&env);
  ASSERT_OK_AND_ASSIGN(QueryResult r, session_->engine().Execute(*stmt, ctx));
  std::vector<int64_t> got;
  for (const auto& row : r.rows) got.push_back(row[0].int_value());
  EXPECT_EQ(got, (std::vector<int64_t>{2, 2, 3, 3}));
}

// Seeded differential sweep: on small random tables with empty groups, NULL
// outer and inner keys and duplicate keys, the decorrelated query must return
// the correlated query's rows as a multiset, value for value.
TEST(FroidDecorrelationProperty, MatchesCorrelatedQueryOnSeededTables) {
  // {x} is the aggregated column; ok is an outer reference.
  const std::vector<std::string> aggregates = {
      "COUNT({x})", "COUNT(*)", "SUM({x})", "MIN({x})", "MAX({x})",
      "AVG({x})",   "COUNT({x}) + {k}",
      "CASE WHEN COUNT({x}) < COUNT(*) THEN NULL ELSE 0 + SUM({x}) END",
      "COUNT(*) + ok",
  };
  int empty_groups = 0, null_outer_keys = 0, null_inner_keys = 0,
      duplicate_keys = 0, derived_shapes = 0, two_key_queries = 0;
  for (uint32_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937 rng(seed);
    auto pick = [&](int lo, int hi) {
      return std::uniform_int_distribution<int>(lo, hi)(rng);
    };
    auto value = [&](int lo, int hi, int null_pct) -> std::string {
      return pick(0, 99) < null_pct ? "NULL" : std::to_string(pick(lo, hi));
    };

    Database db;
    Session session(&db);
    ASSERT_OK(session.RunSql("CREATE TABLE ot (ok INT, ov INT); "
                             "CREATE TABLE it (ik INT, iy INT, x INT);"));
    std::string outer_rows, inner_rows;
    std::vector<std::string> outer_keys;
    std::map<std::string, int> inner_keys;
    for (int r = pick(1, 8); r > 0; --r) {
      outer_keys.push_back(value(0, 5, 15));
      outer_rows += (outer_rows.empty() ? "(" : ", (") + outer_keys.back() +
                    ", " + value(0, 2, 15) + ")";
    }
    for (int r = pick(0, 12); r > 0; --r) {
      std::string ik = value(0, 5, 15);
      ++inner_keys[ik];
      inner_rows += (inner_rows.empty() ? "(" : ", (") + ik + ", " +
                    value(0, 2, 15) + ", " + value(-5, 5, 20) + ")";
    }
    ASSERT_OK(session.RunSql("INSERT INTO ot VALUES " + outer_rows + ";"));
    if (!inner_rows.empty()) {
      ASSERT_OK(session.RunSql("INSERT INTO it VALUES " + inner_rows + ";"));
    }
    for (const auto& k : outer_keys) {
      if (k == "NULL") {
        ++null_outer_keys;
      } else if (inner_keys.count(k) == 0) {
        ++empty_groups;
      }
    }
    null_inner_keys += inner_keys.count("NULL") != 0 ? 1 : 0;
    for (const auto& [k, n] : inner_keys) duplicate_keys += n > 1 ? 1 : 0;

    std::string agg = aggregates[pick(0, aggregates.size() - 1)];
    const bool derived = pick(0, 1) == 1;
    std::string where = "ik = ok";
    if (pick(0, 2) == 0) {
      where += " AND iy = ov";
      ++two_key_queries;
    }
    if (pick(0, 2) == 0) where += " AND x > " + std::to_string(pick(-5, 5));
    auto fill = [](std::string text, const std::string& from,
                   const std::string& to) {
      for (size_t at; (at = text.find(from)) != std::string::npos;) {
        text.replace(at, from.size(), to);
      }
      return text;
    };
    agg = fill(fill(agg, "{k}", std::to_string(pick(1, 3))), "{x}",
               derived ? "q.c0" : "x");
    std::string sub = derived ? "SELECT " + agg + " FROM (SELECT x AS c0 " +
                                    "FROM it WHERE " + where + ") q"
                              : "SELECT " + agg + " FROM it WHERE " + where;
    derived_shapes += derived ? 1 : 0;
    const std::string sql = "SELECT ok, ov, (" + sub + ") AS a FROM ot";
    SCOPED_TRACE(sql);

    ASSERT_OK_AND_ASSIGN(QueryResult reference, session.Query(sql));
    ASSERT_OK_AND_ASSIGN(auto stmt, ParseSelect(sql));
    Froid froid(&db);
    ASSERT_OK_AND_ASSIGN(int n, froid.DecorrelateScalarSubqueries(stmt.get()));
    ASSERT_EQ(n, 1) << stmt->ToString();
    ExecContext ctx = session.MakeContext();
    VariableEnv env;
    ctx.set_vars(&env);
    ASSERT_OK_AND_ASSIGN(QueryResult rewritten,
                         session.engine().Execute(*stmt, ctx));

    auto sorted = [](std::vector<Row> rows) {
      std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
        return RowToString(a) < RowToString(b);
      });
      return rows;
    };
    std::vector<Row> want = sorted(reference.rows);
    std::vector<Row> got = sorted(rewritten.rows);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_TRUE(RowsEqual(got[i], want[i]) &&
                  RowToString(got[i]) == RowToString(want[i]))
          << RowToString(got[i]) << " vs " << RowToString(want[i]) << "\n"
          << stmt->ToString();
    }
  }
  // The sweep must actually exercise the COUNT-bug inputs.
  EXPECT_GT(empty_groups, 20);
  EXPECT_GT(null_outer_keys, 20);
  EXPECT_GT(null_inner_keys, 20);
  EXPECT_GT(duplicate_keys, 20);
  EXPECT_GT(derived_shapes, 50);
  EXPECT_GT(two_key_queries, 20);
}

}  // namespace
}  // namespace aggify
