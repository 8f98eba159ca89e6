// Froid symbolic-execution and inlining edge cases.
#include <gtest/gtest.h>

#include "aggify/rewriter.h"
#include "froid/froid.h"
#include "procedural/session.h"
#include "test_util.h"

namespace aggify {
namespace {

class FroidEdgeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    session_ = std::make_unique<Session>(&db_);
    ASSERT_OK(session_->RunSql(
        "CREATE TABLE t (a INT, b INT); "
        "INSERT INTO t VALUES (1, 10), (2, 20), (3, 30), (4, 40);"));
  }

  Result<ExprPtr> TemplateOf(const std::string& create_sql,
                             const std::string& name) {
    RETURN_NOT_OK(session_->RunSql(create_sql).status());
    ASSIGN_OR_RETURN(auto def, db_.catalog().GetFunction(name));
    Froid froid(&db_);
    return froid.BuildInlineTemplate(*def);
  }

  Database db_;
  std::unique_ptr<Session> session_;
};

TEST_F(FroidEdgeTest, IfWithoutElseMergesWithEntryValue) {
  ASSERT_OK_AND_ASSIGN(ExprPtr tmpl, TemplateOf(R"(
    CREATE FUNCTION f1(@x INT) RETURNS INT AS
    BEGIN
      DECLARE @r INT = 0;
      IF (@x > 10)
        SET @r = 1;
      RETURN @r;
    END)", "f1"));
  // CASE WHEN @x > 10 THEN 1 ELSE 0 END
  std::string text = tmpl->ToString();
  EXPECT_NE(text.find("CASE WHEN"), std::string::npos) << text;
  EXPECT_NE(text.find("ELSE 0"), std::string::npos) << text;
}

TEST_F(FroidEdgeTest, NestedIfsBecomeNestedCases) {
  ASSERT_OK_AND_ASSIGN(ExprPtr tmpl, TemplateOf(R"(
    CREATE FUNCTION f2(@x INT) RETURNS INT AS
    BEGIN
      DECLARE @r INT = 0;
      IF (@x > 0)
      BEGIN
        IF (@x > 100)
          SET @r = 2;
        ELSE
          SET @r = 1;
      END
      RETURN @r;
    END)", "f2"));
  std::string text = tmpl->ToString();
  // Two CASE levels.
  size_t first = text.find("CASE WHEN");
  ASSERT_NE(first, std::string::npos) << text;
  EXPECT_NE(text.find("CASE WHEN", first + 1), std::string::npos) << text;
}

TEST_F(FroidEdgeTest, UnchangedVariablesDontGrowCases) {
  ASSERT_OK_AND_ASSIGN(ExprPtr tmpl, TemplateOf(R"(
    CREATE FUNCTION f3(@x INT) RETURNS INT AS
    BEGIN
      DECLARE @keep INT = 7;
      DECLARE @r INT = 0;
      IF (@x > 0)
        SET @r = @keep;
      RETURN @keep + @r;
    END)", "f3"));
  std::string text = tmpl->ToString();
  // @keep is branch-invariant: it must appear as the literal 7, not a CASE.
  EXPECT_NE(text.find("(7 + "), std::string::npos) << text;
}

TEST_F(FroidEdgeTest, WhileLoopIsNotInlinable) {
  auto tmpl = TemplateOf(R"(
    CREATE FUNCTION f4(@x INT) RETURNS INT AS
    BEGIN
      DECLARE @r INT = 0;
      WHILE @r < @x
        SET @r = @r + 1;
      RETURN @r;
    END)", "f4");
  ASSERT_FALSE(tmpl.ok());
  EXPECT_TRUE(tmpl.status().IsNotApplicable());
}

TEST_F(FroidEdgeTest, MissingReturnIsNotInlinable) {
  auto tmpl = TemplateOf(R"(
    CREATE PROCEDURE p1(@x INT) AS
    BEGIN
      DECLARE @r INT = @x;
    END)", "p1");
  ASSERT_FALSE(tmpl.ok());
}

TEST_F(FroidEdgeTest, InlineInWhereClause) {
  ASSERT_OK(session_->RunSql(R"(
    CREATE FUNCTION is_big(@v INT) RETURNS INT AS
    BEGIN
      DECLARE @r INT = 0;
      IF (@v >= 30)
        SET @r = 1;
      RETURN @r;
    END)"));
  ASSERT_OK_AND_ASSIGN(auto stmt,
                       ParseSelect("SELECT a FROM t WHERE is_big(b) = 1 "
                                   "ORDER BY a"));
  Froid froid(&db_);
  ASSERT_OK_AND_ASSIGN(int n, froid.InlineUdfCalls(stmt.get()));
  EXPECT_EQ(n, 1);
  EXPECT_EQ(stmt->ToString().find("is_big"), std::string::npos);
  ExecContext ctx = session_->MakeContext();
  VariableEnv env;
  ctx.set_vars(&env);
  ASSERT_OK_AND_ASSIGN(QueryResult r, session_->engine().Execute(*stmt, ctx));
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].int_value(), 3);
}

TEST_F(FroidEdgeTest, InlinedUdfCallingInlinableUdf) {
  ASSERT_OK(session_->RunSql(R"(
    CREATE FUNCTION base(@v INT) RETURNS INT AS
    BEGIN
      RETURN @v * 2;
    END
    CREATE FUNCTION outer_f(@v INT) RETURNS INT AS
    BEGIN
      RETURN base(@v) + 1;
    END)"));
  ASSERT_OK_AND_ASSIGN(auto stmt,
                       ParseSelect("SELECT outer_f(a) AS x FROM t WHERE a = 2"));
  Froid froid(&db_);
  ASSERT_OK_AND_ASSIGN(int n, froid.InlineUdfCalls(stmt.get()));
  EXPECT_GE(n, 2);  // outer_f, then the exposed base call
  std::string text = stmt->ToString();
  EXPECT_EQ(text.find("outer_f"), std::string::npos) << text;
  EXPECT_EQ(text.find("base("), std::string::npos) << text;
  ExecContext ctx = session_->MakeContext();
  VariableEnv env;
  ctx.set_vars(&env);
  ASSERT_OK_AND_ASSIGN(QueryResult r, session_->engine().Execute(*stmt, ctx));
  EXPECT_EQ(r.rows[0][0].int_value(), 5);
}

TEST_F(FroidEdgeTest, DefaultArgumentsInlinedAtCallSite) {
  ASSERT_OK(session_->RunSql(R"(
    CREATE FUNCTION scaled(@v INT, @k INT = 100) RETURNS INT AS
    BEGIN
      RETURN @v * @k;
    END)"));
  ASSERT_OK_AND_ASSIGN(auto stmt,
                       ParseSelect("SELECT scaled(a) AS x FROM t WHERE a = 3"));
  Froid froid(&db_);
  ASSERT_OK_AND_ASSIGN(int n, froid.InlineUdfCalls(stmt.get()));
  EXPECT_EQ(n, 1);
  ExecContext ctx = session_->MakeContext();
  VariableEnv env;
  ctx.set_vars(&env);
  ASSERT_OK_AND_ASSIGN(QueryResult r, session_->engine().Execute(*stmt, ctx));
  EXPECT_EQ(r.rows[0][0].int_value(), 300);
}

TEST_F(FroidEdgeTest, SubstitutionIsCaptureSafe) {
  // The argument expression mentions a column whose name also appears
  // inside the template; substitution must not confuse them.
  ASSERT_OK(session_->RunSql(R"(
    CREATE FUNCTION addone(@a INT) RETURNS INT AS
    BEGIN
      RETURN @a + 1;
    END)"));
  ASSERT_OK_AND_ASSIGN(auto stmt,
                       ParseSelect("SELECT addone(a + b) AS x FROM t "
                                   "WHERE a = 1"));
  Froid froid(&db_);
  ASSERT_OK(froid.InlineUdfCalls(stmt.get()).status());
  ExecContext ctx = session_->MakeContext();
  VariableEnv env;
  ctx.set_vars(&env);
  ASSERT_OK_AND_ASSIGN(QueryResult r, session_->engine().Execute(*stmt, ctx));
  EXPECT_EQ(r.rows[0][0].int_value(), 12);
}

TEST_F(FroidEdgeTest, GuardKeepsDriverWhenSubqueryStaysCorrelated) {
  // The cursor query's only correlation is non-equi (k < @a), so the inlined
  // subquery cannot be decorrelated and would run once per row of t. The
  // guarded rewrite must leave the driver as parsed: the Aggify plan runs.
  ASSERT_OK(session_->RunSql(R"(
    CREATE TABLE u (k INT, w INT);
    INSERT INTO u VALUES (1, 5), (2, 7), (2, 11), (5, 13);
    CREATE FUNCTION below_sum(@a INT) RETURNS INT AS
    BEGIN
      DECLARE @v INT;
      DECLARE @s INT = 0;
      DECLARE c CURSOR FOR SELECT w FROM u WHERE k < @a;
      OPEN c;
      FETCH NEXT FROM c INTO @v;
      WHILE @@FETCH_STATUS = 0
      BEGIN
        SET @s = @s + @v;
        FETCH NEXT FROM c INTO @v;
      END
      CLOSE c;
      DEALLOCATE c;
      RETURN @s;
    END)"));
  const std::string sql = "SELECT a, below_sum(a) AS s FROM t ORDER BY a";
  Aggify aggify(&db_);
  ASSERT_OK(aggify.RewriteFunction("below_sum").status());
  ASSERT_OK_AND_ASSIGN(QueryResult aggified, session_->Query(sql));

  ASSERT_OK_AND_ASSIGN(auto stmt, ParseSelect(sql));
  const std::string parsed = stmt->ToString();
  Froid froid(&db_);
  // Inlining alone leaves the correlated scalar subquery...
  auto inlined = stmt->Clone();
  ASSERT_OK_AND_ASSIGN(int n_inlined, froid.InlineUdfCalls(inlined.get()));
  EXPECT_EQ(n_inlined, 1);
  EXPECT_NE(inlined->ToString().find("(k < a)"), std::string::npos)
      << inlined->ToString();
  // ...so the guarded rewrite commits nothing.
  ASSERT_OK_AND_ASSIGN(int n, froid.RewriteQuery(stmt.get()));
  EXPECT_EQ(n, 0);
  EXPECT_EQ(stmt->ToString(), parsed);

  ExecContext ctx = session_->MakeContext();
  VariableEnv env;
  ctx.set_vars(&env);
  ASSERT_OK_AND_ASSIGN(QueryResult r, session_->engine().Execute(*stmt, ctx));
  ASSERT_EQ(r.rows.size(), aggified.rows.size());
  for (size_t i = 0; i < r.rows.size(); ++i) {
    EXPECT_TRUE(RowsEqual(r.rows[i], aggified.rows[i]))
        << RowToString(r.rows[i]) << " vs " << RowToString(aggified.rows[i]);
  }
  EXPECT_EQ(r.rows[2][1].int_value(), 23);  // a = 3: 5 + 7 + 11
}

TEST_F(FroidEdgeTest, ArgumentColumnCapturedByTemplateScopeIsNotInlined) {
  // The UDF's query reads the caller's table: substituting the argument
  // column `a` into `WHERE a < @k` would give `a < a`, bound to the inner
  // scan. The call must stay a call.
  ASSERT_OK(session_->RunSql(R"(
    CREATE FUNCTION prior_sum(@k INT) RETURNS INT AS
    BEGIN
      DECLARE @v INT;
      DECLARE @s INT = 0;
      DECLARE c CURSOR FOR SELECT b FROM t WHERE a < @k;
      OPEN c;
      FETCH NEXT FROM c INTO @v;
      WHILE @@FETCH_STATUS = 0
      BEGIN
        SET @s = @s + @v;
        FETCH NEXT FROM c INTO @v;
      END
      CLOSE c;
      DEALLOCATE c;
      RETURN @s;
    END)"));
  const std::string sql = "SELECT a, prior_sum(a) AS s FROM t ORDER BY a";
  ASSERT_OK_AND_ASSIGN(QueryResult original, session_->Query(sql));
  Aggify aggify(&db_);
  ASSERT_OK(aggify.RewriteFunction("prior_sum").status());

  ASSERT_OK_AND_ASSIGN(auto stmt, ParseSelect(sql));
  const std::string parsed = stmt->ToString();
  Froid froid(&db_);
  ASSERT_OK_AND_ASSIGN(int n, froid.RewriteQuery(stmt.get()));
  EXPECT_EQ(n, 0);
  EXPECT_EQ(stmt->ToString(), parsed);

  ExecContext ctx = session_->MakeContext();
  VariableEnv env;
  ctx.set_vars(&env);
  ASSERT_OK_AND_ASSIGN(QueryResult r, session_->engine().Execute(*stmt, ctx));
  ASSERT_EQ(r.rows.size(), original.rows.size());
  for (size_t i = 0; i < r.rows.size(); ++i) {
    EXPECT_TRUE(RowsEqual(r.rows[i], original.rows[i]))
        << RowToString(r.rows[i]) << " vs " << RowToString(original.rows[i]);
  }
  EXPECT_EQ(r.rows[3][1].int_value(), 60);  // a = 4: 10 + 20 + 30
}

}  // namespace
}  // namespace aggify
