// Froid-style scalar UDF inlining (§8.2 / §9, after Ramachandra et al.,
// "Froid: Optimization of Imperative Programs in a Relational Database").
//
// Froid cannot inline UDFs containing loops; Aggify removes the loops first,
// and Froid then turns the straight-line body into a single relational
// expression — the "Aggify+" configuration of the evaluation.
//
// Supported body shape (which is exactly what Aggify-rewritten UDFs are):
//   DECLARE @x t [= e]; SET @x = e; IF c <assignments> [ELSE <assignments>];
//   SET @x = (scalar subquery);  (Aggify's single-target rewrite)
//   RETURN e;                    (as the final statement)
// Anything else (cursors, DML, WHILE, multi-target assigns, early RETURN)
// makes the UDF non-inlinable and Froid reports NotApplicable.
//
// The inliner symbolically executes the body, mapping each variable to the
// expression that computes it (CASE WHEN for conditional assignment), then
// substitutes call arguments for parameters at each call site. A follow-up
// decorrelation pass converts the resulting correlated scalar subqueries
// into GROUP BY + LEFT JOIN form — the optimization that turns per-row
// re-execution into one set-oriented plan.
#pragma once

#include "parser/statement.h"
#include "storage/catalog.h"

namespace aggify {

class Froid {
 public:
  explicit Froid(Database* db) : db_(db) {}

  /// \brief Builds the inline template of a UDF: an expression over the
  /// function's parameters (left as VarRefs) that computes its RETURN value.
  /// Errors: NotApplicable if the body shape is unsupported.
  Result<ExprPtr> BuildInlineTemplate(const FunctionDef& def);

  /// \brief Inlines every call to inlinable catalog UDFs inside `stmt`
  /// (select items, WHERE, and nested expressions), substituting argument
  /// expressions for parameters. Non-inlinable UDFs are left as calls, and
  /// so is a call whose argument columns a FROM scope inside the template
  /// would capture. Returns the number of calls inlined.
  Result<int> InlineUdfCalls(SelectStmt* stmt);

  /// \brief Decorrelates scalar subqueries in the SELECT list of the form
  ///
  ///   SELECT ..., (SELECT agg(...) FROM (Qd) q) FROM T ...
  ///
  /// where Qd contains an equi-conjunct `inner_col = <outer expr>` whose
  /// outer side references T (or the plain form `SELECT agg(...) FROM R
  /// WHERE inner_col = <outer expr> ...`). Rewrites to
  ///
  ///   SELECT ..., CASE WHEN d.ck IS NULL THEN <empty value>
  ///                    ELSE d.aggval END FROM T ... LEFT JOIN
  ///     (SELECT inner_col AS ck, agg(...) AS aggval FROM (Qd') q
  ///      GROUP BY inner_col) d ON <outer expr> = d.ck
  ///
  /// The empty value is the aggregate expression on no rows (COUNT -> 0,
  /// every other aggregate -> NULL), so an outer row without inner rows
  /// gets what the correlated subquery gives it, not the LEFT JOIN's NULL
  /// (the COUNT bug). When the empty value is NULL the projection is the
  /// bare d.aggval. Returns the number of subqueries decorrelated.
  Result<int> DecorrelateScalarSubqueries(SelectStmt* stmt);

  /// \brief The full Aggify+ query step: inline + decorrelate, guarded.
  /// The rewrite runs on a clone, which replaces `stmt` only if no scalar
  /// subquery in its select list, WHERE, HAVING or ORDER BY still
  /// references its FROM scope (a subquery that would run per outer row).
  /// Otherwise `stmt` is left as parsed and the result is 0, so the Aggify
  /// plan with its UDF calls runs. The check is structural; nothing is
  /// planned or executed.
  Result<int> RewriteQuery(SelectStmt* stmt);

 private:
  Database* db_;
};

/// \brief Clones `e`, replacing every VarRef whose name appears in `subst`
/// with a clone of the mapped expression. Descends into subqueries.
ExprPtr SubstituteVars(const Expr& e,
                       const std::map<std::string, const Expr*>& subst);

/// \brief Same substitution applied to every expression of a SELECT.
std::unique_ptr<SelectStmt> SubstituteVarsInSelect(
    const SelectStmt& stmt, const std::map<std::string, const Expr*>& subst);

}  // namespace aggify
