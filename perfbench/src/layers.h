// Calls into each layer's public functions, each wrapped in a span of that
// layer. Workloads call the layers only through these wrappers, so the
// untraced and traced runs execute the same code; a disabled span costs one
// relaxed atomic load.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "aggify/rewriter.h"
#include "froid/froid.h"
#include "procedural/session.h"
#include "trace.h"

namespace perfbench {

using aggify::AggifyReport;
using aggify::BlockStmt;
using aggify::Database;
using aggify::EngineOptions;
using aggify::ExecContext;
using aggify::QueryResult;
using aggify::Result;
using aggify::SelectStmt;
using aggify::Session;
using aggify::Status;
using aggify::Value;

/// Statements parsed through the wrappers below (parser.statements).
extern std::atomic<int64_t> g_statements_parsed;

/// parser: ParseSelect / ParseStatements / ParseScript.
Result<std::unique_ptr<SelectStmt>> ParseSelect(const std::string& sql);
Result<aggify::StmtPtr> ParseStatements(const std::string& sql);
Result<aggify::Script> ParseScript(const std::string& sql);

/// aggify: Aggify::RewriteFunction / RewriteBlock.
Result<AggifyReport> RewriteFunction(aggify::Aggify& aggify,
                                     const std::string& name);
Result<AggifyReport> RewriteBlock(aggify::Aggify& aggify, BlockStmt* block);

/// froid: Froid::RewriteQuery.
Result<int> FroidRewriteQuery(aggify::Froid& froid, SelectStmt* stmt);

/// plan: QueryEngine::Explain.
Result<std::string> Explain(const aggify::QueryEngine& engine,
                            const SelectStmt& stmt, ExecContext& ctx);

/// exec: QueryEngine::Execute.
Result<QueryResult> Execute(const aggify::QueryEngine& engine,
                            const SelectStmt& stmt, ExecContext& ctx);

/// procedural: service bootstrap of a parsed script (CREATE FUNCTION ...).
Status RunScript(Session& session, const aggify::Script& script);

/// procedural: what Session::Call does (catalog lookup + interpreter call
/// under a session context), with the context's hooks traced so nested UDF
/// calls and subqueries become child spans. The workloads set no
/// invocation limits, so Session::Call's limit scope would be empty.
Result<Value> CallFunction(Session& session, const std::string& name,
                           const std::vector<Value>& args);

/// procedural: Interpreter::ExecuteBlock over a fresh environment.
Status ExecuteBlock(Session& session, const BlockStmt& block);

/// Wraps a context's subquery executor (exec span "subquery") and UDF
/// invoker (procedural span "udf") so nested work is attributed.
void TraceHooks(ExecContext& ctx);

/// A session whose interpreter records an exec span around every query it
/// runs itself (cursor OPEN queries, INSERT ... SELECT, standalone SELECTs).
std::unique_ptr<Session> MakeSession(Database* db,
                                     const EngineOptions& options = {});

/// The first aggregation-shaped operator of an EXPLAIN rendering
/// ("Gather", "HashAggregate", "StreamAggregate"), with " [batch]" when the
/// operator runs vectorized; "none" when the plan has none.
std::string PlanRoot(const std::string& explain);

}  // namespace perfbench
