#include "layers.h"

#include "parser/parser.h"

namespace perfbench {

std::atomic<int64_t> g_statements_parsed{0};

Result<std::unique_ptr<SelectStmt>> ParseSelect(const std::string& sql) {
  Span span(Layer::kParser, "parse_select");
  g_statements_parsed.fetch_add(1, std::memory_order_relaxed);
  return aggify::ParseSelect(sql);
}

Result<aggify::StmtPtr> ParseStatements(const std::string& sql) {
  Span span(Layer::kParser, "parse_statements");
  g_statements_parsed.fetch_add(1, std::memory_order_relaxed);
  return aggify::ParseStatements(sql);
}

Result<aggify::Script> ParseScript(const std::string& sql) {
  Span span(Layer::kParser, "parse_script");
  auto script = aggify::ParseScript(sql);
  if (script.ok()) {
    g_statements_parsed.fetch_add(
        static_cast<int64_t>(script->commands.size()),
        std::memory_order_relaxed);
  }
  return script;
}

Result<AggifyReport> RewriteFunction(aggify::Aggify& aggify,
                                     const std::string& name) {
  Span span(Layer::kAggify, "rewrite_function");
  return aggify.RewriteFunction(name);
}

Result<AggifyReport> RewriteBlock(aggify::Aggify& aggify, BlockStmt* block) {
  Span span(Layer::kAggify, "rewrite_block");
  return aggify.RewriteBlock(block);
}

Result<int> FroidRewriteQuery(aggify::Froid& froid, SelectStmt* stmt) {
  Span span(Layer::kFroid, "rewrite_query");
  return froid.RewriteQuery(stmt);
}

Result<std::string> Explain(const aggify::QueryEngine& engine,
                            const SelectStmt& stmt, ExecContext& ctx) {
  Span span(Layer::kPlan, "explain");
  return engine.Explain(stmt, ctx);
}

Result<QueryResult> Execute(const aggify::QueryEngine& engine,
                            const SelectStmt& stmt, ExecContext& ctx) {
  Span span(Layer::kExec, "execute");
  return engine.Execute(stmt, ctx);
}

Status RunScript(Session& session, const aggify::Script& script) {
  Span span(Layer::kProcedural, "register");
  return session.RunScript(script).status();
}

void TraceHooks(ExecContext& ctx) {
  ExecContext::SubqueryExecutor subquery = ctx.subquery_executor();
  ctx.set_subquery_executor(
      [subquery](const SelectStmt& stmt, ExecContext& inner) {
        Span span(Layer::kExec, "subquery");
        return subquery(stmt, inner);
      });
  ExecContext::UdfInvoker udf = ctx.udf_invoker();
  ctx.set_udf_invoker([udf](const std::string& name,
                            const std::vector<Value>& args,
                            ExecContext& inner) {
    Span span(Layer::kProcedural, "udf");
    return udf(name, args, inner);
  });
}

Result<Value> CallFunction(Session& session, const std::string& name,
                           const std::vector<Value>& args) {
  Span span(Layer::kProcedural, "call");
  ASSIGN_OR_RETURN(auto def, session.db()->catalog().GetFunction(name));
  ExecContext ctx = session.MakeContext();
  TraceHooks(ctx);
  return session.interpreter().CallFunction(*def, args, ctx);
}

Status ExecuteBlock(Session& session, const BlockStmt& block) {
  Span span(Layer::kProcedural, "execute_block");
  aggify::VariableEnv env;
  ExecContext ctx = session.MakeContext();
  TraceHooks(ctx);
  ctx.set_vars(&env);
  return session.interpreter().ExecuteBlock(block, &env, ctx).status();
}

namespace {

class TracingInterpreter : public aggify::Interpreter {
 public:
  using Interpreter::Interpreter;

 protected:
  Result<QueryResult> RunCursorQuery(const SelectStmt& query,
                                     ExecContext& ctx) override {
    Span span(Layer::kExec, "cursor_query");
    return Interpreter::RunCursorQuery(query, ctx);
  }
  Result<QueryResult> RunQuery(const SelectStmt& query,
                               ExecContext& ctx) override {
    Span span(Layer::kExec, "query");
    return Interpreter::RunQuery(query, ctx);
  }
};

}  // namespace

std::unique_ptr<Session> MakeSession(Database* db,
                                     const EngineOptions& options) {
  auto session = std::make_unique<Session>(db, options);
  session->SetInterpreter(
      std::make_unique<TracingInterpreter>(&session->engine()));
  return session;
}

std::string PlanRoot(const std::string& explain) {
  size_t pos = 0;
  while (pos < explain.size()) {
    size_t end = explain.find('\n', pos);
    if (end == std::string::npos) end = explain.size();
    std::string line = explain.substr(pos, end - pos);
    size_t start = line.find_first_not_of(' ');
    if (start != std::string::npos) {
      line = line.substr(start);
      for (const char* op : {"Gather", "HashAggregate", "StreamAggregate"}) {
        if (line.rfind(op, 0) == 0) {
          bool batch = line.find("[batch]") != std::string::npos;
          if (!batch && std::string(op) == "Gather") {
            // The partial aggregation below a Gather carries the marker.
            size_t next = explain.find("[batch]", end);
            size_t next_line_end = explain.find('\n', end + 1);
            batch = next != std::string::npos &&
                    (next_line_end == std::string::npos ||
                     next < next_line_end);
          }
          return std::string(op) + (batch ? " [batch]" : "");
        }
      }
    }
    pos = end + 1;
  }
  return "none";
}

}  // namespace perfbench
