#include "froid/froid.h"

#include <algorithm>
#include <functional>

#include "aggregates/aggregate_function.h"  // IsBuiltinAggregateName
#include "plan/planner.h"  // SplitConjuncts / CombineConjuncts

namespace aggify {

namespace {

using SubstMap = std::map<std::string, const Expr*>;

/// Applies `fn` to every owning expression slot reachable from `slot`
/// (pre-order). `fn` may replace the slot's node; recursion then continues
/// into the replacement's children. Does not descend into subquery bodies.
void VisitOwnedExprs(ExprPtr* slot, const std::function<void(ExprPtr*)>& fn) {
  if (*slot == nullptr) return;
  fn(slot);
  Expr* e = slot->get();
  switch (e->kind) {
    case ExprKind::kUnary:
      VisitOwnedExprs(&static_cast<UnaryExpr*>(e)->operand, fn);
      break;
    case ExprKind::kBinary: {
      auto* bin = static_cast<BinaryExpr*>(e);
      VisitOwnedExprs(&bin->left, fn);
      VisitOwnedExprs(&bin->right, fn);
      break;
    }
    case ExprKind::kFunctionCall: {
      auto* call = static_cast<FunctionCallExpr*>(e);
      for (auto& a : call->args) VisitOwnedExprs(&a, fn);
      break;
    }
    case ExprKind::kAggregateCall: {
      auto* agg = static_cast<AggregateCallExpr*>(e);
      for (auto& a : agg->args) VisitOwnedExprs(&a, fn);
      break;
    }
    case ExprKind::kInList: {
      auto* in = static_cast<InListExpr*>(e);
      VisitOwnedExprs(&in->operand, fn);
      for (auto& item : in->list) VisitOwnedExprs(&item, fn);
      break;
    }
    case ExprKind::kIsNull:
      VisitOwnedExprs(&static_cast<IsNullExpr*>(e)->operand, fn);
      break;
    case ExprKind::kCaseWhen: {
      auto* cw = static_cast<CaseWhenExpr*>(e);
      for (auto& arm : cw->arms) {
        VisitOwnedExprs(&arm.condition, fn);
        VisitOwnedExprs(&arm.result, fn);
      }
      if (cw->else_result != nullptr) VisitOwnedExprs(&cw->else_result, fn);
      break;
    }
    case ExprKind::kCast:
      VisitOwnedExprs(&static_cast<CastExpr*>(e)->operand, fn);
      break;
    default:
      break;
  }
}

void SubstInPlace(ExprPtr* slot, const SubstMap& subst);

void SubstSelectInPlace(SelectStmt* stmt, const SubstMap& subst) {
  for (auto& cte : stmt->ctes) SubstSelectInPlace(cte.query.get(), subst);
  if (stmt->top_n != nullptr) SubstInPlace(&stmt->top_n, subst);
  for (auto& item : stmt->items) SubstInPlace(&item.expr, subst);
  std::function<void(TableRef*)> fix_tref = [&](TableRef* t) {
    switch (t->kind) {
      case TableRef::Kind::kSubquery:
        SubstSelectInPlace(t->subquery.get(), subst);
        break;
      case TableRef::Kind::kJoin:
        fix_tref(t->left.get());
        fix_tref(t->right.get());
        if (t->join_condition != nullptr) {
          SubstInPlace(&t->join_condition, subst);
        }
        break;
      default:
        break;
    }
  };
  for (auto& t : stmt->from) fix_tref(t.get());
  if (stmt->where != nullptr) SubstInPlace(&stmt->where, subst);
  for (auto& g : stmt->group_by) SubstInPlace(&g, subst);
  if (stmt->having != nullptr) SubstInPlace(&stmt->having, subst);
  for (auto& o : stmt->order_by) SubstInPlace(&o.expr, subst);
  if (stmt->union_all != nullptr) {
    SubstSelectInPlace(stmt->union_all.get(), subst);
  }
}

// Single-pass substitution: a replaced VarRef is NOT re-visited, so mappings
// that mention their own variable (e.g. @lb -> CASE WHEN @lb=-1 ... ELSE @lb
// END, produced by conditional assignment) terminate.
void SubstInPlace(ExprPtr* slot, const SubstMap& subst) {
  Expr* e = slot->get();
  if (e == nullptr) return;
  if (e->kind == ExprKind::kVarRef) {
    const auto& var = static_cast<const VarRefExpr&>(*e);
    auto it = subst.find(var.name);
    if (it != subst.end()) *slot = it->second->Clone();
    return;
  }
  if (e->kind == ExprKind::kScalarSubquery) {
    SubstSelectInPlace(static_cast<ScalarSubqueryExpr*>(e)->query.get(),
                       subst);
    return;
  }
  if (e->kind == ExprKind::kExists) {
    SubstSelectInPlace(static_cast<ExistsExpr*>(e)->query.get(), subst);
    return;
  }
  switch (e->kind) {
    case ExprKind::kUnary:
      SubstInPlace(&static_cast<UnaryExpr*>(e)->operand, subst);
      break;
    case ExprKind::kBinary: {
      auto* bin = static_cast<BinaryExpr*>(e);
      SubstInPlace(&bin->left, subst);
      SubstInPlace(&bin->right, subst);
      break;
    }
    case ExprKind::kFunctionCall: {
      auto* call = static_cast<FunctionCallExpr*>(e);
      for (auto& a : call->args) SubstInPlace(&a, subst);
      break;
    }
    case ExprKind::kAggregateCall: {
      auto* agg = static_cast<AggregateCallExpr*>(e);
      for (auto& a : agg->args) SubstInPlace(&a, subst);
      break;
    }
    case ExprKind::kInList: {
      auto* in = static_cast<InListExpr*>(e);
      SubstInPlace(&in->operand, subst);
      for (auto& item : in->list) SubstInPlace(&item, subst);
      if (in->subquery != nullptr) {
        SubstSelectInPlace(in->subquery.get(), subst);
      }
      break;
    }
    case ExprKind::kIsNull:
      SubstInPlace(&static_cast<IsNullExpr*>(e)->operand, subst);
      break;
    case ExprKind::kCaseWhen: {
      auto* cw = static_cast<CaseWhenExpr*>(e);
      for (auto& arm : cw->arms) {
        SubstInPlace(&arm.condition, subst);
        SubstInPlace(&arm.result, subst);
      }
      if (cw->else_result != nullptr) SubstInPlace(&cw->else_result, subst);
      break;
    }
    case ExprKind::kCast:
      SubstInPlace(&static_cast<CastExpr*>(e)->operand, subst);
      break;
    default:
      break;
  }
}

}  // namespace

ExprPtr SubstituteVars(const Expr& e, const SubstMap& subst) {
  ExprPtr cloned = e.Clone();
  SubstInPlace(&cloned, subst);
  return cloned;
}

std::unique_ptr<SelectStmt> SubstituteVarsInSelect(const SelectStmt& stmt,
                                                   const SubstMap& subst) {
  auto cloned = stmt.Clone();
  SubstSelectInPlace(cloned.get(), subst);
  return cloned;
}

// ---------- symbolic execution of straight-line bodies ----------

namespace {

/// Variable -> the expression computing its current value.
using SymbolicEnv = std::map<std::string, ExprPtr>;

SubstMap ViewOf(const SymbolicEnv& env) {
  SubstMap view;
  for (const auto& [k, v] : env) view.emplace(k, v.get());
  return view;
}

Status ExecSymbolic(const Stmt& stmt, SymbolicEnv* env, ExprPtr* result);

Status ExecSymbolicBlock(const BlockStmt& block, SymbolicEnv* env,
                         ExprPtr* result) {
  for (const auto& s : block.statements) {
    RETURN_NOT_OK(ExecSymbolic(*s, env, result));
    if (*result != nullptr) return Status::OK();  // RETURN reached
  }
  return Status::OK();
}

Status ExecSymbolic(const Stmt& stmt, SymbolicEnv* env, ExprPtr* result) {
  switch (stmt.kind) {
    case StmtKind::kBlock:
      return ExecSymbolicBlock(static_cast<const BlockStmt&>(stmt), env,
                               result);

    case StmtKind::kDeclareVar: {
      const auto& d = static_cast<const DeclareVarStmt&>(stmt);
      if (d.initializer != nullptr) {
        (*env)[d.name] = SubstituteVars(*d.initializer, ViewOf(*env));
      } else {
        (*env)[d.name] = MakeLiteral(Value::Null());
      }
      return Status::OK();
    }

    case StmtKind::kSet: {
      const auto& s = static_cast<const SetStmt&>(stmt);
      (*env)[s.name] = SubstituteVars(*s.value, ViewOf(*env));
      return Status::OK();
    }

    case StmtKind::kMultiAssign: {
      const auto& ma = static_cast<const MultiAssignStmt&>(stmt);
      if (ma.targets.size() != 1) {
        return Status::NotApplicable(
            "multi-target aggregate assignment is not inlinable");
      }
      auto sub = std::make_unique<ScalarSubqueryExpr>(
          SubstituteVarsInSelect(*ma.query, ViewOf(*env)));
      // Keep-prior-on-NULL semantics: ISNULL((subquery), prior).
      auto it = env->find(ma.targets[0]);
      ExprPtr prior = it != env->end() ? it->second->Clone()
                                       : MakeLiteral(Value::Null());
      std::vector<ExprPtr> args;
      args.push_back(std::move(sub));
      args.push_back(std::move(prior));
      (*env)[ma.targets[0]] =
          std::make_unique<FunctionCallExpr>("isnull", std::move(args));
      return Status::OK();
    }

    case StmtKind::kIf: {
      const auto& i = static_cast<const IfStmt&>(stmt);
      ExprPtr cond = SubstituteVars(*i.condition, ViewOf(*env));
      // Execute both branches on copies; RETURN inside a branch is not
      // supported (would need path-condition tracking).
      SymbolicEnv then_env;
      SymbolicEnv else_env;
      for (const auto& [k, v] : *env) {
        then_env[k] = v->Clone();
        else_env[k] = v->Clone();
      }
      ExprPtr branch_result;
      RETURN_NOT_OK(ExecSymbolic(*i.then_branch, &then_env, &branch_result));
      if (branch_result != nullptr) {
        return Status::NotApplicable("RETURN inside IF is not inlinable");
      }
      if (i.else_branch != nullptr) {
        RETURN_NOT_OK(ExecSymbolic(*i.else_branch, &else_env, &branch_result));
        if (branch_result != nullptr) {
          return Status::NotApplicable("RETURN inside ELSE is not inlinable");
        }
      }
      // Merge: any variable whose expressions differ becomes CASE WHEN.
      for (auto& [name, then_val] : then_env) {
        ExprPtr& else_val = else_env[name];
        if (else_val == nullptr) else_val = MakeLiteral(Value::Null());
        if (then_val->ToString() == else_val->ToString()) {
          (*env)[name] = std::move(then_val);
          continue;
        }
        std::vector<CaseWhenExpr::Arm> arms;
        arms.push_back(CaseWhenExpr::Arm{cond->Clone(), std::move(then_val)});
        (*env)[name] = std::make_unique<CaseWhenExpr>(std::move(arms),
                                                      std::move(else_val));
      }
      // Variables introduced only in the ELSE branch.
      for (auto& [name, else_val] : else_env) {
        if (env->count(name) != 0 || then_env.count(name) != 0) continue;
        std::vector<CaseWhenExpr::Arm> arms;
        arms.push_back(
            CaseWhenExpr::Arm{cond->Clone(), MakeLiteral(Value::Null())});
        (*env)[name] = std::make_unique<CaseWhenExpr>(std::move(arms),
                                                      std::move(else_val));
      }
      return Status::OK();
    }

    case StmtKind::kGuardedRewrite: {
      // Semantically identical to its MultiAssign; the fallback is runtime
      // recovery machinery and does not affect the symbolic result. The DML
      // form has table effects, which Froid inlining cannot represent.
      const auto& g = static_cast<const GuardedRewriteStmt&>(stmt);
      if (g.rewritten_dml != nullptr) {
        return Status::NotApplicable("guarded DML rewrite in body");
      }
      return ExecSymbolic(*g.rewritten, env, result);
    }

    case StmtKind::kReturn: {
      const auto& r = static_cast<const ReturnStmt&>(stmt);
      if (r.value == nullptr) {
        return Status::NotApplicable("RETURN without a value");
      }
      *result = SubstituteVars(*r.value, ViewOf(*env));
      return Status::OK();
    }

    default:
      return Status::NotApplicable(
          "statement kind not inlinable by Froid: " + stmt.ToString(0));
  }
}

}  // namespace

Result<ExprPtr> Froid::BuildInlineTemplate(const FunctionDef& def) {
  if (def.is_procedure) {
    return Status::NotApplicable("procedures are not inlinable");
  }
  SymbolicEnv env;
  for (const auto& p : def.params) {
    env[p.name] = MakeVarRef(p.name);  // placeholder; call site substitutes
  }
  ExprPtr result;
  RETURN_NOT_OK(ExecSymbolicBlock(*def.body, &env, &result));
  if (result == nullptr) {
    return Status::NotApplicable("function body has no reachable RETURN");
  }
  return result;
}

// ---------- query scopes ----------

namespace {

/// Resolvability of a column name against the FROM scope of `stmt`, using
/// base-table schemas from the catalog and derived-table output aliases.
class ScopeResolver {
 public:
  ScopeResolver(const SelectStmt& stmt, const Catalog& catalog) {
    for (const auto& t : stmt.from) AddTableRef(*t, catalog);
  }

  bool Resolves(const std::string& name) const {
    for (const auto& s : schemas_) {
      if (s.IndexOf(name).ok()) return true;
    }
    return false;
  }

  bool complete() const { return complete_; }

 private:
  void AddTableRef(const TableRef& t, const Catalog& catalog) {
    switch (t.kind) {
      case TableRef::Kind::kBaseTable: {
        auto table = catalog.GetTable(t.table_name);
        if (!table.ok()) {
          complete_ = false;
          return;
        }
        schemas_.push_back(
            (*table)->schema().WithQualifier(t.EffectiveName()));
        break;
      }
      case TableRef::Kind::kSubquery: {
        Schema s;
        for (size_t i = 0; i < t.subquery->items.size(); ++i) {
          const auto& item = t.subquery->items[i];
          std::string n = item.alias;
          if (n.empty() && item.expr->kind == ExprKind::kColumnRef) {
            const std::string& c =
                static_cast<const ColumnRefExpr&>(*item.expr).name;
            auto dot = c.find('.');
            n = dot == std::string::npos ? c : c.substr(dot + 1);
          }
          if (n.empty()) n = "__col_" + std::to_string(i);
          s.AddColumn(Column(n, DataType(TypeId::kNull), t.alias));
        }
        if (t.subquery->select_star) complete_ = false;
        schemas_.push_back(std::move(s));
        break;
      }
      case TableRef::Kind::kJoin:
        AddTableRef(*t.left, catalog);
        AddTableRef(*t.right, catalog);
        break;
    }
  }

  std::vector<Schema> schemas_;
  bool complete_ = true;
};

/// The body of a subquery expression node, or nullptr.
const SelectStmt* SubqueryBody(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kScalarSubquery:
      return static_cast<const ScalarSubqueryExpr&>(e).query.get();
    case ExprKind::kExists:
      return static_cast<const ExistsExpr&>(e).query.get();
    case ExprKind::kInList:
      return static_cast<const InListExpr&>(e).subquery.get();
    default:
      return nullptr;
  }
}

/// Calls `fn` on each expression evaluated in `stmt`'s own FROM scope: TOP,
/// select items, join conditions, WHERE, GROUP BY, HAVING and ORDER BY.
void ForEachScopeExpr(const SelectStmt& stmt,
                      const std::function<void(const Expr&)>& fn) {
  std::function<void(const TableRef&)> joins = [&](const TableRef& t) {
    if (t.kind != TableRef::Kind::kJoin) return;
    joins(*t.left);
    joins(*t.right);
    if (t.join_condition != nullptr) fn(*t.join_condition);
  };
  if (stmt.top_n != nullptr) fn(*stmt.top_n);
  for (const auto& item : stmt.items) fn(*item.expr);
  for (const auto& t : stmt.from) joins(*t);
  if (stmt.where != nullptr) fn(*stmt.where);
  for (const auto& g : stmt.group_by) fn(*g);
  if (stmt.having != nullptr) fn(*stmt.having);
  for (const auto& o : stmt.order_by) fn(*o.expr);
}

/// Calls `fn` on each query of `stmt` that cannot see `stmt`'s own FROM
/// scope: CTE bodies, derived tables and the UNION ALL operand.
void ForEachSiblingQuery(const SelectStmt& stmt,
                         const std::function<void(const SelectStmt&)>& fn) {
  std::function<void(const TableRef&)> derived = [&](const TableRef& t) {
    if (t.kind == TableRef::Kind::kSubquery) fn(*t.subquery);
    if (t.kind == TableRef::Kind::kJoin) {
      derived(*t.left);
      derived(*t.right);
    }
  };
  for (const auto& cte : stmt.ctes) fn(*cte.query);
  for (const auto& t : stmt.from) derived(*t);
  if (stmt.union_all != nullptr) fn(*stmt.union_all);
}

/// True if a column reference anywhere in `stmt`, nested queries included,
/// binds to `outer` rather than to `stmt`'s FROM scope or to a scope that
/// encloses it below `outer` (`enclosing`, innermost last). A name no inner
/// scope resolves counts as outer whenever `outer` resolves it, so an
/// incomplete inner scope errs towards "correlated".
bool ReferencesOuterScope(const SelectStmt& stmt, const ScopeResolver& outer,
                          const Catalog& catalog,
                          std::vector<const ScopeResolver*>* enclosing) {
  bool found = false;
  ForEachSiblingQuery(stmt, [&](const SelectStmt& q) {
    found = found || ReferencesOuterScope(q, outer, catalog, enclosing);
  });
  ScopeResolver own(stmt, catalog);
  enclosing->push_back(&own);
  ForEachScopeExpr(stmt, [&](const Expr& e) {
    e.Walk([&](const Expr& node) {
      if (found) return;
      if (const SelectStmt* body = SubqueryBody(node)) {
        found = ReferencesOuterScope(*body, outer, catalog, enclosing);
      } else if (node.kind == ExprKind::kColumnRef) {
        const auto& name = static_cast<const ColumnRefExpr&>(node).name;
        found = outer.Resolves(name) &&
                std::none_of(enclosing->begin(), enclosing->end(),
                             [&](const ScopeResolver* s) {
                               return s->Resolves(name);
                             });
      }
    });
  });
  enclosing->pop_back();
  return found;
}

/// True if a scalar subquery in the select list, WHERE, HAVING or ORDER BY
/// of `stmt` references `stmt`'s FROM scope, i.e. would run once per outer
/// row.
bool HasCorrelatedScalarSubquery(const SelectStmt& stmt,
                                 const Catalog& catalog) {
  ScopeResolver outer(stmt, catalog);
  bool found = false;
  auto check = [&](const Expr& e) {
    e.Walk([&](const Expr& node) {
      if (found || node.kind != ExprKind::kScalarSubquery) return;
      std::vector<const ScopeResolver*> enclosing;
      found = ReferencesOuterScope(*SubqueryBody(node), outer, catalog,
                                   &enclosing);
    });
  };
  for (const auto& item : stmt.items) check(*item.expr);
  if (stmt.where != nullptr) check(*stmt.where);
  if (stmt.having != nullptr) check(*stmt.having);
  for (const auto& o : stmt.order_by) check(*o.expr);
  return found;
}

/// Calls `fn` on every query nested in `e`, at any depth.
void ForEachNestedQuery(const Expr& e,
                        const std::function<void(const SelectStmt&)>& fn) {
  std::function<void(const SelectStmt&)> visit = [&](const SelectStmt& q) {
    fn(q);
    ForEachSiblingQuery(q, visit);
    ForEachScopeExpr(q, [&](const Expr& x) { ForEachNestedQuery(x, fn); });
  };
  e.Walk([&](const Expr& node) {
    if (const SelectStmt* body = SubqueryBody(node)) visit(*body);
  });
}

/// True if a column of `args`, nested queries included, has a name that the
/// FROM scope of a query nested in `tmpl` resolves (or that scope is
/// incomplete): substituted into `tmpl`, it would bind to the inner table
/// instead of the caller's.
bool ArgumentsCaptured(const std::vector<ExprPtr>& args, const Expr& tmpl,
                       const Catalog& catalog) {
  std::vector<std::string> names;
  for (const auto& a : args) {
    CollectColumnRefs(*a, &names);
    ForEachNestedQuery(*a, [&](const SelectStmt& q) {
      ForEachScopeExpr(q, [&](const Expr& x) { CollectColumnRefs(x, &names); });
    });
  }
  if (names.empty()) return false;
  bool captured = false;
  ForEachNestedQuery(tmpl, [&](const SelectStmt& q) {
    ScopeResolver scope(q, catalog);
    captured = captured || !scope.complete() ||
               std::any_of(names.begin(), names.end(),
                           [&](const std::string& n) {
                             return scope.Resolves(n);
                           });
  });
  return captured;
}

}  // namespace

// ---------- inlining ----------

Result<int> Froid::InlineUdfCalls(SelectStmt* stmt) {
  int inlined = 0;
  Status failure = Status::OK();

  auto try_inline = [&](ExprPtr* slot) {
    if (!failure.ok()) return;
    Expr* e = slot->get();
    if (e->kind != ExprKind::kFunctionCall) return;
    auto* call = static_cast<FunctionCallExpr*>(e);
    if (!db_->catalog().HasFunction(call->name)) return;
    auto def = db_->catalog().GetFunction(call->name);
    if (!def.ok()) return;
    auto tmpl = BuildInlineTemplate(**def);
    if (!tmpl.ok()) {
      if (!tmpl.status().IsNotApplicable()) failure = tmpl.status();
      return;  // leave the call in place
    }
    if (ArgumentsCaptured(call->args, **tmpl, db_->catalog())) return;
    // Bind parameters: positional args, then declared defaults.
    const auto& params = (*def)->params;
    if (call->args.size() > params.size()) {
      failure = Status::BindError("too many arguments in call to " +
                                  call->name);
      return;
    }
    SubstMap subst;
    std::vector<ExprPtr> defaults;  // keepalive for default expressions
    for (size_t i = 0; i < params.size(); ++i) {
      if (i < call->args.size()) {
        subst.emplace(params[i].name, call->args[i].get());
      } else if (params[i].default_value != nullptr) {
        defaults.push_back(params[i].default_value->Clone());
        subst.emplace(params[i].name, defaults.back().get());
      } else {
        failure = Status::BindError("missing argument " + params[i].name +
                                    " in call to " + call->name);
        return;
      }
    }
    *slot = SubstituteVars(**tmpl, subst);
    ++inlined;
  };

  for (auto& item : stmt->items) VisitOwnedExprs(&item.expr, try_inline);
  if (stmt->where != nullptr) VisitOwnedExprs(&stmt->where, try_inline);
  if (stmt->having != nullptr) VisitOwnedExprs(&stmt->having, try_inline);
  for (auto& o : stmt->order_by) VisitOwnedExprs(&o.expr, try_inline);
  RETURN_NOT_OK(failure);
  return inlined;
}

// ---------- decorrelation ----------

namespace {

struct CorrelationKey {
  ExprPtr inner_col;   // resolves inside Qd
  ExprPtr outer_expr;  // references the outer query
};

/// Splits Qd's WHERE into correlation keys and residual conjuncts.
/// A conjunct `a = b` is a correlation key when one side is fully local to
/// Qd and the other references at least one non-local column.
Status ExtractCorrelation(SelectStmt* qd, const Catalog& catalog,
                          std::vector<CorrelationKey>* keys) {
  if (qd->where == nullptr) return Status::OK();
  ScopeResolver scope(*qd, catalog);
  if (!scope.complete()) return Status::OK();

  std::vector<ExprPtr> conjuncts;
  SplitConjuncts(*qd->where, &conjuncts);
  std::vector<ExprPtr> residual;
  for (auto& c : conjuncts) {
    bool is_key = false;
    if (c->kind == ExprKind::kBinary) {
      auto* bin = static_cast<BinaryExpr*>(c.get());
      if (bin->op == BinaryOp::kEq) {
        auto classify = [&](const Expr& e) {
          std::vector<std::string> cols;
          CollectColumnRefs(e, &cols);
          if (cols.empty()) return 0;  // constant / variable
          for (const auto& col : cols) {
            if (!scope.Resolves(col)) return 2;  // outer
          }
          return 1;  // local
        };
        int l = classify(*bin->left);
        int r = classify(*bin->right);
        if (l == 1 && r == 2) {
          keys->push_back(CorrelationKey{std::move(bin->left),
                                         std::move(bin->right)});
          is_key = true;
        } else if (l == 2 && r == 1) {
          keys->push_back(CorrelationKey{std::move(bin->right),
                                         std::move(bin->left)});
          is_key = true;
        }
      }
    }
    if (!is_key) residual.push_back(std::move(c));
  }
  qd->where = CombineConjuncts(std::move(residual));
  return Status::OK();
}

/// Replaces every subexpression of `*root` whose rendering equals
/// `pattern_repr` with a clone of `replacement`. Textual matching is how the
/// rewrite maps correlated references in the aggregate's arguments onto the
/// group key (within a group they are equal by the removed conjunct).
void ReplaceMatchingExprs(ExprPtr* root, const std::string& pattern_repr,
                          const Expr& replacement) {
  if (*root == nullptr) return;
  if ((*root)->ToString() == pattern_repr) {
    *root = replacement.Clone();
    return;
  }
  Expr* e = root->get();
  switch (e->kind) {
    case ExprKind::kUnary:
      ReplaceMatchingExprs(&static_cast<UnaryExpr*>(e)->operand, pattern_repr,
                           replacement);
      break;
    case ExprKind::kBinary: {
      auto* bin = static_cast<BinaryExpr*>(e);
      ReplaceMatchingExprs(&bin->left, pattern_repr, replacement);
      ReplaceMatchingExprs(&bin->right, pattern_repr, replacement);
      break;
    }
    case ExprKind::kFunctionCall:
      for (auto& a : static_cast<FunctionCallExpr*>(e)->args) {
        ReplaceMatchingExprs(&a, pattern_repr, replacement);
      }
      break;
    case ExprKind::kAggregateCall:
      for (auto& a : static_cast<AggregateCallExpr*>(e)->args) {
        ReplaceMatchingExprs(&a, pattern_repr, replacement);
      }
      break;
    case ExprKind::kCaseWhen: {
      auto* cw = static_cast<CaseWhenExpr*>(e);
      for (auto& arm : cw->arms) {
        ReplaceMatchingExprs(&arm.condition, pattern_repr, replacement);
        ReplaceMatchingExprs(&arm.result, pattern_repr, replacement);
      }
      if (cw->else_result != nullptr) {
        ReplaceMatchingExprs(&cw->else_result, pattern_repr, replacement);
      }
      break;
    }
    case ExprKind::kCast:
      ReplaceMatchingExprs(&static_cast<CastExpr*>(e)->operand, pattern_repr,
                           replacement);
      break;
    case ExprKind::kIsNull:
      ReplaceMatchingExprs(&static_cast<IsNullExpr*>(e)->operand, pattern_repr,
                           replacement);
      break;
    default:
      break;
  }
}

bool IsNullLiteral(const Expr& e) {
  return e.kind == ExprKind::kLiteral &&
         static_cast<const LiteralExpr&>(e).value.is_null();
}

/// The value of `agg_expr`, the select item of the non-grouped subquery
/// `inner`, on empty input: each aggregate call is replaced by its value
/// over no rows (COUNT gives 0; SUM, MIN, MAX, AVG and the catalog's custom
/// aggregates give NULL). The rest of the expression is kept; in a valid
/// non-grouped aggregate query it holds only constants, variables and outer
/// references, which evaluate in the outer row's scope. Returns nullptr if
/// an aggregate's empty value is unknown or a column outside the aggregates
/// binds to `inner`'s own FROM scope.
ExprPtr EmptyGroupValue(const Expr& agg_expr, const SelectStmt& inner,
                        const Catalog& catalog) {
  ExprPtr value = agg_expr.Clone();
  bool known = true;
  VisitOwnedExprs(&value, [&](ExprPtr* slot) {
    const Expr& e = **slot;
    std::string name;
    if (e.kind == ExprKind::kAggregateCall) {
      name = static_cast<const AggregateCallExpr&>(e).name;
    } else if (e.kind == ExprKind::kFunctionCall &&
               catalog.HasAggregate(
                   static_cast<const FunctionCallExpr&>(e).name)) {
      name = static_cast<const FunctionCallExpr&>(e).name;  // planner promotes
    } else {
      return;
    }
    // Catalog aggregates take precedence over built-in names, as in the
    // planner; the only catalog kind, LoopAggregate, terminates NULL when
    // no row initialized its state.
    if (catalog.HasAggregate(name)) {
      *slot = MakeLiteral(Value::Null());
    } else if (name == "count" || name == "count_big") {
      *slot = MakeLiteral(Value::Int(0));
    } else if (IsBuiltinAggregateName(name)) {
      *slot = MakeLiteral(Value::Null());
    } else {
      known = false;
    }
  });
  if (!known) return nullptr;
  ScopeResolver scope(inner, catalog);
  std::vector<std::string> cols;
  CollectColumnRefs(*value, &cols);
  for (const auto& c : cols) {
    if (!scope.complete() || scope.Resolves(c)) return nullptr;
  }
  return value;
}

}  // namespace

Result<int> Froid::DecorrelateScalarSubqueries(SelectStmt* stmt) {
  if (stmt->from.size() != 1) return 0;  // single outer FROM entry only
  int count = 0;
  Status failure = Status::OK();

  auto try_decorrelate = [&](ExprPtr* slot) {
    if (!failure.ok()) return;
    if ((*slot)->kind != ExprKind::kScalarSubquery) return;
    auto* sub = static_cast<ScalarSubqueryExpr*>(slot->get());
    SelectStmt* inner = sub->query.get();

    // Shape: SELECT <agg expr> FROM <one entry> [WHERE ...], no grouping.
    if (inner->items.size() != 1 || inner->from.size() != 1 ||
        inner->HasGroupBy() || inner->having != nullptr ||
        inner->top_n != nullptr || inner->distinct ||
        inner->union_all != nullptr || !inner->ctes.empty()) {
      return;
    }
    if (!ContainsAggregateCall(*inner->items[0].expr)) return;
    // The subquery's value for an outer row with no matching inner rows,
    // which the LEFT JOIN leaves unmatched (the COUNT bug otherwise).
    ExprPtr empty_value =
        EmptyGroupValue(*inner->items[0].expr, *inner, db_->catalog());
    if (empty_value == nullptr) return;

    // Locate the correlated conjuncts: in the inner WHERE (plain shape) or
    // inside the derived table (the Aggify rewrite shape). All analysis runs
    // on clones; the statement is only mutated once the rewrite is complete.
    TableRef* inner_from = inner->from[0].get();
    bool aggify_shape;
    std::unique_ptr<SelectStmt> qd_work;
    if (inner_from->kind == TableRef::Kind::kSubquery) {
      aggify_shape = true;
      qd_work = inner_from->subquery->Clone();
    } else if (inner_from->kind == TableRef::Kind::kBaseTable &&
               inner->where != nullptr) {
      aggify_shape = false;
      qd_work = inner->Clone();
    } else {
      return;
    }

    std::vector<CorrelationKey> keys;
    Status st = ExtractCorrelation(qd_work.get(), db_->catalog(), &keys);
    if (!st.ok()) {
      failure = st;
      return;
    }
    if (keys.empty()) return;

    std::string dalias = "__dc" + std::to_string(db_->NextObjectId());
    auto dsel = std::make_unique<SelectStmt>();

    // The aggregate expression, with correlated references replaced by the
    // group key (they are equal within a group by the removed conjunct).
    ExprPtr agg_expr = inner->items[0].expr->Clone();

    if (aggify_shape) {
      // Extend Qd's projection with the key columns; group by them.
      std::string q_alias = inner_from->EffectiveName();
      for (size_t i = 0; i < keys.size(); ++i) {
        qd_work->items.push_back(SelectItem{keys[i].inner_col->Clone(),
                                            "__ck" + std::to_string(i)});
      }
      for (size_t i = 0; i < keys.size(); ++i) {
        std::string ck = q_alias + ".__ck" + std::to_string(i);
        ColumnRefExpr ck_ref(ck);
        ReplaceMatchingExprs(&agg_expr, keys[i].outer_expr->ToString(),
                             ck_ref);
        dsel->items.push_back(
            SelectItem{MakeColumnRef(ck), "ck" + std::to_string(i)});
        dsel->group_by.push_back(MakeColumnRef(ck));
      }
      // Every remaining column in the aggregate expression must resolve
      // against the derived table's projection; otherwise the subquery has
      // correlation this rewrite cannot remove.
      {
        Schema derived_schema;
        for (const auto& item : qd_work->items) {
          derived_schema.AddColumn(
              Column(item.alias, DataType(TypeId::kNull), q_alias));
        }
        std::vector<std::string> cols;
        CollectColumnRefs(*agg_expr, &cols);
        for (const auto& c : cols) {
          if (!derived_schema.IndexOf(c).ok()) return;  // bail: still correlated
        }
      }
      dsel->items.push_back(SelectItem{std::move(agg_expr), "aggval"});
      dsel->from.push_back(TableRef::Derived(std::move(qd_work), q_alias));
      if (inner->where != nullptr) dsel->where = inner->where->Clone();
      dsel->force_stream_aggregate = inner->force_stream_aggregate;
    } else {
      // Plain shape: group the (decorrelated) inner query by the keys.
      for (size_t i = 0; i < keys.size(); ++i) {
        ReplaceMatchingExprs(&agg_expr, keys[i].outer_expr->ToString(),
                             *keys[i].inner_col);
      }
      {
        ScopeResolver scope(*qd_work, db_->catalog());
        std::vector<std::string> cols;
        CollectColumnRefs(*agg_expr, &cols);
        for (const auto& c : cols) {
          if (!scope.Resolves(c)) return;  // bail: still correlated
        }
      }
      dsel = std::move(qd_work);
      std::vector<SelectItem> new_items;
      for (size_t i = 0; i < keys.size(); ++i) {
        new_items.push_back(SelectItem{keys[i].inner_col->Clone(),
                                       "ck" + std::to_string(i)});
        dsel->group_by.push_back(keys[i].inner_col->Clone());
      }
      new_items.push_back(SelectItem{std::move(agg_expr), "aggval"});
      dsel->items = std::move(new_items);
    }

    // LEFT JOIN the grouped derived table to the outer FROM entry.
    ExprPtr on;
    for (size_t i = 0; i < keys.size(); ++i) {
      ExprPtr eq = MakeBinary(
          BinaryOp::kEq, keys[i].outer_expr->Clone(),
          MakeColumnRef(dalias + ".ck" + std::to_string(i)));
      on = on == nullptr
               ? std::move(eq)
               : MakeBinary(BinaryOp::kAnd, std::move(on), std::move(eq));
    }
    stmt->from[0] = TableRef::Join(std::move(stmt->from[0]),
                                   TableRef::Derived(std::move(dsel), dalias),
                                   JoinType::kLeft, std::move(on));
    // A matched row has non-NULL keys, so a NULL ck0 marks an empty group.
    // When the empty value is NULL the padded aggval already is it.
    ExprPtr aggval = MakeColumnRef(dalias + ".aggval");
    if (IsNullLiteral(*empty_value)) {
      *slot = std::move(aggval);
    } else {
      std::vector<CaseWhenExpr::Arm> arms;
      arms.push_back(CaseWhenExpr::Arm{
          std::make_unique<IsNullExpr>(MakeColumnRef(dalias + ".ck0"),
                                       /*neg=*/false),
          std::move(empty_value)});
      *slot =
          std::make_unique<CaseWhenExpr>(std::move(arms), std::move(aggval));
    }
    ++count;
  };

  for (auto& item : stmt->items) VisitOwnedExprs(&item.expr, try_decorrelate);
  RETURN_NOT_OK(failure);
  return count;
}

Result<int> Froid::RewriteQuery(SelectStmt* stmt) {
  // Rewrite a clone and commit it only if no scalar subquery is left to run
  // per outer row: such a subquery is re-planned and re-scanned for every
  // row, whereas the UDF call it replaced runs its own cached plan.
  std::unique_ptr<SelectStmt> work = stmt->Clone();
  ASSIGN_OR_RETURN(int inlined, InlineUdfCalls(work.get()));
  ASSIGN_OR_RETURN(int decorrelated, DecorrelateScalarSubqueries(work.get()));
  if (HasCorrelatedScalarSubquery(*work, db_->catalog())) return 0;
  *stmt = std::move(*work);
  return inlined + decorrelated;
}

}  // namespace aggify
