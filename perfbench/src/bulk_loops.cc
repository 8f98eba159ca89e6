// bulk_loops: a few loops over a large input, SF 0.02 lineitem (~120K
// rows), each timed per call:
//   (a) fold_dop1 / fold_dopN — an interpreted Agg_Δ (sum + guarded max,
//       merge-certified, not lowered to a builtin) at DOP 1 and
//       DOP min(4, nproc);
//   (b) native_fold — a sum fold lowered to the builtin `sum`, DOP 1;
//   (c) cursor_loop — the Original interpreted cursor loop of (a);
//   (d) insert_rewritten / insert_interpreted — a family-a INSERT loop into
//       a log table, rewritten to INSERT ... SELECT, next to the
//       interpreted block it must match; the table is reset between runs;
//   (e) for_converted / for_interpreted — a compute-only FOR loop
//       (harmonic, 20,000 trips) converted by rewrite.convert_for_loops,
//       next to the interpreted loop.
// Every round checks rewritten results bit-identical to interpreted ones
// and DOP n bit-identical to DOP 1.
#include <algorithm>
#include <thread>

#include "layers.h"
#include "tpch/tpch_gen.h"
#include "workloads.h"

namespace perfbench {

namespace {

using aggify::Row;

constexpr double kScaleFactor = 0.02;
constexpr int kSetupRepetitions = 7;
constexpr int64_t kForTrips = 20000;

std::string ScanStats(const std::string& name) {
  return "CREATE FUNCTION " + name + R"(() RETURNS FLOAT AS
    BEGIN
      DECLARE @q FLOAT;
      DECLARE @p FLOAT;
      DECLARE @s FLOAT = 0.0;
      DECLARE @m FLOAT = 0.0;
      DECLARE c CURSOR FOR SELECT l_quantity, l_extendedprice
                           FROM lineitem WHERE l_quantity > 1;
      OPEN c;
      FETCH NEXT FROM c INTO @q, @p;
      WHILE @@FETCH_STATUS = 0
      BEGIN
        SET @s = @s + @q;
        IF (@p > @m)
          SET @m = @p;
        FETCH NEXT FROM c INTO @q, @p;
      END
      CLOSE c; DEALLOCATE c;
      RETURN @s + @m;
    END)";
}

std::string QtySum(const std::string& name) {
  return "CREATE FUNCTION " + name + R"(() RETURNS FLOAT AS
    BEGIN
      DECLARE @q FLOAT;
      DECLARE @s FLOAT = 0.0;
      DECLARE c CURSOR FOR SELECT l_quantity FROM lineitem
                           WHERE l_quantity > 1;
      OPEN c;
      FETCH NEXT FROM c INTO @q;
      WHILE @@FETCH_STATUS = 0
      BEGIN
        SET @s = @s + @q;
        FETCH NEXT FROM c INTO @q;
      END
      CLOSE c; DEALLOCATE c;
      RETURN @s;
    END)";
}

std::string Harmonic(const std::string& name) {
  return "CREATE FUNCTION " + name + R"((@n INT) RETURNS FLOAT AS
    BEGIN
      DECLARE @h FLOAT = 0.0;
      FOR @i = 1 TO @n
      BEGIN
        SET @h = @h + 1.0 / @i;
      END
      RETURN @h;
    END)";
}

constexpr char kLogTable[] =
    "CREATE TABLE lineitem_log (l_orderkey INT, l_linenumber INT, "
    "l_quantity DECIMAL(15,2));";

constexpr char kInsertLoop[] = R"(
  DECLARE @ok INT;
  DECLARE @ln INT;
  DECLARE @q DECIMAL(15,2);
  DECLARE c CURSOR FOR SELECT l_orderkey, l_linenumber, l_quantity
                       FROM lineitem WHERE l_quantity > 25;
  OPEN c;
  FETCH NEXT FROM c INTO @ok, @ln, @q;
  WHILE @@FETCH_STATUS = 0
  BEGIN
    INSERT INTO lineitem_log VALUES (@ok, @ln, @q * 2);
    FETCH NEXT FROM c INTO @ok, @ln, @q;
  END
  CLOSE c;
  DEALLOCATE c;
)";

EngineOptions ForLoopOptions() {
  EngineOptions options;
  options.rewrite.convert_for_loops = true;
  return options;
}

/// The whole set-up: functions registered, the rewritten ones rewritten,
/// the INSERT block parsed and rewritten.
/// Members are destroyed in reverse order: sessions before their database.
struct Fixture {
  std::unique_ptr<Database> db;
  std::unique_ptr<Session> dop1;
  std::unique_ptr<Session> dopn;
  aggify::StmtPtr insert_original;
  aggify::StmtPtr insert_rewritten;
  std::vector<AggifyReport> reports;
  int64_t rows_folded = 0;
  int64_t rows_inserted = 0;
};

Status RegisterFunctions(Session& session) {
  std::string sql = ScanStats("scan_stats") + ";\n" +
                    ScanStats("scan_stats_original") + ";\n" +
                    QtySum("qty_sum") + ";\n" + QtySum("qty_sum_original") +
                    ";\n" + Harmonic("harmonic_converted") + ";\n" +
                    Harmonic("harmonic") + ";\n" + kLogTable;
  ASSIGN_OR_RETURN(aggify::Script script, ParseScript(sql));
  return RunScript(session, script);
}

Result<std::unique_ptr<Fixture>> SetUp(uint64_t seed, int dop) {
  auto fixture = std::make_unique<Fixture>();
  Fixture& f = *fixture;
  f.db = std::make_unique<Database>();
  aggify::TpchConfig tpch;
  tpch.scale_factor = kScaleFactor;
  tpch.seed = seed;
  RETURN_NOT_OK(aggify::PopulateTpch(f.db.get(), tpch));
  f.dop1 = MakeSession(f.db.get());
  f.dopn = MakeSession(f.db.get(), EngineOptions::WithDop(dop));
  RETURN_NOT_OK(RegisterFunctions(*f.dop1));

  aggify::Aggify aggify(f.db.get());
  for (const char* name : {"scan_stats", "qty_sum"}) {
    ASSIGN_OR_RETURN(AggifyReport report, RewriteFunction(aggify, name));
    f.reports.push_back(std::move(report));
  }
  aggify::Aggify for_aggify(f.db.get(), ForLoopOptions());
  ASSIGN_OR_RETURN(AggifyReport for_report,
                   RewriteFunction(for_aggify, "harmonic_converted"));
  f.reports.push_back(std::move(for_report));

  ASSIGN_OR_RETURN(f.insert_original, ParseStatements(kInsertLoop));
  f.insert_rewritten = f.insert_original->Clone();
  ASSIGN_OR_RETURN(
      AggifyReport insert_report,
      RewriteBlock(aggify, static_cast<BlockStmt*>(f.insert_rewritten.get())));
  f.reports.push_back(std::move(insert_report));

  ASSIGN_OR_RETURN(QueryResult folded,
                   f.dop1->Query("SELECT COUNT(*) FROM lineitem "
                                 "WHERE l_quantity > 1"));
  ASSIGN_OR_RETURN(Value n, folded.ScalarValue());
  f.rows_folded = n.int_value();
  ASSIGN_OR_RETURN(QueryResult inserted,
                   f.dop1->Query("SELECT COUNT(*) FROM lineitem "
                                 "WHERE l_quantity > 25"));
  ASSIGN_OR_RETURN(Value m, inserted.ScalarValue());
  f.rows_inserted = m.int_value();
  return fixture;
}

/// Times rewrites on a small database with the same schema: the rewrite
/// reads the catalog, not the data, so this is the same work without
/// disturbing the measured database's functions.
class RewriteProbe {
 public:
  Status Init(uint64_t seed) {
    aggify::TpchConfig tpch;
    tpch.scale_factor = 0.0001;
    tpch.seed = seed;
    RETURN_NOT_OK(aggify::PopulateTpch(&db_, tpch));
    session_ = MakeSession(&db_);
    RETURN_NOT_OK(RegisterFunctions(*session_));
    ASSIGN_OR_RETURN(insert_, ParseStatements(kInsertLoop));
    for (const std::string& text :
         {ScanStats("scan_stats"), QtySum("qty_sum"),
          Harmonic("harmonic_converted")}) {
      ASSIGN_OR_RETURN(aggify::Script script, ParseScript(text));
      scripts_.push_back(std::move(script));
    }
    return Status::OK();
  }

  /// One rewrite of every function and of the INSERT block.
  Status Round(KindSamples* samples) {
    const char* names[] = {"scan_stats", "qty_sum", "harmonic_converted"};
    for (size_t i = 0; i < scripts_.size(); ++i) {
      RETURN_NOT_OK(RunScript(*session_, scripts_[i]));
      aggify::Aggify aggify(&db_, i == 2 ? ForLoopOptions() : EngineOptions());
      const int64_t t0 = NowNs();
      RETURN_NOT_OK(RewriteFunction(aggify, names[i]).status());
      (*samples)[names[i]].Add(NsToMs(NowNs() - t0));
    }
    aggify::StmtPtr block = insert_->Clone();
    aggify::Aggify aggify(&db_);
    const int64_t t0 = NowNs();
    RETURN_NOT_OK(
        RewriteBlock(aggify, static_cast<BlockStmt*>(block.get())).status());
    (*samples)["insert_block"].Add(NsToMs(NowNs() - t0));
    return Status::OK();
  }

 private:
  Database db_;
  std::unique_ptr<Session> session_;
  aggify::StmtPtr insert_;
  std::vector<aggify::Script> scripts_;
};

bool SameRows(const std::vector<Row>& a, const std::vector<Row>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    for (size_t j = 0; j < a[i].size(); ++j) {
      if (!a[i][j].StructurallyEquals(b[i][j])) return false;
    }
  }
  return true;
}

/// The plan root of a rewritten query, "n/a" when it does not plan on its
/// own (it reads the function's parameters or CTEs).
std::string ExplainRoot(Session& session, const std::string& sql) {
  if (sql.empty()) return "n/a";
  auto stmt = ParseSelect(sql);
  if (!stmt.ok()) return "n/a";
  ExecContext ctx = session.MakeContext();
  aggify::VariableEnv env;
  ctx.set_vars(&env);
  auto plan = Explain(session.engine(), **stmt, ctx);
  return plan.ok() ? PlanRoot(*plan) : "n/a";
}

}  // namespace

aggify::Status RunBulkLoops(const RunConfig& config, Metrics* metrics,
                            Outcome* outcome) {
  const int dop = std::max(
      1, std::min(4, static_cast<int>(std::thread::hardware_concurrency())));
  EndToEnd e2e;
  std::unique_ptr<Fixture> fixture;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    fixture.reset();
    const int64_t t0 = NowNs();
    ASSIGN_OR_RETURN(fixture, SetUp(config.seed, dop));
    e2e.setup_s.Add(NsToMs(NowNs() - t0) / 1e3);
  }
  Fixture& f = *fixture;
  RewriteProbe probe;
  RETURN_NOT_OK(probe.Init(config.seed));
  ASSIGN_OR_RETURN(aggify::Table * log,
                   f.db->catalog().GetTable("lineitem_log"));
  const std::vector<Value> trips = {Value::Int(kForTrips)};
  ASSIGN_OR_RETURN(Value native_reference,
                   CallFunction(*f.dop1, "qty_sum_original", {}));

  // One timed call; the outcome counts as an attempted operation.
  std::map<std::string, aggify::IoStats> last_io;
  bool traced = false;
  bool warm_up = true;
  // DOP-1 operations rotate over the CPUs; the DOP-n fold runs unpinned.
  CpuRotation rotation;
  auto timed = [&](const std::string& kind, auto&& fn,
                   bool reference = false) -> bool {
    ++outcome->attempted;
    if (kind == "fold_dopN") {
      rotation.Restore();
    } else {
      rotation.Next();
    }
    OpScope op("bulk_op", &f.db->stats());
    const aggify::IoStats before = f.db->stats();
    const int64_t t0 = NowNs();
    Status status = fn();
    const double ms = NsToMs(NowNs() - t0);
    if (!status.ok()) {
      outcome->Fail(kind + ": " + status.ToString());
      return false;
    }
    last_io[kind] = Delta(f.db->stats(), before);
    if (warm_up) return true;
    if (!reference) {
      (traced ? e2e.traced_op_ms : e2e.op_ms)[kind].Add(ms);
    } else if (!traced) {
      e2e.reference_ms[kind].Add(ms);
    }
    return true;
  };

  const int64_t deadline =
      NowNs() + static_cast<int64_t>(config.seconds * 1e9);
  int rounds = 0;
  // Round 0 warms plans and caches and is not timed.
  while (rounds <= 1 || NowNs() < deadline) {
    warm_up = rounds == 0;
    traced = config.trace && rounds % 2 == 0 && !warm_up;
    Tracer::Get().SetEnabled(traced);
    Value fold1, foldn, native, cursor, for_conv, for_interp;
    const bool ok_fold1 = timed("fold_dop1", [&] {
      ASSIGN_OR_RETURN(fold1, CallFunction(*f.dop1, "scan_stats", {}));
      return Status::OK();
    });
    const bool ok_foldn = timed("fold_dopN", [&] {
      ASSIGN_OR_RETURN(foldn, CallFunction(*f.dopn, "scan_stats", {}));
      return Status::OK();
    });
    const bool ok_native = timed("native_fold", [&] {
      ASSIGN_OR_RETURN(native, CallFunction(*f.dop1, "qty_sum", {}));
      return Status::OK();
    });
    const bool ok_cursor = timed("cursor_loop", [&] {
      ASSIGN_OR_RETURN(cursor,
                       CallFunction(*f.dop1, "scan_stats_original", {}));
      return Status::OK();
    });
    log->RestoreRows({});
    const bool ok_insert_rewritten = timed("insert_rewritten", [&] {
      return ExecuteBlock(*f.dop1,
                          static_cast<const BlockStmt&>(*f.insert_rewritten));
    });
    std::vector<Row> rows_rewritten = log->SnapshotRows();
    log->RestoreRows({});
    const bool ok_insert_interpreted = timed(
        "insert_interpreted",
        [&] {
          return ExecuteBlock(
              *f.dop1, static_cast<const BlockStmt&>(*f.insert_original));
        },
        /*reference=*/true);
    std::vector<Row> rows_interpreted = log->SnapshotRows();
    log->RestoreRows({});
    const bool ok_for_conv = timed("for_converted", [&] {
      ASSIGN_OR_RETURN(for_conv,
                       CallFunction(*f.dop1, "harmonic_converted", trips));
      return Status::OK();
    });
    const bool ok_for_interp = timed(
        "for_interpreted",
        [&] {
          ASSIGN_OR_RETURN(for_interp,
                           CallFunction(*f.dop1, "harmonic", trips));
          return Status::OK();
        },
        /*reference=*/true);
    Tracer::Get().SetEnabled(false);
    rotation.Restore();

    // Output checks: rewritten == interpreted, DOP n == DOP 1; an operation
    // that already failed is not counted twice.
    if (ok_fold1 && ok_cursor && !fold1.StructurallyEquals(cursor)) {
      outcome->Fail("fold_dop1 " + fold1.ToString() + " != cursor loop " +
                    cursor.ToString());
    }
    if (ok_foldn && ok_fold1 && !foldn.StructurallyEquals(fold1)) {
      outcome->Fail("fold_dopN " + foldn.ToString() + " != fold_dop1 " +
                    fold1.ToString());
    }
    if (ok_native && !native.StructurallyEquals(native_reference)) {
      outcome->Fail("native_fold " + native.ToString() + " != interpreted " +
                    native_reference.ToString());
    }
    if (ok_for_conv && ok_for_interp &&
        !for_conv.StructurallyEquals(for_interp)) {
      outcome->Fail("for_converted " + for_conv.ToString() +
                    " != for_interpreted " + for_interp.ToString());
    }
    if (ok_insert_rewritten && ok_insert_interpreted &&
        (!SameRows(rows_rewritten, rows_interpreted) ||
         static_cast<int64_t>(rows_interpreted.size()) != f.rows_inserted)) {
      outcome->Fail("insert loop: rewritten log (" +
                    std::to_string(rows_rewritten.size()) +
                    " rows) differs from interpreted log (" +
                    std::to_string(rows_interpreted.size()) + " rows)");
    }
    if (!warm_up) {
      Tracer::Get().SetEnabled(traced);
      {
        OpScope op("rewrite_probe");
        RETURN_NOT_OK(probe.Round(&e2e.rewrite_ms));
      }
      if (traced) {
        // Planning runs inside the calls above (mostly as cache hits); plan
        // the rewritten queries once more on their own for the plan layer.
        OpScope op("plan_probe");
        for (const AggifyReport& r : f.reports) {
          for (const auto& lr : r.rewrites) {
            ExplainRoot(*f.dop1, lr.rewritten_query_sql);
            if (lr.parallel_eligible) {
              ExplainRoot(*f.dopn, lr.rewritten_query_sql);
            }
          }
        }
      }
      Tracer::Get().SetEnabled(false);
    }
    ++rounds;
  }

  // --- report ------------------------------------------------------------
  auto median = [&](const char* kind) { return e2e.op_ms[kind].Median(); };
  auto reference = [&](const char* kind) {
    return e2e.reference_ms[kind].Median();
  };
  auto rate = [](int64_t rows, double ms) {
    return ms > 0 ? rows / (ms / 1e3) : 0;
  };
  const double rows = static_cast<double>(f.rows_folded);
  ReportLine("bulk_loops: seed %llu, SF %g, %lld rows folded, %lld rows "
             "inserted per INSERT loop, DOP n = %d, %d timed rounds",
             static_cast<unsigned long long>(config.seed), kScaleFactor,
             static_cast<long long>(f.rows_folded),
             static_cast<long long>(f.rows_inserted), dop, rounds - 1);
  const double fold1_ms = median("fold_dop1"), foldn_ms = median("fold_dopN");
  metrics->Set("bulk.agg_fold_rows_per_s", rate(f.rows_folded, fold1_ms),
               "rows/s");
  metrics->Set("bulk.parallel_fold_rows_per_s", rate(f.rows_folded, foldn_ms),
               "rows/s");
  metrics->Set("bulk.native_fold_rows_per_s",
               rate(f.rows_folded, median("native_fold")), "rows/s");
  metrics->Set("bulk.cursor_rows_per_s",
               rate(f.rows_folded, median("cursor_loop")),
               "rows/s");
  metrics->Set("bulk.insert_rows_per_s",
               rate(f.rows_inserted, median("insert_rewritten")), "rows/s");
  metrics->Set("bulk.insert_interpreted_rows_per_s",
               rate(f.rows_inserted, reference("insert_interpreted")),
               "rows/s");
  metrics->Set("bulk.for_iters_per_s", rate(kForTrips, median("for_converted")),
               "iters/s");
  metrics->Set("bulk.for_converted_ms", median("for_converted"), "ms");
  metrics->Set("bulk.for_interpreted_ms", reference("for_interpreted"), "ms");
  metrics->Set("exec.parallel_speedup", foldn_ms > 0 ? fold1_ms / foldn_ms : 0,
               "x");
  metrics->Set("exec.parallel_base_ms", fold1_ms, "ms");
  metrics->Set("aggregates.agg_delta_ns_per_row", fold1_ms * 1e6 / rows, "ns");
  metrics->Set("aggregates.builtin_ns_per_row",
               median("native_fold") * 1e6 / rows,
               "ns");
  for (const auto& entry : metrics->entries()) {
    if (entry.name.rfind("bulk.", 0) == 0 ||
        entry.name.rfind("exec.", 0) == 0 ||
        entry.name.rfind("aggregates.", 0) == 0) {
      ReportLine("%-36s %14.4f %s", entry.name.c_str(), entry.value,
                 entry.unit.c_str());
    }
  }
  ReportLine("FOR loop per call: converted %.4f ms next to interpreted %.4f ms",
             median("for_converted"), reference("for_interpreted"));

  IoTotals io;
  for (const auto& [kind, delta] : last_io) io.Add(delta, 1);
  ReportIo(io, 2 * f.rows_inserted, metrics);

  // Path pinning: rewrite outcomes and the plan root of each rewritten
  // query at DOP 1 and, when parallel-eligible, at DOP n.
  ReportRewrites(f.reports, metrics);
  std::vector<std::string> roots;
  for (const AggifyReport& r : f.reports) {
    for (const auto& lr : r.rewrites) {
      roots.push_back(ExplainRoot(*f.dop1, lr.rewritten_query_sql));
      const std::string& name =
          lr.aggregate_name.empty() ? lr.dml_table : lr.aggregate_name;
      std::string line = "plan of " + name + ": dop1 " + roots.back();
      if (lr.parallel_eligible) {
        roots.push_back(ExplainRoot(*f.dopn, lr.rewritten_query_sql));
        line += ", dop" + std::to_string(dop) + " " + roots.back();
      }
      ReportLine("%s", line.c_str());
    }
  }
  ReportPlanRoots(roots, metrics);
  ReportPlanCache(f.dop1->engine().plan_cache().hits() +
                      f.dopn->engine().plan_cache().hits(),
                  f.dop1->engine().plan_cache().misses() +
                      f.dopn->engine().plan_cache().misses(),
                  metrics);
  metrics->Set("parser.statements", g_statements_parsed.load(), "count");
  ReportRobustness(f.db->robustness(), metrics);

  ReportEndToEnd(e2e, metrics);
  if (config.trace) {
    ReportTrace(config, e2e, Tracer::Get().Collect(), metrics);
  }
  return Status::OK();
}

}  // namespace perfbench
