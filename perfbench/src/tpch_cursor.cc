// tpch_cursor: the six TPC-H cursor UDFs (Q2, Q13, Q14, Q18, Q19, Q21) at
// SF 0.001, each driver query run under Original, Aggify and Aggify+ at
// DOP 1. Every operation re-registers the UDFs from source in a fresh
// session, rewrites them for its mode and times the driver query, the way
// the harness's RunWorkloadQuery does. The three modes of a query must
// return the same row multiset.
#include <algorithm>
#include <optional>

#include "layers.h"
#include "tpch/cursor_workload.h"
#include "tpch/tpch_gen.h"
#include "workloads.h"

namespace perfbench {

namespace {

using aggify::TpchCursorQuery;

constexpr double kScaleFactor = 0.001;
constexpr int kSetupRepetitions = 40;
/// Within a round each (query, mode) runs until its operations have taken
/// this long, at most kMaxRepeats times: the millisecond kinds get tens of
/// samples a run while Q18 under Aggify+ (seconds) runs once a round.
constexpr double kRoundBudgetMs = 40;
constexpr int kMaxRepeats = 16;

enum class Mode { kOriginal, kAggify, kAggifyPlus };
constexpr Mode kModes[] = {Mode::kOriginal, Mode::kAggify, Mode::kAggifyPlus};

const char* ModeName(Mode mode) {
  switch (mode) {
    case Mode::kOriginal: return "Original";
    case Mode::kAggify: return "Aggify";
    case Mode::kAggifyPlus: return "Aggify+";
  }
  return "?";
}

/// Sorted rendered rows: the order-insensitive multiset of a result.
std::vector<std::string> RowKeys(const QueryResult& result) {
  std::vector<std::string> keys;
  keys.reserve(result.rows.size());
  for (const auto& row : result.rows) {
    std::string key;
    for (const Value& v : row) {
      key += v.ToString();
      key += '\x01';
    }
    keys.push_back(std::move(key));
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

/// What one (query, mode) operation measured.
struct OpResult {
  std::vector<std::string> rows;
  aggify::IoStats io;
  int64_t result_rows = 0;
  double execute_ms = 0;
  double rewrite_ms = 0;
  std::string plan_root;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
};

/// One operation: fresh session, UDFs registered from source, rewritten
/// for `mode`, driver parsed (and Froid-rewritten under Aggify+), then the
/// timed execution.
Result<OpResult> RunOp(Database* db, const TpchCursorQuery& q, Mode mode,
                       bool explain) {
  OpScope op("tpch_op", &db->stats());
  OpResult out;
  auto session = MakeSession(db);
  ASSIGN_OR_RETURN(aggify::Script script, ParseScript(q.udf_sql));
  RETURN_NOT_OK(RunScript(*session, script));

  int64_t rewrite_ns = 0;
  if (mode != Mode::kOriginal) {
    aggify::Aggify aggify(db);
    for (const auto& name : q.udf_names) {
      int64_t t0 = NowNs();
      RETURN_NOT_OK(RewriteFunction(aggify, name).status());
      rewrite_ns += NowNs() - t0;
    }
  }
  ASSIGN_OR_RETURN(auto driver, ParseSelect(q.driver_sql));
  if (mode == Mode::kAggifyPlus && q.froid_applicable) {
    aggify::Froid froid(db);
    int64_t t0 = NowNs();
    RETURN_NOT_OK(FroidRewriteQuery(froid, driver.get()).status());
    rewrite_ns += NowNs() - t0;
  }
  out.rewrite_ms = NsToMs(rewrite_ns);

  ExecContext ctx = session->MakeContext();
  TraceHooks(ctx);
  aggify::VariableEnv env;
  ctx.set_vars(&env);
  if (explain) {
    ASSIGN_OR_RETURN(std::string plan,
                     Explain(session->engine(), *driver, ctx));
    out.plan_root = PlanRoot(plan);
  }

  const aggify::IoStats before = db->stats();
  const int64_t t0 = NowNs();
  ASSIGN_OR_RETURN(QueryResult result,
                   Execute(session->engine(), *driver, ctx));
  out.execute_ms = NsToMs(NowNs() - t0);
  out.io = Delta(db->stats(), before);
  out.result_rows = static_cast<int64_t>(result.rows.size());
  out.rows = RowKeys(result);
  out.cache_hits = session->engine().plan_cache().hits();
  out.cache_misses = session->engine().plan_cache().misses();
  return out;
}

struct KindRecord {
  std::string query;
  Mode mode;
  OpResult last;          ///< counters of the latest operation
  std::string plan_root;  ///< from the operations that ran EXPLAIN
};

}  // namespace

aggify::Status RunTpchCursor(const RunConfig& config, Metrics* metrics,
                             Outcome* outcome) {
  const auto& queries = aggify::TpchCursorQueries();
  EndToEnd e2e;
  CpuRotation rotation;

  // --- set-up: data generation, UDF registration and rewriting ---------
  std::unique_ptr<Database> db;
  std::vector<AggifyReport> reports;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    rotation.Next();
    const int64_t t0 = NowNs();
    auto fresh = std::make_unique<Database>();
    aggify::TpchConfig tpch;
    tpch.scale_factor = kScaleFactor;
    tpch.seed = config.seed;
    RETURN_NOT_OK(aggify::PopulateTpch(fresh.get(), tpch));
    auto session = MakeSession(fresh.get());
    std::vector<AggifyReport> rep_reports;
    for (const auto& q : queries) {
      ASSIGN_OR_RETURN(aggify::Script script, ParseScript(q.udf_sql));
      RETURN_NOT_OK(RunScript(*session, script));
      aggify::Aggify aggify(fresh.get());
      for (const auto& name : q.udf_names) {
        ASSIGN_OR_RETURN(AggifyReport report, RewriteFunction(aggify, name));
        rep_reports.push_back(std::move(report));
      }
    }
    e2e.setup_s.Add(NsToMs(NowNs() - t0) / 1e3);
    db = std::move(fresh);
    reports = std::move(rep_reports);
  }

  // --- measured rounds: every (query, mode) at least once per round -----
  std::vector<KindRecord> kinds;
  for (const auto& q : queries) {
    for (Mode mode : kModes) kinds.push_back({q.id, mode, {}, {}});
  }
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(config.seconds * 1e9);
  const int64_t busy_start = NowNs();
  int rounds = 0;
  while (rounds == 0 || NowNs() < deadline) {
    // Traced runs alternate untraced and traced rounds, so the overhead is
    // measured under the same conditions.
    const bool traced = config.trace && rounds % 2 == 1;
    Tracer::Get().SetEnabled(traced);
    size_t k = 0;
    for (const auto& q : queries) {
      std::optional<std::vector<std::string>> reference;
      for (Mode mode : kModes) {
        const std::string kind = q.id + "/" + ModeName(mode);
        const int64_t kind_start = NowNs();
        for (int rep = 0; rep < kMaxRepeats &&
                          NsToMs(NowNs() - kind_start) < kRoundBudgetMs;
             ++rep) {
          ++outcome->attempted;
          rotation.Next();
          auto op =
              RunOp(db.get(), q, mode, rep == 0 && (rounds == 0 || traced));
          if (!op.ok()) {
            outcome->Fail(kind + ": " + op.status().ToString());
            break;
          }
          if (!reference) {
            if (mode == Mode::kOriginal) reference = op->rows;
          } else if (op->rows != *reference) {
            outcome->Fail(kind + ": result differs from Original");
          }
          (traced ? e2e.traced_op_ms : e2e.op_ms)[kind].Add(op->execute_ms);
          if (mode != Mode::kOriginal) {
            e2e.rewrite_ms[kind].Add(op->rewrite_ms);
          }
          if (!op->plan_root.empty()) kinds[k].plan_root = op->plan_root;
          kinds[k].last = std::move(*op);
        }
        ++k;
      }
    }
    ++rounds;
  }
  Tracer::Get().SetEnabled(false);
  const double busy_s = NsToMs(NowNs() - busy_start) / 1e3;
  ReportLine("tpch_cursor: seed %llu, SF %g, %d rounds in %.2f s",
             static_cast<unsigned long long>(config.seed), kScaleFactor,
             rounds, busy_s);

  // --- per (query, mode): wall time next to modeled time ----------------
  ReportLine("%-6s %-9s %11s %11s %11s %10s %8s %8s %10s %s", "query", "mode",
             "wall_ms", "model_ms", "modeled_ms", "reads", "wt_pages",
             "nested", "rows_prod", "plan root");
  IoTotals io;
  std::vector<double> mode_ms[3], modeled_ms[3];
  double q18_ms[3] = {0, 0, 0};
  int64_t q18_reads[3] = {0, 0, 0}, q18_nested[3] = {0, 0, 0};
  std::vector<std::string> plan_roots;
  int64_t cache_hits = 0, cache_misses = 0;
  for (const KindRecord& kind : kinds) {
    const OpResult& r = kind.last;
    cache_hits += r.cache_hits;
    cache_misses += r.cache_misses;
    const std::string name = kind.query + "/" + ModeName(kind.mode);
    const double wall_ms = e2e.op_ms[name].Median();
    const double model_ms = aggify::CursorCostModel{}.Seconds(r.io) * 1e3;
    const int m = static_cast<int>(kind.mode);
    mode_ms[m].push_back(wall_ms);
    modeled_ms[m].push_back(wall_ms + model_ms);
    io.Add(r.io, r.result_rows);
    if (kind.query == "Q18") {
      q18_ms[m] = wall_ms;
      q18_reads[m] = r.io.TotalLogicalReads();
      q18_nested[m] = r.io.queries_executed;
    }
    plan_roots.push_back(kind.plan_root);
    ReportLine("%-6s %-9s %11.4f %11.4f %11.4f %10lld %8lld %8lld %10lld %s",
               kind.query.c_str(), ModeName(kind.mode), wall_ms, model_ms,
               wall_ms + model_ms,
               static_cast<long long>(r.io.TotalLogicalReads()),
               static_cast<long long>(r.io.worktable_pages_written),
               static_cast<long long>(r.io.queries_executed),
               static_cast<long long>(r.io.rows_produced),
               kind.plan_root.c_str());
  }
  const double original_ms = GeoMean(mode_ms[0]);
  const double aggify_ms = GeoMean(mode_ms[1]);
  const double aggify_plus_ms = GeoMean(mode_ms[2]);
  ReportLine("original_ms %.4f ms  aggify_ms %.4f ms  aggify_plus_ms %.4f ms "
             "(geometric means over the six queries)",
             original_ms, aggify_ms, aggify_plus_ms);
  ReportLine("modeled (Fig. 9a shape): original %.4f ms  aggify %.4f ms  "
             "aggify+ %.4f ms",
             GeoMean(modeled_ms[0]), GeoMean(modeled_ms[1]),
             GeoMean(modeled_ms[2]));
  ReportLine("Q18: Aggify+ / Aggify wall %.1fx, logical reads %.1fx, nested "
             "queries %lld vs %lld",
             q18_ms[1] > 0 ? q18_ms[2] / q18_ms[1] : 0.0,
             q18_reads[1] > 0 ? static_cast<double>(q18_reads[2]) / q18_reads[1]
                              : 0.0,
             static_cast<long long>(q18_nested[2]),
             static_cast<long long>(q18_nested[1]));

  metrics->Set("tpch.original_ms", original_ms, "ms");
  metrics->Set("tpch.aggify_ms", aggify_ms, "ms");
  metrics->Set("tpch.aggify_plus_ms", aggify_plus_ms, "ms");
  metrics->Set("tpch.original_modeled_ms", GeoMean(modeled_ms[0]), "ms");
  metrics->Set("tpch.q18_aggify_ms", q18_ms[1], "ms");
  metrics->Set("tpch.q18_aggify_plus_ms", q18_ms[2], "ms");
  metrics->Set("tpch.q18_reads_aggify", q18_reads[1], "count");
  metrics->Set("tpch.q18_reads_aggify_plus", q18_reads[2], "count");
  metrics->Set("tpch.q18_nested_queries_aggify_plus", q18_nested[2], "count");
  ReportPlanRoots(plan_roots, metrics);
  ReportPlanCache(cache_hits, cache_misses, metrics);
  metrics->Set("parser.statements", g_statements_parsed.load(), "count");
  ReportIo(io, 0, metrics);

  // --- path pinning: what each UDF's rewrite did -------------------------
  ReportRewrites(reports, metrics);
  ReportRobustness(db->robustness(), metrics);

  ReportEndToEnd(e2e, metrics);
  if (config.trace) {
    ReportTrace(config, e2e, Tracer::Get().Collect(), metrics);
  }
  return aggify::Status::OK();
}

}  // namespace perfbench
