#include <cstdarg>

#include "workloads.h"

namespace perfbench {

void ReportLine(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::vfprintf(stdout, fmt, args);
  va_end(args);
  std::fputc('\n', stdout);
}

aggify::IoStats Delta(const aggify::IoStats& after,
                      const aggify::IoStats& before) {
  aggify::IoStats d;
  d.logical_reads = after.logical_reads - before.logical_reads;
  d.worktable_pages_written =
      after.worktable_pages_written - before.worktable_pages_written;
  d.worktable_pages_read =
      after.worktable_pages_read - before.worktable_pages_read;
  d.cursor_fetches = after.cursor_fetches - before.cursor_fetches;
  d.cursors_opened = after.cursors_opened - before.cursors_opened;
  d.queries_executed = after.queries_executed - before.queries_executed;
  d.rows_produced = after.rows_produced - before.rows_produced;
  return d;
}

void IoTotals::Add(const aggify::IoStats& delta, int64_t rows) {
  logical_reads += delta.logical_reads;
  worktable_pages_written += delta.worktable_pages_written;
  worktable_pages_read += delta.worktable_pages_read;
  cursor_fetches += delta.cursor_fetches;
  cursors_opened += delta.cursors_opened;
  queries_executed += delta.queries_executed;
  rows_produced += delta.rows_produced;
  result_rows += rows;
  cursor_model_ms += aggify::CursorCostModel{}.Seconds(delta) * 1e3;
}

void ReportIo(const IoTotals& io, int64_t rows_inserted, Metrics* metrics) {
  const double result_rows =
      static_cast<double>(io.result_rows > 0 ? io.result_rows : 1);
  metrics->Set("storage.logical_reads", io.logical_reads, "count");
  metrics->Set("storage.worktable_pages_written", io.worktable_pages_written,
               "count");
  metrics->Set("storage.worktable_pages_read", io.worktable_pages_read,
               "count");
  metrics->Set("storage.reads_per_result_row",
               (io.logical_reads + io.worktable_pages_read) / result_rows,
               "ratio");
  metrics->Set("storage.rows_inserted", rows_inserted, "count");
  metrics->Set("procedural.cursor_fetches", io.cursor_fetches, "count");
  metrics->Set("procedural.cursors_opened", io.cursors_opened, "count");
  metrics->Set("procedural.nested_queries", io.queries_executed, "count");
  metrics->Set("procedural.cursor_model_ms", io.cursor_model_ms, "ms");
  metrics->Set("exec.rows_produced", io.rows_produced, "count");
  metrics->Set("exec.rows_produced_per_result_row",
               io.rows_produced / result_rows, "ratio");
}

void ReportRewrites(const std::vector<aggify::AggifyReport>& reports,
                    Metrics* metrics) {
  int64_t found = 0, rewritten = 0, lowered = 0, synthesized = 0,
          parallel = 0, elided = 0, dml = 0;
  for (const aggify::AggifyReport& r : reports) {
    found += r.loops_found;
    rewritten += r.loops_rewritten;
    for (const auto& lr : r.rewrites) {
      lowered += lr.lowered_to_builtin;
      synthesized += lr.merge_synthesized;
      parallel += lr.parallel_eligible;
      elided += lr.sort_elided;
      dml += lr.family != aggify::RewriteFamily::kScalarAggregate;
      const char* family = "scalar_aggregate";
      if (lr.family == aggify::RewriteFamily::kDmlInsert) family = "dml_insert";
      if (lr.family == aggify::RewriteFamily::kDmlUpdate) family = "dml_update";
      ReportLine("rewrite %-22s family=%s lowered=%d merge=%d "
                 "merge_synthesized=%d parallel_eligible=%d sort_elided=%d",
                 lr.aggregate_name.empty() ? lr.dml_table.c_str()
                                           : lr.aggregate_name.c_str(),
                 family, lr.lowered_to_builtin, lr.merge_supported,
                 lr.merge_synthesized, lr.parallel_eligible, lr.sort_elided);
    }
  }
  metrics->Set("aggify.loops_found", found, "count");
  metrics->Set("aggify.loops_rewritten", rewritten, "count");
  metrics->Set("aggify.lowered_to_builtin", lowered, "count");
  metrics->Set("aggify.merge_synthesized", synthesized, "count");
  metrics->Set("aggify.parallel_eligible", parallel, "count");
  metrics->Set("aggify.sort_elided", elided, "count");
  metrics->Set("aggify.dml_rewrites", dml, "count");
}

void ReportPlanRoots(const std::vector<std::string>& roots, Metrics* metrics) {
  int64_t gather = 0, hash = 0, stream = 0, batch = 0;
  for (const std::string& root : roots) {
    gather += root.rfind("Gather", 0) == 0;
    hash += root.rfind("HashAggregate", 0) == 0;
    stream += root.rfind("StreamAggregate", 0) == 0;
    batch += root.find("[batch]") != std::string::npos;
  }
  metrics->Set("plan.root_gather", gather, "count");
  metrics->Set("plan.root_hash_aggregate", hash, "count");
  metrics->Set("plan.root_stream_aggregate", stream, "count");
  metrics->Set("plan.root_batch", batch, "count");
}

void ReportPlanCache(int64_t hits, int64_t misses, Metrics* metrics) {
  metrics->Set("plan.cache_hits", hits, "count");
  metrics->Set("plan.cache_misses", misses, "count");
  metrics->Set("plan.cache_hit_rate",
               hits + misses > 0 ? static_cast<double>(hits) / (hits + misses)
                                 : 0,
               "ratio");
  ReportLine("plan cache: %lld hits, %lld misses",
             static_cast<long long>(hits), static_cast<long long>(misses));
}

void ReportRobustness(const aggify::RobustnessStats& stats, Metrics* metrics) {
  metrics->Set("robustness.fallbacks_taken", stats.fallbacks_taken.load(),
               "count");
  metrics->Set("robustness.rewrite_exec_failures",
               stats.rewrite_exec_failures.load(), "count");
  metrics->Set("robustness.degraded_batch_to_row",
               stats.degraded_batch_to_row.load(), "count");
  metrics->Set("robustness.degraded_parallel_to_serial",
               stats.degraded_parallel_to_serial.load(), "count");
  metrics->Set("robustness.admission_waits", stats.admission_waits.load(),
               "count");
  metrics->Set("robustness.admission_rejections",
               stats.admission_rejections.load(), "count");
  ReportLine("governance: %s", stats.ToString().c_str());
}

void ReportEndToEnd(const EndToEnd& e2e, Metrics* metrics) {
  ReportLine("%-28s %6s %12s %12s %12s %12s", "operation kind", "n",
             "p50_ms", "p75_ms", "p90_ms", "tail_ms");
  auto row = [](const std::string& kind, const Samples& samples,
                const char* note) {
    ReportLine("%-28s %6zu %12.4f %12.4f %12.4f %12.4f (p%g%s)", kind.c_str(),
               samples.size(), samples.Median(), samples.Percentile(0.75),
               samples.Percentile(0.9), samples.Tail(),
               samples.TailQuantile() * 100, note);
  };
  for (const auto& [kind, samples] : e2e.op_ms.kinds()) row(kind, samples, "");
  for (const auto& [kind, samples] : e2e.reference_ms.kinds()) {
    row(kind, samples, ", reference");
  }
  for (const auto& [kind, samples] : e2e.rewrite_ms.kinds()) {
    row(kind, samples, ", rewrite");
  }
  metrics->Set("setup_s", e2e.setup_s.Median(), "s");
  metrics->Set("rewrite_p75_ms", e2e.rewrite_ms.GeoMeanOfPercentile(0.75),
               "ms");
  metrics->Set("op_p75_ms", e2e.op_ms.GeoMeanOfPercentile(0.75), "ms");
  metrics->Set("op_p90_ms", e2e.op_ms.GeoMeanOfPercentile(0.9), "ms");
  metrics->Set("rewrite_p50_ms", e2e.rewrite_ms.GeoMeanOfPercentile(0.5),
               "ms");
  metrics->Set("op_p50_ms", e2e.op_ms.GeoMeanOfPercentile(0.5), "ms");
  double ops = 0, busy_ms = 0;
  for (const auto& [kind, samples] : e2e.op_ms.kinds()) {
    const double weight =
        e2e.weight_by_mix ? static_cast<double>(samples.size()) : 1.0;
    ops += weight;
    busy_ms += weight * samples.Percentile(0.75);
  }
  metrics->Set("ops_per_s",
               busy_ms > 0 ? e2e.concurrency * ops / (busy_ms / 1e3) : 0,
               "1/s");
}

void ReportTrace(const RunConfig& config, const EndToEnd& e2e,
                 const std::vector<SpanRecord>& spans, Metrics* metrics) {
  std::vector<int64_t> self = SelfTimeByLayer(spans);
  int64_t total_self = 0;
  for (int64_t ns : self) total_self += ns;
  ReportLine("self time by layer over %zu traced spans (%lld not recorded: "
             "buffer full):",
             spans.size(), static_cast<long long>(Tracer::Get().dropped()));
  for (size_t i = 0; i < self.size(); ++i) {
    const char* layer = LayerName(static_cast<Layer>(i));
    metrics->Set(std::string("self_ms.") + layer, NsToMs(self[i]), "ms");
    ReportLine("  %-12s %12.3f ms  %5.1f%%", layer, NsToMs(self[i]),
               total_self > 0 ? 100.0 * self[i] / total_self : 0.0);
  }

  Samples parse_us, rewrite_us, froid_us, plan_us, execute_ms, call_ms;
  int64_t root_ops = 0;
  for (const SpanRecord& s : spans) {
    const double ns = static_cast<double>(s.end_ns - s.start_ns);
    const std::string name = s.name;
    switch (s.layer) {
      case Layer::kParser: parse_us.Add(ns / 1e3); break;
      case Layer::kAggify: rewrite_us.Add(ns / 1e3); break;
      case Layer::kFroid: froid_us.Add(ns / 1e3); break;
      case Layer::kPlan: plan_us.Add(ns / 1e3); break;
      case Layer::kExec:
        if (name == "execute") execute_ms.Add(ns / 1e6);
        break;
      case Layer::kProcedural:
        if (name == "call" || name == "udf" || name == "execute_block") {
          call_ms.Add(ns / 1e6);
        }
        break;
      default: break;
    }
    if (s.parent == 0) ++root_ops;
  }
  metrics->SetTiming("parser.parse_us", parse_us, "us");
  metrics->SetTiming("aggify.rewrite_us", rewrite_us, "us");
  metrics->SetTiming("froid.rewrite_us", froid_us, "us");
  metrics->SetTiming("plan.plan_us", plan_us, "us");
  metrics->SetTiming("exec.execute_ms", execute_ms, "ms");
  metrics->SetTiming("procedural.call_ms", call_ms, "ms");
  metrics->Set("trace.spans", static_cast<double>(spans.size()), "count");
  metrics->Set("trace.ops", static_cast<double>(root_ops), "count");

  // Overhead: the same operation kinds, traced against untraced.
  std::vector<double> traced, untraced;
  for (const auto& [kind, samples] : e2e.traced_op_ms.kinds()) {
    for (const auto& [other, base] : e2e.op_ms.kinds()) {
      if (other == kind && !samples.empty() && !base.empty()) {
        traced.push_back(samples.Percentile(0.75));
        untraced.push_back(base.Percentile(0.75));
      }
    }
  }
  const double base = GeoMean(untraced);
  const double overhead =
      base > 0 ? (GeoMean(traced) / base - 1.0) * 100.0 : 0.0;
  metrics->Set("trace.overhead_pct", overhead, "%");
  ReportLine("tracing overhead: %+.2f%% on the geometric mean of %zu "
             "operation kinds (traced %.4f ms vs untraced %.4f ms)",
             overhead, traced.size(), GeoMean(traced), base);

  if (!config.trace_dir.empty()) {
    const std::string path = config.trace_dir + "/trace_" + config.workload +
                             "_seed" + std::to_string(config.seed) + ".tsv";
    if (WriteSpans(spans, path)) {
      ReportLine("spans written to %s", path.c_str());
    } else {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    }
  }
}

}  // namespace perfbench
