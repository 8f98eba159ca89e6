// The three perfbench workloads and the pieces of reporting they share.
#pragma once

#include <string>
#include <vector>

#include "aggify/rewriter.h"
#include "bench.h"
#include "common/robustness_stats.h"
#include "storage/io_stats.h"
#include "trace.h"

namespace perfbench {

aggify::Status RunTpchCursor(const RunConfig& config, Metrics* metrics,
                             Outcome* outcome);
aggify::Status RunBulkLoops(const RunConfig& config, Metrics* metrics,
                            Outcome* outcome);
aggify::Status RunServerMixed(const RunConfig& config, Metrics* metrics,
                              Outcome* outcome);

/// \brief What every workload measures for the end-to-end metrics.
struct EndToEnd {
  Samples setup_s;         ///< one sample per set-up repetition
  KindSamples rewrite_ms;  ///< per rewritten function / block
  KindSamples op_ms;       ///< per operation kind, untraced operations only
  KindSamples traced_op_ms;  ///< the same kinds, traced operations
  /// Untraced timings of reference twins (an interpreted run kept only to
  /// check and to compare against a rewritten kind): printed with the kinds,
  /// left out of op_p75_ms and ops_per_s so that they do not dilute
  /// the kinds a change targets.
  KindSamples reference_ms;
  /// ops_per_s is the operation rate when every operation takes its kind's
  /// p75 time: `concurrency` operations in flight at once, and each kind
  /// weighted by its number of untraced operations (`weight_by_mix`, the
  /// measured mix of a closed loop) or by one (a round of one operation of
  /// each kind).
  int concurrency = 1;
  bool weight_by_mix = false;
};

/// Sets setup_s, rewrite_p75_ms, op_p75_ms and ops_per_s (the end-to-end
/// metrics), op_p50_ms, op_p90_ms and rewrite_p50_ms, and prints the
/// per-kind table. op_pXX_ms is the geometric mean over kinds of each
/// kind's XX-th percentile. The upper quartile rather than the median is
/// the end-to-end timing because it stays on one side of the speed switches
/// of a shared host's cores (see README.md, "Why the upper quartile").
void ReportEndToEnd(const EndToEnd& e2e, Metrics* metrics);

/// Per-layer metrics of a traced run: self time per layer, span-derived
/// layer timings, tracing overhead. Writes the span file when configured.
void ReportTrace(const RunConfig& config, const EndToEnd& e2e,
                 const std::vector<SpanRecord>& spans, Metrics* metrics);

/// robustness.* from the shared governance counters.
void ReportRobustness(const aggify::RobustnessStats& stats, Metrics* metrics);

/// The I/O counters one operation of each kind consumed, summed.
struct IoTotals {
  int64_t logical_reads = 0;
  int64_t worktable_pages_written = 0;
  int64_t worktable_pages_read = 0;
  int64_t cursor_fetches = 0;
  int64_t cursors_opened = 0;
  int64_t queries_executed = 0;
  int64_t rows_produced = 0;
  int64_t result_rows = 0;
  double cursor_model_ms = 0;
  void Add(const aggify::IoStats& delta, int64_t rows);
};

/// storage.*, procedural.{cursor_fetches,...}, exec.rows_produced*.
void ReportIo(const IoTotals& io, int64_t rows_inserted, Metrics* metrics);

/// aggify.*: what each rewrite did, summed over `reports`; one report line
/// per rewritten loop (the path-pinning record).
void ReportRewrites(const std::vector<aggify::AggifyReport>& reports,
                    Metrics* metrics);

/// plan.root_*: how many of `roots` (PlanRoot renderings) have each
/// aggregation root, and how many run vectorized.
void ReportPlanRoots(const std::vector<std::string>& roots, Metrics* metrics);

/// plan.cache_hits, plan.cache_misses, plan.cache_hit_rate.
void ReportPlanCache(int64_t hits, int64_t misses, Metrics* metrics);

/// `after - before`, field by field.
aggify::IoStats Delta(const aggify::IoStats& after,
                      const aggify::IoStats& before);

}  // namespace perfbench
