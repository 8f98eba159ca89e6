// Integration tests over the full workload suites: every experiment's
// Original / Aggify / Aggify+ configurations must produce identical results,
// and the mechanism claims (no materialization, fewer reads, less data
// moved) must hold.
#include <gtest/gtest.h>

#include "aggify/rewriter.h"
#include "froid/froid.h"
#include "test_util.h"
#include "tpch/tpch_gen.h"
#include "workloads/client_harness.h"
#include "workloads/client_programs.h"
#include "workloads/corpus.h"
#include "workloads/real_workloads.h"
#include "workloads/rubis.h"
#include "workloads/tpch_adapter.h"

namespace aggify {
namespace {

class TpchWorkloadTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new Database();
    TpchConfig config;
    config.scale_factor = 0.002;
    ASSERT_OK(PopulateTpch(db_, config));
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }
  static Database* db_;
};

Database* TpchWorkloadTest::db_ = nullptr;

TEST_F(TpchWorkloadTest, AllQueriesAgreeAcrossModes) {
  for (const auto& q : TpchCursorQueries()) {
    SCOPED_TRACE(q.id);
    ASSERT_OK_AND_ASSIGN(int64_t rows,
                         VerifyModesAgree(db_, ToWorkloadQuery(q)));
    EXPECT_GT(rows, 0) << q.id << " produced no rows";
  }
}

TEST_F(TpchWorkloadTest, AggifyEliminatesCursorTraffic) {
  for (const auto& q : TpchCursorQueries()) {
    SCOPED_TRACE(q.id);
    ASSERT_OK_AND_ASSIGN(
        RunMetrics original,
        RunWorkloadQuery(db_, ToWorkloadQuery(q), RunMode::kOriginal));
    ASSERT_OK_AND_ASSIGN(
        RunMetrics aggified,
        RunWorkloadQuery(db_, ToWorkloadQuery(q), RunMode::kAggify));
    EXPECT_GT(original.cursors_opened, 0);
    EXPECT_GT(original.worktable_pages_written, 0);
    EXPECT_EQ(aggified.cursors_opened, 0);
    EXPECT_EQ(aggified.worktable_pages_written, 0);
    EXPECT_EQ(aggified.cursor_fetches, 0);
    // Table 2's direction: strictly fewer total logical reads.
    EXPECT_LT(aggified.TotalLogicalReads(), original.TotalLogicalReads());
  }
}

TEST_F(TpchWorkloadTest, AggifyPlusCollapsesQueryCount) {
  // The per-row UDF queries decorrelate: a handful of query executions
  // instead of one per part / customer / order. Q18's lowered SUM contains
  // COUNT, so it needs the COUNT-bug-safe decorrelation.
  for (const char* id : {"Q2", "Q13", "Q18"}) {
    SCOPED_TRACE(id);
    ASSERT_OK_AND_ASSIGN(auto q, GetTpchCursorQuery(id));
    ASSERT_OK_AND_ASSIGN(RunMetrics aggified,
                         RunWorkloadQuery(db_, ToWorkloadQuery(q),
                                          RunMode::kAggify));
    ASSERT_OK_AND_ASSIGN(RunMetrics plus,
                         RunWorkloadQuery(db_, ToWorkloadQuery(q),
                                          RunMode::kAggifyPlus));
    EXPECT_GT(aggified.queries_executed, 100);  // one per outer row
    EXPECT_LE(plus.queries_executed, 5);        // set-oriented plan
  }
}

TEST_F(TpchWorkloadTest, AggifyPlusReadsNoMoreThanAggify) {
  // Logical reads are deterministic: an Aggify+ plan that re-scans per
  // outer row (a correlated subquery left by Froid) fails here.
  for (const auto& q : TpchCursorQueries()) {
    SCOPED_TRACE(q.id);
    ASSERT_OK_AND_ASSIGN(
        RunMetrics aggified,
        RunWorkloadQuery(db_, ToWorkloadQuery(q), RunMode::kAggify));
    ASSERT_OK_AND_ASSIGN(
        RunMetrics plus,
        RunWorkloadQuery(db_, ToWorkloadQuery(q), RunMode::kAggifyPlus));
    EXPECT_LE(plus.TotalLogicalReads(), aggified.TotalLogicalReads());
  }
}

TEST_F(TpchWorkloadTest, FroidGuardKeepsEveryApplicableRewrite) {
  // The guarded Froid step falls back to the Aggify plan only when a
  // correlated scalar subquery would remain; no TPC-H query leaves one.
  for (const auto& q : TpchCursorQueries()) {
    if (!q.froid_applicable) continue;
    SCOPED_TRACE(q.id);
    Session session(db_);
    ASSERT_OK(session.RunSql(q.udf_sql).status());
    Aggify aggify(db_);
    for (const auto& name : q.udf_names) {
      ASSERT_OK(aggify.RewriteFunction(name).status());
    }
    ASSERT_OK_AND_ASSIGN(auto driver, ParseSelect(q.driver_sql));
    Froid froid(db_);
    ASSERT_OK_AND_ASSIGN(int rewrites, froid.RewriteQuery(driver.get()));
    EXPECT_GT(rewrites, 0) << driver->ToString();
  }
}

class RubisWorkloadTest : public ::testing::Test {
 protected:
  void SetUp() override { ASSERT_OK(PopulateRubis(&db_)); }
  Database db_;
};

TEST_F(RubisWorkloadTest, AllScenariosRewriteAndAgree) {
  for (const auto& scenario : RubisScenarios()) {
    SCOPED_TRACE(scenario.id);
    std::string program = InstantiateRubisScenario(scenario, 3);
    ASSERT_OK_AND_ASSIGN(ClientComparison cmp,
                         CompareClientProgram(&db_, program));
    EXPECT_EQ(cmp.report.loops_found, 1);
    EXPECT_EQ(cmp.report.loops_rewritten, 1);
    // Fig. 9(b)'s mechanism: the rewritten client moves less data and makes
    // fewer round trips.
    EXPECT_LT(cmp.aggified.network.bytes_to_client,
              cmp.original.network.bytes_to_client);
    EXPECT_LT(cmp.aggified.network.round_trips,
              cmp.original.network.round_trips);
  }
}

class RealWorkloadTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new Database();
    RealWorkloadConfig config;
    config.base_rows = 400;
    ASSERT_OK(PopulateRealWorkloads(db_, config));
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }
  static Database* db_;
};

Database* RealWorkloadTest::db_ = nullptr;

TEST_F(RealWorkloadTest, AllLoopsAgreeAcrossModes) {
  for (const auto& loop : RealWorkloadLoops()) {
    SCOPED_TRACE(loop.query.id);
    ASSERT_OK(VerifyModesAgree(db_, loop.query).status());
  }
}

TEST_F(RealWorkloadTest, NestedLoopL8RewritesBothLevels) {
  Session session(db_);
  const RealLoop* l8 = nullptr;
  for (const auto& loop : RealWorkloadLoops()) {
    if (loop.query.id == "L8") l8 = &loop;
  }
  ASSERT_NE(l8, nullptr);
  ASSERT_TRUE(l8->nested);
  ASSERT_OK(session.RunSql(l8->query.udf_sql).status());
  Aggify aggify(db_);
  ASSERT_OK_AND_ASSIGN(AggifyReport report,
                       aggify.RewriteFunction(l8->query.udf_names[0]));
  EXPECT_EQ(report.loops_found, 2);
  EXPECT_EQ(report.loops_rewritten, 2);
}

class ClientProgramsTest : public ::testing::Test {};

TEST_F(ClientProgramsTest, MinCostSupplierProgramAgrees) {
  Database db;
  TpchConfig config;
  config.scale_factor = 0.002;
  ASSERT_OK(PopulateTpch(&db, config));
  std::string program = MakeMinCostSupplierProgram(50);
  ASSERT_OK_AND_ASSIGN(ClientComparison cmp, CompareClientProgram(&db, program));
  EXPECT_EQ(cmp.report.loops_rewritten, 2);  // nested: inner + outer
  ASSERT_OK_AND_ASSIGN(Value orig_sum, cmp.original.env->Get("@checksum"));
  ASSERT_OK_AND_ASSIGN(Value new_sum, cmp.aggified.env->Get("@checksum"));
  EXPECT_NEAR(orig_sum.AsDouble(), new_sum.AsDouble(), 1e-6);
  ASSERT_OK_AND_ASSIGN(Value orig_n, cmp.original.env->Get("@processed"));
  ASSERT_OK_AND_ASSIGN(Value new_n, cmp.aggified.env->Get("@processed"));
  EXPECT_EQ(orig_n.int_value(), new_n.int_value());
  EXPECT_EQ(new_n.int_value(), 50);
  // §10.6: data movement collapses to O(1).
  EXPECT_GT(cmp.original.network.bytes_to_client,
            10 * cmp.aggified.network.bytes_to_client);
}

TEST_F(ClientProgramsTest, CumulativeRoi50ColumnsAgrees) {
  Database db;
  ASSERT_OK(PopulateInvestments(&db, 200));
  std::string program = MakeCumulativeRoiProgram(150);
  ASSERT_OK_AND_ASSIGN(ClientComparison cmp, CompareClientProgram(&db, program));
  EXPECT_EQ(cmp.report.loops_rewritten, 1);
  // All 50 accumulators must match (the V_term record has 50 attributes).
  for (int i = 1; i <= kRoiColumns; ++i) {
    std::string name = "@cum" + std::to_string(i);
    ASSERT_OK_AND_ASSIGN(Value orig, cmp.original.env->Get(name));
    ASSERT_OK_AND_ASSIGN(Value rewritten, cmp.aggified.env->Get(name));
    EXPECT_NEAR(orig.AsDouble(), rewritten.AsDouble(), 1e-9) << name;
  }
  // Original ships ~200 bytes per iteration; rewritten ships one row.
  EXPECT_GT(cmp.original.network.bytes_to_client,
            50 * cmp.aggified.network.bytes_to_client);
}

TEST(CorpusTest, Table1CountsMatchThePaper) {
  const auto& corpora = ApplicabilityCorpora();
  ASSERT_EQ(corpora.size(), 3u);

  ASSERT_OK_AND_ASSIGN(CorpusStats rubis, AnalyzeCorpus(corpora[0]));
  EXPECT_EQ(rubis.total_while_loops, 16);
  EXPECT_EQ(rubis.cursor_loops, 14);
  EXPECT_EQ(rubis.aggifyable, 14);
  EXPECT_EQ(rubis.dml_insert_recovered, 1);
  EXPECT_EQ(rubis.dml_update_recovered, 0);
  EXPECT_EQ(rubis.early_exit_bounded, 1);

  ASSERT_OK_AND_ASSIGN(CorpusStats rubbos, AnalyzeCorpus(corpora[1]));
  EXPECT_EQ(rubbos.total_while_loops, 41);
  EXPECT_EQ(rubbos.cursor_loops, 14);
  EXPECT_EQ(rubbos.aggifyable, 14);
  EXPECT_EQ(rubbos.dml_insert_recovered, 0);
  EXPECT_EQ(rubbos.dml_update_recovered, 1);
  EXPECT_EQ(rubbos.early_exit_bounded, 1);

  ASSERT_OK_AND_ASSIGN(CorpusStats adempiere, AnalyzeCorpus(corpora[2]));
  EXPECT_EQ(adempiere.total_while_loops, 127);
  EXPECT_EQ(adempiere.cursor_loops, 109);
  EXPECT_GT(adempiere.aggifyable, 80);
  EXPECT_EQ(adempiere.aggifyable, 96);
  EXPECT_EQ(adempiere.dml_insert_recovered, 2);
  EXPECT_EQ(adempiere.dml_update_recovered, 2);
  EXPECT_EQ(adempiere.early_exit_bounded, 2);
  // The 13 refused loops insert into their own scan table: the primary skip
  // is the persistent-insert check, and DML recovery must NOT reclaim them
  // (self-read-after-write breaks both rewrite families).
  ASSERT_EQ(adempiere.skip_codes.size(), 1u);
  EXPECT_EQ(adempiere.skip_codes.at(DiagCode::kPersistentInsert), 13);
  // Ladder + recovery accounting: every bucket covers `aggifyable`, and the
  // recovered loops are a subset of the serial-only rewrites.
  EXPECT_EQ(adempiere.recognized_fold + adempiere.merge_synthesized +
                adempiere.serial_only,
            adempiere.aggifyable);
  EXPECT_LE(adempiere.dml_insert_recovered + adempiere.dml_update_recovered +
                adempiere.early_exit_bounded,
            adempiere.serial_only);
}

TEST(CorpusTest, AzureCensusScale) {
  int64_t cursors = SimulateAzureCensus(5720);
  // The paper reports "more than 77,294 cursors" across 5,720 databases.
  EXPECT_GT(cursors, 70000);
  EXPECT_LT(cursors, 85000);
}

}  // namespace
}  // namespace aggify
