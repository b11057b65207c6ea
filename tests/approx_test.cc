// Approximate query tier: scramble DDL and catalog, APPROX SELECT
// rewriting, CLT/bootstrap confidence intervals, streaming early
// exit, cache exactness tagging, staleness-guarded rebuilds, knob
// validation, and the sim mirror.
//
// The correctness bar: with `SET approx` off and no APPROX verb,
// every existing path is byte-for-byte untouched; with the tier
// engaged, a ratio-1.0 scramble reproduces the exact answer with a
// zero-width interval, per-group 95% CIs cover the exact answer at
// no less than the nominal-ish rate across seeds, results are
// bit-identical across thread counts for a fixed seed, and an exact
// query can never be served an approximate cache entry or a scramble
// older than the base table's last committed write.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apuama/apuama_engine.h"
#include "apuama/approx/approx_rewriter.h"
#include "apuama/approx/estimator.h"
#include "apuama/approx/sample_catalog.h"
#include "cjdbc/controller.h"
#include "engine/database.h"
#include "sql/parser.h"
#include "sql/unparse.h"
#include "tests/test_util.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"
#include "tpch/tpch_catalog.h"
#include "workload/cluster_sim.h"

namespace apuama {
namespace {

using engine::QueryResult;
using testutil::AnalyzeMetric;

const tpch::TpchData& TinyData() {
  static const tpch::TpchData* data =
      new tpch::TpchData(tpch::DbgenOptions{.scale_factor = 0.001});
  return *data;
}

// One self-owning stack: replicas + engine + controller, plus a solo
// reference database holding the same rows for exact answers.
struct ApproxCluster {
  explicit ApproxCluster(int nodes = 3)
      : replicas(nodes,
                 cjdbc::ReplicaSet::NodeOptions{.buffer_pool_pages = 0}),
        reference(engine::DatabaseOptions{.buffer_pool_pages = 0}) {
    EXPECT_TRUE(TinyData().LoadIntoReplicas(&replicas).ok());
    EXPECT_TRUE(TinyData().LoadInto(&reference).ok());
    engine = std::make_unique<ApuamaEngine>(
        &replicas, tpch::MakeTpchCatalog(TinyData()));
    controller = std::make_unique<cjdbc::Controller>(
        std::make_unique<ApuamaDriver>(engine.get()));
  }

  Result<QueryResult> Exec(const std::string& sql) {
    return controller->Execute(sql);
  }
  void MustExec(const std::string& sql) {
    auto r = controller->Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
  }
  QueryResult Exact(const std::string& sql) {
    auto r = reference.Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    return r.ok() ? std::move(r).value() : QueryResult{};
  }

  cjdbc::ReplicaSet replicas;
  engine::Database reference;
  std::unique_ptr<ApuamaEngine> engine;
  std::unique_ptr<cjdbc::Controller> controller;
};

// ---------------------------------------------------------------------------
// Parser + verb detection
// ---------------------------------------------------------------------------

TEST(ApproxParserTest, ApproxVerbRoundTrips) {
  auto q = sql::ParseSelect("APPROX SELECT sum(l_quantity) from lineitem");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_TRUE((*q)->approx);
  const std::string rendered = sql::UnparseSelect(**q);
  EXPECT_EQ(rendered.rfind("APPROX SELECT ", 0), 0u) << rendered;
  auto again = sql::ParseSelect(rendered);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE((*again)->approx);

  auto plain = sql::ParseSelect("select sum(l_quantity) from lineitem");
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE((*plain)->approx);
  EXPECT_EQ(sql::UnparseSelect(**plain).rfind("SELECT ", 0), 0u);
}

TEST(ApproxParserTest, SampleDdlRoundTrips) {
  auto create = sql::Parse("CREATE SAMPLE lineitem RATIO 0.1");
  ASSERT_TRUE(create.ok()) << create.status().ToString();
  const auto* cs =
      dynamic_cast<const sql::CreateSampleStmt*>(create->get());
  ASSERT_NE(cs, nullptr);
  EXPECT_EQ(cs->table, "lineitem");
  EXPECT_TRUE(cs->sample_name.empty());
  EXPECT_DOUBLE_EQ(cs->ratio, 0.1);

  auto named = sql::Parse("CREATE SAMPLE li_s ON lineitem RATIO 1");
  ASSERT_TRUE(named.ok());
  const auto* ns = dynamic_cast<const sql::CreateSampleStmt*>(named->get());
  ASSERT_NE(ns, nullptr);
  EXPECT_EQ(ns->sample_name, "li_s");
  EXPECT_DOUBLE_EQ(ns->ratio, 1.0);

  auto drop = sql::Parse("DROP SAMPLE li_s ON lineitem");
  ASSERT_TRUE(drop.ok());
  const auto* ds = dynamic_cast<const sql::DropSampleStmt*>(drop->get());
  ASSERT_NE(ds, nullptr);
  EXPECT_EQ(ds->sample_name, "li_s");
  EXPECT_EQ(ds->table, "lineitem");

  // Ratio outside (0, 1] is a parse-time error.
  EXPECT_FALSE(sql::Parse("CREATE SAMPLE t RATIO 0").ok());
  EXPECT_FALSE(sql::Parse("CREATE SAMPLE t RATIO 1.5").ok());
}

TEST(ApproxParserTest, VerbDetectionIsWholeWordAndCaseInsensitive) {
  EXPECT_TRUE(approx::StartsWithApproxVerb("APPROX SELECT 1"));
  EXPECT_TRUE(approx::StartsWithApproxVerb("  approx select 1"));
  EXPECT_TRUE(approx::StartsWithApproxVerb("\tApProX\nselect 1"));
  EXPECT_FALSE(approx::StartsWithApproxVerb("select 1"));
  EXPECT_FALSE(approx::StartsWithApproxVerb("approximate_x select"));
  EXPECT_FALSE(approx::StartsWithApproxVerb("approxy"));
  EXPECT_FALSE(approx::StartsWithApproxVerb(""));
}

// ---------------------------------------------------------------------------
// Estimator unit behavior
// ---------------------------------------------------------------------------

TEST(ApproxEstimatorTest, FullCoverageCollapsesToExact) {
  approx::GroupMoments m;
  m.sum = 500.0;
  m.sumsq = 5500.0;
  m.cnt = 100;
  for (auto kind : {approx::AggKind::kSum, approx::AggKind::kCount}) {
    const approx::Estimate e = approx::EstimateAgg(kind, m, 1.0);
    EXPECT_DOUBLE_EQ(e.lo, e.value);
    EXPECT_DOUBLE_EQ(e.hi, e.value);
  }
  EXPECT_DOUBLE_EQ(
      approx::EstimateAgg(approx::AggKind::kSum, m, 1.0).value, 500.0);
  EXPECT_DOUBLE_EQ(
      approx::EstimateAgg(approx::AggKind::kCount, m, 1.0).value, 100.0);
  EXPECT_DOUBLE_EQ(
      approx::EstimateAgg(approx::AggKind::kAvg, m, 1.0).value, 5.0);
}

TEST(ApproxEstimatorTest, HalfSampleScalesAndWidens) {
  approx::GroupMoments m;
  m.sum = 500.0;
  m.sumsq = 5500.0;
  m.cnt = 100;
  const approx::Estimate sum =
      approx::EstimateAgg(approx::AggKind::kSum, m, 0.5);
  EXPECT_DOUBLE_EQ(sum.value, 1000.0);  // scaled by 1/f
  EXPECT_LT(sum.lo, sum.value);
  EXPECT_GT(sum.hi, sum.value);
  const approx::Estimate cnt =
      approx::EstimateAgg(approx::AggKind::kCount, m, 0.5);
  EXPECT_DOUBLE_EQ(cnt.value, 200.0);
  // AVG is a ratio estimator: no 1/f scaling.
  const approx::Estimate avg =
      approx::EstimateAgg(approx::AggKind::kAvg, m, 0.5);
  EXPECT_DOUBLE_EQ(avg.value, 5.0);
}

TEST(ApproxEstimatorTest, BootstrapIsDeterministicInTheSeed) {
  std::vector<approx::GroupMoments> parts(6);
  for (size_t i = 0; i < parts.size(); ++i) {
    parts[i].sum = 10.0 + static_cast<double>(i);
    parts[i].sumsq = parts[i].sum * parts[i].sum / 4.0;
    parts[i].cnt = 4;
  }
  auto a = approx::BootstrapAgg(approx::AggKind::kSum, parts, 0.5, 99);
  auto b = approx::BootstrapAgg(approx::AggKind::kSum, parts, 0.5, 99);
  auto c = approx::BootstrapAgg(approx::AggKind::kSum, parts, 0.5, 100);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  ASSERT_TRUE(c.has_value());
  EXPECT_DOUBLE_EQ(a->lo, b->lo);
  EXPECT_DOUBLE_EQ(a->hi, b->hi);
  EXPECT_TRUE(a->lo != c->lo || a->hi != c->hi);
  // One triple: nothing to resample.
  EXPECT_FALSE(approx::BootstrapAgg(approx::AggKind::kSum,
                                    {parts[0]}, 0.5, 99)
                   .has_value());
}

// ---------------------------------------------------------------------------
// Scramble DDL + catalog
// ---------------------------------------------------------------------------

TEST(ApproxDdlTest, CreateBuildsDeterministicScrambleOnEveryNode) {
  ApproxCluster c;
  c.MustExec("set sample_seed = 42");
  c.MustExec("create sample lineitem ratio 0.2");
  auto entry = c.engine->sample_catalog()->ForBase("lineitem");
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->sample_table, "lineitem__sample");
  EXPECT_EQ(entry->seed, 42);
  EXPECT_GT(entry->sample_rows, 0u);
  EXPECT_NEAR(entry->actual_ratio, 0.2, 0.05);
  // Same physical rows on every replica, clustered on __skey.
  std::vector<size_t> rows;
  for (int i = 0; i < c.replicas.num_nodes(); ++i) {
    auto t = c.replicas.node(i)->catalog()->GetTable("lineitem__sample");
    ASSERT_TRUE(t.ok());
    rows.push_back((*t)->num_rows());
  }
  for (size_t r : rows) EXPECT_EQ(r, entry->sample_rows);
  // Identical broadcast repeat is a no-op, not a rebuild.
  const uint64_t builds = c.engine->stats().scramble_builds.load();
  c.MustExec("create sample lineitem ratio 0.2");
  EXPECT_EQ(c.engine->stats().scramble_builds.load(), builds);
}

TEST(ApproxDdlTest, DropIsIdempotentAndSamplingASampleIsRejected) {
  ApproxCluster c(2);
  c.MustExec("create sample lineitem ratio 0.5");
  EXPECT_FALSE(c.Exec("create sample lineitem__sample ratio 0.5").ok());
  c.MustExec("drop sample lineitem");
  EXPECT_FALSE(
      c.engine->sample_catalog()->ForBase("lineitem").has_value());
  for (int i = 0; i < c.replicas.num_nodes(); ++i) {
    EXPECT_FALSE(
        c.replicas.node(i)->catalog()->HasTable("lineitem__sample"));
  }
  c.MustExec("drop sample lineitem");  // second drop: no-op OK
  EXPECT_FALSE(c.Exec("create sample no_such_table ratio 0.5").ok());
}

TEST(ApproxDdlTest, FragmentedTableCannotBeSampled) {
  ApproxCluster c(2);
  c.MustExec("alter table lineitem fragment by hash (l_orderkey) into 2");
  auto r = c.Exec("create sample lineitem ratio 0.5");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// APPROX execution: exactness bounds, fallbacks, ordering
// ---------------------------------------------------------------------------

TEST(ApproxExecTest, RatioOneReproducesExactQ1WithZeroWidthIntervals) {
  ApproxCluster c;
  c.MustExec("create sample lineitem ratio 1.0");
  const std::string q1 = *tpch::QuerySql(1);
  const QueryResult exact = c.Exact(q1);
  auto r = c.Exec("APPROX " + q1);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->approx.is_approx);
  EXPECT_DOUBLE_EQ(r->approx.sample_ratio, 1.0);
  // Q1: 2 group columns + 8 aggregates -> 16 trailing CI columns.
  ASSERT_EQ(exact.num_columns(), 10u);
  ASSERT_EQ(r->num_columns(), 26u);
  ASSERT_EQ(r->num_rows(), exact.num_rows());
  for (size_t i = 0; i < exact.rows.size(); ++i) {
    SCOPED_TRACE("row " + std::to_string(i));
    for (size_t j = 0; j < 10; ++j) {
      EXPECT_TRUE(
          testutil::ValuesClose(exact.rows[i][j], r->rows[i][j], 1e-9))
          << "col " << j << ": " << exact.rows[i][j].ToString() << " vs "
          << r->rows[i][j].ToString();
    }
    // Full coverage: every interval has zero width around the value.
    for (size_t j = 10; j + 1 < 26; j += 2) {
      const double lo = *r->rows[i][j].AsDouble();
      const double hi = *r->rows[i][j + 1].AsDouble();
      EXPECT_NEAR(lo, hi, 1e-9 * std::max(1.0, std::fabs(lo)))
          << "ci col " << j;
    }
  }
  EXPECT_GE(c.engine->stats().approx_queries.load(), 1u);
}

TEST(ApproxExecTest, IneligibleApproxQueriesFallBackToExactAnswers) {
  ApproxCluster c;
  c.MustExec("create sample lineitem ratio 0.5");
  // min() has no sampling estimator; a join is out of scope; a query
  // on an unsampled table has no scramble. All three must return the
  // exact answer (no CI columns) and count a fallback when the verb
  // asked for approximation.
  const std::vector<std::string> queries = {
      "APPROX select min(l_quantity) from lineitem",
      "APPROX " + *tpch::QuerySql(3),
      "APPROX select count(*) from customer",
  };
  for (const auto& q : queries) {
    SCOPED_TRACE(q);
    auto r = c.Exec(q);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_FALSE(r->approx.is_approx);
    const QueryResult exact = c.Exact(q.substr(7));
    testutil::ExpectResultsEqual(exact, *r);
  }
  EXPECT_GE(c.engine->stats().approx_fallbacks.load(), 3u);
}

TEST(ApproxExecTest, EstimatesCoverAndOrderByLimitApply) {
  ApproxCluster c;
  c.MustExec("set sample_seed = 11");
  c.MustExec("create sample lineitem ratio 0.3");
  auto r = c.Exec(
      "APPROX select l_returnflag, sum(l_quantity) as s, count(*) as n"
      " from lineitem group by l_returnflag order by s desc limit 2");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->approx.is_approx);
  ASSERT_EQ(r->num_columns(), 7u);  // 3 items + 2 aggs * (lo, hi)
  ASSERT_EQ(r->num_rows(), 2u);     // LIMIT applied after estimation
  // Descending by the estimated sum.
  EXPECT_GE(*r->rows[0][1].AsDouble(), *r->rows[1][1].AsDouble());
  for (const auto& row : r->rows) {
    EXPECT_LE(*row[3].AsDouble(), *row[1].AsDouble());  // s in [lo, hi]
    EXPECT_GE(*row[4].AsDouble(), *row[1].AsDouble());
    EXPECT_LE(*row[5].AsDouble(), *row[2].AsDouble());  // n in [lo, hi]
    EXPECT_GE(*row[6].AsDouble(), *row[2].AsDouble());
  }
}

TEST(ApproxExecTest, ScanSavingsAtOnePercentRatio) {
  ApproxCluster c;
  const std::string q6 = *tpch::QuerySql(6);
  auto exact = c.Exec("explain analyze " + q6);
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  const int64_t exact_tuples =
      AnalyzeMetric(*exact, "node", "tuples_scanned");
  const int64_t exact_pages = AnalyzeMetric(*exact, "node", "pages_disk") +
                              AnalyzeMetric(*exact, "node", "pages_cache");
  ASSERT_GT(exact_tuples, 0);

  c.MustExec("create sample lineitem ratio 0.01");
  auto ap = c.Exec("explain analyze APPROX " + q6);
  ASSERT_TRUE(ap.ok()) << ap.status().ToString();
  EXPECT_EQ((*ap).rows[0][2].str_val(), "approx");
  const int64_t ap_tuples = AnalyzeMetric(*ap, "node", "tuples_scanned");
  const int64_t ap_pages = AnalyzeMetric(*ap, "node", "pages_disk") +
                           AnalyzeMetric(*ap, "node", "pages_cache");
  // The acceptance bar: a 1% scramble scans no more than 5% of the
  // exact plan's work (generous slack for per-sub-query page
  // rounding on a tiny build).
  EXPECT_LE(ap_tuples, exact_tuples / 20 + 8)
      << ap_tuples << " vs " << exact_tuples;
  EXPECT_LE(ap_pages, exact_pages / 20 + 8)
      << ap_pages << " vs " << exact_pages;
}

TEST(ApproxExecTest, ErrorTargetStopsEarlyAndSkipsSubqueries) {
  ApproxCluster c;
  c.MustExec("create sample lineitem ratio 1.0");
  // A loose target on a ratio-1.0 scramble is met after the first
  // merged prefix: the remaining sub-queries are cancelled.
  c.MustExec("set approx_error_target = 0.5");
  auto r = c.Exec(
      "APPROX select sum(l_quantity) from lineitem");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->approx.is_approx);
  EXPECT_GT(r->approx.subqueries_skipped, 0u);
  EXPECT_GE(c.engine->stats().approx_early_exits.load(), 1u);
  // Even early-exited, the interval brackets the scaled estimate and
  // the target is reported met.
  EXPECT_LE(r->approx.max_rel_half_width, 0.5);
  // Coverage below 1.0 is reported (only a prefix was merged).
  EXPECT_LT(r->approx.coverage, 1.0);
  EXPECT_GT(r->approx.coverage, 0.0);
}

// ---------------------------------------------------------------------------
// Statistical properties
// ---------------------------------------------------------------------------

TEST(ApproxStatTest, ConfidenceIntervalsCoverExactAnswerAcrossSeeds) {
  // Pooled coverage of the 95% CIs over many deterministic seeds must
  // clear the issue's 90% observed-rate bar. Q6 checks the global
  // (no GROUP BY) path; Q1's sum_qty checks the per-group path.
  ApproxCluster c;
  const std::string q6 = *tpch::QuerySql(6);
  const std::string q1 = *tpch::QuerySql(1);
  const QueryResult exact6 = c.Exact(q6);
  const QueryResult exact1 = c.Exact(q1);
  const double true_revenue = *exact6.rows[0][0].AsDouble();

  int q6_total = 0, q6_covered = 0;
  int q1_total = 0, q1_covered = 0;
  for (int seed = 1; seed <= 30; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    c.MustExec("set sample_seed = " + std::to_string(seed));
    c.MustExec("create sample lineitem ratio 0.3");

    auto r6 = c.Exec("APPROX " + q6);
    ASSERT_TRUE(r6.ok()) << r6.status().ToString();
    ASSERT_EQ(r6->num_rows(), 1u);
    ++q6_total;
    if (*r6->rows[0][1].AsDouble() <= true_revenue &&
        *r6->rows[0][2].AsDouble() >= true_revenue) {
      ++q6_covered;
    }

    auto r1 = c.Exec("APPROX " + q1);
    ASSERT_TRUE(r1.ok()) << r1.status().ToString();
    for (const auto& row : r1->rows) {
      // Find the exact group (group cols 0, 1; sum_qty is col 2 and
      // its interval is the first CI pair: cols 10, 11).
      for (const auto& erow : exact1.rows) {
        if (erow[0].Compare(row[0]) != 0 || erow[1].Compare(row[1]) != 0) {
          continue;
        }
        ++q1_total;
        const double truth = *erow[2].AsDouble();
        if (*row[10].AsDouble() <= truth && *row[11].AsDouble() >= truth) {
          ++q1_covered;
        }
        break;
      }
    }
  }
  ASSERT_GT(q6_total, 0);
  ASSERT_GT(q1_total, 0);
  EXPECT_GE(static_cast<double>(q6_covered),
            0.9 * static_cast<double>(q6_total))
      << q6_covered << "/" << q6_total;
  EXPECT_GE(static_cast<double>(q1_covered),
            0.9 * static_cast<double>(q1_total))
      << q1_covered << "/" << q1_total;
}

TEST(ApproxStatTest, FixedSeedIsBitIdenticalAcrossThreadCounts) {
  std::vector<QueryResult> results;
  for (int threads : {1, 2, 8}) {
    ApproxCluster c;
    c.MustExec("set exec_threads = " + std::to_string(threads));
    c.MustExec("set sample_seed = 7");
    c.MustExec("create sample lineitem ratio 0.1");
    auto r = c.Exec("APPROX " + *tpch::QuerySql(1));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    results.push_back(std::move(r).value());
  }
  testutil::ExpectResultsIdentical(results[0], results[1]);
  testutil::ExpectResultsIdentical(results[0], results[2]);
}

// ---------------------------------------------------------------------------
// Result-cache exactness + staleness
// ---------------------------------------------------------------------------

TEST(ApproxCacheTest, ExactQueryNeverServedAnApproximateEntry) {
  ApproxCluster c;
  c.MustExec("create sample lineitem ratio 0.1");
  c.MustExec("set result_cache = on");
  const std::string q =
      "select sum(l_quantity) as s, count(*) as n from lineitem";
  const QueryResult exact = c.Exact(q);

  // The APPROX text and the plain text alternate with the cache on:
  // each approximate answer is cached under the APPROX fingerprint,
  // and the plain text, hit or miss, is answered exactly every time.
  for (int round = 0; round < 2; ++round) {
    auto ar = c.Exec("APPROX " + q);
    ASSERT_TRUE(ar.ok()) << ar.status().ToString();
    ASSERT_TRUE(ar->approx.is_approx);
    ASSERT_EQ(ar->num_columns(), 6u);
    auto er = c.Exec(q);
    ASSERT_TRUE(er.ok()) << er.status().ToString();
    EXPECT_FALSE(er->approx.is_approx);
    testutil::ExpectResultsEqual(exact, *er);
  }

  // Epoch churn: a committed write invalidates both flavors; the
  // approx rerun rebuilds its scramble and still never leaks into
  // the exact path.
  c.MustExec("delete from lineitem where l_orderkey = 1");
  const QueryResult exact2 = c.Exact(
      "select sum(l_quantity) as s, count(*) as n from lineitem"
      " where l_orderkey <> 1");
  for (int round = 0; round < 2; ++round) {
    auto ar2 = c.Exec("APPROX " + q);
    ASSERT_TRUE(ar2.ok());
    EXPECT_TRUE(ar2->approx.is_approx);
    auto er2 = c.Exec(q);
    ASSERT_TRUE(er2.ok());
    EXPECT_FALSE(er2->approx.is_approx);
    testutil::ExpectResultsEqual(exact2, *er2);
  }
}

TEST(ApproxCacheTest, ApproxRepeatsMayShareTheTaggedEntry) {
  ApproxCluster c;
  c.MustExec("create sample lineitem ratio 0.2");
  c.MustExec("set result_cache = on");
  const std::string q = "APPROX select count(*) from lineitem";
  auto r1 = c.Exec(q);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r1->approx.is_approx);
  const uint64_t hits = c.engine->result_cache()->hits();
  auto r2 = c.Exec(q);
  ASSERT_TRUE(r2.ok());
  EXPECT_GT(c.engine->result_cache()->hits(), hits);
  testutil::ExpectResultsIdentical(*r1, *r2);
}

TEST(ApproxStalenessTest, WritesTriggerRebuildBeforeTheNextApproxRead) {
  ApproxCluster c;
  c.MustExec("create sample customer ratio 1.0");
  const std::string q = "APPROX select count(*) from customer";
  auto before = c.Exec(q);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  const double n0 = *before->rows[0][0].AsDouble();
  c.MustExec("delete from customer where c_custkey = 1");
  auto after = c.Exec(q);
  ASSERT_TRUE(after.ok());
  // Ratio 1.0 + fresh scramble: the count is exact, so any stale read
  // is visible as an off-by-one here.
  EXPECT_DOUBLE_EQ(*after->rows[0][0].AsDouble(), n0 - 1.0);
  EXPECT_GE(c.engine->stats().scramble_rebuilds.load(), 1u);
}

// TSan/UBSan stress (runs under the sanitizer jobs like every other
// suite): concurrent committed INSERTs must never let an APPROX read
// see a scramble older than the base table's write epoch — at ratio
// 1.0 each answer equals the committed count at its barrier, so the
// observed sequence is non-decreasing and bounded by the writer's
// progress.
TEST(ApproxStressTest, ConcurrentWritesNeverYieldStaleAnswers) {
  ApproxCluster c(2);
  c.MustExec("create sample customer ratio 1.0");
  const double base =
      *c.Exec("APPROX select count(*) from customer")->rows[0][0].AsDouble();
  constexpr int kInserts = 40;
  std::atomic<int> committed{0};
  std::thread writer([&] {
    for (int i = 0; i < kInserts; ++i) {
      const int key = 900000 + i;
      auto r = c.controller->Execute(
          "insert into customer values (" + std::to_string(key) +
          ", 'Customer#stress', 'addr', 1, '11-111-1111', 10.0,"
          " 'BUILDING', 'stress row')");
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      committed.fetch_add(1, std::memory_order_release);
    }
  });
  double last = base;
  for (int i = 0; i < 30; ++i) {
    const int lower_bound = committed.load(std::memory_order_acquire);
    auto r = c.controller->Execute("APPROX select count(*) from customer");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const double n = *r->rows[0][0].AsDouble();
    EXPECT_GE(n, base + static_cast<double>(lower_bound) - 0.5);
    EXPECT_LE(n, base + static_cast<double>(kInserts) + 0.5);
    EXPECT_GE(n, last - 0.5);  // counts never go backwards
    last = n;
  }
  writer.join();
  auto final_r = c.controller->Execute("APPROX select count(*) from customer");
  ASSERT_TRUE(final_r.ok());
  EXPECT_DOUBLE_EQ(*final_r->rows[0][0].AsDouble(),
                   base + static_cast<double>(kInserts));
}

// ---------------------------------------------------------------------------
// Knob validation (shared helper)
// ---------------------------------------------------------------------------

TEST(ApproxKnobTest, SetKnobRejectionsListAcceptedValues) {
  ApproxCluster c(2);
  auto exec = [&](const std::string& sql) {
    return c.controller->Execute(sql).status();
  };
  testutil::ExpectKnobValidation(exec, "sample_seed", {"42", "-3", "0"},
                                 {"abc", "1.5", "''"});
  testutil::ExpectKnobValidation(exec, "approx_error_target",
                                 {"0", "0.05", "0.5"},
                                 {"x", "-0.1", "2", "on"});
  // The merge strategy follows observed cardinality and the exchange
  // strategy follows data placement; the APPROX verb replaces the
  // session-wide approx switch. None has a knob.
  for (const char* sql : {"set merge_strategy = radix", "set approx = on",
                          "set exchange_strategy = shuffle"}) {
    Status s = exec(sql);
    EXPECT_EQ(s.code(), StatusCode::kNotFound) << sql << ": " << s.ToString();
    EXPECT_NE(s.message().find("unknown setting"), std::string::npos)
        << s.ToString();
  }
}

// A SET the nodes reject must leave the engine-level mirror exactly
// as it was: a rejected error target may not enable early exit, and a
// rejected seed may not change the next scramble.
TEST(ApproxKnobTest, RejectedSetLeavesEngineStateUntouched) {
  ApproxCluster c;
  c.MustExec("create sample lineitem ratio 1.0");
  const size_t logged = c.controller->recovery_log_size();
  auto bad_target = c.Exec("set approx_error_target = 2");
  ASSERT_FALSE(bad_target.ok());
  EXPECT_EQ(bad_target.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(c.controller->recovery_log_size(), logged);
  auto r = c.Exec("APPROX select sum(l_quantity) from lineitem");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->approx.subqueries_skipped, 0u);
  EXPECT_EQ(c.engine->stats().approx_early_exits.load(), 0u);

  const std::string approx_sql =
      "APPROX select sum(l_quantity), sum(l_extendedprice) from lineitem";
  c.MustExec("drop sample lineitem");
  c.MustExec("create sample lineitem ratio 0.1");
  auto before = c.Exec(approx_sql);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  c.MustExec("drop sample lineitem");
  const size_t logged_before_seed = c.controller->recovery_log_size();
  auto bad_seed = c.Exec("set sample_seed = 9223372036854775807");
  ASSERT_FALSE(bad_seed.ok());
  EXPECT_EQ(bad_seed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(c.controller->recovery_log_size(), logged_before_seed);
  c.MustExec("create sample lineitem ratio 0.1");
  auto after = c.Exec(approx_sql);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  testutil::ExpectResultsIdentical(*before, *after);
}

TEST(ApproxKnobTest, ApproxKnobDefaultsOffAndRoundTrips) {
  ApproxCluster c(2);
  // No verb: plain queries carry no approx metadata or CI columns
  // even when a scramble exists.
  c.MustExec("create sample lineitem ratio 0.5");
  auto r = c.Exec("select count(*) from lineitem");
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->approx.is_approx);
  EXPECT_EQ(r->num_columns(), 1u);
  testutil::ExpectResultsEqual(c.Exact("select count(*) from lineitem"),
                               *r);
}

// ---------------------------------------------------------------------------
// Sim mirror
// ---------------------------------------------------------------------------

TEST(ApproxSimTest, SampledRunsCutLatencyAndCountApproxQueries) {
  const std::string q6 = *tpch::QuerySql(6);
  workload::ClusterSimOptions exact_opts;
  exact_opts.num_nodes = 3;
  workload::ClusterSim exact_sim(TinyData(), exact_opts);
  const auto exact_out = exact_sim.RunToCompletion(q6);
  ASSERT_TRUE(exact_out.status.ok());

  workload::ClusterSimOptions opts;
  opts.num_nodes = 3;
  opts.sample_ratio = 0.05;
  workload::ClusterSim sim(TinyData(), opts);
  const auto out = sim.RunToCompletion("APPROX " + q6);
  ASSERT_TRUE(out.status.ok());
  EXPECT_EQ(sim.approx_queries(), 1u);
  EXPECT_EQ(sim.approx_subqueries_skipped(), 0u);  // no error target
  EXPECT_LT(out.latency(), exact_out.latency());
}

TEST(ApproxSimTest, ErrorTargetSkipsSubqueriesDeterministically) {
  const std::string q6 = *tpch::QuerySql(6);
  workload::ClusterSimOptions opts;
  opts.num_nodes = 4;
  opts.sample_ratio = 0.1;
  opts.error_target = 0.1;
  uint64_t first_skipped = 0;
  for (int run = 0; run < 2; ++run) {
    workload::ClusterSim sim(TinyData(), opts);
    ASSERT_TRUE(sim.RunToCompletion("APPROX " + q6).status.ok());
    EXPECT_EQ(sim.approx_queries(), 1u);
    EXPECT_EQ(sim.approx_early_exits(), 1u);
    EXPECT_GT(sim.approx_subqueries_skipped(), 0u);
    if (run == 0) {
      first_skipped = sim.approx_subqueries_skipped();
    } else {
      EXPECT_EQ(sim.approx_subqueries_skipped(), first_skipped);
    }
  }
}

}  // namespace
}  // namespace apuama
