// Observability subsystem tests — the three guarantees the subsystem
// makes (docs/architecture.md "Observability"):
//   1. virtual-time span trees are deterministic: the same simulated
//      workload yields byte-identical DumpTree() output;
//   2. tracing off/on changes nothing observable about query results
//      or ExecStats, at any exec_threads (the zero-cost-off claim);
//   3. EXPLAIN ANALYZE returns one documented fixed-shape breakdown,
//      rendered from the profile the read result carries, from a bare
//      node, an Apuama connection and the controller alike.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "apuama/apuama_engine.h"
#include "cjdbc/controller.h"
#include "engine/database.h"
#include "obs/trace.h"
#include "sql/ast.h"
#include "sql/parser.h"
#include "tests/test_util.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"
#include "tpch/tpch_catalog.h"
#include "workload/cluster_sim.h"

namespace apuama {
namespace {

// ---------------------------------------------------------------------
// Stat structs.

TEST(MetricsTest, StatStructsRenderThroughKv) {
  engine::ExecStats stats;
  stats.pages_disk = 3;
  stats.morsels = 7;
  const std::string text = stats.ToString();
  EXPECT_NE(text.find("pages_disk=3"), std::string::npos);
  EXPECT_NE(text.find("morsels=7"), std::string::npos);
}

// ---------------------------------------------------------------------
// Tracer mechanics.

TEST(TraceTest, DisabledTracerIsInert) {
  obs::Tracer tracer;
  {
    obs::Span s = tracer.StartSpan("x", "test");
    EXPECT_FALSE(s.active());
    s.AddAttr("k", int64_t{1});  // must be a no-op, not a crash
  }
  EXPECT_EQ(tracer.Open("y", "test", 0), 0u);
  tracer.Close(0);
  EXPECT_EQ(tracer.num_spans(), 0u);
  EXPECT_EQ(tracer.DumpTree(), "");
}

TEST(TraceTest, SpansNestThroughTheThreadLocalStack) {
  obs::Tracer tracer;
  tracer.SetEnabled(true);
  {
    obs::Span outer = tracer.StartSpan("outer", "test");
    ASSERT_TRUE(outer.active());
    EXPECT_EQ(tracer.current_span_id(), outer.id());
    {
      obs::Span inner = tracer.StartSpan("inner", "test");
      inner.AddAttr("node", int64_t{3});
    }
    obs::Span sibling = tracer.StartSpan("sibling", "test");
  }
  const std::string tree = tracer.DumpTree();
  EXPECT_NE(tree.find("outer [test]"), std::string::npos);
  EXPECT_NE(tree.find("\n  inner [test]"), std::string::npos);
  EXPECT_NE(tree.find("node=3"), std::string::npos);
  EXPECT_NE(tree.find("\n  sibling [test]"), std::string::npos);
  EXPECT_EQ(tracer.num_spans(), 3u);
}

TEST(TraceTest, ManualSpansUseExplicitTimestamps) {
  obs::Tracer tracer;
  tracer.SetEnabled(true);
  const uint64_t id = tracer.Open("job", "sim", 0, 5);
  ASSERT_NE(id, 0u);
  tracer.AddAttrTo(id, "node", int64_t{1});
  tracer.Close(id, 9);
  tracer.Record("compose", "sim", id, 9, 12);
  const std::string tree = tracer.DumpTree();
  EXPECT_NE(tree.find("job [sim] (5..9) node=1"), std::string::npos);
  EXPECT_NE(tree.find("\n  compose [sim] (9..12)"), std::string::npos);
}

TEST(TraceTest, ChromeTraceIsWellFormedJson) {
  obs::Tracer tracer;
  tracer.SetEnabled(true);
  {
    obs::Span s = tracer.StartSpan("scan", "morsel");
    s.AddAttr("table", std::string("lineitem"));
  }
  tracer.Instant("cache.hit", "share");
  const std::string json = tracer.DumpChromeTrace();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"scan\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"morsel\""), std::string::npos);
  EXPECT_NE(json.find("\"table\":\"lineitem\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"cache.hit\""), std::string::npos);
  // Balanced array brackets, no trailing garbage.
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '\n');
}

TEST(TraceTest, VirtualClockStampsSpans) {
  obs::Tracer tracer;
  int64_t now = 100;
  tracer.SetClock([&now] { return now; });
  tracer.SetEnabled(true);
  {
    obs::Span s = tracer.StartSpan("tick", "test");
    now = 250;
  }
  EXPECT_NE(tracer.DumpTree().find("tick [test] (100..250)"),
            std::string::npos);
}

// ---------------------------------------------------------------------
// Virtual-time simulator: span trees are a pure function of the
// workload.

class SimTraceTest : public ::testing::Test {
 protected:
  static std::string RunTracedWorkload(const tpch::TpchData& data) {
    // Disable before loading so data load (ctor) records nothing and
    // both invocations start from the same blank tracer state.
    obs::Tracer& tracer = obs::Tracer::Global();
    tracer.SetEnabled(false);
    tracer.Clear();
    workload::ClusterSimOptions opts;
    opts.num_nodes = 2;
    opts.trace = true;
    workload::ClusterSim sim(data, opts);
    // Read, then a write, then a read that must barrier-wait behind
    // it — all submitted at t=0 so the protocol interleaves.
    sim.SubmitRead(*tpch::QuerySql(6), nullptr);
    sim.SubmitWrite("delete from orders where o_orderkey = -1", nullptr);
    sim.SubmitRead(*tpch::QuerySql(6), nullptr);
    sim.event_sim()->Run();
    return tracer.DumpTree();
  }

  void TearDown() override {
    obs::Tracer::Global().SetEnabled(false);
    obs::Tracer::Global().Clear();
  }
};

TEST_F(SimTraceTest, SpanTreesAreDeterministic) {
  const tpch::TpchData data(tpch::DbgenOptions{.scale_factor = 0.001});
  const std::string first = RunTracedWorkload(data);
  const std::string second = RunTracedWorkload(data);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  // The tree covers the protocol: reads, per-node sub-queries,
  // composition, the write, and the consistency barrier.
  EXPECT_NE(first.find("sim.read [sim]"), std::string::npos);
  EXPECT_NE(first.find("  sim.subquery [sim]"), std::string::npos);
  EXPECT_NE(first.find("  sim.compose [sim]"), std::string::npos);
  EXPECT_NE(first.find("sim.write [sim]"), std::string::npos);
  EXPECT_NE(first.find("  sim.barrier_wait [sim]"), std::string::npos);
}

// ---------------------------------------------------------------------
// Zero-cost-off: tracing on or off, results and per-query stats are
// bit-identical at every thread count.

namespace bitid {

struct RunOutput {
  std::vector<engine::QueryResult> results;
  std::vector<std::string> stats;
};

RunOutput RunQueries(const tpch::TpchData& data, int threads,
                     bool traced) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.SetEnabled(traced);
  engine::Database db(engine::DatabaseOptions{.buffer_pool_pages = 0});
  EXPECT_TRUE(data.LoadInto(&db).ok());
  db.settings()->exec_threads = threads;
  RunOutput out;
  for (int q : {1, 6, 3}) {
    auto r = db.Execute(*tpch::QuerySql(q));
    EXPECT_TRUE(r.ok()) << "Q" << q << ": " << r.status().ToString();
    out.stats.push_back(r.ok() ? r->stats.ToString() : "<error>");
    out.results.push_back(r.ok() ? std::move(r).value()
                                 : engine::QueryResult{});
  }
  tracer.SetEnabled(false);
  tracer.Clear();
  return out;
}

}  // namespace bitid

TEST(TraceOffBitIdentityTest, TracingDoesNotPerturbResultsOrStats) {
  const tpch::TpchData data(tpch::DbgenOptions{.scale_factor = 0.002});
  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE("exec_threads=" + std::to_string(threads));
    bitid::RunOutput off = bitid::RunQueries(data, threads, false);
    bitid::RunOutput on = bitid::RunQueries(data, threads, true);
    ASSERT_EQ(off.results.size(), on.results.size());
    for (size_t i = 0; i < off.results.size(); ++i) {
      testutil::ExpectResultsIdentical(off.results[i], on.results[i]);
      EXPECT_EQ(off.stats[i], on.stats[i]) << "query index " << i;
    }
  }
}

// ---------------------------------------------------------------------
// EXPLAIN ANALYZE: one fixed-shape per-level breakdown on every path,
// rendered from the profile each read result carries.

void ExpectAnalyzeShape(const engine::QueryResult& r) {
  const std::vector<std::pair<std::string, std::string>> golden = {
      {"query", "path"},
      {"controller", "admission_wait_us"},
      {"admission", "queue_wait_us"},
      {"admission", "degraded_to_approx"},
      {"admission", "shed"},
      {"engine", "barrier_wait_us"},
      {"engine", "subqueries"},
      {"engine", "subquery_min_us"},
      {"engine", "subquery_max_us"},
      {"engine", "subquery_skew_us"},
      {"engine", "retries"},
      {"node", "threads"},
      {"node", "morsels"},
      {"node", "pages_disk"},
      {"node", "pages_cache"},
      {"node", "tuples_scanned"},
      {"node", "vectorized_rows"},
      {"node", "dict_hits"},
      {"node", "probe_vectorized_rows"},
      {"compose", "compose_us"},
      {"compose", "partial_rows"},
      {"compose", "output_rows"},
      {"share", "result_cache_on"},
      {"share", "share_scans_on"},
      {"fragment", "exchange_bytes"},
      {"fragment", "fragments_pruned"},
      {"fragment", "write_fanout"},
      {"approx", "sample_ratio"},
      {"approx", "ci_half_width"},
      {"approx", "subqueries_skipped"},
      {"query", "elapsed_us"},
  };
  ASSERT_EQ(r.column_names,
            (std::vector<std::string>{"level", "metric", "value"}));
  ASSERT_EQ(r.rows.size(), golden.size());
  for (size_t i = 0; i < golden.size(); ++i) {
    EXPECT_EQ(r.rows[i][0].str_val(), golden[i].first) << "row " << i;
    EXPECT_EQ(r.rows[i][1].str_val(), golden[i].second) << "row " << i;
  }
}

TEST(ExplainAnalyzeTest, SingleNodeBreakdownShape) {
  const tpch::TpchData data(tpch::DbgenOptions{.scale_factor = 0.001});
  engine::Database db;
  ASSERT_TRUE(data.LoadInto(&db).ok());
  auto r = db.Execute("explain analyze " + *tpch::QuerySql(6));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_NO_FATAL_FAILURE(ExpectAnalyzeShape(*r));
  // The node's own facts; the layers above it are absent and read 0.
  EXPECT_EQ(r->rows[0][2].str_val(), "node");
  EXPECT_GE(testutil::AnalyzeMetric(*r, "node", "threads"), 1);
  // Q6 is a global aggregate the columnar path vectorizes.
  EXPECT_GT(testutil::AnalyzeMetric(*r, "node", "vectorized_rows"), 0);
  EXPECT_EQ(testutil::AnalyzeMetric(*r, "compose", "output_rows"), 1);
  EXPECT_EQ(testutil::AnalyzeMetric(*r, "engine", "subqueries"), 0);
  EXPECT_EQ(testutil::AnalyzeMetric(*r, "controller", "admission_wait_us"),
            0);
  // Plain EXPLAIN still returns the plan, not a breakdown.
  auto plan = db.Execute("explain " + *tpch::QuerySql(6));
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->column_names.size(), 1u);
}

TEST(ExplainAnalyzeTest, ClusterBreakdownGoldenShapeForQ1AndQ3) {
  const tpch::TpchData data(tpch::DbgenOptions{.scale_factor = 0.001});
  cjdbc::ReplicaSet replicas(
      2, cjdbc::ReplicaSet::NodeOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(data.LoadIntoReplicas(&replicas).ok());
  ApuamaEngine engine(&replicas, tpch::MakeTpchCatalog(data, 0));
  cjdbc::Controller controller(std::make_unique<ApuamaDriver>(&engine));
  auto conn = ApuamaDriver(&engine).Connect(0);
  ASSERT_TRUE(conn.ok());

  for (int q : {1, 3}) {
    const std::string sql = "EXPLAIN ANALYZE " + *tpch::QuerySql(q);
    // The Apuama connection renders; the controller stamps its
    // admission facts into the same profile and renders again.
    for (bool through_controller : {false, true}) {
      SCOPED_TRACE(testing::Message() << "Q" << q << " controller="
                                      << through_controller);
      auto r = through_controller ? controller.Execute(sql)
                                  : (*conn)->Execute(sql);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ASSERT_NO_FATAL_FAILURE(ExpectAnalyzeShape(*r));
      // Both paper queries rewrite: two sub-queries, one per node, and
      // a non-empty composed answer.
      EXPECT_EQ(r->rows[0][2].str_val(), "svp");
      EXPECT_EQ(testutil::AnalyzeMetric(*r, "engine", "subqueries"), 2);
      EXPECT_GT(testutil::AnalyzeMetric(*r, "compose", "output_rows"), 0);
      EXPECT_GT(testutil::AnalyzeMetric(*r, "compose", "partial_rows"), 0);
    }
  }
}

// Every read carries its profile, EXPLAIN or not.
TEST(ExplainAnalyzeTest, PlainReadCarriesAFilledProfile) {
  const tpch::TpchData data(tpch::DbgenOptions{.scale_factor = 0.001});
  cjdbc::ReplicaSet replicas(
      3, cjdbc::ReplicaSet::NodeOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(data.LoadIntoReplicas(&replicas).ok());
  ApuamaEngine engine(&replicas, tpch::MakeTpchCatalog(data, 0));
  auto r = engine.ExecuteRead(0, *tpch::QuerySql(1));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const engine::QueryProfile& p = r->profile;
  EXPECT_STREQ(p.path, "svp");
  EXPECT_EQ(p.subqueries, 3u);
  EXPECT_GT(p.partial_rows, 0u);
  EXPECT_EQ(p.output_rows, r->rows.size());
  EXPECT_LE(p.subquery_min_us, p.subquery_max_us);
  EXPECT_EQ(p.retries, 0u);
}

TEST(ExplainAnalyzeTest, AnalyzeKeywordRoundTripsThroughTheParser) {
  auto stmt = sql::Parse("EXPLAIN ANALYZE SELECT 1");
  ASSERT_TRUE(stmt.ok());
  auto* ex = dynamic_cast<const sql::ExplainStmt*>(stmt->get());
  ASSERT_NE(ex, nullptr);
  EXPECT_TRUE(ex->analyze);
  auto plain = sql::Parse("EXPLAIN SELECT 1");
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(
      dynamic_cast<const sql::ExplainStmt*>(plain->get())->analyze);
}

// ---------------------------------------------------------------------
// Knobs: SET trace, and the tracer's output path (APUAMA_TRACE).

TEST(KnobTest, SetTraceTogglesTheGlobalTracer) {
  engine::Database db;
  obs::Tracer& tracer = obs::Tracer::Global();
  ASSERT_TRUE(db.Execute("set trace = on").ok());
  EXPECT_TRUE(tracer.enabled());
  { obs::Span s = tracer.StartSpan("knob.probe", "test"); }
  EXPECT_GT(tracer.num_spans(), 0u);
  ASSERT_TRUE(db.Execute("set trace = off").ok());
  EXPECT_FALSE(tracer.enabled());
  EXPECT_EQ(tracer.num_spans(), 0u);  // off flushes and clears
  EXPECT_FALSE(db.Execute("set trace = sideways").ok());
}

TEST(KnobTest, TurningTracingOffFlushesToTheOutputPath) {
  obs::Tracer tracer;
  const std::string path = "obs_test_flush_trace.json";
  tracer.SetOutputPath(path);
  tracer.SetEnabled(true);
  { obs::Span s = tracer.StartSpan("flush.probe", "test"); }
  tracer.SetEnabled(false);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buf[4096];
  size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  std::remove(path.c_str());
  buf[n] = '\0';
  const std::string body(buf);
  EXPECT_NE(body.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(body.find("\"name\":\"flush.probe\""), std::string::npos);
}

}  // namespace
}  // namespace apuama
