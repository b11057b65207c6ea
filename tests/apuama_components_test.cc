// Direct unit tests for Apuama's smaller components: NodeProcessor
// (connection pool, forced-index bracket, counters), the ApuamaDriver
// connection routing, and engine-level statistics.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "apuama/apuama_engine.h"
#include "apuama/cluster_facade.h"
#include "apuama/node_processor.h"
#include "cjdbc/connection.h"
#include "cjdbc/controller.h"
#include "common/logging.h"
#include "engine/database.h"
#include "tests/test_util.h"
#include "tpch/dbgen.h"
#include "tpch/tpch_catalog.h"

namespace apuama {
namespace {

std::unique_ptr<cjdbc::ReplicaSet> SmallCluster(int nodes) {
  auto replicas = std::make_unique<cjdbc::ReplicaSet>(
      nodes, cjdbc::ReplicaSet::NodeOptions{});
  for (int i = 0; i < nodes; ++i) {
    auto r = replicas->ExecuteOn(
        i, "create table t (a bigint not null, b bigint, primary key (a))");
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(
        replicas->ExecuteOn(i, "insert into t values (1, 10), (2, 20)")
            .ok());
  }
  return replicas;
}

TEST(NodeProcessorTest, PassThroughExecution) {
  auto replicas = SmallCluster(1);
  NodeProcessor np(0, replicas.get(), NodeProcessorOptions{});
  auto r = np.Execute("select sum(b) from t");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].int_val(), 30);
  EXPECT_EQ(np.statements_executed(), 1u);
  EXPECT_EQ(np.subqueries_executed(), 0u);
}

TEST(NodeProcessorTest, SubqueryForcesIndexAndRestoresSetting) {
  auto replicas = SmallCluster(1);
  NodeProcessor np(0, replicas.get(), NodeProcessorOptions{});
  engine::Database* db = replicas->node(0);
  ASSERT_TRUE(db->settings()->enable_seqscan);
  auto r = np.ExecuteSubquery("select sum(b) from t where a >= 1 and a < 2");
  ASSERT_TRUE(r.ok());
  // Forced during execution; restored after.
  EXPECT_TRUE(db->settings()->enable_seqscan);
  EXPECT_FALSE(r->stats.used_seq_scan);
  EXPECT_EQ(np.subqueries_executed(), 1u);
}

TEST(NodeProcessorTest, ForcingDisabledByOption) {
  auto replicas = SmallCluster(1);
  NodeProcessorOptions opts;
  opts.force_index_for_svp = false;
  NodeProcessor np(0, replicas.get(), opts);
  // Tiny table: the planner naturally seq-scans when not forced.
  auto r = np.ExecuteSubquery("select sum(b) from t where a >= 1 and a < 2");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->stats.used_seq_scan);
}

TEST(NodeProcessorTest, PoolBoundsConcurrency) {
  auto replicas = SmallCluster(1);
  NodeProcessorOptions opts;
  opts.pool_size = 2;
  NodeProcessor np(0, replicas.get(), opts);
  std::atomic<int> completed{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&] {
      auto r = np.Execute("select count(*) from t");
      if (r.ok()) completed.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(completed.load(), 8);  // all served despite the bound
}

TEST(NodeProcessorTest, TransactionCounterTracksNode) {
  auto replicas = SmallCluster(1);
  NodeProcessor np(0, replicas.get(), NodeProcessorOptions{});
  uint64_t before = np.TransactionCounter();
  ASSERT_TRUE(np.Execute("insert into t values (3, 30)").ok());
  EXPECT_EQ(np.TransactionCounter(), before + 1);
}

TEST(ApuamaDriverTest, RoutesByStatementKind) {
  const tpch::TpchData data(tpch::DbgenOptions{.scale_factor = 0.001});
  cjdbc::ReplicaSet replicas(2, cjdbc::ReplicaSet::NodeOptions{});
  ASSERT_TRUE(data.LoadIntoReplicas(&replicas).ok());
  ApuamaEngine engine(&replicas, tpch::MakeTpchCatalog(data, 100));
  ApuamaDriver driver(&engine);
  ASSERT_EQ(driver.num_nodes(), 2);
  auto conn = driver.Connect(0);
  ASSERT_TRUE(conn.ok());

  // Fact-table read: intra-query path.
  ASSERT_TRUE((*conn)->Execute("select count(*) from lineitem").ok());
  EXPECT_EQ(engine.stats().svp_queries, 1u);
  // Dimension read: inter-query path.
  ASSERT_TRUE((*conn)->Execute("select count(*) from nation").ok());
  EXPECT_EQ(engine.stats().passthrough_reads, 1u);
  // Session control passes straight to the node.
  ASSERT_TRUE((*conn)->Execute("set enable_seqscan = on").ok());
  // EXPLAIN classifies as a read and answers on the node.
  auto ex = (*conn)->Execute("explain select count(*) from nation");
  ASSERT_TRUE(ex.ok());
  EXPECT_EQ(ex->column_names[0], "plan");
  // Bad node id refused.
  EXPECT_EQ(driver.Connect(7).status().code(), StatusCode::kUnavailable);
}

// One SET grammar: the same 11 names are accepted and the 5 deleted
// ones are unknown, through the whole stack and on a bare node.
TEST(SetGrammarTest, ElevenNamesAcceptedDeletedNamesUnknown) {
  const tpch::TpchData data(tpch::DbgenOptions{.scale_factor = 0.001});
  cjdbc::ReplicaSet replicas(2, cjdbc::ReplicaSet::NodeOptions{});
  ASSERT_TRUE(data.LoadIntoReplicas(&replicas).ok());
  ApuamaEngine engine(&replicas, tpch::MakeTpchCatalog(data, 100));
  cjdbc::Controller controller(std::make_unique<ApuamaDriver>(&engine));
  engine::Database db;
  const LogLevel saved_level = GetLogLevel();
  const std::vector<std::string> accepted = {
      "enable_seqscan = on", "exec_threads = 2",   "share_scans = off",
      "result_cache = off",  "admission = off",    "slo_target_us = 50000",
      "priority = 4",        "sample_seed = 42",   "approx_error_target = 0",
      "trace = off",         "log_level = warn"};
  const std::vector<std::string> deleted = {
      "approx = on", "fragmentation = off", "exchange_strategy = shuffle",
      "trace_output = 'trace.json'", "admission_queue_limit = 10"};
  for (const std::string& set : accepted) {
    EXPECT_TRUE(controller.Execute("set " + set).ok()) << set;
    EXPECT_TRUE(db.Execute("set " + set).ok()) << set;
  }
  for (const std::string& set : deleted) {
    for (const Status& s : {controller.Execute("set " + set).status(),
                            db.Execute("set " + set).status()}) {
      EXPECT_EQ(s.code(), StatusCode::kNotFound) << set << ": "
                                                 << s.ToString();
      EXPECT_NE(s.message().find("unknown setting"), std::string::npos)
          << s.ToString();
    }
  }
  SetLogLevel(saved_level);
}

TEST(ApuamaEngineTest, StatsAccumulate) {
  const tpch::TpchData data(tpch::DbgenOptions{.scale_factor = 0.001});
  cjdbc::ReplicaSet replicas(2, cjdbc::ReplicaSet::NodeOptions{});
  ASSERT_TRUE(data.LoadIntoReplicas(&replicas).ok());
  ApuamaEngine engine(&replicas, tpch::MakeTpchCatalog(data, 100));
  ASSERT_TRUE(engine.ExecuteRead(0, "select count(*) from orders").ok());
  ASSERT_TRUE(engine.ExecuteRead(
                    1, "select count(distinct l_suppkey) from lineitem")
                  .ok());
  ASSERT_TRUE(engine.ExecuteRead(0, "select count(*) from region").ok());
  const auto& st = engine.stats();
  EXPECT_EQ(st.svp_queries, 1u);
  EXPECT_EQ(st.non_rewritable, 1u);     // count(distinct)
  EXPECT_EQ(st.passthrough_reads, 2u);  // fallback + region
  EXPECT_GT(st.partial_rows_total, 0u);
}

TEST(ClusterFacadeTest, EndToEndThroughTheFacade) {
  auto cluster = ApuamaCluster::Create({.num_nodes = 3, .apuama = {}});
  ASSERT_TRUE(cluster.ok());
  ASSERT_TRUE((*cluster)
                  ->ExecuteScript("create table f (k bigint not null, "
                                  "v double, primary key (k))")
                  .ok());
  VirtualPartitionSpace space;
  space.name = "k";
  space.members.push_back({"f", "k"});
  space.min_value = 1;
  space.max_value = 8;
  ASSERT_TRUE((*cluster)->RegisterPartitionSpace(std::move(space)).ok());
  // Fragmentation DDL replays through the script path like any other
  // statement.
  Status script = (*cluster)->ExecuteScript(
      "alter table f fragment by hash(k) into 2;"
      "alter table f unfragment;"
      "insert into f values (1, 1.5), (2, 2.5), (3, 3.5),"
      " (4, 4.5), (5, 5.5), (6, 6.5), (7, 7.5), (8, 8.5)");
  ASSERT_TRUE(script.ok()) << script.ToString();

  auto r = (*cluster)->Execute("select sum(v), count(*) from f");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_DOUBLE_EQ(r->rows[0][0].double_val(), 40.0);
  EXPECT_EQ(r->rows[0][1].int_val(), 8);
  EXPECT_EQ((*cluster)->stats().svp_queries, 1u);

  // Writes reach every replica through the same entry point.
  ASSERT_TRUE((*cluster)->Execute("insert into f values (9, 9.5)").ok());
  for (int i = 0; i < (*cluster)->num_nodes(); ++i) {
    auto count =
        (*cluster)->replicas()->ExecuteOn(i, "select count(*) from f");
    EXPECT_EQ(count->rows[0][0].int_val(), 9);
  }
  // Domain update widens future partitions.
  ASSERT_TRUE((*cluster)->UpdatePartitionDomain("k", 1, 9).ok());
  auto r2 = (*cluster)->Execute("select count(*) from f");
  EXPECT_EQ(r2->rows[0][0].int_val(), 9);
}

TEST(ClusterFacadeTest, ScriptStopsAtFirstError) {
  auto cluster = ApuamaCluster::Create({.num_nodes = 2, .apuama = {}});
  ASSERT_TRUE(cluster.ok());
  Status s = (*cluster)->ExecuteScript(
      "create table a (x bigint); select * from nope; "
      "create table b (y bigint)");
  EXPECT_FALSE(s.ok());
  // First statement applied, third never ran.
  EXPECT_TRUE((*cluster)->replicas()->node(0)->catalog()->HasTable("a"));
  EXPECT_FALSE((*cluster)->replicas()->node(0)->catalog()->HasTable("b"));
}

TEST(ClusterFacadeTest, InvalidOptionsRejected) {
  EXPECT_FALSE(ApuamaCluster::Create({.num_nodes = 0, .apuama = {}}).ok());
}

TEST(ApuamaEngineTest, BadNodeIdsRejected) {
  const tpch::TpchData data(tpch::DbgenOptions{.scale_factor = 0.001});
  cjdbc::ReplicaSet replicas(2, cjdbc::ReplicaSet::NodeOptions{});
  ASSERT_TRUE(data.LoadIntoReplicas(&replicas).ok());
  ApuamaEngine engine(&replicas, tpch::MakeTpchCatalog(data));
  EXPECT_FALSE(engine.ExecuteRead(-1, "select 1").ok());
  EXPECT_FALSE(engine.ExecuteRead(2, "select 1").ok());
  EXPECT_FALSE(engine.ExecuteWriteOn(5, "delete from orders").ok());
}

}  // namespace
}  // namespace apuama
