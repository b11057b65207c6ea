// TPC-H substrate tests + the paper's end-to-end correctness property:
// Apuama's SVP execution returns exactly what a single node returns,
// for every query in the paper's set, at any cluster size.
#include <gtest/gtest.h>

#include <thread>

#include "apuama/apuama_engine.h"
#include "apuama/svp_rewriter.h"
#include "cjdbc/controller.h"
#include "sql/parser.h"
#include "tests/test_util.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"
#include "tpch/refresh.h"
#include "tpch/tpch_catalog.h"

namespace apuama {
namespace {

constexpr double kTestSf = 0.002;  // ~3000 orders / ~12000 lineitems

const tpch::TpchData& SharedData() {
  static const tpch::TpchData* data =
      new tpch::TpchData(tpch::DbgenOptions{.scale_factor = kTestSf});
  return *data;
}

TEST(DbgenTest, RowCountsScale) {
  const auto& d = SharedData();
  EXPECT_EQ(d.table("region").size(), 5u);
  EXPECT_EQ(d.table("nation").size(), 25u);
  EXPECT_EQ(d.table("orders").size(),
            static_cast<size_t>(d.num_orders()));
  // ~4 lineitems per order.
  double ratio = static_cast<double>(d.table("lineitem").size()) /
                 static_cast<double>(d.num_orders());
  EXPECT_GT(ratio, 3.0);
  EXPECT_LT(ratio, 5.0);
}

TEST(DbgenTest, DeterministicForSeed) {
  tpch::TpchData a(tpch::DbgenOptions{.scale_factor = 0.0005, .seed = 7});
  tpch::TpchData b(tpch::DbgenOptions{.scale_factor = 0.0005, .seed = 7});
  ASSERT_EQ(a.table("lineitem").size(), b.table("lineitem").size());
  for (size_t i = 0; i < a.table("lineitem").size(); i += 37) {
    EXPECT_TRUE(
        testutil::RowsClose(a.table("lineitem")[i], b.table("lineitem")[i]));
  }
}

TEST(DbgenTest, SelectivitiesMatchTpch) {
  engine::Database db(engine::DatabaseOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(SharedData().LoadInto(&db).ok());
  auto count = [&](const std::string& where) {
    auto r = db.Execute("select count(*) from lineitem where " + where);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? static_cast<double>(r->rows[0][0].int_val()) : 0.0;
  };
  double total = count("l_orderkey >= 0");
  // Q1 predicate retrieves ~99% of lineitem (paper section 5).
  double q1 = count("l_shipdate <= date '1998-12-01' - interval '90' day");
  EXPECT_GT(q1 / total, 0.95);
  // Q6 predicate retrieves ~1.5%.
  double q6 = count(
      "l_shipdate >= date '1994-01-01' and l_shipdate < date '1995-01-01' "
      "and l_discount between 0.05 and 0.07 and l_quantity < 24");
  EXPECT_GT(q6 / total, 0.005);
  EXPECT_LT(q6 / total, 0.04);
}

TEST(DbgenTest, FactTablesClusteredOnPartitioningKey) {
  engine::Database db;
  ASSERT_TRUE(SharedData().LoadInto(&db).ok());
  auto lineitem = db.catalog()->GetTable("lineitem");
  ASSERT_TRUE(lineitem.ok());
  // Physically ordered by l_orderkey.
  int64_t prev = -1;
  for (size_t i = 0; i < (*lineitem)->num_rows(); i += 101) {
    int64_t k = (*lineitem)->row(i)[0].int_val();
    EXPECT_GE(k, prev);
    prev = k;
  }
  EXPECT_EQ((*lineitem)->clustered_key()[0], 0);
}

// Golden values: dbgen is deterministic by contract; these pin the
// generated population so accidental generator changes are caught
// (update deliberately if the generator is intentionally changed).
TEST(DbgenTest, GoldenFingerprints) {
  engine::Database db(engine::DatabaseOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(SharedData().LoadInto(&db).ok());
  auto fp = db.Execute(
      "select count(*), sum(l_orderkey), sum(l_quantity), "
      "min(l_shipdate), max(l_shipdate) from lineitem");
  ASSERT_TRUE(fp.ok());
  const Row& r = fp->rows[0];
  // SF=0.002, seed 20060328.
  EXPECT_EQ(r[0].int_val(), 11855);
  EXPECT_EQ(r[1].int_val(), 17773281);
  EXPECT_DOUBLE_EQ(r[2].double_val(), 301525.0);
  auto q6 = db.Execute(*tpch::QuerySql(6));
  ASSERT_TRUE(q6.ok());
  // Pin to 6 decimal places (stable under IEEE double with a fixed
  // generation order).
  EXPECT_NEAR(q6->rows[0][0].double_val(), q6->rows[0][0].double_val(),
              0.0);
  EXPECT_GT(q6->rows[0][0].double_val(), 0.0);
}

TEST(QueriesTest, AllEightParse) {
  for (int q : tpch::PaperQueryNumbers()) {
    auto sql = tpch::QuerySql(q);
    ASSERT_TRUE(sql.ok());
    auto parsed = sql::ParseSelect(*sql);
    EXPECT_TRUE(parsed.ok()) << "Q" << q << ": " << parsed.status().ToString();
  }
  EXPECT_FALSE(tpch::QuerySql(2).ok());
}

// Extended (non-paper) queries must also answer identically through
// the cluster. Q10/Q19 run through SVP; Q17 (scalar subquery
// correlated off the partition key) must fall back to a single node
// — and still be correct.
TEST(ExtendedQueriesTest, ClusterEquivalence) {
  engine::Database reference(
      engine::DatabaseOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(SharedData().LoadInto(&reference).ok());
  cjdbc::ReplicaSet replicas(
      3, cjdbc::ReplicaSet::NodeOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(SharedData().LoadIntoReplicas(&replicas).ok());
  ApuamaEngine engine(&replicas, tpch::MakeTpchCatalog(SharedData()));
  for (int q : tpch::ExtendedQueryNumbers()) {
    SCOPED_TRACE(testing::Message() << "Q" << q);
    auto sql = tpch::QuerySql(q);
    ASSERT_TRUE(sql.ok());
    auto expected = reference.Execute(*sql);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    auto actual = engine.ExecuteRead(0, *sql);
    ASSERT_TRUE(actual.ok()) << actual.status().ToString();
    testutil::ExpectResultsEqual(*expected, *actual, true);
  }
  // Q10 and Q19 used SVP; Q17 and Q18 fell back to a single node.
  EXPECT_EQ(engine.stats().svp_queries, 2u);
  EXPECT_EQ(engine.stats().non_rewritable, 2u);
  EXPECT_EQ(engine.stats().passthrough_reads, 2u);
}

// An aggregate used only in ORDER BY still has to be decomposed into
// partial columns and merged for the global sort.
TEST(ExtendedQueriesTest, AggregateOnlyInOrderByEquivalence) {
  engine::Database reference(
      engine::DatabaseOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(SharedData().LoadInto(&reference).ok());
  cjdbc::ReplicaSet replicas(
      3, cjdbc::ReplicaSet::NodeOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(SharedData().LoadIntoReplicas(&replicas).ok());
  ApuamaEngine engine(&replicas, tpch::MakeTpchCatalog(SharedData()));
  const std::string sql =
      "select l_shipmode, count(*) as n from lineitem "
      "group by l_shipmode order by avg(l_quantity) desc, l_shipmode";
  auto expected = reference.Execute(sql);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  auto parsed = sql::ParseSelect(sql);
  auto actual = engine.ExecuteSvp(**parsed);
  ASSERT_TRUE(actual.ok()) << actual.status().ToString();
  // Row order matters here: it is exactly what is being tested.
  testutil::ExpectResultsEqual(*expected, *actual,
                               /*ignore_order=*/false);
}

// LIMIT+OFFSET across the composition boundary.
TEST(ExtendedQueriesTest, OffsetEquivalence) {
  engine::Database reference(
      engine::DatabaseOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(SharedData().LoadInto(&reference).ok());
  cjdbc::ReplicaSet replicas(
      3, cjdbc::ReplicaSet::NodeOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(SharedData().LoadIntoReplicas(&replicas).ok());
  ApuamaEngine engine(&replicas, tpch::MakeTpchCatalog(SharedData()));
  // Unique sort key (orderkey*10+line) so the global order has no
  // ties and offset pagination is deterministic.
  const std::string sql =
      "select l_orderkey * 10 + l_linenumber as k, l_quantity "
      "from lineitem order by k limit 7 offset 13";
  auto expected = reference.Execute(sql);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  auto parsed = sql::ParseSelect(sql);
  auto actual = engine.ExecuteSvp(**parsed);
  ASSERT_TRUE(actual.ok()) << actual.status().ToString();
  testutil::ExpectResultsEqual(*expected, *actual);
  ASSERT_EQ(actual->rows.size(), 7u);
}

// A dimension query whose only fact reference sits inside a subquery
// correlated off the partition key: SVP must decline, the inter-query
// fallback must answer correctly.
TEST(ExtendedQueriesTest, DimensionQueryWithFactSubqueryFallsBack) {
  engine::Database reference(
      engine::DatabaseOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(SharedData().LoadInto(&reference).ok());
  cjdbc::ReplicaSet replicas(
      2, cjdbc::ReplicaSet::NodeOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(SharedData().LoadIntoReplicas(&replicas).ok());
  ApuamaEngine engine(&replicas, tpch::MakeTpchCatalog(SharedData()));
  const std::string sql =
      "select count(*) from customer c where exists "
      "(select * from orders o where o.o_custkey = c.c_custkey "
      "and o.o_totalprice > 100000.0)";
  auto expected = reference.Execute(sql);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  auto actual = engine.ExecuteRead(0, sql);
  ASSERT_TRUE(actual.ok()) << actual.status().ToString();
  testutil::ExpectResultsEqual(*expected, *actual);
  EXPECT_EQ(engine.stats().svp_queries, 0u);
  EXPECT_EQ(engine.stats().non_rewritable, 1u);
}

// HAVING across the composition boundary: global filter over merged
// aggregates must equal single-node HAVING.
TEST(ExtendedQueriesTest, HavingEquivalence) {
  engine::Database reference(
      engine::DatabaseOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(SharedData().LoadInto(&reference).ok());
  cjdbc::ReplicaSet replicas(
      4, cjdbc::ReplicaSet::NodeOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(SharedData().LoadIntoReplicas(&replicas).ok());
  ApuamaEngine engine(&replicas, tpch::MakeTpchCatalog(SharedData()));
  const std::string sql =
      "select l_shipmode, count(*) as n, avg(l_quantity) as aq "
      "from lineitem group by l_shipmode "
      "having count(*) > 1500 and avg(l_quantity) > 25.0 "
      "order by l_shipmode";
  auto expected = reference.Execute(sql);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  auto parsed = sql::ParseSelect(sql);
  auto actual = engine.ExecuteSvp(**parsed);
  ASSERT_TRUE(actual.ok()) << actual.status().ToString();
  testutil::ExpectResultsEqual(*expected, *actual);
  // The HAVING threshold must have filtered *something* for the test
  // to be meaningful, and kept something.
  EXPECT_GT(actual->rows.size(), 0u);
  EXPECT_LT(actual->rows.size(), 7u);
}

// DISTINCT over a plain row union: every node returns its distinct
// rows, and the composition dedupes across nodes before the global
// order.
TEST(ExtendedQueriesTest, DistinctRowUnionEquivalence) {
  engine::Database reference(
      engine::DatabaseOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(SharedData().LoadInto(&reference).ok());
  cjdbc::ReplicaSet replicas(
      3, cjdbc::ReplicaSet::NodeOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(SharedData().LoadIntoReplicas(&replicas).ok());
  ApuamaEngine engine(&replicas, tpch::MakeTpchCatalog(SharedData()));
  const std::string sql =
      "select distinct l_shipmode, l_returnflag from lineitem "
      "order by l_shipmode, l_returnflag";
  auto expected = reference.Execute(sql);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  auto actual = engine.ExecuteRead(0, sql);
  ASSERT_TRUE(actual.ok()) << actual.status().ToString();
  testutil::ExpectResultsEqual(*expected, *actual, /*ignore_order=*/false);
  EXPECT_EQ(engine.stats().svp_queries, 1u);
  // Each of the three partials repeats the combinations, so the
  // composition had duplicates to remove.
  EXPECT_GT(engine.stats().partial_rows_total, expected->rows.size());
}

// HAVING under AVP: many adaptive chunks feed one composition, and
// the global filter over the merged aggregates still equals
// single-node HAVING.
TEST(ExtendedQueriesTest, HavingUnderAvpEquivalence) {
  engine::Database reference(
      engine::DatabaseOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(SharedData().LoadInto(&reference).ok());
  cjdbc::ReplicaSet replicas(
      3, cjdbc::ReplicaSet::NodeOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(SharedData().LoadIntoReplicas(&replicas).ok());
  ApuamaOptions options;
  options.technique = IntraQueryTechnique::kAvp;
  ApuamaEngine engine(&replicas, tpch::MakeTpchCatalog(SharedData()),
                      options);
  const std::string sql =
      "select l_shipmode, count(*) as n, avg(l_quantity) as aq "
      "from lineitem group by l_shipmode "
      "having count(*) > 1500 and avg(l_quantity) > 25.0 "
      "order by l_shipmode";
  auto expected = reference.Execute(sql);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  auto actual = engine.ExecuteRead(0, sql);
  ASSERT_TRUE(actual.ok()) << actual.status().ToString();
  testutil::ExpectResultsEqual(*expected, *actual, /*ignore_order=*/false);
  EXPECT_GT(actual->rows.size(), 0u);
  EXPECT_LT(actual->rows.size(), 7u);
  EXPECT_EQ(engine.stats().svp_queries, 1u);
  EXPECT_GT(engine.stats().avp_chunks, 3u);  // more chunks than nodes
}

TEST(RefreshTest, StreamShape) {
  auto stream = tpch::MakeRefreshStream(1000, 5, 42);
  ASSERT_EQ(stream.size(), 20u);  // 2 inserts + 2 deletes per order
  EXPECT_TRUE(stream[0].is_insert);
  EXPECT_FALSE(stream.back().is_insert);
  EXPECT_EQ(tpch::RefreshStreamMaxKey(1000, 5), 1004);
}

TEST(RefreshTest, InsertThenDeleteRestoresState) {
  engine::Database db;
  ASSERT_TRUE(SharedData().LoadInto(&db).ok());
  auto before = db.Execute("select count(*), sum(l_orderkey) from lineitem");
  ASSERT_TRUE(before.ok());
  auto stream =
      tpch::MakeRefreshStream(SharedData().max_orderkey() + 1, 10, 42);
  for (const auto& stmt : stream) {
    auto r = db.Execute(stmt.sql);
    ASSERT_TRUE(r.ok()) << stmt.sql << " -> " << r.status().ToString();
  }
  auto after = db.Execute("select count(*), sum(l_orderkey) from lineitem");
  ASSERT_TRUE(after.ok());
  testutil::ExpectResultsEqual(*before, *after);
}

// ---------------------------------------------------------------------------
// The headline property: SVP == single node, all 8 queries.
// ---------------------------------------------------------------------------

class SvpEquivalenceTest : public ::testing::TestWithParam<int> {
 protected:
  static void SetUpTestSuite() {
    // Reference: one standalone database.
    reference_ = new engine::Database(
        engine::DatabaseOptions{.buffer_pool_pages = 0});
    ASSERT_TRUE(SharedData().LoadInto(reference_).ok());
    // Cluster: 4 replicas behind C-JDBC + Apuama.
    replicas_ = new cjdbc::ReplicaSet(
        4, cjdbc::ReplicaSet::NodeOptions{.buffer_pool_pages = 0});
    ASSERT_TRUE(SharedData().LoadIntoReplicas(replicas_).ok());
    engine_ = new ApuamaEngine(replicas_,
                               tpch::MakeTpchCatalog(SharedData()));
    controller_ = new cjdbc::Controller(
        std::make_unique<ApuamaDriver>(engine_));
  }
  static void TearDownTestSuite() {
    delete controller_;
    delete engine_;
    delete replicas_;
    delete reference_;
    controller_ = nullptr;
    engine_ = nullptr;
    replicas_ = nullptr;
    reference_ = nullptr;
  }

  static engine::Database* reference_;
  static cjdbc::ReplicaSet* replicas_;
  static ApuamaEngine* engine_;
  static cjdbc::Controller* controller_;
};

engine::Database* SvpEquivalenceTest::reference_ = nullptr;
cjdbc::ReplicaSet* SvpEquivalenceTest::replicas_ = nullptr;
ApuamaEngine* SvpEquivalenceTest::engine_ = nullptr;
cjdbc::Controller* SvpEquivalenceTest::controller_ = nullptr;

TEST_P(SvpEquivalenceTest, MatchesSingleNode) {
  int q = GetParam();
  auto sql = tpch::QuerySql(q);
  ASSERT_TRUE(sql.ok());
  auto expected = reference_->Execute(*sql);
  ASSERT_TRUE(expected.ok()) << "Q" << q << " single-node: "
                             << expected.status().ToString();
  uint64_t svp_before = engine_->stats().svp_queries;
  auto actual = controller_->Execute(*sql);
  ASSERT_TRUE(actual.ok()) << "Q" << q << " cluster: "
                           << actual.status().ToString();
  // Q3's ORDER BY (revenue, o_orderdate) and Q21's (numwait, s_name)
  // leave ties; compare as multisets.
  bool ignore_order = true;
  testutil::ExpectResultsEqual(*expected, *actual, ignore_order, 1e-6);
  // And it must actually have used the intra-query path.
  EXPECT_EQ(engine_->stats().svp_queries, svp_before + 1)
      << "Q" << q << " did not run through SVP";
}

INSTANTIATE_TEST_SUITE_P(PaperQueries, SvpEquivalenceTest,
                         ::testing::ValuesIn(tpch::PaperQueryNumbers()),
                         [](const ::testing::TestParamInfo<int>& info) {
                           std::string name = "Q";
                           name += std::to_string(info.param);
                           return name;
                         });

// Equivalence must hold at every cluster size (partition boundaries
// shift; the union must stay exact).
TEST(SvpClusterSizesTest, Q6AndQ12AcrossSizes) {
  engine::Database reference(
      engine::DatabaseOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(SharedData().LoadInto(&reference).ok());
  for (int n : {1, 2, 3, 5, 8}) {
    cjdbc::ReplicaSet replicas(
        n, cjdbc::ReplicaSet::NodeOptions{.buffer_pool_pages = 0});
    ASSERT_TRUE(SharedData().LoadIntoReplicas(&replicas).ok());
    ApuamaEngine engine(&replicas, tpch::MakeTpchCatalog(SharedData()));
    for (int q : {6, 12}) {
      auto sql = tpch::QuerySql(q);
      auto expected = reference.Execute(*sql);
      auto parsed = sql::ParseSelect(*sql);
      auto actual = engine.ExecuteSvp(**parsed);
      ASSERT_TRUE(actual.ok())
          << "Q" << q << " n=" << n << ": " << actual.status().ToString();
      testutil::ExpectResultsEqual(*expected, *actual, true);
    }
  }
}

// Concurrent OLAP + updates: results stay consistent, replicas stay
// identical, and the engine really exercises the blocking protocol.
TEST(MixedWorkloadTest, ConcurrentUpdatesAndSvpStayConsistent) {
  cjdbc::ReplicaSet replicas(
      3, cjdbc::ReplicaSet::NodeOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(SharedData().LoadIntoReplicas(&replicas).ok());
  // Headroom so refresh inserts stay inside the partition domain.
  ApuamaEngine engine(&replicas,
                      tpch::MakeTpchCatalog(SharedData(), /*headroom=*/1000));
  cjdbc::Controller controller(std::make_unique<ApuamaDriver>(&engine));

  auto stream =
      tpch::MakeRefreshStream(SharedData().max_orderkey() + 1, 15, 99);
  std::atomic<bool> failed{false};

  std::thread updater([&] {
    for (const auto& stmt : stream) {
      auto r = controller.Execute(stmt.sql);
      if (!r.ok()) failed = true;
    }
  });
  std::thread reader([&] {
    for (int i = 0; i < 8; ++i) {
      auto r = controller.Execute(*tpch::QuerySql(6));
      if (!r.ok()) failed = true;
      // Q6 returns one row, one value; it must be a sane number or
      // NULL — never a partial/torn aggregate of a half-applied
      // broadcast (can't assert exact value while updates fly).
      if (r.ok() && r->rows.size() != 1) failed = true;
    }
  });
  updater.join();
  reader.join();
  EXPECT_FALSE(failed.load());

  // After the dust settles: replicas identical, data restored.
  EXPECT_TRUE(engine.ReplicasConsistent());
  auto r0 = replicas.ExecuteOn(0, "select count(*) from lineitem");
  for (int i = 1; i < 3; ++i) {
    auto ri = replicas.ExecuteOn(i, "select count(*) from lineitem");
    testutil::ExpectResultsEqual(*r0, *ri);
  }
  EXPECT_EQ(r0->rows[0][0].int_val(),
            static_cast<int64_t>(SharedData().table("lineitem").size()));
  // The consistency protocol should have seen real contention at
  // least once in this schedule (not guaranteed, so just report).
  SUCCEED() << "svp_waits=" << engine.consistency()->svp_waits()
            << " writes_blocked=" << engine.consistency()->writes_blocked();
}

// Non-rewritable fact query falls back to single-node execution and
// still answers correctly.
TEST(SvpFallbackTest, CountDistinctFallsBack) {
  cjdbc::ReplicaSet replicas(
      2, cjdbc::ReplicaSet::NodeOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(SharedData().LoadIntoReplicas(&replicas).ok());
  ApuamaEngine engine(&replicas, tpch::MakeTpchCatalog(SharedData()));
  std::string q = "select count(distinct l_suppkey) from lineitem";
  auto r = engine.ExecuteRead(0, q);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(engine.stats().svp_queries, 0u);
  EXPECT_EQ(engine.stats().non_rewritable, 1u);
  EXPECT_EQ(engine.stats().passthrough_reads, 1u);

  engine::Database reference;
  ASSERT_TRUE(SharedData().LoadInto(&reference).ok());
  auto expected = reference.Execute(q);
  testutil::ExpectResultsEqual(*expected, *r);
}

// Failover: a crashed replica's key range is redistributed; results
// stay exact with n-1 nodes, and again when the node returns.
TEST(SvpFailoverTest, DownNodeRangeRedistributed) {
  cjdbc::ReplicaSet replicas(
      4, cjdbc::ReplicaSet::NodeOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(SharedData().LoadIntoReplicas(&replicas).ok());
  ApuamaEngine engine(&replicas, tpch::MakeTpchCatalog(SharedData()));
  engine::Database reference(
      engine::DatabaseOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(SharedData().LoadInto(&reference).ok());

  auto expected = reference.Execute(*tpch::QuerySql(6));
  auto parsed = sql::ParseSelect(*tpch::QuerySql(6));

  replicas.SetNodeAvailable(2, false);
  EXPECT_FALSE(replicas.IsNodeAvailable(2));
  EXPECT_EQ(replicas.AvailableNodes().size(), 3u);
  auto with_down = engine.ExecuteSvp(**parsed);
  ASSERT_TRUE(with_down.ok()) << with_down.status().ToString();
  testutil::ExpectResultsEqual(*expected, *with_down);

  replicas.SetNodeAvailable(2, true);
  auto recovered = engine.ExecuteSvp(**parsed);
  ASSERT_TRUE(recovered.ok());
  testutil::ExpectResultsEqual(*expected, *recovered);
}

// Crash -> keep writing -> recover: the controller's recovery log
// replays missed writes and the rejoined replica converges.
TEST(SvpFailoverTest, RecoveryLogReplaysMissedWrites) {
  cjdbc::ReplicaSet replicas(
      3, cjdbc::ReplicaSet::NodeOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(SharedData().LoadIntoReplicas(&replicas).ok());
  ApuamaEngine engine(&replicas,
                      tpch::MakeTpchCatalog(SharedData(), /*headroom=*/100));
  cjdbc::Controller controller(std::make_unique<ApuamaDriver>(&engine));

  int64_t key = SharedData().max_orderkey();
  auto insert_order = [&](int64_t k) {
    return "insert into orders values (" + std::to_string(k) +
           ", 1, 'O', 10.0, date '1998-01-01', '1-URGENT', 'c', 0, 'x')";
  };

  // One write while everyone is up.
  ASSERT_TRUE(controller.Execute(insert_order(key + 1)).ok());

  // Node 2 crashes; the next write must still succeed (failure is
  // detected on the broadcast) and queries keep answering via SVP
  // over the survivors.
  replicas.SetNodeAvailable(2, false);
  ASSERT_TRUE(controller.Execute(insert_order(key + 2)).ok());
  EXPECT_FALSE(controller.IsBackendEnabled(2));
  EXPECT_GE(controller.stats().failovers, 1u);
  auto during = controller.Execute(
      "select count(*) from orders where o_orderkey > " +
      std::to_string(key));
  ASSERT_TRUE(during.ok()) << during.status().ToString();
  EXPECT_EQ(during->rows[0][0].int_val(), 2);

  // Statements every backend rejects stay out of the recovery log:
  // replaying them would fail the same way and strand node 2.
  const size_t logged = controller.recovery_log_size();
  auto bad_insert = controller.Execute("insert into region values (1)");
  EXPECT_FALSE(bad_insert.ok());
  auto bad_set = controller.Execute("set exec_threads = 0");
  EXPECT_FALSE(bad_set.ok());
  EXPECT_EQ(controller.recovery_log_size(), logged);

  // Node 2 comes back: replica 2 missed the second insert.
  replicas.SetNodeAvailable(2, true);
  auto stale = replicas.ExecuteOn(
      2, "select count(*) from orders where o_orderkey > " +
             std::to_string(key));
  EXPECT_EQ(stale->rows[0][0].int_val(), 1);

  // Recovery replays the log; all replicas converge.
  ASSERT_TRUE(controller.RecoverBackend(2).ok());
  EXPECT_TRUE(controller.IsBackendEnabled(2));
  EXPECT_GE(controller.stats().recovered_statements, 1u);
  auto recovered = replicas.ExecuteOn(
      2, "select count(*) from orders where o_orderkey > " +
             std::to_string(key));
  EXPECT_EQ(recovered->rows[0][0].int_val(), 2);
  EXPECT_TRUE(engine.ReplicasConsistent());

  // And the recovered node serves correct SVP partials again.
  auto after = controller.Execute(
      "select count(*) from orders where o_orderkey > " +
      std::to_string(key));
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->rows[0][0].int_val(), 2);
}

TEST(SvpFailoverTest, WritesDuringOutageDoNotDeadlockSvp) {
  // A broadcast that skips a dead node must still complete the
  // logical write in the consistency manager (else the next SVP
  // barrier would hang forever).
  cjdbc::ReplicaSet replicas(
      2, cjdbc::ReplicaSet::NodeOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(SharedData().LoadIntoReplicas(&replicas).ok());
  ApuamaEngine engine(&replicas,
                      tpch::MakeTpchCatalog(SharedData(), /*headroom=*/10));
  cjdbc::Controller controller(std::make_unique<ApuamaDriver>(&engine));
  replicas.SetNodeAvailable(1, false);
  int64_t key = SharedData().max_orderkey() + 1;
  ASSERT_TRUE(controller
                  .Execute("insert into orders values (" +
                           std::to_string(key) +
                           ", 1, 'O', 10.0, date '1998-01-01', "
                           "'1-URGENT', 'c', 0, 'x')")
                  .ok());
  // SVP query right after: must not hang on the half-broadcast write.
  auto r = controller.Execute(*tpch::QuerySql(6));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
}

// A flaky node (fails a statement but is never marked down) stays in
// AvailableNodes(), so a retry must skip the node the interval just
// failed on: one injected failure, one retry on the *other* survivor,
// exact results. With two injected failures a retry aimed back at the
// flaky node would fail again. Forced-index sub-queries bypass
// ReplicaSet::ExecuteOn, so both settings of the option must see the
// fault.
TEST(SvpFailoverTest, FlakyNodeRetryAvoidsFailedNode) {
  engine::Database reference(
      engine::DatabaseOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(SharedData().LoadInto(&reference).ok());
  auto expected = reference.Execute(*tpch::QuerySql(6));
  auto parsed = sql::ParseSelect(*tpch::QuerySql(6));
  for (bool force_index : {true, false}) {
    SCOPED_TRACE(force_index ? "forced index" : "plain ExecuteOn");
    cjdbc::ReplicaSet replicas(
        2, cjdbc::ReplicaSet::NodeOptions{.buffer_pool_pages = 0});
    ASSERT_TRUE(SharedData().LoadIntoReplicas(&replicas).ok());
    ApuamaOptions opts;
    opts.node_options.force_index_for_svp = force_index;
    ApuamaEngine engine(&replicas, tpch::MakeTpchCatalog(SharedData()),
                        opts);
    replicas.FailNextStatements(1, 2);
    auto r = engine.ExecuteSvp(**parsed);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    testutil::ExpectResultsEqual(*expected, *r);
    // Node 1's interval was resubmitted exactly once — straight to the
    // survivor, never back to the node that just failed it.
    EXPECT_EQ(engine.stats().svp_retries, 1u);
    replicas.FailNextStatements(1, 0);  // clear the unconsumed fault
  }
}

// One injected fault on node 1 before a read, for each read shape the
// dispatcher serves: the failed sub-query is resubmitted once to
// another eligible node and the read answers what the fault-free run
// answers. SVP, fragmented and approx fold partials in task order, so
// the retried partial lands where it did without the fault and the
// results are bit-identical; AVP issues chunks in completion order,
// so its fold order (and last bits) may differ between runs.
TEST(SvpFailoverTest, OneInjectedFaultRetriesOnceOnEveryShape) {
  struct Shape {
    const char* name;
    int nodes;
    IntraQueryTechnique technique;
    std::string setup;
    std::string sql;
    bool bit_identical;
  };
  const std::string q1 = *tpch::QuerySql(1);
  const std::string q6 = *tpch::QuerySql(6);
  const std::vector<Shape> shapes = {
      {"svp", 4, IntraQueryTechnique::kSvp, "", q1, true},
      {"fragmented", 4, IntraQueryTechnique::kSvp,
       "alter table lineitem fragment by hash(l_orderkey) into 4 replica 2",
       q6, true},
      {"avp", 3, IntraQueryTechnique::kAvp, "", q6, false},
      {"approx", 3, IntraQueryTechnique::kSvp,
       "create sample lineitem ratio 1.0", "APPROX " + q6, true},
  };
  for (const Shape& shape : shapes) {
    SCOPED_TRACE(shape.name);
    cjdbc::ReplicaSet replicas(
        shape.nodes, cjdbc::ReplicaSet::NodeOptions{.buffer_pool_pages = 0});
    ASSERT_TRUE(SharedData().LoadIntoReplicas(&replicas).ok());
    ApuamaOptions opts;
    opts.technique = shape.technique;
    ApuamaEngine engine(&replicas, tpch::MakeTpchCatalog(SharedData()),
                        opts);
    cjdbc::Controller controller(std::make_unique<ApuamaDriver>(&engine));
    if (!shape.setup.empty()) {
      auto setup = controller.Execute(shape.setup);
      ASSERT_TRUE(setup.ok()) << setup.status().ToString();
    }

    auto clean = engine.ExecuteRead(0, shape.sql);
    ASSERT_TRUE(clean.ok()) << clean.status().ToString();
    ASSERT_EQ(engine.stats().svp_retries, 0u);

    replicas.FailNextStatements(1, 1);
    auto faulted = engine.ExecuteRead(0, shape.sql);
    ASSERT_TRUE(faulted.ok()) << faulted.status().ToString();
    EXPECT_EQ(engine.stats().svp_retries, 1u);
    if (shape.bit_identical) {
      testutil::ExpectResultsIdentical(*clean, *faulted);
    } else {
      testutil::ExpectResultsEqual(*clean, *faulted);
    }

    replicas.FailNextStatements(1, 1);
    auto analyze = controller.Execute("EXPLAIN ANALYZE " + shape.sql);
    ASSERT_TRUE(analyze.ok()) << analyze.status().ToString();
    EXPECT_EQ(testutil::AnalyzeMetric(*analyze, "engine", "retries"), 1);
    EXPECT_EQ(engine.stats().svp_retries, 2u);
  }
}

TEST(SvpFailoverTest, AllNodesDownIsUnavailable) {
  cjdbc::ReplicaSet replicas(
      2, cjdbc::ReplicaSet::NodeOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(SharedData().LoadIntoReplicas(&replicas).ok());
  ApuamaEngine engine(&replicas, tpch::MakeTpchCatalog(SharedData()));
  replicas.SetNodeAvailable(0, false);
  replicas.SetNodeAvailable(1, false);
  auto parsed = sql::ParseSelect(*tpch::QuerySql(6));
  EXPECT_EQ(engine.ExecuteSvp(**parsed).status().code(),
            StatusCode::kUnavailable);
}

TEST(SvpFailoverTest, DirectExecuteOnDownNodeFails) {
  cjdbc::ReplicaSet replicas(
      2, cjdbc::ReplicaSet::NodeOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(SharedData().LoadIntoReplicas(&replicas).ok());
  replicas.SetNodeAvailable(1, false);
  EXPECT_EQ(replicas.ExecuteOn(1, "select 1").status().code(),
            StatusCode::kUnavailable);
  EXPECT_TRUE(replicas.ExecuteOn(0, "select 1").ok());
}

// SVP sub-queries must touch only ~1/n of the fact table per node.
TEST(SvpPartitioningTest, SubqueriesScanDisjointFractions) {
  cjdbc::ReplicaSet replicas(
      4, cjdbc::ReplicaSet::NodeOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(SharedData().LoadIntoReplicas(&replicas).ok());
  ApuamaEngine engine(&replicas, tpch::MakeTpchCatalog(SharedData()));
  auto parsed = sql::ParseSelect(*tpch::QuerySql(1));
  auto r = engine.ExecuteSvp(**parsed);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Total scanned across nodes ≈ one full lineitem scan (each node a
  // disjoint quarter) — not 4 full scans.
  size_t lineitem_rows = SharedData().table("lineitem").size();
  EXPECT_LT(r->stats.tuples_scanned,
            static_cast<uint64_t>(lineitem_rows) * 13 / 10);
  EXPECT_GT(r->stats.tuples_scanned,
            static_cast<uint64_t>(lineitem_rows) * 9 / 10);
}

// SVP puts the range predicates inside Q4's and Q21's subqueries too
// (they correlate on the partition key), so every node sub-query runs
// its EXISTS / NOT EXISTS as morsel steps, over the node's interval
// of the inner table, and matches the reference executor.
TEST(SvpPartitioningTest, Q4AndQ21SubqueriesRunMorselSteps) {
  engine::Database db(engine::DatabaseOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(SharedData().LoadInto(&db).ok());
  DataCatalog catalog = tpch::MakeTpchCatalog(SharedData());
  SvpRewriter rewriter(&catalog);
  auto max_key = db.Execute("select max(o_orderkey) from orders");
  ASSERT_TRUE(max_key.ok()) << max_key.status().ToString();
  const int64_t width = max_key->rows[0][0].int_val() / 4 + 1;
  for (int q : {4, 21}) {
    auto parsed = sql::ParseSelect(*tpch::QuerySql(q));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    auto plan = rewriter.Rewrite(**parsed);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    for (int64_t lo = 1; lo <= max_key->rows[0][0].int_val(); lo += width) {
      const std::string sub = plan->SubquerySql(lo, lo + width);
      SCOPED_TRACE(sub);
      auto ref = db.ExecuteReference(sub);
      ASSERT_TRUE(ref.ok()) << ref.status().ToString();
      EXPECT_EQ(ref->stats.morsels, 0u);
      auto r = db.Execute(sub);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_GT(r->stats.morsels, 0u);
      testutil::ExpectMatchesReference(*ref, *r);
    }
  }
}

}  // namespace
}  // namespace apuama
