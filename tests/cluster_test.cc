// Unit tests for sim, cjdbc, and the Apuama components.
#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "apuama/apuama_engine.h"
#include "apuama/consistency.h"
#include "apuama/data_catalog.h"
#include "apuama/svp_rewriter.h"
#include "cjdbc/controller.h"
#include "sim/cost_model.h"
#include "sim/event_sim.h"
#include "sql/parser.h"
#include "tests/test_util.h"

namespace apuama {
namespace {

// ---------------------------------------------------------------------------
// sim
// ---------------------------------------------------------------------------

TEST(EventSimTest, RunsInTimeOrder) {
  sim::EventSim es;
  std::vector<int> order;
  es.After(30, [&] { order.push_back(3); });
  es.After(10, [&] { order.push_back(1); });
  es.After(20, [&] { order.push_back(2); });
  es.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(es.now(), 30);
}

TEST(EventSimTest, TiesBreakByInsertion) {
  sim::EventSim es;
  std::vector<int> order;
  es.After(10, [&] { order.push_back(1); });
  es.After(10, [&] { order.push_back(2); });
  es.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventSimTest, BoundedRunStopsAtDeadline) {
  sim::EventSim es;
  int fired = 0;
  es.After(10, [&] { ++fired; });
  es.After(100, [&] { ++fired; });
  es.Run(/*until=*/50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(es.now(), 50);  // clock advanced to the deadline
  EXPECT_FALSE(es.Idle());
  es.Run();
  EXPECT_EQ(fired, 2);
}

TEST(EventSimTest, NestedScheduling) {
  sim::EventSim es;
  int fired = 0;
  es.After(5, [&] {
    es.After(5, [&] { ++fired; });
  });
  es.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(es.now(), 10);
}

TEST(SimServerTest, FifoSingleServer) {
  sim::EventSim es;
  sim::SimServer server(&es, 1);
  std::vector<SimTime> completions;
  for (int i = 0; i < 3; ++i) {
    server.Enqueue({[] { return SimTime{100}; },
                    [&](SimTime t) { completions.push_back(t); }});
  }
  EXPECT_EQ(server.pending(), 3);
  es.Run();
  EXPECT_EQ(completions, (std::vector<SimTime>{100, 200, 300}));
  EXPECT_EQ(server.jobs_completed(), 3u);
  EXPECT_EQ(server.busy_time(), 300);
}

TEST(SimServerTest, MplTwoOverlaps) {
  sim::EventSim es;
  sim::SimServer server(&es, 2);
  std::vector<SimTime> completions;
  for (int i = 0; i < 4; ++i) {
    server.Enqueue({[] { return SimTime{100}; },
                    [&](SimTime t) { completions.push_back(t); }});
  }
  es.Run();
  // Two at a time: completions at 100, 100, 200, 200.
  EXPECT_EQ(completions, (std::vector<SimTime>{100, 100, 200, 200}));
}

TEST(SimServerTest, ServiceTimeComputedAtStart) {
  sim::EventSim es;
  sim::SimServer server(&es, 1);
  SimTime second_started_at = -1;
  server.Enqueue({[] { return SimTime{50}; }, nullptr});
  server.Enqueue({[&] {
                    second_started_at = es.now();
                    return SimTime{10};
                  },
                  nullptr});
  es.Run();
  EXPECT_EQ(second_started_at, 50);  // lazily, when the slot freed
}

TEST(CostModelTest, StatementTimeComposition) {
  sim::CostModel cm;
  engine::ExecStats s;
  s.pages_disk = 10;
  s.pages_cache = 100;
  s.cpu_ops = 1000;
  s.tuples_output = 5;
  SimTime t = cm.StatementTime(s);
  EXPECT_EQ(t, cm.message_us + 10 * cm.disk_page_us +
                   100 * cm.cache_page_us + 1000 * cm.cpu_op_us +
                   5 * cm.row_transfer_us);
  EXPECT_GT(cm.disk_page_us, cm.cache_page_us);  // sanity of defaults
}

// ---------------------------------------------------------------------------
// cjdbc
// ---------------------------------------------------------------------------

class CjdbcTest : public ::testing::Test {
 protected:
  void SetUp() override {
    replicas_ = std::make_unique<cjdbc::ReplicaSet>(
        3, cjdbc::ReplicaSet::NodeOptions{});
    controller_ = std::make_unique<cjdbc::Controller>(
        std::make_unique<cjdbc::DirectDriver>(replicas_.get()));
    ASSERT_TRUE(
        controller_->Execute("create table t (id bigint not null, v bigint,"
                             " primary key (id))")
            .ok());
  }

  std::unique_ptr<cjdbc::ReplicaSet> replicas_;
  std::unique_ptr<cjdbc::Controller> controller_;
};

TEST_F(CjdbcTest, ClassifyRequests) {
  EXPECT_EQ(*cjdbc::ClassifyRequest("select 1"), cjdbc::RequestKind::kRead);
  EXPECT_EQ(*cjdbc::ClassifyRequest("insert into t values (1, 2)"),
            cjdbc::RequestKind::kWrite);
  EXPECT_EQ(*cjdbc::ClassifyRequest("delete from t"),
            cjdbc::RequestKind::kWrite);
  EXPECT_EQ(*cjdbc::ClassifyRequest("create index i on t (v)"),
            cjdbc::RequestKind::kDdl);
  EXPECT_EQ(*cjdbc::ClassifyRequest("set enable_seqscan = off"),
            cjdbc::RequestKind::kControl);
  EXPECT_FALSE(cjdbc::ClassifyRequest("nonsense").ok());
}

TEST_F(CjdbcTest, WritesReachAllReplicas) {
  ASSERT_TRUE(controller_->Execute("insert into t values (1, 10)").ok());
  ASSERT_TRUE(controller_->Execute("insert into t values (2, 20)").ok());
  for (int i = 0; i < replicas_->num_nodes(); ++i) {
    auto r = replicas_->ExecuteOn(i, "select count(*) from t");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->rows[0][0].int_val(), 2) << "node " << i;
    EXPECT_EQ(replicas_->node(i)->transaction_counter(), 2u);
  }
  EXPECT_EQ(controller_->stats().writes, 2u);
  // 1 DDL + 2 writes, each broadcast to 3 nodes.
  EXPECT_EQ(controller_->stats().broadcast_statements, 9u);
}

TEST_F(CjdbcTest, ReadsGoToOneNode) {
  ASSERT_TRUE(controller_->Execute("insert into t values (1, 10)").ok());
  auto r = controller_->Execute("select v from t where id = 1");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].int_val(), 10);
  EXPECT_EQ(controller_->stats().reads, 1u);
}

TEST_F(CjdbcTest, DisabledBackendFailsOver) {
  ASSERT_TRUE(controller_->Execute("insert into t values (1, 10)").ok());
  controller_->SetBackendEnabled(0, false);
  controller_->SetBackendEnabled(1, false);
  for (int i = 0; i < 5; ++i) {
    auto r = controller_->Execute("select count(*) from t");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->rows[0][0].int_val(), 1);
  }
  controller_->SetBackendEnabled(2, false);
  EXPECT_EQ(controller_->Execute("select count(*) from t").status().code(),
            StatusCode::kUnavailable);
}

TEST_F(CjdbcTest, ConcurrentWritesKeepReplicasIdentical) {
  // Hammer writes from several threads; every replica must end with
  // the same committed state (same counter, same rows).
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([this, t] {
      for (int i = 0; i < 25; ++i) {
        int id = t * 100 + i;
        auto r = controller_->Execute(
            "insert into t values (" + std::to_string(id) + ", " +
            std::to_string(id * 2) + ")");
        ASSERT_TRUE(r.ok());
      }
    });
  }
  for (auto& th : threads) th.join();
  uint64_t counter0 = replicas_->node(0)->transaction_counter();
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(replicas_->node(i)->transaction_counter(), counter0);
    auto r = replicas_->ExecuteOn(i, "select count(*), sum(v) from t");
    auto r0 = replicas_->ExecuteOn(0, "select count(*), sum(v) from t");
    ASSERT_TRUE(r.ok() && r0.ok());
    testutil::ExpectResultsEqual(*r0, *r);
  }
}

TEST_F(CjdbcTest, ApplyToAllStopsAtFirstError) {
  EXPECT_FALSE(replicas_->ApplyToAll("insert into nope values (1)").ok());
  EXPECT_TRUE(replicas_->ApplyToAll("insert into t values (7, 70)").ok());
  for (int i = 0; i < 3; ++i) {
    auto r = replicas_->ExecuteOn(i, "select v from t where id = 7");
    EXPECT_EQ(r->rows[0][0].int_val(), 70);
  }
}

TEST(LoadBalancerTest, LeastPendingPicksIdleNode) {
  cjdbc::LoadBalancer lb(3, cjdbc::BalancePolicy::kLeastPending);
  int a = lb.Acquire();
  int b = lb.Acquire();
  int c = lb.Acquire();
  EXPECT_NE(a, b);
  EXPECT_NE(b, c);
  EXPECT_NE(a, c);
  lb.Release(b);
  EXPECT_EQ(lb.Acquire(), b);
}

TEST(LoadBalancerTest, ChooseWithExternalCounts) {
  cjdbc::LoadBalancer lb(4, cjdbc::BalancePolicy::kLeastPending);
  EXPECT_EQ(lb.Choose({3, 0, 2, 5}), 1);
  EXPECT_EQ(lb.Choose({1, 1, 0, 0}), 2);  // tie {2,3}: rotation starts at 2
}

TEST(LoadBalancerTest, LeastPendingTiesRotateInsteadOfHotSpotting) {
  cjdbc::LoadBalancer lb(4, cjdbc::BalancePolicy::kLeastPending);
  // All nodes idle: repeated decisions must not pile onto node 0.
  std::set<int> seen;
  for (int i = 0; i < 4; ++i) seen.insert(lb.Choose({0, 0, 0, 0}));
  EXPECT_EQ(seen.size(), 4u);  // every node got a turn
}

TEST(LoadBalancerTest, AffinityBreaksTiesConsistently) {
  cjdbc::LoadBalancer lb(4, cjdbc::BalancePolicy::kLeastPending);
  // Same fingerprint hash keeps landing on the same tied node.
  const uint64_t fp = 0xfeedULL;
  int first = lb.Choose({0, 0, 0, 0}, fp);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(lb.Choose({0, 0, 0, 0}, fp), first);
  }
  // Actual load imbalance still trumps affinity.
  std::vector<int> loaded = {9, 9, 9, 9};
  loaded[static_cast<size_t>((first + 1) % 4)] = 0;
  EXPECT_EQ(lb.Choose(loaded, fp), (first + 1) % 4);
}

TEST(LoadBalancerTest, RoundRobinCycles) {
  cjdbc::LoadBalancer lb(3, cjdbc::BalancePolicy::kRoundRobin);
  EXPECT_EQ(lb.Acquire(), 0);
  EXPECT_EQ(lb.Acquire(), 1);
  EXPECT_EQ(lb.Acquire(), 2);
  EXPECT_EQ(lb.Acquire(), 0);
}

TEST(SchedulerTest, WritesAreMutuallyExclusive) {
  cjdbc::Scheduler sched;
  std::atomic<int> active{0};
  std::atomic<bool> overlapped{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        uint64_t seq = 0;
        auto ticket = sched.BeginWrite(&seq);
        if (active.fetch_add(1) != 0) overlapped = true;
        std::this_thread::yield();
        if (active.fetch_sub(1) != 1) overlapped = true;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(overlapped.load());
  EXPECT_EQ(sched.writes_scheduled(), 300u);
}

TEST(SchedulerTest, WriteSequenceMonotone) {
  cjdbc::Scheduler sched;
  uint64_t s1 = 0, s2 = 0;
  {
    auto t1 = sched.BeginWrite(&s1);
  }
  {
    auto t2 = sched.BeginWrite(&s2);
  }
  EXPECT_EQ(s1, 1u);
  EXPECT_EQ(s2, 2u);
}

// ---------------------------------------------------------------------------
// Apuama: data catalog
// ---------------------------------------------------------------------------

DataCatalog MakeCatalog(int64_t max_key = 100) {
  DataCatalog cat;
  VirtualPartitionSpace space;
  space.name = "orderkey";
  space.members.push_back({"orders", "o_orderkey"});
  space.members.push_back({"lineitem", "l_orderkey"});
  space.min_value = 1;
  space.max_value = max_key;
  EXPECT_TRUE(cat.RegisterSpace(std::move(space)).ok());
  return cat;
}

TEST(DataCatalogTest, LookupAndDomain) {
  DataCatalog cat = MakeCatalog();
  EXPECT_TRUE(cat.IsPartitionable("orders"));
  EXPECT_TRUE(cat.IsPartitionable("LINEITEM"));
  EXPECT_FALSE(cat.IsPartitionable("customer"));
  const auto* s = cat.SpaceForTable("lineitem");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->FindMember("lineitem")->column, "l_orderkey");
  EXPECT_TRUE(s->IsMemberColumn("o_orderkey"));
  ASSERT_TRUE(cat.UpdateDomain("orderkey", 1, 500).ok());
  EXPECT_EQ(cat.SpaceForTable("orders")->max_value, 500);
  EXPECT_FALSE(cat.UpdateDomain("nope", 1, 2).ok());
}

TEST(DataCatalogTest, RejectsOverlapAndEmptyDomain) {
  DataCatalog cat = MakeCatalog();
  VirtualPartitionSpace dup;
  dup.name = "dup";
  dup.members.push_back({"orders", "o_orderkey"});
  dup.min_value = 1;
  dup.max_value = 10;
  EXPECT_EQ(cat.RegisterSpace(std::move(dup)).code(),
            StatusCode::kAlreadyExists);
  VirtualPartitionSpace bad;
  bad.name = "bad";
  bad.members.push_back({"x", "k"});
  bad.min_value = 10;
  bad.max_value = 1;
  EXPECT_EQ(cat.RegisterSpace(std::move(bad)).code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Apuama: SVP rewriter
// ---------------------------------------------------------------------------

TEST(SvpRewriterTest, IntervalsCoverDomainDisjointly) {
  DataCatalog cat = MakeCatalog(100);
  SvpRewriter rw(&cat);
  auto sel = sql::ParseSelect("select sum(l_extendedprice) from lineitem");
  auto plan = rw.Rewrite(**sel);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  for (int n : {1, 2, 3, 4, 7, 32}) {
    auto ivs = plan->MakeIntervals(n);
    ASSERT_EQ(ivs.size(), static_cast<size_t>(n));
    EXPECT_EQ(ivs.front().first, 1);
    EXPECT_EQ(ivs.back().second, 101);  // max + 1
    for (size_t i = 1; i < ivs.size(); ++i) {
      EXPECT_EQ(ivs[i].first, ivs[i - 1].second);  // contiguous
      EXPECT_LT(ivs[i].first, ivs[i].second);      // non-empty
    }
  }
}

TEST(SvpRewriterTest, SubqueryGetsRangePredicate) {
  DataCatalog cat = MakeCatalog(6000000);
  SvpRewriter rw(&cat);
  auto sel = sql::ParseSelect("select sum(l_extendedprice) from lineitem");
  auto plan = rw.Rewrite(**sel);
  ASSERT_TRUE(plan.ok());
  std::string sub = plan->SubquerySql(1, 1500001);
  // The paper's example, section 2: the added predicate.
  EXPECT_NE(sub.find("l_orderkey >= 1"), std::string::npos) << sub;
  EXPECT_NE(sub.find("l_orderkey < 1500001"), std::string::npos) << sub;
  // Partial aggregate aliased for composition.
  EXPECT_NE(sub.find("sum(l_extendedprice) AS a0"), std::string::npos) << sub;
  // Composition re-aggregates.
  EXPECT_NE(plan->composition_sql().find("sum(a0)"), std::string::npos)
      << plan->composition_sql();
}

TEST(SvpRewriterTest, AvgDecomposesIntoSumAndCount) {
  DataCatalog cat = MakeCatalog();
  SvpRewriter rw(&cat);
  auto sel = sql::ParseSelect("select avg(l_quantity) from lineitem");
  auto plan = rw.Rewrite(**sel);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  std::string sub = plan->SubquerySql(1, 50);
  EXPECT_NE(sub.find("sum(l_quantity) AS a0s"), std::string::npos) << sub;
  EXPECT_NE(sub.find("count(l_quantity) AS a0c"), std::string::npos) << sub;
  EXPECT_NE(plan->composition_sql().find("sum(a0s)"), std::string::npos);
  EXPECT_NE(plan->composition_sql().find("sum(a0c)"), std::string::npos);
}

TEST(SvpRewriterTest, GroupByAndOrderByComposed) {
  DataCatalog cat = MakeCatalog();
  SvpRewriter rw(&cat);
  auto sel = sql::ParseSelect(
      "select l_returnflag, count(*) as n from lineitem "
      "group by l_returnflag order by n desc limit 5");
  auto plan = rw.Rewrite(**sel);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  std::string sub = plan->SubquerySql(1, 50);
  // Sub-queries keep grouping but not ORDER BY / LIMIT.
  EXPECT_NE(sub.find("GROUP BY"), std::string::npos);
  EXPECT_EQ(sub.find("ORDER BY"), std::string::npos) << sub;
  EXPECT_EQ(sub.find("LIMIT"), std::string::npos) << sub;
  // Composition has all three.
  const std::string& comp = plan->composition_sql();
  EXPECT_NE(comp.find("GROUP BY g0"), std::string::npos) << comp;
  EXPECT_NE(comp.find("ORDER BY n DESC"), std::string::npos) << comp;
  EXPECT_NE(comp.find("LIMIT 5"), std::string::npos) << comp;
}

TEST(SvpRewriterTest, CorrelatedSubqueryConstrained) {
  DataCatalog cat = MakeCatalog();
  SvpRewriter rw(&cat);
  auto sel = sql::ParseSelect(
      "select count(*) from orders where exists (select * from lineitem "
      "where l_orderkey = o_orderkey)");
  auto plan = rw.Rewrite(**sel);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  // Both the outer orders ref and the inner lineitem ref constrained.
  EXPECT_EQ(plan->num_constrained_refs(), 2u);
  std::string sub = plan->SubquerySql(5, 10);
  EXPECT_NE(sub.find("o_orderkey >= 5"), std::string::npos) << sub;
  EXPECT_NE(sub.find("l_orderkey >= 5"), std::string::npos) << sub;
}

TEST(SvpRewriterTest, UncorrelatedFactSubqueryRejected) {
  DataCatalog cat = MakeCatalog();
  SvpRewriter rw(&cat);
  auto sel = sql::ParseSelect(
      "select count(*) from orders where exists "
      "(select * from lineitem where l_quantity > 49)");
  auto plan = rw.Rewrite(**sel);
  EXPECT_EQ(plan.status().code(), StatusCode::kUnsupported);
}

TEST(SvpRewriterTest, NoFactTableRejected) {
  DataCatalog cat = MakeCatalog();
  SvpRewriter rw(&cat);
  auto sel = sql::ParseSelect("select count(*) from customer");
  EXPECT_EQ(rw.Rewrite(**sel).status().code(), StatusCode::kUnsupported);
  EXPECT_FALSE(rw.TouchesFactTable(**sel));
}

TEST(SvpRewriterTest, OffsetAppliedGloballyOnly) {
  DataCatalog cat = MakeCatalog();
  SvpRewriter rw(&cat);
  auto sel = sql::ParseSelect(
      "select l_orderkey, l_quantity from lineitem "
      "order by l_quantity desc limit 4 offset 6");
  auto plan = rw.Rewrite(**sel);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  // Sub-queries fetch limit+offset rows each, with no local skip.
  std::string sub = plan->SubquerySql(1, 20);
  EXPECT_NE(sub.find("LIMIT 10"), std::string::npos) << sub;
  EXPECT_EQ(sub.find("OFFSET"), std::string::npos) << sub;
  // The composition applies the global skip.
  EXPECT_NE(plan->composition_sql().find("LIMIT 4 OFFSET 6"),
            std::string::npos)
      << plan->composition_sql();
}

TEST(SvpRewriterTest, ScalarSubqueryOffKeyRejected) {
  DataCatalog cat = MakeCatalog();
  SvpRewriter rw(&cat);
  auto sel = sql::ParseSelect(
      "select sum(l_extendedprice) from lineitem l1 where l_quantity < "
      "(select avg(l2.l_quantity) from lineitem l2 "
      "where l2.l_suppkey = l1.l_suppkey)");
  // Correlation on l_suppkey, not the partition key: not rewritable.
  EXPECT_EQ(rw.Rewrite(**sel).status().code(), StatusCode::kUnsupported);
}

TEST(SvpRewriterTest, HavingComposedGlobally) {
  DataCatalog cat = MakeCatalog();
  SvpRewriter rw(&cat);
  auto sel = sql::ParseSelect(
      "select l_returnflag, sum(l_quantity) as q from lineitem "
      "group by l_returnflag having sum(l_quantity) > 100 and count(*) > 2");
  auto plan = rw.Rewrite(**sel);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  // HAVING must not filter per-node partial groups...
  std::string sub = plan->SubquerySql(1, 50);
  EXPECT_EQ(sub.find("HAVING"), std::string::npos) << sub;
  // ...but must filter the merged groups at composition, over merged
  // aggregates (sum of partial sums / counts).
  const std::string& comp = plan->composition_sql();
  EXPECT_NE(comp.find("HAVING"), std::string::npos) << comp;
  EXPECT_NE(comp.find("sum(a"), std::string::npos) << comp;
}

TEST(SvpRewriterTest, PointAccessOnKeyUsesInterQueryPath) {
  DataCatalog cat = MakeCatalog();
  SvpRewriter rw(&cat);
  auto sel =
      sql::ParseSelect("select l_quantity from lineitem where "
                       "l_orderkey = 42");
  EXPECT_EQ(rw.Rewrite(**sel).status().code(), StatusCode::kUnsupported);
  // A range on the key is still OLAP-shaped and rewrites.
  auto rng = sql::ParseSelect(
      "select sum(l_quantity) from lineitem where l_orderkey < 42");
  EXPECT_TRUE(rw.Rewrite(**rng).ok());
}

TEST(SvpRewriterTest, CountDistinctRejected) {
  DataCatalog cat = MakeCatalog();
  SvpRewriter rw(&cat);
  auto sel =
      sql::ParseSelect("select count(distinct l_suppkey) from lineitem");
  EXPECT_EQ(rw.Rewrite(**sel).status().code(), StatusCode::kUnsupported);
}

TEST(SvpRewriterTest, NonGroupedOrderByRejected) {
  DataCatalog cat = MakeCatalog();
  SvpRewriter rw(&cat);
  auto sel = sql::ParseSelect(
      "select l_orderkey from lineitem order by l_shipdate limit 3");
  // ORDER BY l_shipdate is not among the outputs: not composable.
  EXPECT_EQ(rw.Rewrite(**sel).status().code(), StatusCode::kUnsupported);
}

TEST(SvpRewriterTest, PlainQueryTopKPushdown) {
  DataCatalog cat = MakeCatalog();
  SvpRewriter rw(&cat);
  auto sel = sql::ParseSelect(
      "select l_orderkey, l_quantity from lineitem "
      "order by l_quantity desc limit 3");
  auto plan = rw.Rewrite(**sel);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  std::string sub = plan->SubquerySql(1, 10);
  EXPECT_NE(sub.find("LIMIT 3"), std::string::npos) << sub;  // pushed down
  EXPECT_NE(plan->composition_sql().find("LIMIT 3"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Apuama: consistency manager
// ---------------------------------------------------------------------------

TEST(ConsistencyTest, SvpWaitsForBroadcastCompletion) {
  ConsistencyManager mgr(2);
  auto c0 = mgr.BeginNodeWrite(0, "w1");
  std::atomic<bool> svp_done{false};
  std::thread svp([&] {
    mgr.BeginSvpPrepare(nullptr);
    svp_done = true;
    mgr.EndSvpPrepare();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(svp_done.load());  // write open on node 0, node 1 pending
  mgr.EndNodeWrite(0, c0);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(svp_done.load());  // broadcast not complete yet
  auto c1 = mgr.BeginNodeWrite(1, "w1");  // continuation passes through
  EXPECT_EQ(c1, ConsistencyManager::WriteClass::kContinuation);
  mgr.EndNodeWrite(1, c1);
  svp.join();
  EXPECT_TRUE(svp_done.load());
  EXPECT_EQ(mgr.logical_writes(), 1u);
}

TEST(ConsistencyTest, NewWriteBlockedDuringSvpPrepare) {
  ConsistencyManager mgr(1);
  mgr.BeginSvpPrepare(nullptr);
  std::atomic<bool> write_done{false};
  std::thread writer([&] {
    auto cls = mgr.BeginNodeWrite(0, "w");
    mgr.EndNodeWrite(0, cls);
    write_done = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(write_done.load());
  mgr.EndSvpPrepare();
  writer.join();
  EXPECT_TRUE(write_done.load());
  EXPECT_GE(mgr.writes_blocked(), 1u);
}

TEST(ConsistencyTest, CountersEqualPredicateHonored) {
  // Counters can only be unequal while a write is in flight, so the
  // predicate is re-checked when that write completes.
  ConsistencyManager mgr(1);
  std::atomic<bool> equal{false};
  std::atomic<bool> done{false};
  auto cw = mgr.BeginNodeWrite(0, "w");  // replica applying a write
  std::thread svp([&] {
    mgr.BeginSvpPrepare([&] { return equal.load(); });
    done = true;
    mgr.EndSvpPrepare();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(done.load());
  equal = true;          // counters equalize as the write lands
  mgr.EndNodeWrite(0, cw);  // completes the broadcast, wakes the barrier
  svp.join();
  EXPECT_TRUE(done.load());
}

}  // namespace
}  // namespace apuama
