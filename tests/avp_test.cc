// Tests for Adaptive Virtual Partitioning (apuama/avp.h) and the
// extended simulator modes (AVP intra-query, lazy replication,
// heterogeneous nodes).
#include <gtest/gtest.h>

#include <set>

#include "apuama/apuama_engine.h"
#include "apuama/avp.h"
#include "cjdbc/controller.h"
#include "tests/test_util.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"
#include "tpch/refresh.h"
#include "workload/cluster_sim.h"
#include "workload/runner.h"
#include "workload/sequences.h"

namespace apuama {
namespace {

// ---------------------------------------------------------------------------
// AvpScheduler logic
// ---------------------------------------------------------------------------

TEST(AvpSchedulerTest, ChunksCoverDomainExactlyOnce) {
  AvpScheduler sched(4, 1, 1000);
  std::set<int64_t> seen;
  bool progress = true;
  while (progress) {
    progress = false;
    for (int node = 0; node < 4; ++node) {
      auto c = sched.NextChunk(node);
      if (!c.has_value()) continue;
      progress = true;
      for (int64_t k = c->first; k < c->second; ++k) {
        EXPECT_TRUE(seen.insert(k).second) << "key " << k << " twice";
      }
      sched.ReportChunkTime(node, c->second - c->first,
                            (c->second - c->first) * 10);
    }
  }
  EXPECT_EQ(seen.size(), 1000u);
  EXPECT_TRUE(*seen.begin() == 1 && *seen.rbegin() == 1000);
  EXPECT_TRUE(sched.Exhausted());
}

TEST(AvpSchedulerTest, ChunkSizeGrowsWhileStable) {
  AvpScheduler sched(1, 1, 100000);
  auto c1 = sched.NextChunk(0);
  ASSERT_TRUE(c1.has_value());
  int64_t s1 = c1->second - c1->first;
  sched.ReportChunkTime(0, s1, s1 * 10);  // steady rate
  auto c2 = sched.NextChunk(0);
  ASSERT_TRUE(c2.has_value());
  int64_t s2 = c2->second - c2->first;
  EXPECT_GT(s2, s1);  // doubled
}

TEST(AvpSchedulerTest, ChunkSizeShrinksOnDegradation) {
  AvpScheduler sched(1, 1, 100000);
  auto c1 = sched.NextChunk(0);
  int64_t s1 = c1->second - c1->first;
  sched.ReportChunkTime(0, s1, s1 * 10);     // establishes best rate
  auto c2 = sched.NextChunk(0);
  int64_t s2 = c2->second - c2->first;
  sched.ReportChunkTime(0, s2, s2 * 100);    // 10x worse per key
  auto c3 = sched.NextChunk(0);
  int64_t s3 = c3->second - c3->first;
  EXPECT_LT(s3, s2);
}

TEST(AvpSchedulerTest, IdleNodeStealsFromLoadedPeer) {
  // Node 0's range is tiny; node 1's is huge. Node 0 must steal.
  AvpOptions opts;
  opts.initial_divisor = 1;  // node 0 takes its whole range at once
  AvpScheduler sched(2, 1, 1000, opts);
  // Drain node 0's own half quickly.
  while (sched.RemainingKeys(0) > 0) {
    auto c = sched.NextChunk(0);
    ASSERT_TRUE(c.has_value());
  }
  // Next request steals from node 1.
  auto stolen = sched.NextChunk(0);
  ASSERT_TRUE(stolen.has_value());
  EXPECT_GE(sched.steals(), 1);
  // Stolen keys come from node 1's upper range.
  EXPECT_GT(stolen->first, 500);
}

TEST(AvpSchedulerTest, NoStealOfTinyTails) {
  AvpOptions opts;
  opts.min_chunk = 50;
  AvpScheduler sched(2, 1, 120, opts);  // 60 keys each
  while (sched.NextChunk(0).has_value()) {
  }
  // Node 1 still holds ~60 keys < 2*min_chunk: not worth stealing.
  EXPECT_GE(sched.RemainingKeys(1), 0);
  EXPECT_EQ(sched.steals(), 0);
}

TEST(AvpSchedulerTest, SingleNodeDegenerate) {
  AvpScheduler sched(1, 5, 5);  // one key
  auto c = sched.NextChunk(0);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->first, 5);
  EXPECT_EQ(c->second, 6);
  EXPECT_FALSE(sched.NextChunk(0).has_value());
}

// ---------------------------------------------------------------------------
// AVP through the simulator: correctness + behaviour
// ---------------------------------------------------------------------------

constexpr double kSf = 0.002;

const tpch::TpchData& Data() {
  static const tpch::TpchData* d =
      new tpch::TpchData(tpch::DbgenOptions{.scale_factor = kSf});
  return *d;
}

TEST(AvpClusterTest, AvpResultsMatchSvpResults) {
  workload::ClusterSimOptions svp_opts;
  svp_opts.num_nodes = 4;
  workload::ClusterSimOptions avp_opts = svp_opts;
  avp_opts.intra_mode = workload::IntraQueryMode::kAvp;
  workload::ClusterSim svp(Data(), svp_opts);
  workload::ClusterSim avp(Data(), avp_opts);

  engine::Database reference(
      engine::DatabaseOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(Data().LoadInto(&reference).ok());

  for (int q : {1, 4, 6, 12}) {
    SCOPED_TRACE(testing::Message() << "Q" << q);
    auto o = avp.RunToCompletion(*tpch::QuerySql(q));
    ASSERT_TRUE(o.status.ok()) << o.status.ToString();
    EXPECT_TRUE(o.used_svp);
  }
  EXPECT_GT(avp.avp_chunks(), 4u * 4u);  // many more sub-queries than SVP
}

TEST(AvpClusterTest, AvpWinsOnHeterogeneousCluster) {
  // One straggler node at 4x slowdown: SVP's static 1/n split waits
  // for it; AVP steals its range.
  workload::ClusterSimOptions base;
  base.num_nodes = 4;
  base.node_speed_factors = {1.0, 1.0, 1.0, 4.0};

  workload::ClusterSimOptions svp_opts = base;
  workload::ClusterSimOptions avp_opts = base;
  avp_opts.intra_mode = workload::IntraQueryMode::kAvp;

  SimTime svp_t = 0, avp_t = 0;
  {
    workload::ClusterSim c(Data(), svp_opts);
    svp_t = *c.MeasureIsolated(*tpch::QuerySql(1), 3);
  }
  uint64_t steals = 0;
  {
    workload::ClusterSim c(Data(), avp_opts);
    avp_t = *c.MeasureIsolated(*tpch::QuerySql(1), 3);
    steals = c.avp_steals();
  }
  EXPECT_LT(avp_t, svp_t);  // adaptive beats static under skew
  EXPECT_GT(steals, 0u);
}

TEST(AvpClusterTest, SvpWinsOnHomogeneousCluster) {
  // The paper's section 6 claim: with balanced nodes, SVP's single
  // sub-query per node avoids AVP's per-chunk overhead.
  workload::ClusterSimOptions svp_opts;
  svp_opts.num_nodes = 4;
  workload::ClusterSimOptions avp_opts = svp_opts;
  avp_opts.intra_mode = workload::IntraQueryMode::kAvp;

  SimTime svp_t = 0, avp_t = 0;
  {
    workload::ClusterSim c(Data(), svp_opts);
    svp_t = *c.MeasureIsolated(*tpch::QuerySql(6), 3);
  }
  {
    workload::ClusterSim c(Data(), avp_opts);
    avp_t = *c.MeasureIsolated(*tpch::QuerySql(6), 3);
  }
  EXPECT_LT(svp_t, avp_t);
}

TEST(AvpClusterTest, AvpRespectsConsistencyBarrier) {
  workload::ClusterSimOptions opts;
  opts.num_nodes = 3;
  opts.intra_mode = workload::IntraQueryMode::kAvp;
  opts.key_headroom = 10;
  workload::ClusterSim cluster(Data(), opts);
  std::string ins =
      "insert into orders values (" +
      std::to_string(Data().max_orderkey() + 1) +
      ", 1, 'O', 1.0, date '1998-01-01', '1-URGENT', 'c', 0, 'x')";
  SimTime write_done = -1, query_done = -1;
  cluster.SubmitWrite(ins, [&](const workload::SimOutcome& o) {
    write_done = o.completed;
  });
  cluster.SubmitRead(*tpch::QuerySql(6),
                     [&](const workload::SimOutcome& o) {
                       ASSERT_TRUE(o.status.ok()) << o.status.ToString();
                       query_done = o.completed;
                     });
  cluster.event_sim()->Run();
  EXPECT_GT(query_done, write_done);  // AVP also waits at the barrier
  EXPECT_EQ(cluster.svp_barrier_waits(), 1u);
}

TEST(AvpClusterTest, AvpWithLazyReplicationRuns) {
  workload::ClusterSimOptions opts;
  opts.num_nodes = 3;
  opts.intra_mode = workload::IntraQueryMode::kAvp;
  opts.replication = workload::ReplicationMode::kLazy;
  opts.key_headroom = 100;
  workload::ClusterSim cluster(Data(), opts);
  auto seqs = workload::MakeQuerySequences(2, 3, 3);
  auto updates = tpch::MakeRefreshStream(Data().max_orderkey() + 1, 5, 3);
  auto r = workload::RunStreams(&cluster, seqs, updates);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.read_queries, 6u);
  EXPECT_TRUE(cluster.ReplicasConverged());
  EXPECT_GT(cluster.avp_chunks(), 0u);
}

// ---------------------------------------------------------------------------
// Real-mode AVP through the ApuamaEngine (threads, not the simulator)
// ---------------------------------------------------------------------------

TEST(AvpEngineTest, MatchesSingleNodeAndIssuesManyChunks) {
  cjdbc::ReplicaSet replicas(
      3, cjdbc::ReplicaSet::NodeOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(Data().LoadIntoReplicas(&replicas).ok());
  ApuamaOptions opts;
  opts.technique = IntraQueryTechnique::kAvp;
  ApuamaEngine engine(&replicas, tpch::MakeTpchCatalog(Data()), opts);

  engine::Database reference(
      engine::DatabaseOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(Data().LoadInto(&reference).ok());

  for (int q : {1, 6, 12}) {
    SCOPED_TRACE(testing::Message() << "Q" << q);
    auto expected = reference.Execute(*tpch::QuerySql(q));
    ASSERT_TRUE(expected.ok());
    auto actual = engine.ExecuteRead(0, *tpch::QuerySql(q));
    ASSERT_TRUE(actual.ok()) << actual.status().ToString();
    testutil::ExpectResultsEqual(*expected, *actual, true);
  }
  EXPECT_EQ(engine.stats().svp_queries, 3u);
  // Many more sub-queries than SVP's one-per-node.
  EXPECT_GT(engine.stats().avp_chunks, 3u * 3u);
}

TEST(AvpEngineTest, CorrelatedSubqueryQueriesWork) {
  // Q4's EXISTS must survive chunked derived partitioning too.
  cjdbc::ReplicaSet replicas(
      2, cjdbc::ReplicaSet::NodeOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(Data().LoadIntoReplicas(&replicas).ok());
  ApuamaOptions opts;
  opts.technique = IntraQueryTechnique::kAvp;
  ApuamaEngine engine(&replicas, tpch::MakeTpchCatalog(Data()), opts);
  engine::Database reference(
      engine::DatabaseOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(Data().LoadInto(&reference).ok());
  auto expected = reference.Execute(*tpch::QuerySql(4));
  auto actual = engine.ExecuteRead(0, *tpch::QuerySql(4));
  ASSERT_TRUE(actual.ok()) << actual.status().ToString();
  testutil::ExpectResultsEqual(*expected, *actual, true);
}

TEST(AvpEngineTest, ConcurrentAvpQueriesAndWritesStayConsistent) {
  cjdbc::ReplicaSet replicas(
      3, cjdbc::ReplicaSet::NodeOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(Data().LoadIntoReplicas(&replicas).ok());
  ApuamaOptions opts;
  opts.technique = IntraQueryTechnique::kAvp;
  ApuamaEngine engine(&replicas,
                      tpch::MakeTpchCatalog(Data(), /*headroom=*/500),
                      opts);
  cjdbc::Controller controller(std::make_unique<ApuamaDriver>(&engine));
  std::atomic<bool> failed{false};
  std::thread updater([&] {
    auto stream =
        tpch::MakeRefreshStream(Data().max_orderkey() + 1, 6, 77);
    for (const auto& stmt : stream) {
      if (!controller.Execute(stmt.sql).ok()) failed = true;
    }
  });
  std::thread analyst([&] {
    for (int i = 0; i < 5; ++i) {
      if (!controller.Execute(*tpch::QuerySql(6)).ok()) failed = true;
    }
  });
  updater.join();
  analyst.join();
  EXPECT_FALSE(failed.load());
  EXPECT_TRUE(engine.ReplicasConsistent());
}

// ---------------------------------------------------------------------------
// Lazy replication (the paper's future-work mode)
// ---------------------------------------------------------------------------

TEST(LazyReplicationTest, WriteCommitLatencyIndependentOfNodes) {
  std::string ins =
      "insert into orders values (999999, 1, 'O', 10.0, "
      "date '1998-01-01', '1-URGENT', 'c', 0, 'x')";
  SimTime lazy4 = 0, lazy16 = 0, eager16 = 0;
  {
    workload::ClusterSimOptions o;
    o.num_nodes = 4;
    o.replication = workload::ReplicationMode::kLazy;
    o.key_headroom = 1000000;
    workload::ClusterSim c(Data(), o);
    lazy4 = c.RunToCompletion(ins, true).latency();
  }
  {
    workload::ClusterSimOptions o;
    o.num_nodes = 16;
    o.replication = workload::ReplicationMode::kLazy;
    o.key_headroom = 1000000;
    workload::ClusterSim c(Data(), o);
    lazy16 = c.RunToCompletion(ins, true).latency();
  }
  {
    workload::ClusterSimOptions o;
    o.num_nodes = 16;
    o.key_headroom = 1000000;
    workload::ClusterSim c(Data(), o);
    eager16 = c.RunToCompletion(ins, true).latency();
  }
  EXPECT_EQ(lazy4, lazy16);      // primary-only commit
  EXPECT_LT(lazy16, eager16);    // eager pays the coordination round
}

TEST(LazyReplicationTest, ReplicasConvergeAfterDrain) {
  workload::ClusterSimOptions o;
  o.num_nodes = 3;
  o.replication = workload::ReplicationMode::kLazy;
  o.key_headroom = 200;
  workload::ClusterSim cluster(Data(), o);
  auto updates = tpch::MakeRefreshStream(Data().max_orderkey() + 1, 10, 5);
  for (const auto& stmt : updates) {
    cluster.SubmitWrite(stmt.sql, nullptr);
  }
  cluster.event_sim()->Run();  // drains propagation jobs too
  EXPECT_TRUE(cluster.ReplicasConverged());
  EXPECT_EQ(cluster.writes_completed(), updates.size());
}

TEST(LazyReplicationTest, StaleReadsAreCounted) {
  workload::ClusterSimOptions o;
  o.num_nodes = 3;
  o.replication = workload::ReplicationMode::kLazy;
  o.key_headroom = 200;
  o.lazy_propagation_delay_us = 50000;  // slow propagation
  workload::ClusterSim cluster(Data(), o);
  std::string ins =
      "insert into orders values (" +
      std::to_string(Data().max_orderkey() + 1) +
      ", 1, 'O', 10.0, date '1998-01-01', '1-URGENT', 'c', 0, 'x')";
  bool write_done = false;
  cluster.SubmitWrite(ins, [&](const workload::SimOutcome&) {
    write_done = true;
    // Query submitted right after primary commit, before propagation:
    // replicas are unequal -> stale read.
    cluster.SubmitRead(*tpch::QuerySql(6), nullptr);
  });
  cluster.event_sim()->Run();
  EXPECT_TRUE(write_done);
  EXPECT_EQ(cluster.stale_svp_queries(), 1u);
  EXPECT_EQ(cluster.svp_barrier_waits(), 0u);  // no barrier in lazy mode
}

TEST(LazyReplicationTest, MixedWorkloadRunsAndConverges) {
  workload::ClusterSimOptions o;
  o.num_nodes = 4;
  o.replication = workload::ReplicationMode::kLazy;
  o.key_headroom = 200;
  workload::ClusterSim cluster(Data(), o);
  auto seqs = workload::MakeQuerySequences(2, 13, 3);
  auto updates = tpch::MakeRefreshStream(Data().max_orderkey() + 1, 8, 5);
  auto r = workload::RunStreams(&cluster, seqs, updates);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.read_queries, 6u);
  EXPECT_TRUE(cluster.ReplicasConverged());
}

}  // namespace
}  // namespace apuama
