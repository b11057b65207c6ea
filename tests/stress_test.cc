// Concurrency stress: hammer the full real-thread stack (controller +
// Apuama + replicas) with mixed OLAP / OLTP / failover traffic and
// assert the global invariants hold at the end:
//   * no statement crashes or corrupts;
//   * replicas end byte-identical (counters and contents);
//   * every SVP answer produced during the run was internally
//     consistent (one-row aggregates, never torn).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "apuama/apuama_engine.h"
#include "cjdbc/controller.h"
#include "obs/metrics.h"
#include "tests/test_util.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"
#include "tpch/refresh.h"
#include "tpch/tpch_catalog.h"

namespace apuama {
namespace {

TEST(StressTest, MixedTrafficKeepsReplicasIdentical) {
  const tpch::TpchData data(tpch::DbgenOptions{.scale_factor = 0.001});
  cjdbc::ReplicaSet replicas(
      4, cjdbc::ReplicaSet::NodeOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(data.LoadIntoReplicas(&replicas).ok());
  ApuamaEngine engine(&replicas,
                      tpch::MakeTpchCatalog(data, /*headroom=*/2000));
  cjdbc::Controller controller(std::make_unique<ApuamaDriver>(&engine));

  std::atomic<bool> failed{false};
  std::atomic<int> olap_done{0};

  // Two OLAP analysts cycling through SVP-eligible queries.
  auto analyst = [&](int which) {
    const int queries[] = {6, 1, 12, 14};
    for (int i = 0; i < 10 && !failed.load(); ++i) {
      int q = queries[(i + which) % 4];
      auto r = controller.Execute(*tpch::QuerySql(q));
      if (!r.ok()) {
        failed = true;
        ADD_FAILURE() << "Q" << q << ": " << r.status().ToString();
      } else if (r->rows.empty()) {
        failed = true;
        ADD_FAILURE() << "Q" << q << " returned no rows";
      }
      ++olap_done;
    }
  };
  // Two updaters running interleaved refresh streams on disjoint keys.
  auto updater = [&](int64_t base, uint64_t seed) {
    auto stream = tpch::MakeRefreshStream(base, 8, seed);
    for (const auto& stmt : stream) {
      if (failed.load()) return;
      auto r = controller.Execute(stmt.sql);
      if (!r.ok()) {
        failed = true;
        ADD_FAILURE() << stmt.sql << ": " << r.status().ToString();
      }
    }
  };
  // An OLTP client doing point reads (inter-query path).
  auto oltp = [&] {
    for (int i = 0; i < 40 && !failed.load(); ++i) {
      auto r = controller.Execute(
          "select o_totalprice from orders where o_orderkey = " +
          std::to_string(1 + i % data.num_orders()));
      if (!r.ok()) failed = true;
    }
  };

  std::vector<std::thread> threads;
  threads.emplace_back(analyst, 0);
  threads.emplace_back(analyst, 1);
  threads.emplace_back(updater, data.max_orderkey() + 1, 42);
  threads.emplace_back(updater, data.max_orderkey() + 1000, 43);
  threads.emplace_back(oltp);
  for (auto& t : threads) t.join();

  ASSERT_FALSE(failed.load());
  EXPECT_EQ(olap_done.load(), 20);
  EXPECT_TRUE(engine.ReplicasConsistent());
  // Refresh streams are self-cancelling: contents restored, and all
  // replicas agree cell for cell on an aggregate fingerprint.
  auto fp0 = replicas.ExecuteOn(
      0, "select count(*), sum(o_orderkey), sum(o_totalprice) from orders");
  ASSERT_TRUE(fp0.ok());
  EXPECT_EQ(fp0->rows[0][0].int_val(),
            static_cast<int64_t>(data.num_orders()));
  for (int i = 1; i < replicas.num_nodes(); ++i) {
    auto fpi = replicas.ExecuteOn(
        i,
        "select count(*), sum(o_orderkey), sum(o_totalprice) from orders");
    ASSERT_TRUE(fpi.ok());
    testutil::ExpectResultsEqual(*fp0, *fpi);
  }
}

// Intra-node morsel executors under heavy cross-client pressure:
// 8 clients (7 analysts + a refresh stream) against a cluster whose
// nodes each fan scans out on a 2-thread morsel pool. Primarily a
// TSan target (CI runs this suite with APUAMA_EXEC_THREADS=4 under
// -fsanitize=thread); it also checks the storm leaves answers
// unchanged once the self-cancelling refresh stream drains.
TEST(StressTest, ParallelExecutorsUnderConcurrentClients) {
  const tpch::TpchData data(tpch::DbgenOptions{.scale_factor = 0.001});
  cjdbc::ReplicaSet replicas(
      2, cjdbc::ReplicaSet::NodeOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(data.LoadIntoReplicas(&replicas).ok());
  ApuamaOptions options;
  options.node_options.exec_threads = 2;  // force morsel fan-out per node
  ApuamaEngine engine(&replicas,
                      tpch::MakeTpchCatalog(data, /*headroom=*/2000),
                      options);
  cjdbc::Controller controller(std::make_unique<ApuamaDriver>(&engine));

  // Q1/Q6 take the morsel pipeline inside each node; Q12/Q14 are
  // joins and exercise the sequential fallback concurrently.
  const std::vector<int> queries = {1, 6, 12, 14};
  std::vector<engine::QueryResult> baseline;
  for (int q : queries) {
    auto r = controller.Execute(*tpch::QuerySql(q));
    ASSERT_TRUE(r.ok()) << "Q" << q << ": " << r.status().ToString();
    baseline.push_back(*std::move(r));
  }

  std::atomic<bool> failed{false};
  auto analyst = [&](int which) {
    for (int i = 0; i < 8 && !failed.load(); ++i) {
      int q = queries[(i + which) % queries.size()];
      auto r = controller.Execute(*tpch::QuerySql(q));
      if (!r.ok() || r->rows.empty()) {
        failed = true;
        ADD_FAILURE() << "Q" << q << ": "
                      << (r.ok() ? "no rows" : r.status().ToString());
      }
    }
  };
  auto updater = [&] {
    auto stream = tpch::MakeRefreshStream(data.max_orderkey() + 1, 8, 77);
    for (const auto& stmt : stream) {
      if (failed.load()) return;
      auto r = controller.Execute(stmt.sql);
      if (!r.ok()) {
        failed = true;
        ADD_FAILURE() << stmt.sql << ": " << r.status().ToString();
      }
    }
  };

  std::vector<std::thread> threads;
  for (int c = 0; c < 7; ++c) threads.emplace_back(analyst, c);
  threads.emplace_back(updater);
  for (auto& t : threads) t.join();
  ASSERT_FALSE(failed.load());
  EXPECT_TRUE(engine.ReplicasConsistent());

  // The refresh stream restored table contents, so each query must
  // reproduce its pre-storm answer (tolerance, not bits: the refresh
  // churn may relocate rows, which reassociates double sums).
  for (size_t i = 0; i < queries.size(); ++i) {
    auto r = controller.Execute(*tpch::QuerySql(queries[i]));
    ASSERT_TRUE(r.ok()) << "Q" << queries[i];
    SCOPED_TRACE(testing::Message() << "Q" << queries[i]);
    testutil::ExpectResultsEqual(baseline[i], *r);
  }
}

// Observability race sweep: stat readers (the registry dump path, the
// stats structs' ToString, the scheduler counter) hammered from
// dedicated threads while mixed traffic mutates every counter. This
// is the TSan assertion that no unlocked stat read remains — counters
// are atomics, dumps take the registry mutex, and nothing tears.
TEST(StressTest, StatReadersRaceFreeAgainstTraffic) {
  const tpch::TpchData data(tpch::DbgenOptions{.scale_factor = 0.001});
  cjdbc::ReplicaSet replicas(
      2, cjdbc::ReplicaSet::NodeOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(data.LoadIntoReplicas(&replicas).ok());
  ApuamaEngine engine(&replicas,
                      tpch::MakeTpchCatalog(data, /*headroom=*/2000));
  cjdbc::Controller controller(std::make_unique<ApuamaDriver>(&engine));

  std::atomic<bool> failed{false};
  std::atomic<bool> done{false};
  auto analyst = [&] {
    const int queries[] = {6, 1, 14};
    for (int i = 0; i < 9 && !failed.load(); ++i) {
      auto r = controller.Execute(*tpch::QuerySql(queries[i % 3]));
      if (!r.ok()) failed = true;
    }
  };
  auto updater = [&] {
    auto stream = tpch::MakeRefreshStream(data.max_orderkey() + 1, 6, 5);
    for (const auto& stmt : stream) {
      if (failed.load()) return;
      if (!controller.Execute(stmt.sql).ok()) failed = true;
    }
  };
  auto reader = [&] {
    uint64_t sink = 0;
    while (!done.load()) {
      sink += controller.stats().reads.load(std::memory_order_relaxed);
      sink += controller.stats().ToString().size();
      sink += obs::RenderKvText(engine.StatsKv()).size();
      sink += obs::Registry::Global().TextDump().size();
      sink += obs::Registry::Global().JsonDump().size();
    }
    // Keep the loop observable so it cannot be optimized away.
    volatile uint64_t keep = sink;
    (void)keep;
  };

  std::thread threads[] = {std::thread(analyst), std::thread(analyst),
                           std::thread(updater)};
  std::vector<std::thread> readers;
  for (int i = 0; i < 3; ++i) readers.emplace_back(reader);
  for (auto& t : threads) t.join();
  done = true;
  for (auto& t : readers) t.join();
  ASSERT_FALSE(failed.load());
  // The provider-backed dump surfaces the live counters.
  const std::string dump = obs::Registry::Global().TextDump();
  EXPECT_NE(dump.find("controller.reads"), std::string::npos);
  EXPECT_NE(dump.find("apuama.svp"), std::string::npos);
}

TEST(StressTest, CrashDuringTrafficThenRecover) {
  const tpch::TpchData data(tpch::DbgenOptions{.scale_factor = 0.001});
  cjdbc::ReplicaSet replicas(
      3, cjdbc::ReplicaSet::NodeOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(data.LoadIntoReplicas(&replicas).ok());
  ApuamaEngine engine(&replicas,
                      tpch::MakeTpchCatalog(data, /*headroom=*/2000));
  cjdbc::Controller controller(std::make_unique<ApuamaDriver>(&engine));

  std::atomic<bool> failed{false};
  std::thread updater([&] {
    auto stream = tpch::MakeRefreshStream(data.max_orderkey() + 1, 12, 9);
    for (size_t i = 0; i < stream.size(); ++i) {
      if (i == 6) replicas.SetNodeAvailable(1, false);  // crash mid-run
      auto r = controller.Execute(stream[i].sql);
      if (!r.ok()) failed = true;
    }
  });
  std::thread analyst([&] {
    for (int i = 0; i < 12; ++i) {
      auto r = controller.Execute(*tpch::QuerySql(6));
      if (!r.ok()) failed = true;
    }
  });
  updater.join();
  analyst.join();
  ASSERT_FALSE(failed.load());

  // Rejoin + recover; all replicas converge.
  replicas.SetNodeAvailable(1, true);
  ASSERT_TRUE(controller.RecoverBackend(1).ok());
  EXPECT_TRUE(engine.ReplicasConsistent());
  auto fp0 = replicas.ExecuteOn(0, "select count(*) from lineitem");
  auto fp1 = replicas.ExecuteOn(1, "select count(*) from lineitem");
  testutil::ExpectResultsEqual(*fp0, *fp1);
}

// Result-cache freshness under fire: a writer advances a counter
// through the controller (broadcast, epoch-bracketed) while readers
// with `result_cache = on` hammer the same query. The invariant is
// monotone freshness — a read ISSUED after update i's broadcast
// completed must observe v >= i; a cached result computed before the
// write must never be served after it. Primarily a TSan target (the
// cache, the epoch table, and the fill tickets are all cross-thread),
// but the freshness assertion is the point even unsanitized.
TEST(StressTest, CachedReadsNeverGoStaleAcrossWrites) {
  const tpch::TpchData data(tpch::DbgenOptions{.scale_factor = 0.001});
  cjdbc::ReplicaSet replicas(
      3, cjdbc::ReplicaSet::NodeOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(data.LoadIntoReplicas(&replicas).ok());
  ApuamaEngine engine(&replicas, tpch::MakeTpchCatalog(data));
  cjdbc::Controller controller(std::make_unique<ApuamaDriver>(&engine));
  ASSERT_TRUE(
      controller.Execute("create table counter (k int, v int)").ok());
  ASSERT_TRUE(controller.Execute("insert into counter values (0, 0)").ok());
  ASSERT_TRUE(controller.Execute("set result_cache = on").ok());

  constexpr int kUpdates = 120;
  std::atomic<int> published{0};  // highest fully-broadcast value
  std::atomic<bool> done{false};
  std::atomic<int> stale_reads{0};
  std::atomic<bool> failed{false};

  std::thread writer([&] {
    for (int i = 1; i <= kUpdates; ++i) {
      auto r = controller.Execute(
          "update counter set v = " + std::to_string(i) + " where k = 0");
      if (!r.ok()) {
        failed = true;
        ADD_FAILURE() << r.status().ToString();
        break;
      }
      // Execute returned, so the broadcast is complete: every read
      // issued from here on must see at least i.
      published.store(i, std::memory_order_release);
    }
    done = true;
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!done.load() && !failed.load()) {
        const int floor = published.load(std::memory_order_acquire);
        auto r = controller.Execute("select v from counter where k = 0");
        if (!r.ok() || r->num_rows() != 1) {
          failed = true;
          return;
        }
        if (r->rows[0][0].int_val() < floor) stale_reads.fetch_add(1);
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  ASSERT_FALSE(failed.load());
  EXPECT_EQ(stale_reads.load(), 0);
  EXPECT_TRUE(engine.ReplicasConsistent());

  // Quiescent coda: with no writer racing, a repeat read must be a
  // hit AND carry the final value.
  const uint64_t hits_before = engine.result_cache()->hits();
  auto r1 = controller.Execute("select v from counter where k = 0");
  auto r2 = controller.Execute("select v from counter where k = 0");
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->rows[0][0].int_val(), kUpdates);
  EXPECT_EQ(r2->rows[0][0].int_val(), kUpdates);
  EXPECT_GT(engine.result_cache()->hits(), hits_before);
}

// Columnar images must never serve stale data while writes race:
// readers hammer a morsel-eligible aggregate (the columnar path —
// each table's image is spliced by the write that changes its heap)
// while a writer appends rows through the controller broadcast. A
// read ISSUED after insert i's broadcast completed must observe
// count(*) >= kBase + i. Primarily a TSan target for images spliced
// under the node's serialization, but the freshness assertion is the
// point even unsanitized.
TEST(StressTest, ColumnarAggregatesNeverGoStaleAcrossWrites) {
  const tpch::TpchData data(tpch::DbgenOptions{.scale_factor = 0.001});
  cjdbc::ReplicaSet replicas(
      3, cjdbc::ReplicaSet::NodeOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(data.LoadIntoReplicas(&replicas).ok());
  ApuamaEngine engine(&replicas, tpch::MakeTpchCatalog(data));
  cjdbc::Controller controller(std::make_unique<ApuamaDriver>(&engine));
  ASSERT_TRUE(
      controller.Execute("create table counter (k int, v int)").ok());
  constexpr int kBase = 64;
  for (int i = 0; i < kBase; ++i) {
    ASSERT_TRUE(controller
                    .Execute("insert into counter values (" +
                             std::to_string(i) + ", 1)")
                    .ok());
  }

  constexpr int kInserts = 120;
  std::atomic<int> published{0};
  std::atomic<bool> done{false};
  std::atomic<int> stale_reads{0};
  std::atomic<bool> failed{false};

  std::thread writer([&] {
    for (int i = 1; i <= kInserts; ++i) {
      auto r = controller.Execute("insert into counter values (" +
                                  std::to_string(kBase + i) + ", 1)");
      if (!r.ok()) {
        failed = true;
        ADD_FAILURE() << r.status().ToString();
        break;
      }
      published.store(i, std::memory_order_release);
    }
    done = true;
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!done.load() && !failed.load()) {
        const int floor = published.load(std::memory_order_acquire);
        auto r =
            controller.Execute("select count(*), sum(v) from counter");
        if (!r.ok() || r->num_rows() != 1) {
          failed = true;
          return;
        }
        if (r->rows[0][0].int_val() < kBase + floor) stale_reads.fetch_add(1);
        // count(*) and sum(v=1) must agree within one snapshot.
        if (r->rows[0][0].Compare(r->rows[0][1]) != 0) {
          failed = true;
          return;
        }
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  ASSERT_FALSE(failed.load());
  EXPECT_EQ(stale_reads.load(), 0);
  EXPECT_TRUE(engine.ReplicasConsistent());
  auto fin = controller.Execute("select count(*) from counter");
  ASSERT_TRUE(fin.ok());
  EXPECT_EQ(fin->rows[0][0].int_val(), kBase + kInserts);
}

// Dictionary splices under write pressure: concurrent writers keep
// appending fresh strings to a dictionary-encoded column (every
// insert is spliced by the write into the table's image, so the
// dictionary grows mid-stream) while readers run dict-kernel
// predicates and a string-keyed join with the vectorized probe. Run
// under TSan this exercises the coordinator-only contract of the
// table's image; the row-visible invariant is that every tagged row
// carries v = 'live', so count(*) where v = 'live' must equal the
// scanned total.
TEST(StressTest, DictionaryRebuildsUnderConcurrentStringWriters) {
  const tpch::TpchData data(tpch::DbgenOptions{.scale_factor = 0.001});
  cjdbc::ReplicaSet replicas(
      3, cjdbc::ReplicaSet::NodeOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(data.LoadIntoReplicas(&replicas).ok());
  ApuamaEngine engine(&replicas, tpch::MakeTpchCatalog(data));
  cjdbc::Controller controller(std::make_unique<ApuamaDriver>(&engine));
  ASSERT_TRUE(
      controller.Execute("create table tagged (k int, v varchar(24))")
          .ok());
  ASSERT_TRUE(
      controller.Execute("create table tags (name varchar(24))").ok());
  ASSERT_TRUE(controller.Execute("insert into tags values ('live')").ok());
  constexpr int kBase = 48;
  for (int i = 0; i < kBase; ++i) {
    ASSERT_TRUE(controller
                    .Execute("insert into tagged values (" +
                             std::to_string(i) + ", 'live')")
                    .ok());
  }

  constexpr int kInserts = 100;
  std::atomic<int> published{0};
  std::atomic<bool> done{false};
  std::atomic<bool> failed{false};

  // Two writers: one keeps inserting the live tag, the other churns
  // the dictionary with never-repeating strings (each insert is
  // spliced by the write into the table's image).
  std::thread live_writer([&] {
    for (int i = 1; i <= kInserts && !failed.load(); ++i) {
      auto r = controller.Execute("insert into tagged values (" +
                                  std::to_string(kBase + i) + ", 'live')");
      if (!r.ok()) {
        failed = true;
        ADD_FAILURE() << r.status().ToString();
        break;
      }
      published.store(i, std::memory_order_release);
    }
    done = true;
  });
  std::thread churn_writer([&] {
    for (int i = 0; i < kInserts && !done.load() && !failed.load(); ++i) {
      auto r = controller.Execute("insert into tagged values (-1, 'churn" +
                                  std::to_string(i) + "')");
      if (!r.ok()) {
        failed = true;
        ADD_FAILURE() << r.status().ToString();
        break;
      }
    }
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      const char* sql =
          t % 2 == 0
              ? "select count(*) from tagged where v = 'live'"
              : "select count(*) from tagged, tags "
                "where tagged.v = tags.name and tagged.k >= 0";
      while (!done.load() && !failed.load()) {
        const int floor = published.load(std::memory_order_acquire);
        auto r = controller.Execute(sql);
        if (!r.ok() || r->num_rows() != 1) {
          failed = true;
          ADD_FAILURE() << r.status().ToString();
          return;
        }
        if (r->rows[0][0].int_val() < kBase + floor) {
          failed = true;
          ADD_FAILURE() << "stale dictionary scan: saw "
                        << r->rows[0][0].int_val() << " expected >= "
                        << kBase + floor;
          return;
        }
      }
    });
  }
  live_writer.join();
  churn_writer.join();
  for (auto& t : readers) t.join();
  ASSERT_FALSE(failed.load());
  EXPECT_TRUE(engine.ReplicasConsistent());
  auto fin =
      controller.Execute("select count(*) from tagged where v = 'live'");
  ASSERT_TRUE(fin.ok());
  EXPECT_EQ(fin->rows[0][0].int_val(), kBase + kInserts);
}

}  // namespace
}  // namespace apuama
