// Inter-query work sharing: fingerprint normalization, the versioned
// result cache, the coalescing gate, and the gated read path
// end-to-end through the C-JDBC controller.
//
// The correctness bar throughout: with both knobs off, behavior is
// byte-for-byte solo execution; with them on, every answer is still
// exactly what solo execution would have produced — at every thread
// count — and a cached read can never return pre-write bits after
// the write's broadcast completes.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apuama/apuama_engine.h"
#include "apuama/share/coalescing_gate.h"
#include "apuama/share/query_fingerprint.h"
#include "apuama/share/result_cache.h"
#include "cjdbc/controller.h"
#include "engine/database.h"
#include "tests/test_util.h"
#include "tpch/dbgen.h"
#include "tpch/tpch_catalog.h"

namespace apuama {
namespace {

using engine::QueryResult;

// ---------------------------------------------------------------------------
// Fingerprint normalization
// ---------------------------------------------------------------------------

TEST(QueryFingerprintTest, CollapsesWhitespaceAndLowercases) {
  EXPECT_EQ(share::NormalizeSql("SELECT  *\n FROM\t Lineitem"),
            "select * from lineitem");
  EXPECT_EQ(share::NormalizeSql("  select 1  "), "select 1");
}

TEST(QueryFingerprintTest, PreservesQuotedLiteralsVerbatim) {
  // Literal content keeps case, internal whitespace, and doubled
  // delimiters — collapsing any of it would merge distinct queries.
  EXPECT_EQ(share::NormalizeSql("SELECT 'It''s  A  Test' FROM T"),
            "select 'It''s  A  Test' from t");
  EXPECT_EQ(share::NormalizeSql("SELECT \"Mixed  CASE\" FROM T"),
            "select \"Mixed  CASE\" from t");
}

TEST(QueryFingerprintTest, NormalizationIsIdempotent) {
  const std::vector<std::string> samples = {
      "SELECT  * FROM t WHERE a = 'X  Y'",
      "select count(*)   from LINEITEM where l_quantity < 24",
      "  SELECT 'a''b' ,  \"C\"  FROM t  ",
  };
  for (const auto& s : samples) {
    std::string once = share::NormalizeSql(s);
    EXPECT_EQ(share::NormalizeSql(once), once) << s;
  }
}

TEST(QueryFingerprintTest, DistinctLiteralsNeverCollide) {
  // A collision here is a wrong-results bug for the result cache.
  EXPECT_NE(share::NormalizeSql("select * from t where a = 1"),
            share::NormalizeSql("select * from t where a = 2"));
  EXPECT_NE(share::NormalizeSql("select * from t where a = 'x'"),
            share::NormalizeSql("select * from t where a = 'X'"));
}

TEST(QueryFingerprintTest, HashIsStableAndSpreads) {
  const std::string a = share::NormalizeSql("select * from t where a = 1");
  const std::string b = share::NormalizeSql("select * from t where a = 2");
  EXPECT_EQ(share::FingerprintHash(a), share::FingerprintHash(a));
  EXPECT_NE(share::FingerprintHash(a), share::FingerprintHash(b));
}

TEST(QueryFingerprintTest, ReadTableSetLowercasesAndCoversSubqueries) {
  auto t = share::ReadTableSet("SELECT * FROM LineItem");
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(*t, (std::set<std::string>{"lineitem"}));
  auto sub = share::ReadTableSet(
      "select * from t where k in (select k from U)");
  ASSERT_TRUE(sub.has_value());
  EXPECT_EQ(*sub, (std::set<std::string>{"t", "u"}));
  // Non-SELECTs bypass the sharing layer entirely.
  EXPECT_FALSE(share::ReadTableSet("insert into t values (1)").has_value());
  EXPECT_FALSE(share::ReadTableSet("not sql at all").has_value());
}

TEST(QueryFingerprintTest, WriteTargetTableAttribution) {
  EXPECT_EQ(share::WriteTargetTable("INSERT INTO Orders VALUES (1)"),
            "orders");
  EXPECT_EQ(share::WriteTargetTable("delete from T where k = 1"), "t");
  EXPECT_EQ(share::WriteTargetTable("UPDATE T SET v = 1"), "t");
  // Unattributable statements return "" (global-epoch guarded).
  EXPECT_EQ(share::WriteTargetTable("select 1"), "");
  EXPECT_EQ(share::WriteTargetTable("garbage"), "");
}

// ---------------------------------------------------------------------------
// Versioned result cache
// ---------------------------------------------------------------------------

std::shared_ptr<const QueryResult> MakeResult(int64_t v) {
  auto qr = std::make_shared<QueryResult>();
  qr->column_names = {"v"};
  qr->rows.push_back({Value::Int(v)});
  return qr;
}

TEST(ResultCacheTest, MissThenHit) {
  share::ResultCache cache(8);
  EXPECT_EQ(cache.Lookup("q1", 1), nullptr);
  auto ticket = cache.BeginFill("q1", 1, {"t"}, 0);
  EXPECT_TRUE(cache.Insert(ticket, MakeResult(42)));
  auto hit = cache.Lookup("q1", 1);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->rows[0][0].int_val(), 42);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ResultCacheTest, LruEvictsOldestAtCapacity) {
  share::ResultCache cache(2);
  for (int i = 0; i < 3; ++i) {
    std::string fingerprint = "q";
    fingerprint += std::to_string(i);
    auto t = cache.BeginFill(fingerprint, 1, {"t"}, 0);
    ASSERT_TRUE(cache.Insert(t, MakeResult(i)));
  }
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.Lookup("q0", 1), nullptr);  // evicted
  EXPECT_NE(cache.Lookup("q1", 1), nullptr);
  EXPECT_NE(cache.Lookup("q2", 1), nullptr);
}

TEST(ResultCacheTest, CatalogVersionChangeInvalidates) {
  share::ResultCache cache(8);
  auto t = cache.BeginFill("q", 7, {"t"}, 0);
  ASSERT_TRUE(cache.Insert(t, MakeResult(1)));
  EXPECT_NE(cache.Lookup("q", 7), nullptr);
  EXPECT_EQ(cache.Lookup("q", 8), nullptr);
}

TEST(ResultCacheTest, WriteInvalidatesExactlyAffectedTables) {
  share::ResultCache cache(8);
  auto ta = cache.BeginFill("qa", 1, {"a"}, 0);
  auto tb = cache.BeginFill("qb", 1, {"b"}, 0);
  ASSERT_TRUE(cache.Insert(ta, MakeResult(1)));
  ASSERT_TRUE(cache.Insert(tb, MakeResult(2)));
  cache.BeginTableWrite("a");
  cache.EndTableWrite("a");
  EXPECT_EQ(cache.Lookup("qa", 1), nullptr);  // written table: stale
  EXPECT_NE(cache.Lookup("qb", 1), nullptr);  // untouched table: fresh
}

TEST(ResultCacheTest, UnattributableWriteInvalidatesEverything) {
  share::ResultCache cache(8);
  auto ta = cache.BeginFill("qa", 1, {"a"}, 0);
  ASSERT_TRUE(cache.Insert(ta, MakeResult(1)));
  cache.BeginTableWrite("");  // target unknown: global epoch bump
  EXPECT_EQ(cache.Lookup("qa", 1), nullptr);
}

TEST(ResultCacheTest, RacingWriteRejectsFill) {
  // Ticket snapshots epochs, then a write on the read's table is
  // admitted before the fill lands: the fill may contain pre-write
  // bits and MUST be rejected.
  share::ResultCache cache(8);
  auto ticket = cache.BeginFill("q", 1, {"t"}, 0);
  cache.BeginTableWrite("t");
  EXPECT_FALSE(cache.Insert(ticket, MakeResult(1)));
  EXPECT_EQ(cache.insert_rejects(), 1u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ResultCacheTest, FillDuringOpenWriteDiesAtCompletion) {
  // The other half of the double-bump contract: a read that starts
  // AFTER the write was admitted (so its snapshot already includes
  // the admission bump) may insert, but the completion bump must
  // invalidate it — it could still have scanned pre-write pages.
  share::ResultCache cache(8);
  cache.BeginTableWrite("t");
  auto ticket = cache.BeginFill("q", 1, {"t"}, 0);
  EXPECT_TRUE(cache.Insert(ticket, MakeResult(1)));
  cache.EndTableWrite("t");
  EXPECT_EQ(cache.Lookup("q", 1), nullptr);
}

TEST(ResultCacheTest, InvalidateAllDropsEverything) {
  share::ResultCache cache(8);
  auto t1 = cache.BeginFill("q1", 1, {"a"}, 0);
  auto t2 = cache.BeginFill("q2", 1, {"b"}, 0);
  ASSERT_TRUE(cache.Insert(t1, MakeResult(1)));
  ASSERT_TRUE(cache.Insert(t2, MakeResult(2)));
  cache.InvalidateAll();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Lookup("q1", 1), nullptr);
  // Tickets issued before InvalidateAll can no longer land either.
  auto t3 = cache.BeginFill("q3", 1, {"c"}, 0);
  cache.InvalidateAll();
  EXPECT_FALSE(cache.Insert(t3, MakeResult(3)));
}

// ---------------------------------------------------------------------------
// Coalescing gate
// ---------------------------------------------------------------------------

QueryResult Marked(int64_t v) {
  QueryResult qr;
  qr.column_names = {"v"};
  qr.rows.push_back({Value::Int(v)});
  return qr;
}

TEST(CoalescingGateTest, IdenticalFingerprintsCoalesceDistinctOnesLead) {
  // A batch stays open until its leader's WaitWindow, which this test
  // calls only after every arrival it sequences.
  share::CoalescingGate gate(
      share::CoalescingGate::Options{.window_us = 1000});
  auto leader = gate.Admit("fp1");
  ASSERT_TRUE(leader.leader);

  // Follower: same fingerprint. Signals after Admit, before Await,
  // so the test can sequence the rest deterministically.
  std::promise<void> follower_in;
  std::promise<Result<QueryResult>> follower_out;
  std::thread follower([&] {
    auto adm = gate.Admit("fp1");
    EXPECT_FALSE(adm.leader);
    follower_in.set_value();
    follower_out.set_value(gate.Await(adm));
  });
  follower_in.get_future().wait();

  // A distinct fingerprint never joins: it opens and leads its own
  // batch, whose result is its own.
  auto other = gate.Admit("fp2");
  ASSERT_TRUE(other.leader);
  EXPECT_NE(other.batch, leader.batch);
  gate.WaitWindow(other);
  gate.Publish(other, Marked(20));

  gate.WaitWindow(leader);
  gate.Publish(leader, Marked(10));
  auto fr = follower_out.get_future().get();
  ASSERT_TRUE(fr.ok());
  EXPECT_EQ(fr->rows[0][0].int_val(), 10);
  follower.join();
}

TEST(CoalescingGateTest, LeaderErrorPropagatesToWaiters) {
  share::CoalescingGate gate(
      share::CoalescingGate::Options{.window_us = 1000});
  auto leader = gate.Admit("fp");
  ASSERT_TRUE(leader.leader);
  std::promise<void> joined;
  std::promise<Result<QueryResult>> out;
  std::thread waiter([&] {
    auto adm = gate.Admit("fp");
    EXPECT_FALSE(adm.leader);
    joined.set_value();
    out.set_value(gate.Await(adm));
  });
  joined.get_future().wait();
  gate.WaitWindow(leader);
  gate.Publish(leader, Status::Unavailable("backend down"));
  auto r = out.get_future().get();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  waiter.join();
  // The closed window admits the next identical read as a new leader.
  EXPECT_TRUE(gate.Admit("fp").leader);
}

TEST(CoalescingGateTest, DifferentFingerprintsNeverRendezvous) {
  share::CoalescingGate gate(share::CoalescingGate::Options{.window_us = 0});
  auto a = gate.Admit("select 1 from t");
  auto b = gate.Admit("select 2 from t");
  EXPECT_TRUE(a.leader);
  EXPECT_TRUE(b.leader);  // same table, different reads: separate batches
}

// ---------------------------------------------------------------------------
// Engine + controller end-to-end
// ---------------------------------------------------------------------------

const tpch::TpchData& TinyData() {
  static const tpch::TpchData* data =
      new tpch::TpchData(tpch::DbgenOptions{.scale_factor = 0.001});
  return *data;
}

TEST(ControllerSharingTest, SetKnobsRoundTripThroughController) {
  cjdbc::ReplicaSet replicas(
      2, cjdbc::ReplicaSet::NodeOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(TinyData().LoadIntoReplicas(&replicas).ok());
  auto* engine = new ApuamaEngine(&replicas,
                                  tpch::MakeTpchCatalog(TinyData()));
  std::unique_ptr<ApuamaEngine> own(engine);
  cjdbc::Controller controller(std::make_unique<ApuamaDriver>(engine));
  EXPECT_FALSE(engine->sharing_enabled());
  EXPECT_FALSE(engine->cache_enabled());
  ASSERT_TRUE(controller.Execute("set share_scans = on").ok());
  ASSERT_TRUE(controller.Execute("set result_cache = on").ok());
  EXPECT_TRUE(engine->sharing_enabled());
  EXPECT_TRUE(engine->cache_enabled());
  ASSERT_TRUE(controller.Execute("set share_scans = off").ok());
  ASSERT_TRUE(controller.Execute("set result_cache = off").ok());
  EXPECT_FALSE(engine->sharing_enabled());
  EXPECT_FALSE(engine->cache_enabled());
}

TEST(ControllerSharingTest, CacheServesRepeatsAndWritesInvalidate) {
  cjdbc::ReplicaSet replicas(
      3, cjdbc::ReplicaSet::NodeOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(TinyData().LoadIntoReplicas(&replicas).ok());
  auto* engine = new ApuamaEngine(&replicas,
                                  tpch::MakeTpchCatalog(TinyData()));
  std::unique_ptr<ApuamaEngine> own(engine);
  cjdbc::Controller controller(std::make_unique<ApuamaDriver>(engine));
  ASSERT_TRUE(controller.Execute("set result_cache = on").ok());

  const std::string q = "select count(*) as n from customer";
  auto r1 = controller.Execute(q);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  const int64_t before = r1->rows[0][0].int_val();
  auto r2 = controller.Execute(q);
  ASSERT_TRUE(r2.ok());
  testutil::ExpectResultsIdentical(*r1, *r2);
  EXPECT_GE(engine->result_cache()->hits(), 1u);
  EXPECT_GE(controller.stats().result_cache_hits, 1u);

  // A write through the controller invalidates the entry: the next
  // read recomputes and sees the write — never the cached bits.
  auto del = controller.Execute("delete from customer where c_custkey = 1");
  ASSERT_TRUE(del.ok()) << del.status().ToString();
  auto r3 = controller.Execute(q);
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(r3->rows[0][0].int_val(), before - 1);
}

TEST(ControllerSharingTest, DdlDropsCachedResults) {
  cjdbc::ReplicaSet replicas(
      2, cjdbc::ReplicaSet::NodeOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(TinyData().LoadIntoReplicas(&replicas).ok());
  auto* engine = new ApuamaEngine(&replicas,
                                  tpch::MakeTpchCatalog(TinyData()));
  std::unique_ptr<ApuamaEngine> own(engine);
  cjdbc::Controller controller(std::make_unique<ApuamaDriver>(engine));
  ASSERT_TRUE(controller.Execute("set result_cache = on").ok());
  const std::string q = "select count(*) as n from customer";
  ASSERT_TRUE(controller.Execute(q).ok());
  ASSERT_TRUE(controller.Execute(q).ok());
  const uint64_t hits = engine->result_cache()->hits();
  EXPECT_GE(hits, 1u);
  ASSERT_TRUE(controller.Execute("create table scratch (k int)").ok());
  EXPECT_EQ(engine->result_cache()->size(), 0u);
}

// Distinct reads over the same table never share an execution: each
// runs as it would with sharing off, and none counts as coalesced.
TEST(ControllerSharingTest, DistinctConcurrentReadsNeverCoalesce) {
  cjdbc::ReplicaSet replicas(
      3, cjdbc::ReplicaSet::NodeOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(TinyData().LoadIntoReplicas(&replicas).ok());
  // The window the identical-reads test coalesces under.
  ApuamaOptions options;
  options.admission_window_us = 50'000;
  auto* engine = new ApuamaEngine(
      &replicas, tpch::MakeTpchCatalog(TinyData()), options);
  std::unique_ptr<ApuamaEngine> own(engine);
  cjdbc::Controller controller(std::make_unique<ApuamaDriver>(engine));
  ASSERT_TRUE(controller.Execute("set share_scans = on").ok());

  engine::Database reference(
      engine::DatabaseOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(TinyData().LoadInto(&reference).ok());
  const std::vector<std::string> queries = {
      "select count(*) as n from customer",
      "select sum(c_acctbal) as s from customer",
  };
  std::promise<void> go;
  std::shared_future<void> start = go.get_future().share();
  std::vector<Result<QueryResult>> results(
      queries.size(), Result<QueryResult>(Status::Internal("not run")));
  std::vector<std::thread> threads;
  for (size_t i = 0; i < queries.size(); ++i) {
    threads.emplace_back([&, i] {
      start.wait();
      results[i] = controller.Execute(queries[i]);
    });
  }
  go.set_value();
  for (auto& t : threads) t.join();
  for (size_t i = 0; i < queries.size(); ++i) {
    SCOPED_TRACE(queries[i]);
    ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
    auto expected = reference.Execute(queries[i]);
    ASSERT_TRUE(expected.ok());
    testutil::ExpectResultsEqual(*expected, *results[i]);
  }
  EXPECT_EQ(controller.stats().queries_coalesced, 0u);
}

TEST(ControllerSharingTest, ConcurrentIdenticalReadsCoalesce) {
  cjdbc::ReplicaSet replicas(
      3, cjdbc::ReplicaSet::NodeOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(TinyData().LoadIntoReplicas(&replicas).ok());
  ASSERT_TRUE(replicas.ApplyToAll("set share_scans = on").ok());
  // A generous window so real threads reliably rendezvous.
  ApuamaOptions options;
  options.admission_window_us = 50'000;
  auto* engine = new ApuamaEngine(
      &replicas, tpch::MakeTpchCatalog(TinyData()), options);
  std::unique_ptr<ApuamaEngine> own(engine);
  cjdbc::Controller controller(std::make_unique<ApuamaDriver>(engine));
  ASSERT_TRUE(controller.Execute("set share_scans = on").ok());

  engine::Database reference(
      engine::DatabaseOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(TinyData().LoadInto(&reference).ok());
  const std::string q = "select sum(c_acctbal) as s from customer";
  auto expected = reference.Execute(q);
  ASSERT_TRUE(expected.ok());

  constexpr int kThreads = 8;
  constexpr int kReps = 4;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      for (int rep = 0; rep < kReps; ++rep) {
        auto r = controller.Execute(q);
        if (!r.ok() || r->num_rows() != 1 ||
            r->rows[0][0].ToString() !=
                expected->rows[0][0].ToString()) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  // 8 threads inside a 50 ms window: some must have ridden another
  // query's admission instead of touching a backend.
  EXPECT_GT(controller.stats().queries_coalesced, 0u);
}

}  // namespace
}  // namespace apuama
