// Morsel-driven intra-node parallel execution: determinism and
// accounting.
//
// The core contract under test: for any thread count (including 1),
// an eligible aggregate produces BIT-IDENTICAL results, because the
// morsel decomposition and the partial-merge order depend only on
// table contents, never on scheduling. This covers both the
// single-table pipeline and the morsel-parallel join pipeline, and
// both agree with the sequential reference executor
// (Database::ExecuteReference). Queries neither covers (subqueries)
// take the sequential path.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "engine/database.h"
#include "tests/test_util.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace apuama {
namespace {

const std::vector<int>& ReadSet() {
  static const std::vector<int> qs = {1, 3, 4, 5, 6, 10, 12, 14, 17, 18, 19, 21};
  return qs;
}

const tpch::TpchData& DataAtSf(double sf) {
  // One generation per scale factor for the whole binary.
  static std::map<double, const tpch::TpchData*>* cache =
      new std::map<double, const tpch::TpchData*>();
  auto it = cache->find(sf);
  if (it == cache->end()) {
    it = cache->emplace(sf, new tpch::TpchData(
                                tpch::DbgenOptions{.scale_factor = sf}))
             .first;
  }
  return *it->second;
}

void SetThreads(engine::Database* db, int n) {
  auto r = db->Execute("set exec_threads = " + std::to_string(n));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
}

// Acceptance criterion: parallel execution is bit-identical to
// sequential (thread count 1) for the full TPC-H read set, at every
// scale factor we test and thread counts 1 / 2 / 8.
TEST(ParallelDeterminismTest, ReadSetBitIdenticalAcrossThreadCounts) {
  for (double sf : {0.001, 0.002}) {
    engine::Database db(engine::DatabaseOptions{.buffer_pool_pages = 0});
    ASSERT_TRUE(DataAtSf(sf).LoadInto(&db).ok());
    for (int q : ReadSet()) {
      auto sql = tpch::QuerySql(q);
      ASSERT_TRUE(sql.ok()) << "Q" << q;
      SetThreads(&db, 1);
      auto base = db.Execute(*sql);
      ASSERT_TRUE(base.ok()) << "Q" << q << ": " << base.status().ToString();
      for (int threads : {2, 8}) {
        SetThreads(&db, threads);
        auto par = db.Execute(*sql);
        ASSERT_TRUE(par.ok())
            << "Q" << q << " @" << threads << ": " << par.status().ToString();
        SCOPED_TRACE("sf=" + std::to_string(sf) + " Q" + std::to_string(q) +
                     " threads=" + std::to_string(threads));
        testutil::ExpectResultsIdentical(*base, *par);
      }
    }
  }
}

// The morsel pipelines must agree with the sequential reference
// executor up to floating-point association — the two sum doubles in
// different orders, so exact bits may differ, but values must match
// within standard tolerance and types must match exactly.
TEST(ParallelDeterminismTest, MorselMatchesSequentialPipeline) {
  engine::Database db(engine::DatabaseOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(DataAtSf(0.002).LoadInto(&db).ok());
  SetThreads(&db, 4);
  for (int q : ReadSet()) {
    auto sql = tpch::QuerySql(q);
    ASSERT_TRUE(sql.ok());
    auto seq = db.ExecuteReference(*sql);
    ASSERT_TRUE(seq.ok()) << "Q" << q << ": " << seq.status().ToString();
    EXPECT_EQ(seq->stats.morsels, 0u) << "Q" << q;
    auto morsel = db.Execute(*sql);
    ASSERT_TRUE(morsel.ok()) << "Q" << q << ": "
                             << morsel.status().ToString();
    SCOPED_TRACE(testing::Message() << "Q" << q);
    testutil::ExpectMatchesReference(*seq, *morsel);
  }
}

// Index and clustered-range access paths feed the same morsel
// machinery; spot-check both with a small hand-built table.
TEST(ParallelDeterminismTest, IndexAndRangePathsBitIdentical) {
  engine::Database db(engine::DatabaseOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(db.Execute("create table t (k int, g int, v double)").ok());
  ASSERT_TRUE(db.Execute("create index t_g on t (g)").ok());
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(db.Execute("insert into t values (" + std::to_string(i) +
                           ", " + std::to_string(i % 37) + ", " +
                           std::to_string(i) + ".25)")
                    .ok());
  }
  const std::vector<std::string> queries = {
      // Secondary-index path on g.
      "select g, sum(v), count(*) from t where g = 5 group by g",
      // Full scan with grouped aggregation.
      "select g, sum(v), avg(v), min(v), max(v) from t group by g order by g",
      // Global aggregate with a selective filter.
      "select count(*), sum(v) from t where v < 100.0",
  };
  for (const std::string& sql : queries) {
    SetThreads(&db, 1);
    auto base = db.Execute(sql);
    ASSERT_TRUE(base.ok()) << base.status().ToString();
    // Every query selects rows: identical empty results would prove
    // nothing.
    ASSERT_GT(base->num_rows(), 0u) << sql;
    auto ref = db.ExecuteReference(sql);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    testutil::ExpectMatchesReference(*ref, *base);
    for (int threads : {2, 8}) {
      SetThreads(&db, threads);
      auto par = db.Execute(sql);
      ASSERT_TRUE(par.ok()) << par.status().ToString();
      SCOPED_TRACE(sql + " threads=" + std::to_string(threads));
      testutil::ExpectResultsIdentical(*base, *par);
    }
  }
}

// Eligible aggregates report morsel counters; ineligible ones (cross
// joins) and the sequential reference executor report none.
TEST(ParallelExecStatsTest, MorselCountersTrackEligibility) {
  engine::Database db(engine::DatabaseOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(DataAtSf(0.002).LoadInto(&db).ok());
  SetThreads(&db, 4);

  auto q1 = db.Execute(*tpch::QuerySql(1));  // single-table aggregate
  ASSERT_TRUE(q1.ok());
  EXPECT_GT(q1->stats.morsels, 0u);
  EXPECT_GT(q1->stats.cpu_ops_parallel, 0u);
  EXPECT_GE(q1->stats.cpu_ops, q1->stats.cpu_ops_parallel);
  EXPECT_GT(q1->stats.exec_threads, 1u);

  auto q3 = db.Execute(*tpch::QuerySql(3));  // 3-way join: morsel join
  ASSERT_TRUE(q3.ok());
  EXPECT_GT(q3->stats.morsels, 0u);
  EXPECT_GT(q3->stats.cpu_ops_parallel, 0u);
  EXPECT_GT(q3->stats.join_build_rows, 0u);
  EXPECT_GT(q3->stats.join_probe_rows, 0u);

  // A cross join has no equality predicate to build on: the join
  // planner falls back to the sequential chain without leaving any
  // morsel accounting behind.
  auto cross = db.Execute("select count(*) from nation, region");
  ASSERT_TRUE(cross.ok());
  EXPECT_EQ(cross->stats.morsels, 0u);
  EXPECT_EQ(cross->stats.cpu_ops_parallel, 0u);
  EXPECT_EQ(cross->stats.join_build_rows, 0u);

  auto q1_ref = db.ExecuteReference(*tpch::QuerySql(1));
  ASSERT_TRUE(q1_ref.ok());
  EXPECT_EQ(q1_ref->stats.morsels, 0u);
  EXPECT_EQ(q1_ref->stats.cpu_ops_parallel, 0u);
  testutil::ExpectMatchesReference(*q1_ref, *q1);
}

// Page accounting must not depend on the thread count: the
// coordinator touches pages in scan order before fan-out.
TEST(ParallelExecStatsTest, PageTrafficIndependentOfThreads) {
  uint64_t expect_disk = 0, expect_cache = 0;
  for (int threads : {1, 2, 8}) {
    engine::Database db(engine::DatabaseOptions{.buffer_pool_pages = 64});
    ASSERT_TRUE(DataAtSf(0.002).LoadInto(&db).ok());
    SetThreads(&db, threads);
    auto warm = db.Execute(*tpch::QuerySql(6));
    ASSERT_TRUE(warm.ok());
    auto r = db.Execute(*tpch::QuerySql(6));
    ASSERT_TRUE(r.ok());
    // Second run against a freshly warmed 64-page pool: the hit/miss
    // split is a pure function of scan order, so it must match the
    // sequential (threads=1) iteration's numbers.
    if (threads == 1) {
      expect_disk = r->stats.pages_disk;
      expect_cache = r->stats.pages_cache;
    } else {
      EXPECT_EQ(r->stats.pages_disk, expect_disk) << "threads=" << threads;
      EXPECT_EQ(r->stats.pages_cache, expect_cache) << "threads=" << threads;
    }
  }
}

TEST(ParallelSettingsTest, ExecThreadsValidation) {
  engine::Database db;
  EXPECT_TRUE(db.Execute("set exec_threads = 4").ok());
  EXPECT_EQ(db.settings()->exec_threads, 4);
  EXPECT_FALSE(db.Execute("set exec_threads = 0").ok());
  EXPECT_FALSE(db.Execute("set exec_threads = 999").ok());
  EXPECT_FALSE(db.Execute("set exec_threads = abc").ok());
  EXPECT_EQ(db.settings()->exec_threads, 4);  // unchanged on error
  // The morsel pipelines have no off switch; the name is unknown.
  auto off = db.Execute("set morsel_exec = off");
  ASSERT_FALSE(off.ok());
  EXPECT_EQ(off.status().code(), StatusCode::kNotFound);
  EXPECT_NE(off.status().message().find("unknown setting"),
            std::string::npos);
}

// Secondary-index plans must return exactly what the same predicate
// returns without an index (`g + 0 = ...` is not sargable, so it
// always scans). Index entries name rows by clustered-key tuple, so
// this covers a table without a clustered key (every tuple empty), a
// non-unique clustered key (10 rows per key) and a unique one.
TEST(IndexScanTest, IndexPlansMatchNonSargableForms) {
  struct Shape {
    const char* name;
    const char* clustered_index;  // nullptr = no clustered key
    int key_divisor;              // k = i / key_divisor
  };
  const std::vector<Shape> shapes = {
      {"no clustered key", nullptr, 1},
      {"non-unique clustered key", "create clustered index t_k on t (k)", 10},
      {"unique clustered key", "create clustered index t_k on t (k)", 1},
  };
  const std::vector<std::pair<std::string, std::string>> pairs = {
      {"select g, sum(v), count(*) from t where g = 5 group by g",
       "select g, sum(v), count(*) from t where g + 0 = 5 group by g"},
      {"select g, sum(v), count(*) from t where g = 0 group by g",
       "select g, sum(v), count(*) from t where g + 0 = 0 group by g"},
      {"select count(*), sum(v), min(k), max(k) from t "
       "where g between 3 and 4",
       "select count(*), sum(v), min(k), max(k) from t "
       "where g + 0 between 3 and 4"},
      {"select count(*), sum(v) from t where g > 35",
       "select count(*), sum(v) from t where g + 0 > 35"},
  };
  for (const Shape& shape : shapes) {
    SCOPED_TRACE(shape.name);
    engine::Database db(engine::DatabaseOptions{.buffer_pool_pages = 0});
    ASSERT_TRUE(db.Execute("create table t (k int, g int, v double)").ok());
    ASSERT_TRUE(db.Execute("create index t_g on t (g)").ok());
    if (shape.clustered_index != nullptr) {
      ASSERT_TRUE(db.Execute(shape.clustered_index).ok());
    }
    for (int i = 0; i < 5000; ++i) {
      ASSERT_TRUE(db.Execute("insert into t values (" +
                             std::to_string(i / shape.key_divisor) + ", " +
                             std::to_string(i % 37) + ", " +
                             std::to_string(i) + ".25)")
                      .ok());
    }
    for (const char* seqscan : {"on", "off"}) {
      ASSERT_TRUE(
          db.Execute(std::string("set enable_seqscan = ") + seqscan).ok());
      for (const auto& [indexed, scanned] : pairs) {
        SCOPED_TRACE(indexed + " enable_seqscan=" + seqscan);
        auto want = db.Execute(scanned);
        ASSERT_TRUE(want.ok()) << want.status().ToString();
        ASSERT_GT(want->num_rows(), 0u);
        EXPECT_FALSE(want->stats.used_index_scan);
        for (int threads : {1, 8}) {
          SetThreads(&db, threads);
          auto got = db.Execute(indexed);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          if (std::string(seqscan) == "off") {
            EXPECT_TRUE(got->stats.used_index_scan);
          }
          testutil::ExpectResultsIdentical(*want, *got);
        }
        auto ref = db.ExecuteReference(indexed);
        ASSERT_TRUE(ref.ok()) << ref.status().ToString();
        testutil::ExpectMatchesReference(*ref, *want);
      }
    }
  }
}

}  // namespace
}  // namespace apuama
