// Result composition on the sequential executor: every composition
// shape, dynamically typed partial values, streaming composition
// under heavy client concurrency, and the plan cache.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "apuama/apuama_engine.h"
#include "apuama/plan_cache.h"
#include "apuama/result_composer.h"
#include "apuama/svp_rewriter.h"
#include "cjdbc/controller.h"
#include "obs/metrics.h"
#include "sql/parser.h"
#include "tests/test_util.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"
#include "tpch/refresh.h"
#include "tpch/tpch_catalog.h"

namespace apuama {
namespace {

constexpr double kTestSf = 0.002;

const tpch::TpchData& SharedData() {
  static const tpch::TpchData* data =
      new tpch::TpchData(tpch::DbgenOptions{.scale_factor = kTestSf});
  return *data;
}

engine::QueryResult MakePartial(std::vector<std::string> names,
                                std::vector<Row> rows) {
  engine::QueryResult r;
  r.column_names = std::move(names);
  r.rows = std::move(rows);
  return r;
}

std::vector<const engine::QueryResult*> Ptrs(
    const std::vector<engine::QueryResult>& partials) {
  std::vector<const engine::QueryResult*> ptrs;
  for (const auto& p : partials) ptrs.push_back(&p);
  return ptrs;
}

// An empty partial set has nothing to compose.
TEST(ComposerTest, EmptyPartialsRejected) {
  ResultComposer composer;
  CompositionStats stats;
  auto r = composer.Compose({}, "select sum(a0) from partials", &stats);
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

// Partials must agree on their column count, and no row may be
// shorter than its partial's column list.
TEST(ComposerTest, ColumnCountMismatchRejected) {
  ResultComposer composer;
  CompositionStats stats;
  engine::QueryResult p1 = MakePartial({"a"}, {});
  engine::QueryResult p2 = MakePartial({"a", "b"}, {});
  auto r = composer.Compose({&p1, &p2}, "select a from partials", &stats);
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  engine::QueryResult shorty = MakePartial(
      {"a", "b"}, {{Value::Int(1), Value::Int(2)}, {Value::Int(3)}});
  r = composer.Compose({&shorty}, "select a from partials", &stats);
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

// The executor composes over the partial rows in place of FROM and
// WHERE, so it refuses any statement that needs more: a WHERE, a
// second FROM entry, or a subquery.
TEST(ComposerTest, StatementOutsideCompositionShapeRejected) {
  engine::QueryResult p = MakePartial({"a"}, {{Value::Int(1)}});
  ResultComposer composer;
  for (const char* comp :
       {"select a from partials where a > 0",
        "select a from partials, other",
        "select a from partials order by (select max(a) from partials)"}) {
    SCOPED_TRACE(comp);
    CompositionStats stats;
    auto r = composer.Compose({&p}, comp, &stats);
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
        << r.status().ToString();
  }
}

// Grouped re-aggregation across partials, with the row accounting.
TEST(ComposerTest, GroupedSumAcrossPartials) {
  engine::QueryResult p1 = MakePartial(
      {"g0", "a0"},
      {{Value::Str("A"), Value::Int(10)}, {Value::Str("B"), Value::Int(5)}});
  engine::QueryResult p2 =
      MakePartial({"g0", "a0"}, {{Value::Str("A"), Value::Int(7)}});
  ResultComposer composer;
  CompositionStats stats;
  auto r = composer.Compose(
      {&p1, &p2},
      "select g0, sum(a0) as total from partials group by g0 order by g0",
      &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(stats.partial_rows, 3u);
  EXPECT_EQ(stats.output_rows, 2u);
  ASSERT_EQ(r->rows.size(), 2u);
  EXPECT_EQ(r->column_names, (std::vector<std::string>{"g0", "total"}));
  EXPECT_EQ(r->rows[0][1].int_val(), 17);
  EXPECT_EQ(r->rows[1][1].int_val(), 5);
}

// A node whose key range matched nothing returns one all-NULL row for
// an ungrouped aggregate; merged output must skip the NULLs, and an
// all-NULL column overall must stay NULL.
TEST(ComposerTest, AllNullPartialsYieldNull) {
  std::vector<engine::QueryResult> partials;
  partials.push_back(MakePartial({"a0", "a1"},
                                 {{Value::Null(), Value::Null()}}));
  partials.push_back(MakePartial({"a0", "a1"},
                                 {{Value::Int(7), Value::Null()}}));
  partials.push_back(MakePartial({"a0", "a1"},
                                 {{Value::Null(), Value::Null()}}));
  ResultComposer composer;
  CompositionStats stats;
  auto r = composer.Compose(
      Ptrs(partials), "select sum(a0) as s, min(a1) as m from partials",
      &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].type(), ValueType::kInt64);
  EXPECT_EQ(r->rows[0][0].int_val(), 7);
  EXPECT_TRUE(r->rows[0][1].is_null());
}

// AVG arrives split into sum+count partial columns with the rewriter's
// CASE-guarded quotient; the merged quotient must equal the true mean
// and guard against zero-count groups.
TEST(ComposerTest, AvgRecombination) {
  std::vector<engine::QueryResult> partials;
  partials.push_back(MakePartial(
      {"g0", "a0s", "a0c"},
      {{Value::Str("x"), Value::Double(10.0), Value::Int(4)},
       {Value::Str("y"), Value::Null(), Value::Int(0)}}));
  partials.push_back(MakePartial(
      {"g0", "a0s", "a0c"},
      {{Value::Str("x"), Value::Double(2.0), Value::Int(2)},
       {Value::Str("y"), Value::Null(), Value::Int(0)}}));
  const std::string comp =
      "select g0, case when sum(a0c) = 0 then null "
      "else sum(a0s) / sum(a0c) end as a from partials "
      "group by g0 order by g0";
  ResultComposer composer;
  CompositionStats stats;
  auto r = composer.Compose(Ptrs(partials), comp, &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 2u);
  EXPECT_EQ(r->rows[0][0].str_val(), "x");
  EXPECT_DOUBLE_EQ(r->rows[0][1].double_val(), 2.0);  // 12 / 6
  EXPECT_TRUE(r->rows[1][1].is_null());               // zero-count group
}

// Global ORDER BY (desc, with ties broken by the group key), OFFSET
// and LIMIT applied after the merge.
TEST(ComposerTest, OrderByLimitOffset) {
  std::vector<engine::QueryResult> partials;
  partials.push_back(MakePartial(
      {"g0", "a0"},
      {{Value::Int(1), Value::Int(5)}, {Value::Int(2), Value::Int(9)}}));
  partials.push_back(MakePartial(
      {"g0", "a0"},
      {{Value::Int(3), Value::Int(9)}, {Value::Int(4), Value::Int(1)},
       {Value::Int(1), Value::Int(4)}}));
  const std::string comp =
      "select g0, sum(a0) as s from partials group by g0 "
      "order by s desc, g0 limit 2 offset 1";
  ResultComposer composer;
  CompositionStats stats;
  auto r = composer.Compose(Ptrs(partials), comp, &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Sums: g0=1 -> 9, 2 -> 9, 3 -> 9, 4 -> 1. Desc by s then g0 asc:
  // (1,9),(2,9),(3,9),(4,1); offset 1 limit 2 -> (2,9),(3,9).
  ASSERT_EQ(r->rows.size(), 2u);
  EXPECT_EQ(r->rows[0][0].int_val(), 2);
  EXPECT_EQ(r->rows[0][1].int_val(), 9);
  EXPECT_EQ(r->rows[1][0].int_val(), 3);
  EXPECT_EQ(r->rows[1][1].int_val(), 9);
}

// Integer sums must stay integers until a double appears anywhere in
// the column (the executor's promotion rule).
TEST(ComposerTest, IntegerSumsStayIntegers) {
  std::vector<engine::QueryResult> partials;
  partials.push_back(
      MakePartial({"a0", "a1"}, {{Value::Int(3), Value::Int(3)}}));
  partials.push_back(
      MakePartial({"a0", "a1"}, {{Value::Int(4), Value::Double(0.5)}}));
  ResultComposer composer;
  CompositionStats stats;
  auto r = composer.Compose(
      Ptrs(partials), "select sum(a0) as s, sum(a1) as t from partials",
      &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows[0][0].type(), ValueType::kInt64);
  EXPECT_EQ(r->rows[0][0].int_val(), 7);
  EXPECT_EQ(r->rows[0][1].type(), ValueType::kDouble);
  EXPECT_DOUBLE_EQ(r->rows[0][1].double_val(), 3.5);
}

// HAVING, DISTINCT, a plain row union and a non-decomposable merge
// function compose on the same path as re-aggregations.
TEST(ComposerTest, HavingDistinctAndRowUnionShapes) {
  std::vector<engine::QueryResult> partials;
  partials.push_back(MakePartial(
      {"g0", "a0"},
      {{Value::Int(1), Value::Int(5)}, {Value::Int(2), Value::Int(1)}}));
  partials.push_back(
      MakePartial({"g0", "a0"}, {{Value::Int(1), Value::Int(2)}}));
  ResultComposer composer;
  const std::vector<std::pair<std::string, std::vector<Row>>> cases = {
      // HAVING: global filter over merged aggregates (g0=1 sums to 7).
      {"select g0, sum(a0) as s from partials group by g0 "
       "having sum(a0) > 3",
       {{Value::Int(1), Value::Int(7)}}},
      // DISTINCT keeps first occurrences in partial order.
      {"select distinct g0 from partials", {{Value::Int(1)}, {Value::Int(2)}}},
      // Plain row union (no aggregates at all), globally ordered.
      {"select g0, a0 from partials order by g0, a0",
       {{Value::Int(1), Value::Int(2)},
        {Value::Int(1), Value::Int(5)},
        {Value::Int(2), Value::Int(1)}}},
      // Non-decomposable merge function.
      {"select count(distinct g0) from partials", {{Value::Int(2)}}},
  };
  for (const auto& [comp, want] : cases) {
    SCOPED_TRACE(comp);
    CompositionStats stats;
    auto r = composer.Compose(Ptrs(partials), comp, &stats);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(stats.partial_rows, 3u);
    ASSERT_EQ(r->rows.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(r->rows[i].size(), want[i].size());
      for (size_t c = 0; c < want[i].size(); ++c) {
        EXPECT_EQ(r->rows[i][c].type(), want[i][c].type());
        EXPECT_EQ(r->rows[i][c].Compare(want[i][c]), 0)
            << "row " << i << " col " << c;
      }
    }
  }
}

// Every composition the SVP rewriter emits for the paper's TPC-H set
// (and the extended set) answers exactly what a single node answers.
TEST(FastPathCoverageTest, AllTpchCompositionsUseFastPath) {
  engine::Database reference(
      engine::DatabaseOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(SharedData().LoadInto(&reference).ok());
  cjdbc::ReplicaSet replicas(
      3, cjdbc::ReplicaSet::NodeOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(SharedData().LoadIntoReplicas(&replicas).ok());
  ApuamaEngine engine(&replicas, tpch::MakeTpchCatalog(SharedData()));

  std::vector<int> all = tpch::PaperQueryNumbers();
  for (int q : tpch::ExtendedQueryNumbers()) all.push_back(q);
  uint64_t composed = 0;
  for (int q : all) {
    SCOPED_TRACE(testing::Message() << "Q" << q);
    auto sql = tpch::QuerySql(q);
    ASSERT_TRUE(sql.ok());
    auto parsed = sql::ParseSelect(*sql);
    ASSERT_TRUE(parsed.ok());
    auto plan = SvpRewriter(engine.data_catalog()).Rewrite(**parsed);
    if (!plan.ok()) continue;  // non-rewritable never composes
    auto expected = reference.Execute(*sql);
    ASSERT_TRUE(expected.ok());
    auto actual = engine.ExecuteRead(0, *sql);
    ASSERT_TRUE(actual.ok()) << actual.status().ToString();
    testutil::ExpectResultsEqual(*expected, *actual, true);
    ++composed;
  }
  EXPECT_GT(composed, 0u);
  EXPECT_EQ(engine.stats().svp_queries, composed);
}

// Many clients hammering SVP aggregates while a writer churns the
// fact tables: every result must be internally consistent and the
// final state must match a single node. This is the schedule that
// deadlocked/serialized on the old global composer lock (run under
// TSan in CI).
TEST(ConcurrentCompositionTest, EightClientsWithUpdates) {
  cjdbc::ReplicaSet replicas(
      3, cjdbc::ReplicaSet::NodeOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(SharedData().LoadIntoReplicas(&replicas).ok());
  ApuamaEngine engine(&replicas,
                      tpch::MakeTpchCatalog(SharedData(), /*headroom=*/1000));
  cjdbc::Controller controller(std::make_unique<ApuamaDriver>(&engine));

  engine::Database reference(
      engine::DatabaseOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(SharedData().LoadInto(&reference).ok());

  // Grouped + ungrouped aggregate mix, all SVP-rewritable.
  const std::vector<std::string> reads = {
      *tpch::QuerySql(1), *tpch::QuerySql(6),
      "select l_shipmode, count(*) as n, sum(l_quantity) as q "
      "from lineitem group by l_shipmode order by l_shipmode",
      "select max(l_extendedprice), min(l_shipdate) from lineitem",
  };
  constexpr int kClients = 8;
  constexpr int kItersPerClient = 6;
  std::atomic<int> bad{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kItersPerClient; ++i) {
        const auto& sql = reads[static_cast<size_t>(c + i) % reads.size()];
        auto r = controller.Execute(sql);
        if (!r.ok() || r->rows.empty()) bad.fetch_add(1);
      }
    });
  }
  auto stream =
      tpch::MakeRefreshStream(SharedData().max_orderkey() + 1, 10, 7);
  std::thread updater([&] {
    for (const auto& stmt : stream) {
      if (!controller.Execute(stmt.sql).ok()) bad.fetch_add(1);
    }
  });
  for (auto& t : clients) t.join();
  updater.join();
  ASSERT_EQ(bad.load(), 0);

  // Insert-then-delete restored the data: every read query now equals
  // the untouched single-node reference.
  EXPECT_TRUE(engine.ReplicasConsistent());
  for (const auto& sql : reads) {
    SCOPED_TRACE(sql);
    auto expected = reference.Execute(sql);
    ASSERT_TRUE(expected.ok());
    auto actual = controller.Execute(sql);
    ASSERT_TRUE(actual.ok()) << actual.status().ToString();
    testutil::ExpectResultsEqual(*expected, *actual, true);
  }
}

TEST(PlanCacheTest, NormalizeSqlCollapsesCaseAndWhitespace) {
  EXPECT_EQ(PlanCache::NormalizeSql("SELECT  *\n FROM\tT "),
            "select * from t");
  EXPECT_EQ(PlanCache::NormalizeSql("a"), "a");
  EXPECT_EQ(PlanCache::NormalizeSql("  "), "");
}

// Literal content is part of the plan: queries differing only inside
// a quoted literal must produce different keys, or the second query
// would silently replay the first one's cached plan.
TEST(PlanCacheTest, NormalizeSqlPreservesStringLiterals) {
  EXPECT_EQ(PlanCache::NormalizeSql("SELECT * FROM t WHERE x = 'ABC'"),
            "select * from t where x = 'ABC'");
  EXPECT_NE(PlanCache::NormalizeSql("select 'ABC'"),
            PlanCache::NormalizeSql("select 'abc'"));
  EXPECT_NE(PlanCache::NormalizeSql("select 'a  b'"),
            PlanCache::NormalizeSql("select 'a b'"));
  // Doubled delimiter stays inside the literal; normalization resumes
  // after the closing quote.
  EXPECT_EQ(PlanCache::NormalizeSql("SELECT 'It''S  X'  AS  A"),
            "select 'It''S  X' as a");
  // Double-quoted identifiers are preserved verbatim too.
  EXPECT_EQ(PlanCache::NormalizeSql("SELECT \"Col  A\" FROM T"),
            "select \"Col  A\" from t");
}

// An insert carrying a catalog version the cache is not tracking is
// dropped: it must neither wipe entries built at the current version
// nor regress the cache's version.
TEST(PlanCacheTest, StaleVersionInsertDropped) {
  PlanCache cache(/*capacity=*/4);
  auto entry = std::make_shared<const PlanCache::Entry>();
  EXPECT_EQ(cache.Lookup("a", 2), nullptr);  // advances cache to v2
  cache.Insert("a", 2, entry);
  cache.Insert("b", 1, entry);  // stale reader racing a catalog bump
  EXPECT_EQ(cache.Lookup("b", 2), nullptr);  // stale entry not stored
  EXPECT_NE(cache.Lookup("a", 2), nullptr);  // current entry survives
  EXPECT_EQ(cache.size(), 1u);
}

TEST(PlanCacheTest, LruEvictionAndVersionInvalidation) {
  PlanCache cache(/*capacity=*/2);
  auto entry = std::make_shared<const PlanCache::Entry>();
  // Only Lookup advances the cache's catalog version; engine flow is
  // always Lookup-miss-then-Insert at the version Lookup saw.
  EXPECT_EQ(cache.Lookup("a", 1), nullptr);
  cache.Insert("a", 1, entry);
  cache.Insert("b", 1, entry);
  EXPECT_NE(cache.Lookup("a", 1), nullptr);  // refreshes "a"
  cache.Insert("c", 1, entry);               // evicts LRU "b"
  EXPECT_NE(cache.Lookup("a", 1), nullptr);
  EXPECT_EQ(cache.Lookup("b", 1), nullptr);
  EXPECT_NE(cache.Lookup("c", 1), nullptr);
  // A catalog version change drops everything.
  EXPECT_EQ(cache.Lookup("a", 2), nullptr);
  EXPECT_EQ(cache.size(), 0u);
}

// The cache's own hit/miss counters: every Lookup is exactly one hit
// or one miss (version-invalidated lookups count as misses), and the
// counters only ever grow.
TEST(PlanCacheTest, HitMissCountersTrackLookups) {
  PlanCache cache(/*capacity=*/2);
  auto entry = std::make_shared<const PlanCache::Entry>();
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
  EXPECT_EQ(cache.Lookup("a", 1), nullptr);  // cold miss
  EXPECT_EQ(cache.misses(), 1u);
  cache.Insert("a", 1, entry);
  EXPECT_NE(cache.Lookup("a", 1), nullptr);  // hit
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.Lookup("b", 1), nullptr);  // map miss
  EXPECT_EQ(cache.misses(), 2u);
  // Catalog bump: the entry is gone, and the lookup is a miss.
  EXPECT_EQ(cache.Lookup("a", 2), nullptr);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 3u);
}

// End to end: repeat submissions hit the cache, a Data Catalog domain
// update invalidates it, and the replayed plan stays correct across
// the domain change.
TEST(PlanCacheTest, EngineReusesAndInvalidatesPlans) {
  cjdbc::ReplicaSet replicas(
      2, cjdbc::ReplicaSet::NodeOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(SharedData().LoadIntoReplicas(&replicas).ok());
  ApuamaEngine engine(&replicas,
                      tpch::MakeTpchCatalog(SharedData(), /*headroom=*/1000));
  const std::string sql = *tpch::QuerySql(6);
  auto first = engine.ExecuteRead(0, sql);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(engine.plan_cache().misses(), 1u);
  EXPECT_EQ(engine.plan_cache().hits(), 0u);
  // Reformatted resubmission hits via normalization.
  auto second = engine.ExecuteRead(1, "  " + sql + "\n");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(engine.plan_cache().hits(), 1u);
  testutil::ExpectResultsEqual(*first, *second);

  // Domain refresh bumps the catalog version: next submission must
  // re-rewrite (a cached plan would use stale intervals).
  uint64_t v = engine.data_catalog()->version();
  const auto& space = engine.data_catalog()->spaces()[0];
  ASSERT_TRUE(engine.mutable_data_catalog()
                  ->UpdateDomain(space.name, space.min_value,
                                 space.max_value + 500)
                  .ok());
  EXPECT_GT(engine.data_catalog()->version(), v);
  auto third = engine.ExecuteRead(0, sql);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(engine.plan_cache().misses(), 2u);
  testutil::ExpectResultsEqual(*first, *third);
}

// Passthrough and non-rewritable outcomes are cached too (the miss
// costs a parse; the repeat should not).
TEST(PlanCacheTest, CachesNonSvpOutcomes) {
  cjdbc::ReplicaSet replicas(
      2, cjdbc::ReplicaSet::NodeOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(SharedData().LoadIntoReplicas(&replicas).ok());
  ApuamaEngine engine(&replicas, tpch::MakeTpchCatalog(SharedData()));
  const std::string dim = "select count(*) from nation";
  const std::string distinct =
      "select count(distinct l_suppkey) from lineitem";
  ASSERT_TRUE(engine.ExecuteRead(0, dim).ok());
  ASSERT_TRUE(engine.ExecuteRead(0, dim).ok());
  ASSERT_TRUE(engine.ExecuteRead(0, distinct).ok());
  ASSERT_TRUE(engine.ExecuteRead(0, distinct).ok());
  EXPECT_EQ(engine.plan_cache().misses(), 2u);
  EXPECT_EQ(engine.plan_cache().hits(), 2u);
  EXPECT_EQ(engine.stats().non_rewritable, 2u);
  // The engine's one-line stats rendering exposes them for operators.
  const std::string rendered = obs::RenderKvText(engine.StatsKv());
  EXPECT_NE(rendered.find("plan_cache_hits=2"), std::string::npos)
      << rendered;
  EXPECT_NE(rendered.find("plan_cache_misses=2"), std::string::npos)
      << rendered;
}

// Partial values stay dynamically typed, as in the single-node
// executor. A node whose range matched nothing returns all-NULL
// columns; whichever partial comes first, the NULLs are skipped.
TEST(CompositionTypingTest, AllNullFirstPartialComposes) {
  std::vector<engine::QueryResult> partials;
  partials.push_back(MakePartial({"a0", "g0"},
                                 {{Value::Null(), Value::Null()}}));
  partials.push_back(MakePartial(
      {"a0", "g0"}, {{Value::Double(1.5), Value::Str("x")}}));
  ResultComposer composer;
  CompositionStats stats;
  auto r = composer.Compose(Ptrs(partials),
                            "select sum(a0), min(g0) from partials", &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_DOUBLE_EQ(r->rows[0][0].double_val(), 1.5);
  EXPECT_EQ(r->rows[0][1].str_val(), "x");
}

// One node's sum stayed integral, another's went double: the merged
// sum promotes to DOUBLE exactly as the executor's running sum does.
TEST(CompositionTypingTest, MixedIntDoubleSumPromotesToDouble) {
  std::vector<engine::QueryResult> partials;
  partials.push_back(MakePartial({"a0"}, {{Value::Int(2)}}));
  partials.push_back(MakePartial({"a0"}, {{Value::Double(0.5)}}));
  ResultComposer composer;
  CompositionStats stats;
  auto r = composer.Compose(Ptrs(partials), "select sum(a0) from partials",
                            &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows[0][0].type(), ValueType::kDouble);
  EXPECT_DOUBLE_EQ(r->rows[0][0].double_val(), 2.5);
}

// A column that is NULL in every partial (or absent because a partial
// is empty) composes to NULL.
TEST(CompositionTypingTest, AllNullEverywhereComposesToNull) {
  std::vector<engine::QueryResult> partials;
  partials.push_back(MakePartial({"a0"}, {{Value::Null()}}));
  partials.push_back(MakePartial({"a0"}, {}));
  ResultComposer composer;
  CompositionStats stats;
  auto r = composer.Compose(
      Ptrs(partials), "select sum(a0) as s, max(a0) as m from partials",
      &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_TRUE(r->rows[0][0].is_null());
  EXPECT_TRUE(r->rows[0][1].is_null());
}

}  // namespace
}  // namespace apuama
