// Morsel-parallel partitioned hash joins: determinism, legacy
// agreement, semi-join filter pushdown, and accounting.
//
// The contracts under test:
//  * join-eligible TPC-H queries (Q3/Q5/Q10) are BIT-IDENTICAL at
//    every `exec_threads`, because partition assignment, build
//    insertion order, and partial folding depend only on table
//    contents, never on scheduling;
//  * the morsel join pipeline agrees with the legacy sequential
//    chain (Database::ExecuteReference) up to float association;
//  * join order is chosen from table contents, so permuting the
//    FROM list cannot change the result bits or the EXPLAIN plan;
//  * the chain puts key lookups and selective builds first, so Q5
//    never fans out through c_nationkey;
//  * the semi-join filter prunes probe rows, never results;
//  * cross joins fall back to the legacy chain, and the capped
//    reservation hint keeps huge cross products allocation-safe;
//  * correlated EXISTS / NOT EXISTS / IN over a clustered key run as
//    semi and anti steps of both morsel pipelines (Q4, Q21), agree
//    with the reference executor and are bit-identical at every
//    `exec_threads`; every other subquery shape stays on it.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "engine/database.h"
#include "engine/executor.h"
#include "tests/test_util.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace apuama {
namespace {

const std::vector<int>& JoinQueries() {
  static const std::vector<int> qs = {3, 5, 10};
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

void Set(engine::Database* db, const std::string& stmt) {
  auto r = db->Execute("set " + stmt);
  ASSERT_TRUE(r.ok()) << stmt << ": " << r.status().ToString();
}

// Q5's text with its FROM list replaced by `from`.
std::string Q5From(const std::string& from) {
  std::string sql = *tpch::QuerySql(5);
  const std::string orig =
      "customer, orders, lineitem, supplier, nation, region";
  sql.replace(sql.find(orig), orig.size(), from);
  return sql;
}

// The bindings plain EXPLAIN lists, in its order ("SeqScan on x" -> "x").
std::vector<std::string> ExplainScans(engine::Database* db,
                                      const std::string& sql) {
  std::vector<std::string> out;
  auto r = db->Execute("explain " + sql);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (!r.ok()) return out;
  for (const Row& row : r->rows) {
    const std::string& line = row[0].str_val();
    const size_t at = line.find(" on ");
    if (at != std::string::npos) out.push_back(line.substr(at + 4));
  }
  return out;
}

const std::vector<std::string>& Q5Permutations() {
  static const std::vector<std::string> froms = {
      "region, nation, supplier, lineitem, orders, customer",
      "lineitem, supplier, customer, region, orders, nation",
  };
  return froms;
}

// Acceptance criterion: the join pipeline is bit-identical to its own
// single-threaded execution for Q3/Q5/Q10 at thread counts 1 / 2 / 8
// and two scale factors.
TEST(JoinParallelTest, JoinQueriesBitIdenticalAcrossThreadCounts) {
  for (double sf : {0.001, 0.002}) {
    engine::Database db(engine::DatabaseOptions{.buffer_pool_pages = 0});
    ASSERT_TRUE(DataAtSf(sf).LoadInto(&db).ok());
    for (int q : JoinQueries()) {
      auto sql = tpch::QuerySql(q);
      ASSERT_TRUE(sql.ok()) << "Q" << q;
      Set(&db, "exec_threads = 1");
      auto base = db.Execute(*sql);
      ASSERT_TRUE(base.ok()) << "Q" << q << ": " << base.status().ToString();
      EXPECT_GT(base->stats.join_build_rows, 0u) << "Q" << q;
      for (int threads : {2, 8}) {
        Set(&db, "exec_threads = " + std::to_string(threads));
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

// The partitioned-hash-join pipeline must agree with the legacy
// nested chain the reference executor runs: same rows, same order,
// same value types, values equal within float-association tolerance.
TEST(JoinParallelTest, MorselJoinMatchesLegacyChain) {
  engine::Database db(engine::DatabaseOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(DataAtSf(0.002).LoadInto(&db).ok());
  Set(&db, "exec_threads = 4");
  for (int q : JoinQueries()) {
    auto sql = tpch::QuerySql(q);
    ASSERT_TRUE(sql.ok());
    auto legacy = db.ExecuteReference(*sql);
    ASSERT_TRUE(legacy.ok()) << "Q" << q << ": "
                             << legacy.status().ToString();
    EXPECT_EQ(legacy->stats.join_build_rows, 0u) << "Q" << q;
    auto morsel = db.Execute(*sql);
    ASSERT_TRUE(morsel.ok()) << "Q" << q << ": "
                             << morsel.status().ToString();
    EXPECT_GT(morsel->stats.join_build_rows, 0u) << "Q" << q;
    SCOPED_TRACE(testing::Message() << "Q" << q);
    testutil::ExpectMatchesReference(*legacy, *morsel);
  }
}

// Driver selection and build-chain order are functions of table
// contents (row counts, clustered keys, how many rows each build
// side's scan predicates keep, binding names) and the statement text —
// never of the FROM list's textual order. Permutations of the same
// query must be bit-identical at every thread count.
TEST(JoinParallelTest, FromListPermutationsBitIdentical) {
  engine::Database db(engine::DatabaseOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(DataAtSf(0.002).LoadInto(&db).ok());
  const std::string select =
      "select n_name, count(*) as cnt,"
      " sum(s_acctbal) as bal"
      " from ";
  const std::string where =
      " where s_nationkey = n_nationkey"
      " and n_regionkey = r_regionkey"
      " group by n_name order by n_name";
  // Each case lists one query under several FROM orders.
  std::vector<std::vector<std::string>> cases = {
      {select + "supplier, nation, region" + where,
       select + "region, nation, supplier" + where,
       select + "nation, region, supplier" + where},
      {*tpch::QuerySql(5)},
  };
  for (const std::string& from : Q5Permutations()) {
    cases[1].push_back(Q5From(from));
  }
  for (int threads : {1, 4}) {
    Set(&db, "exec_threads = " + std::to_string(threads));
    for (const std::vector<std::string>& perms : cases) {
      auto base = db.Execute(perms[0]);
      ASSERT_TRUE(base.ok()) << base.status().ToString();
      EXPECT_GT(base->stats.join_build_rows, 0u);
      for (size_t i = 1; i < perms.size(); ++i) {
        auto perm = db.Execute(perms[i]);
        ASSERT_TRUE(perm.ok()) << perm.status().ToString();
        SCOPED_TRACE(perms[i] + " threads=" + std::to_string(threads));
        testutil::ExpectResultsIdentical(*base, *perm);
      }
    }
  }
}

// Plain EXPLAIN lists the join's scans in plan order: build stages in
// chain order, then the driver. For Q5 the date-filtered orders build
// is a key lookup that keeps about 1/7 of its rows, so it precedes
// customer, which joins in last; the listing is the same under any
// FROM order.
TEST(JoinParallelTest, ExplainShowsChainOrderIndependentOfFromList) {
  engine::Database db(engine::DatabaseOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(DataAtSf(0.002).LoadInto(&db).ok());
  const std::vector<std::string> base = ExplainScans(&db, *tpch::QuerySql(5));
  const std::vector<std::string> expect = {"orders", "supplier", "nation",
                                           "region", "customer", "lineitem"};
  EXPECT_EQ(base, expect);
  for (const std::string& from : Q5Permutations()) {
    SCOPED_TRACE(from);
    EXPECT_EQ(ExplainScans(&db, Q5From(from)), base);
  }
}

// Q5 must not fan out through c_nationkey = s_nationkey: a chain that
// reaches customer before orders pairs every surviving lineitem row
// with each customer of its supplier's nation. With orders first, its
// semi-join filter drops most lineitem rows before any row
// materializes, so probes plus filter skips stay within a few per
// lineitem row.
TEST(JoinParallelTest, Q5ProbeWorkBoundedByLineitem) {
  engine::Database db(engine::DatabaseOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(DataAtSf(0.002).LoadInto(&db).ok());
  Set(&db, "exec_threads = 1");
  auto lineitem = db.Execute("select count(*) from lineitem");
  ASSERT_TRUE(lineitem.ok()) << lineitem.status().ToString();
  const uint64_t rows =
      static_cast<uint64_t>(lineitem->rows[0][0].int_val());
  auto q5 = db.Execute(*tpch::QuerySql(5));
  ASSERT_TRUE(q5.ok()) << q5.status().ToString();
  EXPECT_GT(q5->stats.join_probe_rows, 0u);
  EXPECT_LE(q5->stats.join_probe_rows + q5->stats.filter_skipped_rows,
            5 * rows);
}

// Shapes that stress the ordering inputs rather than TPC-H: a build
// side whose declared clustered key holds duplicates (a "key lookup"
// that fans out, since the key is not enforced unique), and build
// sides filtered to zero rows (survival 0, so they go before larger
// or smaller key lookups). Two more group the join by f_dim into
// 1,100-1,200 groups: one with HAVING and expression items, one with
// bare items and an ORDER BY full of ties, which the finish must break
// in group-key order. Each must match the reference executor and be
// bit-identical at every thread count.
TEST(JoinParallelTest, OrderingEdgeCasesMatchReference) {
  engine::Database db(engine::DatabaseOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(DataAtSf(0.002).LoadInto(&db).ok());
  for (const char* ddl :
       {"create table fact (f_id bigint, f_dim bigint, f_val double)",
        "create table dim (d_key bigint not null primary key,"
        " d_grp bigint, d_tag varchar(8))",
        "create table grp (g_key bigint not null primary key,"
        " g_name varchar(8))"}) {
    ASSERT_TRUE(db.Execute(ddl).ok()) << ddl;
  }
  // 3 rows per dim key over 1200 keys (several build morsels), and
  // fact keys that overshoot dim's range so some probes miss.
  for (int i = 0; i < 3600; ++i) {
    const int key = i % 1200;
    ASSERT_TRUE(db.Execute("insert into dim values (" +
                           std::to_string(key) + ", " +
                           std::to_string((key + i) % 7) + ", '" +
                           (key % 2 == 0 ? "even" : "odd") + "')")
                    .ok());
  }
  for (int g = 0; g < 7; ++g) {
    ASSERT_TRUE(db.Execute("insert into grp values (" + std::to_string(g) +
                           ", 'g" + std::to_string(g) + "')")
                    .ok());
  }
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(db.Execute("insert into fact values (" + std::to_string(i) +
                           ", " + std::to_string(i % 1300) + ", " +
                           std::to_string(i) + ".5)")
                    .ok());
  }
  const std::string dup_key =
      "select g_name, count(*) as cnt, sum(f_val) as val"
      " from fact, grp, dim"
      " where f_dim = d_key and d_grp = g_key and d_tag = 'odd'"
      " group by g_name order by g_name";
  // dim and grp are both key lookups from fact; dim keeps no rows, so
  // it goes first although grp is smaller. A global aggregate over the
  // empty join still yields a row.
  const std::string empty_dim =
      "select count(*) as cnt, sum(f_val) as val, min(g_name) as g"
      " from fact, grp, dim"
      " where f_dim = d_key and f_id = g_key and d_grp = g_key"
      " and d_tag = 'none'";
  EXPECT_EQ(ExplainScans(&db, empty_dim),
            (std::vector<std::string>{"dim", "grp", "fact"}));
  const std::vector<std::string> queries = {
      dup_key,
      empty_dim,
      "select f_dim, count(*) as cnt, sum(f_val) * 2 as val2,"
      " max(d_grp) + 1 as mg from fact, dim where f_dim = d_key"
      " group by f_dim having count(*) > 9 order by val2 desc",
      "select f_dim, d_tag, count(*) as cnt, sum(f_val) as val,"
      " min(d_grp) as g from fact, dim where f_dim = d_key"
      " group by f_dim, d_tag order by cnt desc",
      // Q5 with region filtered to nothing.
      [] {
        std::string sql = *tpch::QuerySql(5);
        sql.replace(sql.find("'ASIA'"), 6, "'ATLANTIS'");
        return sql;
      }(),
  };
  for (const std::string& sql : queries) {
    SCOPED_TRACE(sql);
    auto ref = db.ExecuteReference(sql);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    Set(&db, "exec_threads = 1");
    auto base = db.Execute(sql);
    ASSERT_TRUE(base.ok()) << base.status().ToString();
    EXPECT_GT(base->stats.morsels, 0u);  // ran the morsel join
    testutil::ExpectMatchesReference(*ref, *base);
    for (int threads : {2, 8}) {
      Set(&db, "exec_threads = " + std::to_string(threads));
      auto par = db.Execute(sql);
      ASSERT_TRUE(par.ok()) << par.status().ToString();
      SCOPED_TRACE("threads=" + std::to_string(threads));
      testutil::ExpectResultsIdentical(*base, *par);
    }
  }
  // The duplicate-key case really fans out: every fact row with an
  // odd key below 1200 pairs with all 3 dim rows of that key.
  Set(&db, "exec_threads = 1");
  auto dup = db.Execute(dup_key);
  ASSERT_TRUE(dup.ok()) << dup.status().ToString();
  int64_t joined = 0;
  for (const Row& row : dup->rows) joined += row[1].int_val();
  int64_t matched = 0;
  for (int i = 0; i < 5000; ++i) {
    const int key = i % 1300;
    if (key < 1200 && key % 2 == 1) ++matched;
  }
  EXPECT_EQ(joined, 3 * matched);
}

// Semi-join filter pushdown is a pure pruning optimization: it cuts
// probe-side work, never a result. With a selective build side, the
// filter must actually skip probe rows, and the output must still
// match the reference executor, which builds no filter.
TEST(JoinParallelTest, SemiJoinFilterPrunesWithoutChangingResults) {
  engine::Database db(engine::DatabaseOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(DataAtSf(0.002).LoadInto(&db).ok());
  Set(&db, "exec_threads = 4");
  auto sql = tpch::QuerySql(3);  // c_mktsegment cuts customer to ~1/5
  ASSERT_TRUE(sql.ok());

  auto filtered = db.Execute(*sql);
  ASSERT_TRUE(filtered.ok()) << filtered.status().ToString();
  EXPECT_GT(filtered->stats.filter_skipped_rows, 0u);
  EXPECT_GT(filtered->stats.join_probe_rows, 0u);

  auto unfiltered = db.ExecuteReference(*sql);
  ASSERT_TRUE(unfiltered.ok()) << unfiltered.status().ToString();
  EXPECT_EQ(unfiltered->stats.filter_skipped_rows, 0u);
  testutil::ExpectMatchesReference(*unfiltered, *filtered);
}

// Every join counter must land where it belongs: build rows from the
// build sides, probe rows from surviving driver rows, and nothing at
// all on the reference executor's sequential chain.
TEST(JoinParallelTest, JoinCountersTrackPipeline) {
  engine::Database db(engine::DatabaseOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(DataAtSf(0.002).LoadInto(&db).ok());
  Set(&db, "exec_threads = 4");
  auto q3 = db.Execute(*tpch::QuerySql(3));
  ASSERT_TRUE(q3.ok());
  EXPECT_GT(q3->stats.join_build_rows, 0u);
  EXPECT_GT(q3->stats.join_probe_rows, 0u);
  EXPECT_GT(q3->stats.morsels, 0u);
  EXPECT_GT(q3->stats.cpu_ops_parallel, 0u);
  EXPECT_GE(q3->stats.cpu_ops, q3->stats.cpu_ops_parallel);

  auto off = db.ExecuteReference(*tpch::QuerySql(3));
  ASSERT_TRUE(off.ok());
  EXPECT_EQ(off->stats.join_build_rows, 0u);
  EXPECT_EQ(off->stats.join_probe_rows, 0u);
  EXPECT_EQ(off->stats.filter_skipped_rows, 0u);
}

// Cross joins (no equality predicate) fall back to the legacy chain
// and still produce correct results; the reservation hint caps the
// up-front allocation rather than reserving |L|x|R| rows.
TEST(JoinParallelTest, CrossJoinFallbackCorrect) {
  engine::Database db(engine::DatabaseOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(DataAtSf(0.002).LoadInto(&db).ok());
  Set(&db, "exec_threads = 4");
  // 25 nations x 5 regions x 10 suppliers-ish: a real cross product.
  auto r = db.Execute(
      "select count(*) from nation, region, supplier");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  auto nations = db.Execute("select count(*) from nation");
  auto regions = db.Execute("select count(*) from region");
  auto suppliers = db.Execute("select count(*) from supplier");
  ASSERT_TRUE(nations.ok() && regions.ok() && suppliers.ok());
  const int64_t expect = nations->rows[0][0].int_val() *
                         regions->rows[0][0].int_val() *
                         suppliers->rows[0][0].int_val();
  EXPECT_EQ(r->rows[0][0].int_val(), expect);
  EXPECT_EQ(r->stats.join_build_rows, 0u);
}

// The reservation hint itself: exact product below the cap, capped
// (not overflowed) above it, zero when either side is empty.
TEST(JoinParallelTest, JoinReserveHintCapsAndNeverOverflows) {
  using engine::JoinReserveHint;
  constexpr size_t kCap = size_t{1} << 20;
  EXPECT_EQ(JoinReserveHint(0, 5), 0u);
  EXPECT_EQ(JoinReserveHint(5, 0), 0u);
  EXPECT_EQ(JoinReserveHint(100, 200), 20000u);
  EXPECT_EQ(JoinReserveHint(1024, 1024), kCap);
  EXPECT_EQ(JoinReserveHint(size_t{1} << 19, size_t{1} << 19), kCap);
  EXPECT_EQ(JoinReserveHint(SIZE_MAX, SIZE_MAX), kCap);
  EXPECT_EQ(JoinReserveHint(SIZE_MAX, 2), kCap);
}

// Q4 (single-table aggregate) and Q21 (four-way join) run their
// EXISTS / NOT EXISTS as semi and anti steps of the morsel pipelines:
// they report morsels, the reference executor reports none, the two
// agree, and the pipelines are bit-identical at 1, 2 and 8 threads.
TEST(SemiStepTest, Q4AndQ21RunOnTheMorselPipelines) {
  for (double sf : {0.005, 0.01}) {
    engine::Database db(engine::DatabaseOptions{.buffer_pool_pages = 0});
    ASSERT_TRUE(DataAtSf(sf).LoadInto(&db).ok());
    for (int q : {4, 21}) {
      SCOPED_TRACE(testing::Message() << "sf=" << sf << " Q" << q);
      const std::string sql = *tpch::QuerySql(q);
      auto ref = db.ExecuteReference(sql);
      ASSERT_TRUE(ref.ok()) << ref.status().ToString();
      EXPECT_EQ(ref->stats.morsels, 0u);
      std::optional<engine::QueryResult> base;
      for (int threads : {1, 2, 8}) {
        Set(&db, "exec_threads = " + std::to_string(threads));
        auto r = db.Execute(sql);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        SCOPED_TRACE(testing::Message() << "threads=" << threads);
        EXPECT_GT(r->stats.morsels, 0u);
        testutil::ExpectMatchesReference(*ref, *r);
        if (!base.has_value()) {
          base = std::move(r).value();
        } else {
          testutil::ExpectResultsIdentical(*base, *r);
        }
      }
      EXPECT_GT(base->num_rows(), 0u);
    }
  }
}

// Q21 under permuted FROM lists: the steps run after the last stage
// of a chain whose order does not depend on the FROM list, so the
// bits do not either.
TEST(SemiStepTest, Q21FromPermutationsBitIdentical) {
  engine::Database db(engine::DatabaseOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(DataAtSf(0.005).LoadInto(&db).ok());
  const std::string q21 = *tpch::QuerySql(21);
  const std::string orig = "supplier, lineitem l1, orders, nation";
  ASSERT_NE(q21.find(orig), std::string::npos);
  for (int threads : {1, 4}) {
    Set(&db, "exec_threads = " + std::to_string(threads));
    auto base = db.Execute(q21);
    ASSERT_TRUE(base.ok()) << base.status().ToString();
    EXPECT_GT(base->stats.morsels, 0u);
    EXPECT_GT(base->num_rows(), 0u);
    for (const std::string from : {"nation, orders, lineitem l1, supplier",
                                   "lineitem l1, nation, supplier, orders"}) {
      std::string sql = q21;
      sql.replace(sql.find(orig), orig.size(), from);
      auto perm = db.Execute(sql);
      ASSERT_TRUE(perm.ok()) << perm.status().ToString();
      SCOPED_TRACE(from + " threads=" + std::to_string(threads));
      testutil::ExpectResultsIdentical(*base, *perm);
    }
  }
}

// The step forms the row executor decorrelates, each over a clustered
// key: IN on the key, a two-column key prefix, an extra non-key
// equality, residuals that read both scopes, a constant inner
// conjunct, an inner plan through a secondary index, an inner scan
// filtered to nothing, and NULL outer keys. Each matches the reference
// and is bit-identical at every thread count.
TEST(SemiStepTest, StepShapesMatchReference) {
  engine::Database db(engine::DatabaseOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(DataAtSf(0.002).LoadInto(&db).ok());
  const std::vector<std::string> queries = {
      "select o_orderpriority, count(*) from orders where o_orderkey in "
      "(select l_orderkey from lineitem where l_quantity > 45) "
      "group by o_orderpriority order by o_orderpriority",
      "select count(*), sum(o_totalprice) from orders where exists "
      "(select * from lineitem where l_orderkey = o_orderkey "
      "and l_linenumber = o_shippriority + 1)",
      "select s_nationkey, count(*) from supplier, lineitem l1 "
      "where s_suppkey = l1.l_suppkey and not exists "
      "(select * from lineitem l2 where l2.l_orderkey = l1.l_orderkey "
      "and l2.l_suppkey = l1.l_suppkey and l2.l_linenumber <> "
      "l1.l_linenumber) group by s_nationkey order by s_nationkey",
      "select count(*) from orders where exists (select * from lineitem "
      "where l_orderkey = o_orderkey and l_extendedprice > o_totalprice / 4 "
      "and 1 = 1)",
      "select count(*), max(o_orderdate) from orders where exists "
      "(select * from lineitem where l_orderkey = o_orderkey "
      "and l_suppkey = 7) and not exists (select * from lineitem "
      "where l_orderkey = o_orderkey and l_quantity < 0)",
      "select count(*) from orders where exists (select * from lineitem "
      "where l_orderkey = case when o_custkey < 60 then null "
      "else o_orderkey end)",
      "select count(*) from orders where not exists (select * from "
      "lineitem where l_orderkey = case when o_custkey < 60 then null "
      "else o_orderkey end and l_returnflag = 'R')",
  };
  for (const std::string& sql : queries) {
    SCOPED_TRACE(sql);
    auto ref = db.ExecuteReference(sql);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    std::optional<engine::QueryResult> base;
    for (int threads : {1, 2, 8}) {
      Set(&db, "exec_threads = " + std::to_string(threads));
      auto r = db.Execute(sql);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_GT(r->stats.morsels, 0u);
      testutil::ExpectMatchesReference(*ref, *r);
      if (!base.has_value()) {
        base = std::move(r).value();
      } else {
        testutil::ExpectResultsIdentical(*base, *r);
      }
    }
  }
}

// The subquery shapes a step does not cover stay on the row executor
// (no morsels) and still match the reference: NOT IN, an aggregating
// subquery, a two-table subquery, a correlation on a non-key column,
// a subquery under OR, in the select list and in HAVING, and a
// correlated statement.
TEST(SemiStepTest, OtherSubqueryShapesStayOnTheRowExecutor) {
  engine::Database db(engine::DatabaseOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(DataAtSf(0.001).LoadInto(&db).ok());
  Set(&db, "exec_threads = 4");
  const std::vector<std::string> queries = {
      "select count(*) from orders where o_orderkey not in "
      "(select l_orderkey from lineitem where l_quantity > 45)",
      "select count(*) from orders where exists (select count(*) from "
      "lineitem where l_orderkey = o_orderkey)",
      "select count(*) from orders where exists (select * from lineitem, "
      "part where l_orderkey = o_orderkey and l_partkey = p_partkey "
      "and p_size > 40)",
      "select count(*) from orders where exists (select * from lineitem "
      "where l_suppkey = o_custkey)",
      "select count(*) from orders where o_orderstatus = 'F' or exists "
      "(select * from lineitem where l_orderkey = o_orderkey "
      "and l_quantity > 49)",
      "select count(*), (select count(*) from nation) from orders",
      "select o_orderpriority, count(*) from orders group by "
      "o_orderpriority having count(*) > (select count(*) from nation)",
      "select count(*) from orders where exists (select * from lineitem "
      "where l_orderkey = o_orderkey and exists (select * from part "
      "where p_partkey = l_partkey and p_size > 40))",
  };
  for (const std::string& sql : queries) {
    SCOPED_TRACE(sql);
    auto ref = db.ExecuteReference(sql);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    auto r = db.Execute(sql);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->stats.morsels, 0u);
    testutil::ExpectMatchesReference(*ref, *r);
  }
}

// A NaN outer key compares equal to every value but hashes apart, so
// the row executor's hash lookup matches it only with a NaN; the steps
// match exactly as it does, though the key's clustered range spans the
// whole inner table.
TEST(SemiStepTest, NanOuterKeysMatchAsOnTheRowPath) {
  engine::Database db(engine::DatabaseOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(
      db.Execute("create table inr (k int not null, v int, primary key (k))")
          .ok());
  ASSERT_TRUE(db.Execute("create table o (id int, x double)").ok());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<Row> inner;
  std::vector<Row> outer;
  for (int64_t i = 0; i < 100; ++i) {
    inner.push_back({Value::Int(i), Value::Int(i % 7)});
  }
  for (int64_t i = 0; i < 3000; ++i) {
    outer.push_back(
        {Value::Int(i), Value::Double(i % 10 == 0
                                          ? nan
                                          : static_cast<double>(i % 150))});
  }
  auto inr = db.catalog()->GetTable("inr");
  auto o = db.catalog()->GetTable("o");
  ASSERT_TRUE(inr.ok() && o.ok());
  ASSERT_TRUE((*inr)->BulkLoad(std::move(inner)).ok());
  ASSERT_TRUE((*o)->BulkLoad(std::move(outer)).ok());
  for (const std::string sql :
       {"select count(*) from o where exists (select * from inr where k = x)",
        "select count(*) from o where not exists (select * from inr "
        "where k = x and v < 5)",
        "select count(*) from o where x in (select k from inr)"}) {
    SCOPED_TRACE(sql);
    auto ref = db.ExecuteReference(sql);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    for (int threads : {1, 8}) {
      Set(&db, "exec_threads = " + std::to_string(threads));
      auto r = db.Execute(sql);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_GT(r->stats.morsels, 0u);
      testutil::ExpectResultsIdentical(*ref, *r);
    }
  }
}

// An inner-only conjunct sees the rows it sees on the row path, so a
// division by zero in it errors on both paths, also when no outer
// tuple reaches the step; a constant conjunct runs after the scan
// predicates, so one that would divide by zero raises nothing once
// they keep no row.
TEST(SemiStepTest, InnerOnlyErrorsSurfaceOnBothPaths) {
  engine::Database db(engine::DatabaseOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(DataAtSf(0.001).LoadInto(&db).ok());
  for (const std::string outer : {"", " and o_orderkey < 0"}) {
    for (const std::string kind : {"exists", "not exists"}) {
      const std::string sql =
          "select count(*) from orders where o_totalprice > 0" + outer +
          " and " + kind +
          " (select * from lineitem where l_orderkey = o_orderkey "
          "and l_quantity / 0 > 1)";
      SCOPED_TRACE(sql);
      auto ref = db.ExecuteReference(sql);
      ASSERT_FALSE(ref.ok());
      auto r = db.Execute(sql);
      ASSERT_FALSE(r.ok());
      EXPECT_EQ(r.status().code(), ref.status().code());
      EXPECT_EQ(r.status().message(), ref.status().message());
    }
  }
  const std::string shielded =
      "select count(*) from orders where exists (select * from lineitem "
      "where l_orderkey = o_orderkey and 1 / 0 = 1 and l_quantity < 0)";
  auto ref = db.ExecuteReference(shielded);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  auto r = db.Execute(shielded);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->stats.morsels, 0u);
  testutil::ExpectMatchesReference(*ref, *r);
}

// The join pipeline and its semi-join filter have no off switches:
// `SET join_parallel` and `SET join_filter` are unknown settings.
TEST(JoinParallelTest, SettingsValidation) {
  engine::Database db;
  for (const char* knob : {"join_parallel", "join_filter"}) {
    auto r = db.Execute(std::string("set ") + knob + " = off");
    ASSERT_FALSE(r.ok()) << knob;
    EXPECT_EQ(r.status().code(), StatusCode::kNotFound) << knob;
    EXPECT_NE(r.status().message().find("unknown setting"),
              std::string::npos)
        << knob;
  }
}

}  // namespace
}  // namespace apuama
