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
//    FROM list cannot change the result bits;
//  * the semi-join filter prunes probe rows, never results;
//  * cross joins fall back to the legacy chain, and the capped
//    reservation hint keeps huge cross products allocation-safe.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
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
    SCOPED_TRACE("Q" + std::to_string(q));
    testutil::ExpectMatchesReference(*legacy, *morsel);
  }
}

// Driver selection and build-chain order are functions of table
// contents (row counts, binding names) — never of the FROM list's
// textual order. Permutations of the same query must be bit-identical
// at every thread count.
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
  const std::vector<std::string> froms = {
      "supplier, nation, region",
      "region, nation, supplier",
      "nation, region, supplier",
  };
  for (int threads : {1, 4}) {
    Set(&db, "exec_threads = " + std::to_string(threads));
    auto base = db.Execute(select + froms[0] + where);
    ASSERT_TRUE(base.ok()) << base.status().ToString();
    EXPECT_GT(base->stats.join_build_rows, 0u);
    for (size_t i = 1; i < froms.size(); ++i) {
      auto perm = db.Execute(select + froms[i] + where);
      ASSERT_TRUE(perm.ok()) << perm.status().ToString();
      SCOPED_TRACE(froms[i] + " threads=" + std::to_string(threads));
      testutil::ExpectResultsIdentical(*base, *perm);
    }
  }
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
