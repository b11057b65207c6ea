// Columnar vectorized execution: agreement with the sequential row
// executor, a group-cardinality sweep, column images spliced by
// writes, the row-wise fallbacks and index-order selections inside
// the columnar pipelines, and knob validation.
//
// The core contracts: every morsel-eligible aggregate is BIT-IDENTICAL
// at every exec_threads setting, and matches the sequential reference
// executor (Database::ExecuteReference) in value types exactly and in
// values up to floating-point association. The vectorized kernels
// preserve the row executor's value semantics — int->double promotion
// order, NULL handling, min/max tie rules, NaN comparisons — so only
// the order of double additions across morsels differs.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "engine/database.h"
#include "storage/column_store.h"
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

void Set(engine::Database* db, const std::string& knob,
         const std::string& value) {
  auto r = db->Execute("set " + knob + " = " + value);
  ASSERT_TRUE(r.ok()) << knob << "=" << value << ": "
                      << r.status().ToString();
}

// Acceptance criterion: over the TPC-H read set at two scale factors,
// every thread count (1 / 2 / 8) matches the sequential reference
// executor, and the thread counts are bit-identical to each other.
TEST(ColumnarTest, ReadSetMatchesReferenceAtEveryThreadCount) {
  for (double sf : {0.001, 0.002}) {
    engine::Database db(engine::DatabaseOptions{.buffer_pool_pages = 0});
    ASSERT_TRUE(DataAtSf(sf).LoadInto(&db).ok());
    for (int q : ReadSet()) {
      auto sql = tpch::QuerySql(q);
      ASSERT_TRUE(sql.ok()) << "Q" << q;
      auto ref = db.ExecuteReference(*sql);
      ASSERT_TRUE(ref.ok()) << "Q" << q << ": " << ref.status().ToString();
      std::optional<engine::QueryResult> base;
      for (int threads : {1, 2, 8}) {
        Set(&db, "exec_threads", std::to_string(threads));
        auto col = db.Execute(*sql);
        ASSERT_TRUE(col.ok()) << "Q" << q << ": " << col.status().ToString();
        SCOPED_TRACE("sf=" + std::to_string(sf) + " Q" + std::to_string(q) +
                     " threads=" + std::to_string(threads));
        testutil::ExpectMatchesReference(*ref, *col);
        if (!base.has_value()) {
          base = std::move(col).value();
        } else {
          testutil::ExpectResultsIdentical(*base, *col);
        }
      }
    }
  }
}

// Q1/Q6-style scans actually take the columnar path (they would be
// silently meaningless tests otherwise): vectorized row counters light
// up on the morsel pipeline and stay zero on the reference executor.
TEST(ColumnarTest, VectorizedCountersLightUpOnTheColumnarPath) {
  engine::Database db(engine::DatabaseOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(DataAtSf(0.001).LoadInto(&db).ok());
  for (int q : {1, 6}) {
    auto sql = tpch::QuerySql(q);
    ASSERT_TRUE(sql.ok());
    auto on = db.Execute(*sql);
    ASSERT_TRUE(on.ok()) << on.status().ToString();
    EXPECT_GT(on->stats.vectorized_rows, 0u) << "Q" << q;
    EXPECT_GT(on->stats.morsels, 0u) << "Q" << q;
    auto ref = db.ExecuteReference(*sql);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    EXPECT_EQ(ref->stats.vectorized_rows, 0u) << "Q" << q;
    EXPECT_EQ(ref->stats.columnar_chunks_built, 0u) << "Q" << q;
    EXPECT_EQ(ref->stats.morsels, 0u) << "Q" << q;
    testutil::ExpectMatchesReference(*ref, *on);
  }
}

// The dictionary kernels and the vectorized probe must actually
// engage (otherwise the agreement sweeps silently test nothing):
// dict_hits lights up on a string predicate, probe_vectorized_rows on
// a morsel join, and both stay zero on the reference executor.
TEST(ColumnarTest, DictAndProbeCountersLightUp) {
  engine::Database db(engine::DatabaseOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(DataAtSf(0.001).LoadInto(&db).ok());

  // String predicate over lineitem: compiled to a dict-code compare.
  const std::string scan_sql =
      "select count(*), sum(l_quantity) from lineitem "
      "where l_returnflag = 'R'";
  auto on = db.Execute(scan_sql);
  ASSERT_TRUE(on.ok()) << on.status().ToString();
  EXPECT_GT(on->stats.dict_hits, 0u);

  // Q3's driver is lineitem probing orders/customer: the whole morsel
  // probe side should run through the vectorized kernel.
  auto q3 = tpch::QuerySql(3);
  ASSERT_TRUE(q3.ok());
  auto join_on = db.Execute(*q3);
  ASSERT_TRUE(join_on.ok()) << join_on.status().ToString();
  EXPECT_GT(join_on->stats.probe_vectorized_rows, 0u);

  auto row = db.ExecuteReference(scan_sql);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->stats.dict_hits, 0u);
  testutil::ExpectMatchesReference(*row, *on);
  auto join_row = db.ExecuteReference(*q3);
  ASSERT_TRUE(join_row.ok());
  EXPECT_EQ(join_row->stats.probe_vectorized_rows, 0u);
  testutil::ExpectMatchesReference(*join_row, *join_on);
}

engine::Database* MakeGroupedDb(int rows, int groups) {
  auto* db =
      new engine::Database(engine::DatabaseOptions{.buffer_pool_pages = 0});
  EXPECT_TRUE(db->Execute("create table t (k int, g int, v double)").ok());
  for (int i = 0; i < rows; ++i) {
    EXPECT_TRUE(db->Execute("insert into t values (" + std::to_string(i) +
                            ", " + std::to_string(i % groups) + ", " +
                            std::to_string(i) + ".25)")
                    .ok());
  }
  return db;
}

// The one group-table merge across group cardinalities (few groups
// per morsel, some, and mostly-distinct morsels): each matches the
// sequential reference and returns the same exact bits at every
// thread count.
TEST(ColumnarTest, GroupCardinalitySweepIsBitIdentical) {
  const std::string sql =
      "select g, count(*), sum(v), avg(v), min(v), max(v) from t "
      "group by g order by g";
  for (int groups : {10, 400, 2000}) {
    SCOPED_TRACE("groups=" + std::to_string(groups));
    std::unique_ptr<engine::Database> db(MakeGroupedDb(4000, groups));
    auto ref = db->ExecuteReference(sql);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    std::optional<engine::QueryResult> first;
    for (int threads : {1, 4}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      Set(db.get(), "exec_threads", std::to_string(threads));
      auto col = db->Execute(sql);
      ASSERT_TRUE(col.ok()) << col.status().ToString();
      testutil::ExpectMatchesReference(*ref, *col);
      if (first.has_value()) {
        testutil::ExpectResultsIdentical(*first, *col);
      } else {
        first = std::move(col).value();
      }
    }
  }
}

// A table's column image builds on the first columnar scan, and
// inserts, updates and deletes splice it in place (no rebuild, never
// stale). A bulk load or a recluster drops it, and so does a write
// whose splices would outrun one build's work; the next scan rebuilds.
TEST(ColumnarTest, ChunkSplicedByWrites) {
  engine::Database db(engine::DatabaseOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(db.Execute("create table t (k int, v int)").ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(db.Execute("insert into t values (" + std::to_string(i) +
                           ", " + std::to_string(i) + ")")
                    .ok());
  }
  auto r = db.Execute("select sum(v), count(*) from t");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stats.columnar_chunks_built, 1u);
  EXPECT_EQ(r->stats.columnar_chunk_rebuilds, 0u);
  EXPECT_EQ(r->rows[0][0].int_val(), 4950);

  // Kept image: a second read builds nothing.
  r = db.Execute("select sum(v), count(*) from t");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stats.columnar_chunks_built, 0u);
  EXPECT_EQ(r->stats.columnar_chunk_rebuilds, 0u);

  // The insert splices; the next scan sees the new row, unrebuilt.
  ASSERT_TRUE(db.Execute("insert into t values (100, 1000)").ok());
  r = db.Execute("select sum(v), count(*) from t");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stats.columnar_chunk_rebuilds, 0u);
  EXPECT_EQ(r->rows[0][0].int_val(), 5950);
  EXPECT_EQ(r->rows[0][1].int_val(), 101);

  // Update and delete splice too.
  ASSERT_TRUE(db.Execute("update t set v = 0 where k = 100").ok());
  r = db.Execute("select sum(v) from t");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stats.columnar_chunk_rebuilds, 0u);
  EXPECT_EQ(r->rows[0][0].int_val(), 4950);
  ASSERT_TRUE(db.Execute("delete from t where k < 50").ok());
  r = db.Execute("select sum(v), count(*) from t");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stats.columnar_chunk_rebuilds, 0u);
  EXPECT_EQ(r->rows[0][0].int_val(), 4950 - 1225);
  EXPECT_EQ(r->rows[0][1].int_val(), 51);

  // A bulk load drops the image; the next scan rebuilds it.
  storage::Table* t = *db.catalog()->GetTable("t");
  std::vector<Row> rows;
  for (int64_t k = 1000; k < 2000; ++k) rows.push_back({Value::Int(k), Value::Int(1)});
  ASSERT_TRUE(t->BulkLoad(std::move(rows)).ok());
  r = db.Execute("select sum(v), count(*) from t");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stats.columnar_chunk_rebuilds, 1u);
  EXPECT_EQ(r->rows[0][0].int_val(), 4950 - 1225 + 1000);
  EXPECT_EQ(r->rows[0][1].int_val(), 1051);

  // So does a recluster.
  ASSERT_TRUE(db.Execute("create clustered index t_k on t (k)").ok());
  r = db.Execute("select sum(v), count(*) from t");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stats.columnar_chunk_rebuilds, 1u);

  // A 400-row UPDATE in mid-heap re-inserts each row at its key, and
  // each re-insert would move every later row of both columns: the
  // work bound drops the image after a few splices, and the next scan
  // rebuilds it once.
  r = db.Execute("update t set v = v + 1 where k >= 1300 and k < 1700");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stats.rows_affected, 400u);
  r = db.Execute("select sum(v), count(*) from t");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stats.columnar_chunk_rebuilds, 1u);
  EXPECT_EQ(r->rows[0][0].int_val(), 4950 - 1225 + 1400);
  EXPECT_EQ(r->rows[0][1].int_val(), 1051);
  r = db.Execute("select sum(v), count(*) from t");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stats.columnar_chunk_rebuilds, 0u);
}

// Every field of two column images: lanes, values (doubles bitwise),
// null bitmaps, dictionaries, codes and per-code counts.
void ExpectImagesEqual(const storage::ColumnarTable& got,
                       const storage::ColumnarTable& want) {
  ASSERT_EQ(got.num_rows, want.num_rows);
  ASSERT_EQ(got.cols.size(), want.cols.size());
  for (size_t c = 0; c < got.cols.size(); ++c) {
    SCOPED_TRACE("column " + std::to_string(c));
    const storage::ColumnVector& g = got.cols[c];
    const storage::ColumnVector& w = want.cols[c];
    EXPECT_EQ(static_cast<int>(g.type), static_cast<int>(w.type));
    EXPECT_EQ(g.materialized, w.materialized);
    EXPECT_EQ(g.i64, w.i64);
    EXPECT_TRUE(std::equal(g.f64.begin(), g.f64.end(), w.f64.begin(),
                           w.f64.end(), [](double a, double b) {
                             return std::bit_cast<uint64_t>(a) ==
                                    std::bit_cast<uint64_t>(b);
                           }));
    EXPECT_EQ(g.has_nulls, w.has_nulls);
    EXPECT_EQ(g.nulls, w.nulls);
    EXPECT_EQ(g.dict_encoded, w.dict_encoded);
    EXPECT_EQ(g.dict, w.dict);
    EXPECT_EQ(g.codes, w.codes);
    EXPECT_EQ(g.counts, w.counts);
  }
}

// Writes splice a table's column image in place. Over seeded random
// write sequences — inserts at the head, middle and tail of a
// non-unique clustered key with new, known, NULL and empty strings;
// single-row, multi-row and all-row deletes; UPDATEs, including an int
// 0 into a double column; a ROLLBACK; a bulk load and a recluster —
// the image equals a fresh build of the heap in every field after
// every step, and columnar reads match the row executor. Every kind of
// write is checked at least once with the image spliced, not rebuilt.
TEST(ColumnarTest, SplicedImageEqualsFreshBuild) {
  enum Kind {
    kHeadInsert, kMidInsert, kTailInsert, kDeleteKey, kDeleteRange,
    kDeleteAll, kUpdate, kUpdateIntoDouble, kUpdateKey, kRollback,
    kBulkLoad, kRecluster, kNumKinds
  };
  const std::vector<std::string> reads = {
      "select count(*), sum(k), sum(x), max(d), sum(n), min(n) from w "
      "where s >= 'm' or n > 40",
      "select s, count(*), sum(x), min(d) from w where k > 120 "
      "group by s order by s",
      "select count(*), sum(x) from w where s = '' or s in ('a', 'zz')",
  };
  std::set<int> spliced_kinds;
  for (uint64_t seed : {11u, 12u, 13u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    engine::Database db(engine::DatabaseOptions{.buffer_pool_pages = 0});
    ASSERT_TRUE(db.Execute("create table w (k int not null, d date, "
                           "x double, s varchar(12), n int)")
                    .ok());
    ASSERT_TRUE(db.Execute("create clustered index w_k on w (k)").ok());
    storage::Table* t = *db.catalog()->GetTable("w");
    Rng rng(seed);
    int fresh = 0;
    auto str = [&]() -> std::string {
      static const char* kKnown[] = {"''", "'a'", "'b'", "'m'", "'zz'"};
      switch (rng.Uniform(0, 3)) {
        case 0: return "null";
        case 1: return kKnown[rng.Uniform(0, 4)];
        default:
          return StrFormat("'%c%d'", static_cast<char>('a' + rng.Uniform(0, 25)),
                           fresh++);
      }
    };
    auto maybe = [&](const std::string& v) {
      return rng.Bernoulli(0.15) ? std::string("null") : v;
    };
    auto values = [&](int64_t k) {
      return StrFormat(
          "(%lld, %s, %s, %s, %s)", static_cast<long long>(k),
          maybe(Value::Date(9000 + rng.Uniform(0, 2000)).ToSqlLiteral())
              .c_str(),
          maybe(StrFormat("%.2f", rng.UniformDouble(0, 1000))).c_str(),
          str().c_str(), maybe(std::to_string(rng.Uniform(0, 50))).c_str());
    };
    auto some_key = [&]() -> int64_t {
      if (t->num_rows() == 0) return 100;
      return t->row(static_cast<size_t>(rng.Uniform(
                 0, static_cast<int64_t>(t->num_rows()) - 1)))[0]
          .int_val();
    };
    auto insert = [&](Kind kind) {
      std::string sql = "insert into w values ";
      const int rows = static_cast<int>(rng.Uniform(1, 3));
      for (int i = 0; i < rows; ++i) {
        const int64_t lo = t->num_rows() == 0 ? 100 : t->row(0)[0].int_val();
        const int64_t hi =
            t->num_rows() == 0 ? 100 : t->row(t->num_rows() - 1)[0].int_val();
        const int64_t k = kind == kHeadInsert  ? lo - 1 - i
                          : kind == kTailInsert ? hi + rng.Uniform(0, 1)
                                                : some_key();
        sql += (i > 0 ? ", " : "") + values(k);
      }
      return sql;
    };
    for (int64_t i = 0; i < 150; ++i) {
      ASSERT_TRUE(db.Execute("insert into w values " + values(100 + i / 2)).ok());
    }
    for (int step = 0; step < 220; ++step) {
      const int roll = static_cast<int>(rng.Uniform(0, 99));
      const Kind kind = roll < 10   ? kHeadInsert
                        : roll < 25 ? kMidInsert
                        : roll < 45 ? kTailInsert
                        : roll < 55 ? kDeleteKey
                        : roll < 62 ? kDeleteRange
                        : roll < 63 ? kDeleteAll
                        : roll < 75 ? kUpdate
                        : roll < 78 ? kUpdateIntoDouble
                        : roll < 86 ? kUpdateKey
                        : roll < 94 ? kRollback
                        : roll < 97 ? kBulkLoad
                                    : kRecluster;
      SCOPED_TRACE("step " + std::to_string(step) + " kind " +
                   std::to_string(kind));
      const int64_t key = some_key();
      switch (kind) {
        case kHeadInsert:
        case kMidInsert:
        case kTailInsert:
          ASSERT_TRUE(db.Execute(insert(kind)).ok());
          break;
        case kDeleteKey:
          ASSERT_TRUE(db.Execute(StrFormat("delete from w where k = %lld",
                                           static_cast<long long>(key)))
                          .ok());
          break;
        case kDeleteRange:
          ASSERT_TRUE(db.Execute(StrFormat(
                                     "delete from w where k between %lld "
                                     "and %lld",
                                     static_cast<long long>(key),
                                     static_cast<long long>(key + 3)))
                          .ok());
          break;
        case kDeleteAll:
          ASSERT_TRUE(db.Execute("delete from w").ok());
          break;
        case kUpdate:
          ASSERT_TRUE(db.Execute(StrFormat("update w set s = %s, n = n + 1 "
                                           "where k = %lld",
                                           str().c_str(),
                                           static_cast<long long>(key)))
                          .ok());
          break;
        case kUpdateIntoDouble:
          // An int into a double column moves it off the plain-double
          // lane; a later `x + 0.5` moves rows back.
          ASSERT_TRUE(db.Execute(StrFormat(
                                     "update w set x = %s where k = %lld",
                                     rng.Bernoulli(0.5) ? "0" : "x + 0.5",
                                     static_cast<long long>(key)))
                          .ok());
          break;
        case kUpdateKey:
          ASSERT_TRUE(db.Execute(StrFormat("update w set k = k + %lld "
                                           "where k = %lld",
                                           static_cast<long long>(
                                               rng.Uniform(-30, 30)),
                                           static_cast<long long>(key)))
                          .ok());
          break;
        case kRollback:
          ASSERT_TRUE(db.Execute("begin").ok());
          ASSERT_TRUE(db.Execute(insert(kMidInsert)).ok());
          ASSERT_TRUE(db.Execute(StrFormat("delete from w where k = %lld",
                                           static_cast<long long>(key)))
                          .ok());
          ASSERT_TRUE(db.Execute(StrFormat("update w set s = %s where k = %lld",
                                           str().c_str(),
                                           static_cast<long long>(some_key())))
                          .ok());
          ASSERT_TRUE(db.Execute("rollback").ok());
          break;
        case kBulkLoad: {
          std::vector<Row> rows;
          for (int i = 0; i < 20; ++i) {
            rows.push_back({Value::Int(some_key() + rng.Uniform(-5, 5)),
                            Value::Date(9000 + rng.Uniform(0, 2000)),
                            Value::Double(rng.UniformDouble(0, 1000)),
                            rng.Bernoulli(0.2) ? Value::Null()
                                               : Value::Str("bulk"),
                            Value::Int(rng.Uniform(0, 50))});
          }
          ASSERT_TRUE(t->BulkLoad(std::move(rows)).ok());
          break;
        }
        case kRecluster:
          ASSERT_TRUE(db.Execute(StrFormat("create clustered index w_c%d on "
                                           "w (k, n)",
                                           step))
                          .ok());
          break;
        case kNumKinds:
          break;
      }
      const storage::Table::ColumnarRef ref = t->Columnar();
      if (!ref.built && !ref.rebuilt) spliced_kinds.insert(kind);
      ExpectImagesEqual(*ref.image,
                        storage::ColumnarTable::Build(t->schema(), t->rows()));
      if (HasFailure()) return;
      for (const std::string& sql : reads) {
        auto ref_result = db.ExecuteReference(sql);
        ASSERT_TRUE(ref_result.ok()) << ref_result.status().ToString();
        auto got = db.Execute(sql);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        testutil::ExpectMatchesReference(*ref_result, *got);
      }
    }
  }
  for (int kind = 0; kind < kBulkLoad; ++kind) {
    EXPECT_TRUE(spliced_kinds.count(kind)) << "kind " << kind;
  }
  EXPECT_FALSE(spliced_kinds.count(kBulkLoad));
  EXPECT_FALSE(spliced_kinds.count(kRecluster));
}

// Int->double promotion parity. A sum over an int column stays an
// int64 (the wrapping int lane); mixing int-typed values into a
// double column makes the row executor promote mid-stream, and the
// columnar path must produce the same type — it does so by refusing
// to materialize such columns and falling back to row-wise
// accumulation inside the columnar pipeline.
TEST(ColumnarTest, PromotionParityAndIntSums) {
  engine::Database db(engine::DatabaseOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(db.Execute("create table p (k int, i int, d double)").ok());
  for (int r = 0; r < 2000; ++r) {
    // d receives an int literal on even rows (the validator accepts
    // int-typed values in double columns) and a real double on odd.
    std::string dv = (r % 2 == 0) ? std::to_string(r)
                                  : std::to_string(r) + ".5";
    ASSERT_TRUE(db.Execute("insert into p values (" + std::to_string(r) +
                           ", " + std::to_string(r * 1000003) + ", " + dv +
                           ")")
                    .ok());
  }
  const std::vector<std::string> queries = {
      "select sum(i), avg(i), min(i), max(i) from p",
      "select sum(d), avg(d) from p",
      "select k, sum(d) from p group by k order by sum(d) desc limit 7",
      "select sum(i + d), avg(i * 2) from p where i > 1000",
  };
  for (const std::string& sql : queries) {
    auto row = db.ExecuteReference(sql);
    ASSERT_TRUE(row.ok()) << row.status().ToString();
    auto col = db.Execute(sql);
    ASSERT_TRUE(col.ok()) << col.status().ToString();
    SCOPED_TRACE(sql);
    testutil::ExpectMatchesReference(*row, *col);
  }
  // Explicit type check: an all-int sum is an Int.
  auto r = db.Execute("select sum(i) from p");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].type(), ValueType::kInt64);
  r = db.Execute("select avg(i) from p");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].type(), ValueType::kDouble);
}

// Errors surface identically: a division by zero on a selected row
// fails the statement on both the morsel and the reference path.
TEST(ColumnarTest, DivisionByZeroErrorsOnBothPaths) {
  engine::Database db(engine::DatabaseOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(db.Execute("create table z (a int, b int)").ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(db.Execute("insert into z values (" + std::to_string(i) +
                           ", " + std::to_string(i % 3) + ")")
                    .ok());
  }
  auto morsel = db.Execute("select sum(a / b) from z");
  EXPECT_FALSE(morsel.ok());
  auto ref = db.ExecuteReference("select sum(a / b) from z");
  EXPECT_FALSE(ref.ok());
}

TEST(ColumnarTest, KnobValidationAndDefaults) {
  engine::Database db;
  // The columnar pipelines are the only morsel pipelines and have no
  // off switches: `SET columnar_exec` / `columnar_join` are unknown.
  // Every morsel pipeline merges its group tables one way; there is
  // no `SET merge_strategy`.
  const std::vector<std::pair<std::string, std::string>> unknown = {
      {"columnar_exec", "off"},
      {"columnar_join", "off"},
      {"merge_strategy", "radix"}};
  for (const auto& [knob, value] : unknown) {
    auto r = db.Execute("set " + knob + " = " + value);
    ASSERT_FALSE(r.ok()) << knob;
    EXPECT_EQ(r.status().code(), StatusCode::kNotFound) << knob;
    EXPECT_NE(r.status().message().find("unknown setting"),
              std::string::npos)
        << knob;
  }
}

// Runs `sql` at exec_threads 1 / 2 / 8, asserts the three results are
// bit-identical and match the reference executor, and returns the
// single-threaded result (for counter checks).
engine::QueryResult ExpectStableAndReferenceEqual(engine::Database* db,
                                                  const std::string& sql) {
  SCOPED_TRACE(sql);
  auto ref = db->ExecuteReference(sql);
  EXPECT_TRUE(ref.ok()) << ref.status().ToString();
  std::optional<engine::QueryResult> base;
  for (int threads : {1, 2, 8}) {
    Set(db, "exec_threads", std::to_string(threads));
    auto r = db->Execute(sql);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok() || !ref.ok()) return engine::QueryResult{};
    SCOPED_TRACE("threads=" + std::to_string(threads));
    testutil::ExpectMatchesReference(*ref, *r);
    if (!base.has_value()) {
      base = std::move(r).value();
    } else {
      testutil::ExpectResultsIdentical(*base, *r);
    }
  }
  EXPECT_GT(base->num_rows(), 0u);
  return std::move(*base);
}

// A fact table with a unique clustered key and a secondary index on g,
// bulk-loaded so index plans span several 1024-row morsels, plus a
// small dimension table half of whose keys the fact rows reference.
void MakeIndexedTables(engine::Database* db) {
  ASSERT_TRUE(db->Execute("create table fact (id int, fk int, g int, "
                          "w int, v double, s varchar(8), "
                          "primary key (id))")
                  .ok());
  ASSERT_TRUE(db->Execute("create index fact_g on fact (g)").ok());
  ASSERT_TRUE(db->Execute("create table dim (k int, tag int)").ok());
  std::vector<Row> fact;
  for (int i = 0; i < 20000; ++i) {
    fact.push_back({Value::Int(i), Value::Int(i % 300), Value::Int(i % 5),
                    Value::Int(i % 1000),
                    Value::Double((i % 97) * 0.5 + i * 1e-3),
                    Value::Str(std::string(1, static_cast<char>('a' + i % 7)) +
                               std::to_string(i % 11))});
  }
  std::vector<Row> dim;
  for (int i = 0; i < 150; ++i) {
    dim.push_back({Value::Int(2 * i), Value::Int(i % 4)});
  }
  auto fact_t = db->catalog()->GetTable("fact");
  auto dim_t = db->catalog()->GetTable("dim");
  ASSERT_TRUE(fact_t.ok() && dim_t.ok());
  ASSERT_TRUE((*fact_t)->BulkLoad(std::move(fact)).ok());
  ASSERT_TRUE((*dim_t)->BulkLoad(std::move(dim)).ok());
}

// GROUP BY-less aggregates over edge values, folded across several
// morsels: NaN and -0.0/0.0 ties under MIN/MAX, an all-NULL column,
// an int64 SUM that wraps, DATE MIN/MAX, COUNT(x) over NULLs,
// COUNT(DISTINCT) and AVG. MIN/MAX skip the NaNs of `nanv` (a NaN is
// the answer only when every input is NaN), and a tie keeps the
// earlier value.
TEST(ColumnarTest, GlobalAggregateEdgeValuesAcrossMorsels) {
  engine::Database db(engine::DatabaseOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(db.Execute("create table e (id int, big int, z double, "
                         "nanv double, dt date, sparse int, none int)")
                  .ok());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<Row> rows;
  for (int64_t i = 0; i < 6000; ++i) {
    const double nanv = i == 0   ? -1.0
                        : i == 1 ? 1e9
                        : i % 7 == 3 ? nan
                                     : static_cast<double>(i % 500);
    rows.push_back({Value::Int(i),
                    Value::Int(std::numeric_limits<int64_t>::max() - i),
                    Value::Double(i % 2 == 0 ? -0.0 : 0.0), Value::Double(nanv),
                    Value::Date(9000 + (i * 37) % 3000),
                    i % 3 == 0 ? Value::Null() : Value::Int(i % 50),
                    Value::Null()});
  }
  auto table = db.catalog()->GetTable("e");
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE((*table)->BulkLoad(std::move(rows)).ok());
  for (const std::string sql : {
           "select min(nanv), max(nanv), count(nanv) from e",
           "select min(z), max(z), count(z) from e",
           "select sum(none), min(none), max(none), avg(none), count(none),"
           " count(*) from e",
           "select sum(big), avg(big), min(big), max(big) from e",
           "select min(dt), max(dt), count(distinct dt) from e",
           "select count(sparse), count(distinct sparse), avg(sparse),"
           " sum(sparse) from e",
           "select count(sparse), avg(sparse), sum(big) from e "
           "where id >= 1500",
       }) {
    engine::QueryResult r = ExpectStableAndReferenceEqual(&db, sql);
    EXPECT_GE(r.stats.morsels, 3u) << sql;
  }
  // The wrapped SUM is the two's-complement sum, an Int.
  auto r = db.Execute("select sum(big) from e");
  ASSERT_TRUE(r.ok());
  uint64_t wrapped = 0;
  for (int64_t i = 0; i < 6000; ++i) {
    wrapped += static_cast<uint64_t>(std::numeric_limits<int64_t>::max() - i);
  }
  EXPECT_EQ(r->rows[0][0].type(), ValueType::kInt64);
  EXPECT_EQ(r->rows[0][0].int_val(), static_cast<int64_t>(wrapped));
}

// MIN/MAX over doubles holding NaNs do not depend on the fold order:
// a NaN is the answer only when every non-NULL input is NaN. Over
// 6,000 rows, `a` holds a NaN as the first row of morsel 1 and its
// minimum 1.0 five rows later (the morsel path used to keep the NaN
// as morsel 1's minimum and answer 100, the reference 1), `b` a NaN
// at row 0 and `c` only NaNs.
TEST(ColumnarTest, NanMinMaxIndependentOfFoldOrder) {
  engine::Database db(engine::DatabaseOptions{.buffer_pool_pages = 0});
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<Row> rows;
  for (int64_t i = 0; i < 6000; ++i) {
    const double x = 100.0 + static_cast<double>((i * 7) % 900);
    rows.push_back({Value::Int(i), Value::Int(i % 3), Value::Double(x),
                    Value::Double(x), Value::Double(nan)});
  }
  // Every row has the same byte size, so a table of the same rows has
  // the morsel boundaries of the one under test.
  for (const char* name : {"probe", "nanfold"}) {
    ASSERT_TRUE(db.Execute(std::string("create table ") + name +
                           " (id int, g int, a double, b double, c double)")
                    .ok());
  }
  auto probe = db.catalog()->GetTable("probe");
  auto table = db.catalog()->GetTable("nanfold");
  ASSERT_TRUE(probe.ok() && table.ok());
  ASSERT_TRUE((*probe)->BulkLoad(rows).ok());
  const auto morsels = (*probe)->Morsels(0, rows.size(), 1024);
  ASSERT_GE(morsels.size(), 3u);
  const size_t m1 = morsels[1].begin;
  rows[m1][2] = Value::Double(nan);
  rows[m1 + 5][2] = Value::Double(1.0);
  rows[0][3] = Value::Double(nan);
  ASSERT_TRUE((*table)->BulkLoad(std::move(rows)).ok());
  ASSERT_EQ((*table)->Morsels(0, 6000, 1024)[1].begin, m1);

  engine::QueryResult r = ExpectStableAndReferenceEqual(
      &db, "select min(a), max(a), min(b), max(b) from nanfold");
  ASSERT_EQ(r.num_rows(), 1u);
  EXPECT_EQ(r.rows[0][0].double_val(), 1.0);
  EXPECT_EQ(r.rows[0][1].double_val(), 999.0);
  EXPECT_EQ(r.rows[0][2].double_val(), 100.0);
  EXPECT_EQ(r.rows[0][3].double_val(), 999.0);
  // Grouped: every group spans every morsel, so the merge folds NaN
  // partials too.
  r = ExpectStableAndReferenceEqual(
      &db, "select g, min(a), max(a), min(b) from nanfold group by g "
           "order by g");
  EXPECT_EQ(r.num_rows(), 3u);

  const std::string all_nan =
      "select min(c), max(c), count(c) from nanfold";
  auto ref = db.ExecuteReference(all_nan);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  for (int threads : {1, 2, 8}) {
    Set(&db, "exec_threads", std::to_string(threads));
    auto got = db.Execute(all_nan);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_GT(got->stats.morsels, 0u);
    for (const engine::QueryResult* q : {&*ref, &*got}) {
      EXPECT_TRUE(std::isnan(q->rows[0][0].double_val()));
      EXPECT_TRUE(std::isnan(q->rows[0][1].double_val()));
      EXPECT_EQ(q->rows[0][2].int_val(), 6000);
    }
  }
}

// A string column's dictionary is its sorted distinct non-NULL values
// and a row's code is its value's rank there: compared with a
// std::set-built reference over NULLs, duplicates, the empty string
// and bytes >= 0x80 (which sort after ASCII, as std::string compares
// them). The dictionary keeps no per-row capacity.
TEST(ColumnarTest, DictionaryMatchesASortedSetReference) {
  engine::Database db(engine::DatabaseOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(db.Execute("create table strs (id int, s varchar(8))").ok());
  const std::vector<std::string> pool = {
      "", "a", "ab", "b", "\x80", "\xc3\xa9", "\xff", "Z", "a\xe2", "~"};
  Rng rng(0x51C7);
  std::vector<Row> rows;
  std::vector<std::optional<std::string>> want;
  for (int64_t i = 0; i < 5000; ++i) {
    std::optional<std::string> s;
    if (!rng.Bernoulli(0.2)) {
      s = pool[static_cast<size_t>(rng.Uniform(0, 9))];
      if (rng.Bernoulli(0.3)) *s += std::to_string(rng.Uniform(0, 40));
    }
    rows.push_back({Value::Int(i), s ? Value::Str(*s) : Value::Null()});
    want.push_back(s);
  }
  auto table = db.catalog()->GetTable("strs");
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE((*table)->BulkLoad(std::move(rows)).ok());
  // The heap is unclustered, so row i is still the i-th row loaded.
  ASSERT_EQ((*table)->row(17)[0].int_val(), 17);

  const storage::ColumnVector& col = (*table)->Columnar().image->cols[1];
  ASSERT_TRUE(col.dict_encoded);
  std::set<std::string> distinct;
  for (const auto& s : want) {
    if (s) distinct.insert(*s);
  }
  EXPECT_EQ(col.dict,
            std::vector<std::string>(distinct.begin(), distinct.end()));
  EXPECT_LT(col.dict.capacity(), want.size());
  ASSERT_TRUE(col.has_nulls);
  ASSERT_EQ(col.codes.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(col.IsNull(i), !want[i].has_value()) << "row " << i;
    const int32_t code =
        want[i] ? static_cast<int32_t>(std::distance(distinct.begin(),
                                                     distinct.find(*want[i])))
                : 0;
    ASSERT_EQ(col.codes[i], code) << "row " << i;
  }
}

// Secondary-index aggregates run the columnar pipeline over selection
// vectors seeded from each morsel's slice of the index position list:
// kernels engage and the plan spans several morsels.
TEST(ColumnarTest, IndexAggregatesSpanSeveralMorsels) {
  engine::Database db(engine::DatabaseOptions{.buffer_pool_pages = 0});
  MakeIndexedTables(&db);
  Set(&db, "enable_seqscan", "off");
  for (const std::string sql : {
           "select g, count(*), sum(v), avg(v), min(w), max(w) from fact "
           "where g = 3 group by g",
           "select count(*), sum(v), sum(w) from fact "
           "where g between 1 and 2 and w < 500",
           "select w, count(*), sum(v) from fact where g >= 4 "
           "group by w order by w limit 20",
       }) {
    engine::QueryResult r = ExpectStableAndReferenceEqual(&db, sql);
    EXPECT_TRUE(r.stats.used_index_scan) << sql;
    EXPECT_GT(r.stats.morsels, 2u) << sql;
    EXPECT_GT(r.stats.vectorized_rows, 0u) << sql;
  }
}

// When nothing compiles (a LIKE-only predicate, string MIN/MAX), the
// columnar pipeline runs entirely on its per-conjunct, per-aggregate
// and per-key row fallbacks — still morsel-parallel, still exact.
TEST(ColumnarTest, NothingCompilesRunsTheRowFallbacks) {
  engine::Database db(engine::DatabaseOptions{.buffer_pool_pages = 0});
  MakeIndexedTables(&db);
  for (const std::string sql : {
           "select g, min(s), max(s) from fact where s like 'b%' "
           "group by g order by g",
           "select min(s), max(s) from fact where s like '%3'",
           "select g + 1, max(s) from fact where s like 'c%' "
           "group by g + 1 order by g + 1",
       }) {
    engine::QueryResult r = ExpectStableAndReferenceEqual(&db, sql);
    EXPECT_GT(r.stats.morsels, 1u) << sql;
    EXPECT_EQ(r.stats.vectorized_rows, 0u) << sql;
  }
}

// An index-order join driver seeds its selection vectors from the
// position list, so the vectorized probe engages on index plans too.
TEST(ColumnarTest, IndexOrderJoinDriverUsesTheVectorizedProbe) {
  engine::Database db(engine::DatabaseOptions{.buffer_pool_pages = 0});
  MakeIndexedTables(&db);
  Set(&db, "enable_seqscan", "off");
  for (const std::string sql : {
           "select tag, count(*), sum(v) from fact, dim "
           "where fk = k and g = 2 group by tag order by tag",
           "select count(*), sum(w) from fact, dim "
           "where fk = k and g between 0 and 1 and s like 'a%'",
       }) {
    engine::QueryResult r = ExpectStableAndReferenceEqual(&db, sql);
    EXPECT_TRUE(r.stats.used_index_scan) << sql;
    EXPECT_GT(r.stats.join_build_rows, 0u) << sql;
    EXPECT_GT(r.stats.probe_vectorized_rows, 0u) << sql;
  }
}

}  // namespace
}  // namespace apuama
