// Unit tests for src/engine: the single-node DBMS stand-in.
#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "engine/database.h"
#include "engine/eval.h"
#include "engine/executor.h"
#include "sql/parser.h"

namespace apuama::engine {
namespace {

// A tiny star schema used across tests.
class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>(DatabaseOptions{.buffer_pool_pages = 64});
    Exec(
        "create table items (id bigint not null, cat bigint, price double, "
        "sold date, note varchar(32), primary key (id))");
    Exec("create index idx_cat on items (cat)");
    for (int i = 1; i <= 100; ++i) {
      Exec(StrFormatRow(i));
    }
    Exec(
        "create table cats (cat bigint not null, cname varchar(16), "
        "primary key (cat))");
    for (int c = 0; c < 5; ++c) {
      Exec("insert into cats values (" + std::to_string(c) + ", 'cat" +
           std::to_string(c) + "')");
    }
  }

  static std::string StrFormatRow(int i) {
    // price = i * 1.5, cat = i % 5, sold spread over 1997, some NULL notes.
    std::string note =
        (i % 10 == 0) ? "NULL" : "'note" + std::to_string(i) + "'";
    int month = (i % 12) + 1;
    char date[32];
    std::snprintf(date, sizeof(date), "1997-%02d-15", month);
    return "insert into items values (" + std::to_string(i) + ", " +
           std::to_string(i % 5) + ", " + std::to_string(i * 1.5) +
           ", date '" + date + "', " + note + ")";
  }

  QueryResult Exec(const std::string& sql) {
    auto r = db_->Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? std::move(r).value() : QueryResult{};
  }

  Status ExecStatus(const std::string& sql) {
    return db_->Execute(sql).status();
  }

  std::unique_ptr<Database> db_;
};

TEST_F(EngineTest, SelectAll) {
  auto r = Exec("select * from items");
  EXPECT_EQ(r.rows.size(), 100u);
  EXPECT_EQ(r.column_names.size(), 5u);
  EXPECT_EQ(r.column_names[0], "id");
}

TEST_F(EngineTest, WhereRangeOnClusteredKey) {
  auto r = Exec("select id from items where id >= 10 and id < 20");
  EXPECT_EQ(r.rows.size(), 10u);
  EXPECT_EQ(r.rows[0][0].int_val(), 10);
  // The 100-row table is one page: the planner rightly seq-scans
  // (index pages cost 4x, PostgreSQL-style). Forcing flips the plan
  // and the range path reads only the 10 matching tuples.
  EXPECT_TRUE(r.stats.used_seq_scan);
  Exec("set enable_seqscan = off");
  auto r2 = Exec("select id from items where id >= 10 and id < 20");
  Exec("set enable_seqscan = on");
  EXPECT_TRUE(r2.stats.used_index_scan);
  EXPECT_FALSE(r2.stats.used_seq_scan);
  EXPECT_EQ(r2.stats.tuples_scanned, 10u);
}

TEST(EngineStandaloneTest, SelectiveClusteredRangeChosenNaturally) {
  // On a multi-page table a selective clustered range beats the seq
  // scan even at 4x page cost.
  Database db(DatabaseOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(db.Execute("create table big (id bigint not null, pad "
                         "varchar(120), primary key (id))")
                  .ok());
  auto table = db.catalog()->GetTable("big");
  std::vector<Row> rows;
  for (int64_t i = 0; i < 5000; ++i) {
    rows.push_back({Value::Int(i), Value::Str(std::string(120, 'x'))});
  }
  ASSERT_TRUE((*table)->BulkLoad(std::move(rows)).ok());
  auto r = db.Execute("select count(*) from big where id < 100");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].int_val(), 100);
  EXPECT_TRUE(r->stats.used_index_scan);
  EXPECT_FALSE(r->stats.used_seq_scan);
  EXPECT_EQ(r->stats.tuples_scanned, 100u);
}

TEST(EngineStandaloneTest, UnselectiveRangePrefersSeqScanUnlessForced) {
  // A range covering most of the table: the optimizer ignores the
  // virtual partition (the paper's section 3 hazard) unless Apuama
  // forces index usage.
  Database db(DatabaseOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(db.Execute("create table big (id bigint not null, pad "
                         "varchar(120), primary key (id))")
                  .ok());
  auto table = db.catalog()->GetTable("big");
  std::vector<Row> rows;
  for (int64_t i = 0; i < 5000; ++i) {
    rows.push_back({Value::Int(i), Value::Str(std::string(120, 'x'))});
  }
  ASSERT_TRUE((*table)->BulkLoad(std::move(rows)).ok());
  auto r = db.Execute("select count(*) from big where id >= 1000");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->stats.used_seq_scan);  // 80% range: seq wins at 4x
  ASSERT_TRUE(db.Execute("set enable_seqscan = off").ok());
  auto r2 = db.Execute("select count(*) from big where id >= 1000");
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(r2->stats.used_seq_scan);
  EXPECT_EQ(r2->stats.tuples_scanned, 4000u);
  EXPECT_EQ(r2->rows[0][0].int_val(), r->rows[0][0].int_val());
}

TEST_F(EngineTest, SecondaryIndexEquality) {
  auto r = Exec("select id from items where cat = 3");
  EXPECT_EQ(r.rows.size(), 20u);
  for (const auto& row : r.rows) EXPECT_EQ(row[0].int_val() % 5, 3);
}

TEST_F(EngineTest, FullScanWithPredicate) {
  auto r = Exec("select id from items where price > 100.0");
  // price > 100 => i*1.5 > 100 => i >= 67
  EXPECT_EQ(r.rows.size(), 34u);
  EXPECT_TRUE(r.stats.used_seq_scan);
}

TEST_F(EngineTest, ProjectionExpressions) {
  auto r = Exec("select id * 2 + 1 as odd, price / 3 from items where id = 4");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].int_val(), 9);
  EXPECT_DOUBLE_EQ(r.rows[0][1].double_val(), 2.0);
  EXPECT_EQ(r.column_names[0], "odd");
}

TEST_F(EngineTest, OrderByAndLimit) {
  auto r = Exec("select id from items order by id desc limit 3");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0][0].int_val(), 100);
  EXPECT_EQ(r.rows[2][0].int_val(), 98);
}

TEST_F(EngineTest, OrderByOrdinalAndAlias) {
  auto r = Exec("select id, price as p from items order by 2 desc limit 1");
  EXPECT_EQ(r.rows[0][0].int_val(), 100);
  auto r2 = Exec("select id, price as p from items order by p limit 1");
  EXPECT_EQ(r2.rows[0][0].int_val(), 1);
}

TEST_F(EngineTest, GlobalAggregates) {
  auto r = Exec(
      "select count(*), sum(id), min(price), max(price), avg(id) "
      "from items");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].int_val(), 100);
  EXPECT_EQ(r.rows[0][1].int_val(), 5050);
  EXPECT_DOUBLE_EQ(r.rows[0][2].double_val(), 1.5);
  EXPECT_DOUBLE_EQ(r.rows[0][3].double_val(), 150.0);
  EXPECT_DOUBLE_EQ(r.rows[0][4].double_val(), 50.5);
}

TEST_F(EngineTest, AggregateOverEmptyInput) {
  auto r = Exec("select count(*), sum(id) from items where id > 1000");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].int_val(), 0);
  EXPECT_TRUE(r.rows[0][1].is_null());
}

TEST_F(EngineTest, CountIgnoresNulls) {
  auto r = Exec("select count(note), count(*) from items");
  EXPECT_EQ(r.rows[0][0].int_val(), 90);  // 10 NULL notes
  EXPECT_EQ(r.rows[0][1].int_val(), 100);
}

TEST_F(EngineTest, GroupByWithHaving) {
  auto r = Exec(
      "select cat, count(*) as n, sum(price) from items group by cat "
      "having count(*) > 0 order by cat");
  ASSERT_EQ(r.rows.size(), 5u);
  for (const auto& row : r.rows) EXPECT_EQ(row[1].int_val(), 20);
  // Having filters.
  // Per-cat id sums: cat0=1050, cat1=970, cat2=990, cat3=1010, cat4=1030.
  auto r2 = Exec(
      "select cat from items group by cat having sum(id) > 1000 "
      "order by cat");
  EXPECT_EQ(r2.rows.size(), 3u);
}

TEST_F(EngineTest, CountDistinct) {
  auto r = Exec("select count(distinct cat) from items");
  EXPECT_EQ(r.rows[0][0].int_val(), 5);
}

TEST_F(EngineTest, SelectDistinct) {
  auto r = Exec("select distinct cat from items order by cat");
  ASSERT_EQ(r.rows.size(), 5u);
  EXPECT_EQ(r.rows[0][0].int_val(), 0);
}

TEST_F(EngineTest, JoinTwoTables) {
  auto r = Exec(
      "select i.id, c.cname from items i, cats c where i.cat = c.cat "
      "and i.id <= 5 order by i.id");
  ASSERT_EQ(r.rows.size(), 5u);
  EXPECT_EQ(r.rows[0][1].str_val(), "cat1");  // id=1 -> cat 1
}

TEST_F(EngineTest, JoinWithExplicitJoinSyntax) {
  auto r = Exec(
      "select count(*) from items i join cats c on i.cat = c.cat");
  EXPECT_EQ(r.rows[0][0].int_val(), 100);
}

TEST_F(EngineTest, CrossJoinWhenNoPredicate) {
  auto r = Exec("select count(*) from items, cats");
  EXPECT_EQ(r.rows[0][0].int_val(), 500);
}

TEST_F(EngineTest, CaseExpression) {
  auto r = Exec(
      "select sum(case when cat = 0 then 1 else 0 end) from items");
  EXPECT_EQ(r.rows[0][0].int_val(), 20);
}

TEST_F(EngineTest, LikePatterns) {
  auto r = Exec("select count(*) from items where note like 'note1%'");
  // note1, note10..note19 minus NULL note10 => note1, 11..19 = 10... note10
  // is NULL (i%10==0), so: note1, note11..note19 = 10 rows.
  EXPECT_EQ(r.rows[0][0].int_val(), 10);
}

TEST_F(EngineTest, InListPredicate) {
  auto r = Exec("select count(*) from items where cat in (1, 2)");
  EXPECT_EQ(r.rows[0][0].int_val(), 40);
  auto r2 = Exec("select count(*) from items where cat not in (1, 2)");
  EXPECT_EQ(r2.rows[0][0].int_val(), 60);
}

TEST_F(EngineTest, BetweenDates) {
  auto r = Exec(
      "select count(*) from items where sold between date '1997-03-01' "
      "and date '1997-03-31'");
  EXPECT_GT(r.rows[0][0].int_val(), 0);
}

TEST_F(EngineTest, IsNullPredicate) {
  auto r = Exec("select count(*) from items where note is null");
  EXPECT_EQ(r.rows[0][0].int_val(), 10);
  auto r2 = Exec("select count(*) from items where note is not null");
  EXPECT_EQ(r2.rows[0][0].int_val(), 90);
}

TEST_F(EngineTest, ExistsCorrelatedSubquery) {
  // price > 148 => id in {99, 100} (148.5, 150.0) => cats {4, 0}.
  auto r = Exec(
      "select count(*) from cats c where exists (select * from items i "
      "where i.cat = c.cat and i.price > 148.0)");
  EXPECT_EQ(r.rows[0][0].int_val(), 2);
}

TEST_F(EngineTest, NotExistsCorrelatedSubquery) {
  auto r = Exec(
      "select count(*) from cats c where not exists (select * from items i "
      "where i.cat = c.cat and i.price > 148.0)");
  EXPECT_EQ(r.rows[0][0].int_val(), 3);
}

TEST_F(EngineTest, ExistsWithNonEquiResidual) {
  // Pairs (a, b) of cats where some item of a's cat has id <> cat.
  auto r = Exec(
      "select count(*) from items i1 where exists (select * from items i2 "
      "where i2.cat = i1.cat and i2.id <> i1.id) and i1.id <= 10");
  EXPECT_EQ(r.rows[0][0].int_val(), 10);  // every cat has >= 2 items
}

TEST_F(EngineTest, InSubquery) {
  auto r = Exec(
      "select count(*) from items where cat in "
      "(select cat from cats where cname = 'cat2')");
  EXPECT_EQ(r.rows[0][0].int_val(), 20);
}

TEST_F(EngineTest, CorrelatedInSubquery) {
  auto r = Exec(
      "select count(*) from cats c where c.cat in "
      "(select i.cat from items i where i.id = c.cat + 1)");
  // id = cat+1, item id c+1 has cat (c+1)%5 == c+1 mod 5; equals c only if
  // impossible => c+1 ≡ c (mod 5) never. Actually cat of item id=k is k%5,
  // so need (c+1)%5 == c => never. Expect 0.
  EXPECT_EQ(r.rows[0][0].int_val(), 0);
}

TEST_F(EngineTest, DeleteRemovesRows) {
  auto r = Exec("delete from items where id > 90");
  EXPECT_EQ(r.stats.rows_affected, 10u);
  EXPECT_EQ(Exec("select count(*) from items").rows[0][0].int_val(), 90);

  // Grow the table to many pages, so a clustered-key predicate has a
  // range worth taking, then delete by key BETWEEN and by key
  // equality. Each delete removes exactly the rows a SELECT with its
  // WHERE returns; the equality reads only the pages of its key range.
  auto items = db_->catalog()->GetTable("items");
  ASSERT_TRUE(items.ok());
  std::vector<Row> more;
  for (int64_t i = 1000; i < 4000; ++i) {
    more.push_back({Value::Int(i), Value::Int(i % 5), Value::Double(i * 1.5),
                    Value::Date(10000), Value::Str(std::string(30, 'n'))});
  }
  ASSERT_TRUE((*items)->BulkLoad(std::move(more)).ok());
  ASSERT_GT((*items)->num_pages(), 8u);
  for (const std::string where : {"id between 1200 and 1450", "id = 2500"}) {
    SCOPED_TRACE(where);
    const QueryResult before = Exec("select id from items order by id");
    const QueryResult doomed =
        Exec("select id from items where " + where + " order by id");
    const Value key = Value::Int(2500);
    const auto [b, e] = (*items)->ClusteredRange(&key, true, &key, true);
    const size_t rpp = (*items)->rows_per_page();
    const uint64_t key_pages = (e - 1) / rpp - b / rpp + 1;

    const QueryResult del = Exec("delete from items where " + where);
    EXPECT_EQ(del.stats.rows_affected, doomed.rows.size());
    if (where == "id = 2500") {
      EXPECT_EQ(del.stats.rows_affected, 1u);
      EXPECT_EQ(del.stats.pages_cache + del.stats.pages_disk, key_pages);
    }
    std::vector<Row> expected;
    size_t d = 0;
    for (const Row& row : before.rows) {
      if (d < doomed.rows.size() && row[0].Compare(doomed.rows[d][0]) == 0) {
        ++d;
        continue;
      }
      expected.push_back(row);
    }
    EXPECT_EQ(Exec("select id from items order by id").rows, expected);
  }
}

TEST_F(EngineTest, UpdateChangesValues) {
  auto r = Exec("update items set price = price * 2 where id = 1");
  EXPECT_EQ(r.stats.rows_affected, 1u);
  auto q = Exec("select price from items where id = 1");
  EXPECT_DOUBLE_EQ(q.rows[0][0].double_val(), 3.0);

  // Through the secondary index on the non-key column cat: the update
  // reads the index positions and changes exactly the rows a SELECT
  // with its WHERE returns.
  Exec("set enable_seqscan = off");
  const QueryResult before = Exec("select id, price from items order by id");
  const QueryResult hit = Exec("select id from items where cat = 3");
  const QueryResult up =
      Exec("update items set price = price + 1 where cat = 3");
  Exec("set enable_seqscan = on");
  EXPECT_TRUE(up.stats.used_index_scan);
  EXPECT_EQ(up.stats.rows_affected, hit.rows.size());
  std::set<int64_t> hit_ids;
  for (const Row& row : hit.rows) hit_ids.insert(row[0].int_val());
  const QueryResult after = Exec("select id, price from items order by id");
  ASSERT_EQ(after.rows.size(), before.rows.size());
  for (size_t i = 0; i < after.rows.size(); ++i) {
    const Row& old_row = before.rows[i];
    const double bump = hit_ids.count(old_row[0].int_val()) ? 1.0 : 0.0;
    EXPECT_EQ(after.rows[i][0].int_val(), old_row[0].int_val());
    EXPECT_DOUBLE_EQ(after.rows[i][1].double_val(),
                     old_row[1].double_val() + bump);
  }
}

TEST_F(EngineTest, InsertThenQuery) {
  Exec("insert into items values (101, 1, 9.9, date '1998-01-01', 'new')");
  auto q = Exec("select note from items where id = 101");
  ASSERT_EQ(q.rows.size(), 1u);
  EXPECT_EQ(q.rows[0][0].str_val(), "new");
}

TEST_F(EngineTest, TransactionCounterAdvancesOnWrites) {
  uint64_t before = db_->transaction_counter();
  Exec("insert into items values (200, 0, 1.0, date '1998-01-01', 'x')");
  Exec("delete from items where id = 200");
  EXPECT_EQ(db_->transaction_counter(), before + 2);
  // SELECT does not advance it.
  Exec("select count(*) from items");
  EXPECT_EQ(db_->transaction_counter(), before + 2);
}

TEST_F(EngineTest, ExplicitTransactionCountsOnce) {
  uint64_t before = db_->transaction_counter();
  Exec("begin");
  Exec("insert into items values (201, 0, 1.0, date '1998-01-01', 'x')");
  Exec("insert into items values (202, 0, 1.0, date '1998-01-01', 'x')");
  EXPECT_EQ(db_->transaction_counter(), before);  // not yet committed
  Exec("commit");
  EXPECT_EQ(db_->transaction_counter(), before + 1);
}

TEST_F(EngineTest, EnableSeqscanOffForcesIndexPath) {
  // A very unselective range over the clustered key: the optimizer
  // would normally seq-scan; with enable_seqscan=off it must not.
  Exec("set enable_seqscan = off");
  auto r = Exec("select count(*) from items where id >= 1");
  EXPECT_FALSE(r.stats.used_seq_scan);
  EXPECT_TRUE(r.stats.used_index_scan);
  Exec("set enable_seqscan = on");
  auto r2 = Exec("select count(*) from items where id >= 1");
  EXPECT_EQ(r2.rows[0][0].int_val(), r.rows[0][0].int_val());
}

TEST(EngineStandaloneTest, BufferPoolCachingAcrossExecutions) {
  // Bulk-load through the storage API (no page touches), then scan
  // twice: cold first, all cache hits second.
  Database db(DatabaseOptions{.buffer_pool_pages = 1024});
  ASSERT_TRUE(db.Execute("create table big (id bigint not null, pad "
                         "varchar(100), primary key (id))")
                  .ok());
  auto table = db.catalog()->GetTable("big");
  ASSERT_TRUE(table.ok());
  std::vector<Row> rows;
  for (int64_t i = 0; i < 2000; ++i) {
    rows.push_back({Value::Int(i), Value::Str(std::string(100, 'x'))});
  }
  ASSERT_TRUE((*table)->BulkLoad(std::move(rows)).ok());

  auto r1 = db.Execute("select count(*) from big where id between 0 and 999");
  auto r2 = db.Execute("select count(*) from big where id between 0 and 999");
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_GT(r1->stats.pages_disk, 0u);
  EXPECT_EQ(r2->stats.pages_disk, 0u);
  EXPECT_GT(r2->stats.pages_cache, 0u);
}

// An INSERT dirties the page its row lands on. The clustered key puts
// this row on page 0, which the read before it made resident, so the
// insert hits the 1-page pool and page 0 stays resident for the next
// read.
TEST(EngineStandaloneTest, InsertChargesThePageTheRowLandsOn) {
  Database db(DatabaseOptions{.buffer_pool_pages = 1});
  ASSERT_TRUE(db.Execute("create table t (k bigint not null, pad "
                         "varchar(100), primary key (k))")
                  .ok());
  auto table = db.catalog()->GetTable("t");
  ASSERT_TRUE(table.ok());
  const std::string pad(100, 'x');
  std::vector<Row> rows;
  for (int64_t k = 0; k < 1000; ++k) {
    rows.push_back({Value::Int(k), Value::Str(pad)});
  }
  ASSERT_TRUE((*table)->BulkLoad(std::move(rows)).ok());
  ASSERT_GT((*table)->num_pages(), 1u);

  auto warm = db.Execute("select count(*) from t where k = 0");
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->stats.pages_disk, 1u);
  auto ins = db.Execute("insert into t values (1, '" + pad + "')");
  ASSERT_TRUE(ins.ok());
  EXPECT_EQ(ins->stats.pages_cache, 1u);
  EXPECT_EQ(ins->stats.pages_disk, 0u);
  auto again = db.Execute("select count(*) from t where k = 0");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->stats.pages_cache, 1u);
  EXPECT_EQ(again->stats.pages_disk, 0u);
}

TEST_F(EngineTest, ErrorsSurfaceAsStatus) {
  EXPECT_EQ(ExecStatus("select * from nope").code(), StatusCode::kNotFound);
  EXPECT_EQ(ExecStatus("select nope from items").code(),
            StatusCode::kBindError);
  EXPECT_EQ(ExecStatus("select id from items where id = ").code(),
            StatusCode::kParseError);
  EXPECT_EQ(ExecStatus("set nothing = 1").code(), StatusCode::kNotFound);
  EXPECT_EQ(ExecStatus("create table items (x bigint)").code(),
            StatusCode::kAlreadyExists);
}

TEST_F(EngineTest, DivisionByZeroError) {
  EXPECT_FALSE(ExecStatus("select id / (id - id) from items").ok());
}

TEST_F(EngineTest, SelectWithoutFrom) {
  auto r = Exec("select 1 + 2 as three");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].int_val(), 3);
}

// A FROM-less SELECT yields its one row only when every WHERE
// conjunct holds on it, the enclosing row's scope included.
TEST_F(EngineTest, SelectWithoutFromHonoursWhere) {
  EXPECT_EQ(Exec("select 1 where 1 = 0").rows.size(), 0u);
  auto one = Exec("select 1 where 1 = 1");
  ASSERT_EQ(one.rows.size(), 1u);
  EXPECT_EQ(one.rows[0][0].int_val(), 1);
  auto none = Exec("select count(*) where 1 = 0");
  ASSERT_EQ(none.rows.size(), 1u);
  EXPECT_EQ(none.rows[0][0].int_val(), 0);
  // cats 3 and 4 pass.
  const std::string correlated =
      "select count(*) from cats c where exists (select 1 where c.cat > 2)";
  auto r = Exec(correlated);
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].int_val(), 2);
  auto ref = db_->ExecuteReference(correlated);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  EXPECT_EQ(ref->rows[0][0].int_val(), 2);
}

TEST_F(EngineTest, ThreeWayJoin) {
  Exec(
      "create table tags (id bigint not null, tag varchar(8), "
      "primary key (id))");
  Exec("insert into tags values (1, 'hot'), (2, 'cold')");
  auto r = Exec(
      "select count(*) from items i, cats c, tags t "
      "where i.cat = c.cat and i.id = t.id");
  EXPECT_EQ(r.rows[0][0].int_val(), 2);
}

TEST_F(EngineTest, ScalarSubqueryUncorrelated) {
  auto r = Exec(
      "select count(*) from items where price > (select avg(price) "
      "from items)");
  // avg price = 75.75 * ... price = id*1.5, avg = 75.75; > avg =>
  // id*1.5 > 75.75 => id >= 51 => 50 rows.
  EXPECT_EQ(r.rows[0][0].int_val(), 50);
}

TEST_F(EngineTest, ScalarSubqueryCorrelated) {
  // Items cheaper than their category's average price.
  auto r = Exec(
      "select count(*) from items i where i.price < (select avg(i2.price) "
      "from items i2 where i2.cat = i.cat)");
  // Each cat has 20 evenly spaced prices: 10 are below the mean.
  EXPECT_EQ(r.rows[0][0].int_val(), 50);
}

TEST_F(EngineTest, ScalarSubqueryEmptyIsNull) {
  auto r = Exec(
      "select count(*) from items where price > (select price from items "
      "where id = 99999)");
  EXPECT_EQ(r.rows[0][0].int_val(), 0);  // NULL comparison never true
}

TEST_F(EngineTest, ScalarSubqueryMultiRowErrors) {
  EXPECT_FALSE(
      ExecStatus("select count(*) from items where price > "
                 "(select price from items where id < 3)")
          .ok());
}

TEST_F(EngineTest, ScalarSubqueryInSelectList) {
  auto r = Exec("select (select max(price) from items) as top from cats "
                "where cat = 0");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(r.rows[0][0].double_val(), 150.0);
}

TEST_F(EngineTest, OffsetSkipsRows) {
  auto r = Exec("select id from items order by id limit 5 offset 10");
  ASSERT_EQ(r.rows.size(), 5u);
  EXPECT_EQ(r.rows[0][0].int_val(), 11);
  EXPECT_EQ(r.rows[4][0].int_val(), 15);
  // Offset beyond the data is empty, not an error.
  auto r2 = Exec("select id from items order by id limit 5 offset 1000");
  EXPECT_TRUE(r2.rows.empty());
}

TEST_F(EngineTest, OffsetWithAggregation) {
  auto r = Exec(
      "select cat, count(*) from items group by cat order by cat "
      "limit 2 offset 3");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].int_val(), 3);
  EXPECT_EQ(r.rows[1][0].int_val(), 4);
}

TEST_F(EngineTest, ExplainReportsAccessPath) {
  auto r = Exec("explain select count(*) from items where cat = 3");
  ASSERT_GE(r.rows.size(), 3u);
  EXPECT_EQ(r.column_names[0], "plan");
  // First row names the scan; last row carries the stats line.
  EXPECT_NE(r.rows[0][0].str_val().find("items"), std::string::npos);
  EXPECT_NE(r.rows.back()[0].str_val().find("cpu_ops"),
            std::string::npos);
}

TEST_F(EngineTest, RollbackUndoesInsert) {
  Exec("begin");
  Exec("insert into items values (500, 1, 1.0, date '1998-01-01', 'r')");
  EXPECT_EQ(Exec("select count(*) from items where id = 500")
                .rows[0][0].int_val(), 1);
  Exec("rollback");
  EXPECT_EQ(Exec("select count(*) from items where id = 500")
                .rows[0][0].int_val(), 0);
  EXPECT_EQ(Exec("select count(*) from items").rows[0][0].int_val(), 100);
}

TEST_F(EngineTest, RollbackUndoesDelete) {
  Exec("begin");
  Exec("delete from items where id <= 10");
  EXPECT_EQ(Exec("select count(*) from items").rows[0][0].int_val(), 90);
  Exec("rollback");
  auto r = Exec("select count(*), sum(id) from items");
  EXPECT_EQ(r.rows[0][0].int_val(), 100);
  EXPECT_EQ(r.rows[0][1].int_val(), 5050);
}

TEST_F(EngineTest, RollbackUndoesUpdate) {
  Exec("begin");
  Exec("update items set price = 0.0, cat = 9 where id <= 5");
  Exec("rollback");
  auto r = Exec("select price, cat from items where id = 3");
  EXPECT_DOUBLE_EQ(r.rows[0][0].double_val(), 4.5);
  EXPECT_EQ(r.rows[0][1].int_val(), 3);
}

TEST_F(EngineTest, RollbackUndoesMixedStatementsInOrder) {
  Exec("begin");
  Exec("insert into items values (600, 0, 2.0, date '1998-01-01', 'a')");
  Exec("update items set price = 99.0 where id = 600");
  Exec("delete from items where id = 1");
  Exec("rollback");
  auto r = Exec("select count(*), sum(id) from items");
  EXPECT_EQ(r.rows[0][0].int_val(), 100);
  EXPECT_EQ(r.rows[0][1].int_val(), 5050);
  // And the transaction counter did not advance.
  Exec("select 1");
}

// A rejected INSERT or UPDATE leaves the table, the transaction
// counter and an open transaction exactly as they were: every new row
// is checked before the table changes.
TEST(EngineStandaloneTest, RejectedInsertOrUpdateChangesNothing) {
  Database db;
  ASSERT_TRUE(db.Execute("create table t (k bigint not null, v bigint not "
                         "null, primary key (k))")
                  .ok());
  ASSERT_TRUE(db.Execute("insert into t values (1, 10), (2, 20), (3, 30)")
                  .ok());
  const uint64_t counter = db.transaction_counter();
  auto expect_unchanged = [&](const char* after) {
    SCOPED_TRACE(after);
    auto r = db.Execute("select count(*), sum(v) from t");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->rows[0][0].int_val(), 3);
    EXPECT_EQ(r->rows[0][1].ToString(), "60");  // NULL once rows are lost
    EXPECT_EQ(db.transaction_counter(), counter);
  };

  EXPECT_EQ(db.Execute("update t set v = 'oops' where k >= 2").status().code(),
            StatusCode::kInvalidArgument);
  expect_unchanged("update to a wrongly typed value");
  EXPECT_EQ(db.Execute("update t set v = null").status().code(),
            StatusCode::kConstraintViolation);
  expect_unchanged("update of a NOT NULL column to NULL");
  EXPECT_EQ(db.Execute("insert into t values (4, 40), (5, 'bad')")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  expect_unchanged("insert whose second row is rejected");

  ASSERT_TRUE(db.Execute("begin").ok());
  EXPECT_FALSE(db.Execute("insert into t values (4, 40), (5, 'bad')").ok());
  ASSERT_TRUE(db.Execute("rollback").ok());
  expect_unchanged("rejected insert inside a rolled-back transaction");
}

TEST_F(EngineTest, CommitMakesChangesPermanent) {
  Exec("begin");
  Exec("insert into items values (700, 0, 2.0, date '1998-01-01', 'a')");
  Exec("commit");
  Exec("rollback");  // no-op: nothing open
  EXPECT_EQ(Exec("select count(*) from items where id = 700")
                .rows[0][0].int_val(), 1);
}

TEST_F(EngineTest, NotInPlainSubquery) {
  // Ids divisible by 10 have NULL notes; their cats are all 0.
  auto r = Exec(
      "select count(*) from items where cat not in "
      "(select cat from items where note is null)");
  EXPECT_EQ(r.rows[0][0].int_val(), 80);
}

TEST_F(EngineTest, NotInWithNullInMembershipSet) {
  // A NULL in the membership set makes NOT IN unknown for
  // non-members: zero rows survive.
  Exec("insert into items values (300, NULL, 1.0, date '1998-01-01', 'x')");
  auto r = Exec(
      "select count(*) from items where cat not in "
      "(select cat from items group by cat)");
  EXPECT_EQ(r.rows[0][0].int_val(), 0);
}

TEST_F(EngineTest, InSubqueryWithGroupedHaving) {
  // Membership set shaped by GROUP BY + HAVING (the TPC-H Q18 shape):
  // categories with total price above a threshold.
  // Per-cat price sums: cat c sums 1.5*(ids ≡ c mod 5):
  // cat0=1575, cat1=1455, cat2=1485, cat3=1515, cat4=1545.
  auto r = Exec(
      "select count(*) from items where cat in "
      "(select cat from items group by cat having sum(price) > 1500)");
  EXPECT_EQ(r.rows[0][0].int_val(), 60);  // cats 0, 3, 4 -> 3*20 items
}

TEST_F(EngineTest, NotInSubqueryWithAggregate) {
  auto r = Exec(
      "select count(*) from items where cat not in "
      "(select cat from items group by cat having sum(price) > 1500)");
  EXPECT_EQ(r.rows[0][0].int_val(), 40);
}

TEST_F(EngineTest, InSubqueryWithDistinctAndLimit) {
  // DISTINCT and LIMIT shape the membership set too.
  auto r = Exec(
      "select count(*) from items where cat in "
      "(select distinct cat from items order by cat limit 2)");
  EXPECT_EQ(r.rows[0][0].int_val(), 40);  // cats 0 and 1
}

TEST_F(EngineTest, ExistsWithGroupedHaving) {
  auto r = Exec(
      "select count(*) from cats c where exists "
      "(select i.cat from items i where i.cat = c.cat group by i.cat "
      "having sum(i.price) > 1500)");
  EXPECT_EQ(r.rows[0][0].int_val(), 3);
}

TEST_F(EngineTest, JoinOnExpressionKeys) {
  // Equality between computed expressions still hash-joins.
  auto r = Exec(
      "select count(*) from items i, cats c where i.cat + 0 = c.cat + 0");
  EXPECT_EQ(r.rows[0][0].int_val(), 100);
}

TEST_F(EngineTest, EmptyBetweenRange) {
  auto r = Exec("select count(*) from items where id between 50 and 40");
  EXPECT_EQ(r.rows[0][0].int_val(), 0);
}

TEST_F(EngineTest, OrderByPutsNullsFirst) {
  auto r = Exec("select note from items order by note limit 1");
  EXPECT_TRUE(r.rows[0][0].is_null());
}

TEST_F(EngineTest, DateArithmeticAtRuntime) {
  // date column + integer days evaluates per row.
  auto r = Exec(
      "select count(*) from items where sold + 30 > date '1997-12-01'");
  EXPECT_GT(r.rows[0][0].int_val(), 0);
  auto r2 = Exec(
      "select count(*) from items where sold - 400 > date '1997-12-01'");
  EXPECT_EQ(r2.rows[0][0].int_val(), 0);
}

TEST_F(EngineTest, MinMaxOverDates) {
  auto r = Exec("select min(sold), max(sold) from items");
  EXPECT_EQ(r.rows[0][0].type(), ValueType::kDate);
  EXPECT_LE(r.rows[0][0].Compare(r.rows[0][1]), 0);
}

TEST_F(EngineTest, GroupByExpression) {
  auto r = Exec(
      "select cat * 2, count(*) from items group by cat * 2 order by 1");
  ASSERT_EQ(r.rows.size(), 5u);
  EXPECT_EQ(r.rows[4][0].int_val(), 8);
  EXPECT_EQ(r.rows[4][1].int_val(), 20);
}

TEST_F(EngineTest, HavingWithoutAggregateInSelect) {
  // HAVING may use aggregates absent from the select list.
  auto r = Exec(
      "select cat from items group by cat having max(price) > 147.5");
  // Per-cat max prices: 150, 144, 145.5, 147, 148.5 -> cats 0 and 4.
  ASSERT_EQ(r.rows.size(), 2u);
}

TEST_F(EngineTest, DistinctAggInGroupBy) {
  auto r = Exec(
      "select cat, count(distinct note) from items group by cat "
      "order by cat");
  ASSERT_EQ(r.rows.size(), 5u);
  // Per cat: 20 items, 2 NULL notes (ids ≡ 0 mod 10 land in cat 0).
  // cat 0 has ids 5,10,...,100: NULL notes at 10,20,...  -> distinct
  // count 10; other cats have 20 distinct notes.
  EXPECT_EQ(r.rows[1][1].int_val(), 20);
}

TEST(EvalTest, TruthinessAndLike) {
  EXPECT_EQ(Truthiness(Value::Null()), -1);
  EXPECT_EQ(Truthiness(Value::Int(0)), 0);
  EXPECT_EQ(Truthiness(Value::Int(7)), 1);
  EXPECT_TRUE(LikeMatch("PROMO BRUSHED", "PROMO%"));
  EXPECT_TRUE(LikeMatch("abc", "a_c"));
  EXPECT_TRUE(LikeMatch("abc", "%"));
  EXPECT_TRUE(LikeMatch("", "%"));
  EXPECT_FALSE(LikeMatch("abc", "a_d"));
  EXPECT_TRUE(LikeMatch("xayb", "%a%b"));
  EXPECT_FALSE(LikeMatch("ab", "a_b"));
}

TEST(EngineStandaloneTest, NullComparisonSemantics) {
  Database db;
  ASSERT_TRUE(db.Execute("create table t (a bigint, b bigint)").ok());
  ASSERT_TRUE(db.Execute("insert into t values (1, NULL)").ok());
  // NULL comparisons are never true in WHERE.
  auto r = db.Execute("select count(*) from t where b = 0 or b <> 0");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].int_val(), 0);
  auto r2 = db.Execute("select count(*) from t where b is null");
  EXPECT_EQ(r2->rows[0][0].int_val(), 1);
}

TEST(EngineStandaloneTest, AvgIntDivisionIsExact) {
  Database db;
  ASSERT_TRUE(db.Execute("create table t (a bigint)").ok());
  ASSERT_TRUE(db.Execute("insert into t values (1), (2)").ok());
  auto r = db.Execute("select avg(a) from t");
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->rows[0][0].double_val(), 1.5);
}

}  // namespace
}  // namespace apuama::engine
