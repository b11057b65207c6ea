// Robustness sweeps: the SQL front-end must never crash — random
// byte soup, random token soup, and truncations of valid queries all
// return ParseError (or parse cleanly), never UB.
#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "apuama/share/query_fingerprint.h"
#include "common/rng.h"
#include "engine/database.h"
#include "sql/parser.h"
#include "sql/unparse.h"
#include "tests/test_util.h"
#include "tpch/queries.h"

namespace apuama::sql {
namespace {

TEST(ParserFuzz, RandomBytesNeverCrash) {
  Rng rng(0xF00D);
  for (int i = 0; i < 2000; ++i) {
    size_t len = static_cast<size_t>(rng.Uniform(0, 80));
    std::string s;
    for (size_t k = 0; k < len; ++k) {
      s += static_cast<char>(rng.Uniform(32, 126));
    }
    auto r = Parse(s);  // must not crash; errors are fine
    (void)r;
  }
}

TEST(ParserFuzz, RandomTokenSoupNeverCrashes) {
  static const char* kTokens[] = {
      "select", "from",  "where", "and",   "or",    "not",   "(",
      ")",      ",",     "*",     "+",     "-",     "/",     "=",
      "<",      ">",     "<=",    ">=",    "<>",    "1",     "2.5",
      "'s'",    "a",     "b",     "t",     "group", "by",    "order",
      "limit",  "in",    "like",  "between", "exists", "case", "when",
      "then",   "else",  "end",   "null",  "is",    "date",  "sum",
      "count",  "insert", "into", "values", "delete", "update", "set",
  };
  Rng rng(0xBEEF);
  for (int i = 0; i < 3000; ++i) {
    int len = static_cast<int>(rng.Uniform(1, 25));
    std::string s;
    for (int k = 0; k < len; ++k) {
      s += kTokens[rng.Uniform(0, 47)];
      s += ' ';
    }
    auto r = Parse(s);
    (void)r;
  }
}

TEST(ParserFuzz, TruncationsOfValidQueriesNeverCrash) {
  for (int q : tpch::PaperQueryNumbers()) {
    std::string sql = *tpch::QuerySql(q);
    for (size_t len = 0; len < sql.size(); len += 7) {
      auto r = Parse(sql.substr(0, len));
      (void)r;
    }
  }
}

TEST(ParserFuzz, MutationsOfValidQueriesNeverCrash) {
  Rng rng(0xCAFE);
  std::string sql = *tpch::QuerySql(21);
  for (int i = 0; i < 500; ++i) {
    std::string mutated = sql;
    int nmut = static_cast<int>(rng.Uniform(1, 5));
    for (int m = 0; m < nmut; ++m) {
      size_t pos = static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(mutated.size()) - 1));
      mutated[pos] = static_cast<char>(rng.Uniform(32, 126));
    }
    auto r = Parse(mutated);
    (void)r;
  }
}

TEST(ParserFuzz, DeeplyNestedParensBounded) {
  // Recursive-descent depth: make sure a few hundred levels survive
  // (the engine never needs more; pathological inputs error out or
  // parse without smashing the stack).
  std::string open(200, '(');
  std::string close(200, ')');
  auto r = Parse("select " + open + "1" + close + " from t");
  EXPECT_TRUE(r.ok());
}

TEST(EngineFuzz, RandomStatementsAgainstRealSchema) {
  // Statements that parse must execute or fail cleanly — no crashes,
  // no engine corruption (the table stays queryable).
  engine::Database db;
  ASSERT_TRUE(
      db.Execute("create table t (a bigint not null, b double, "
                 "c varchar(8), primary key (a))")
          .ok());
  ASSERT_TRUE(db.Execute("insert into t values (1, 1.5, 'x'), "
                         "(2, 2.5, 'y'), (3, NULL, NULL)")
                  .ok());
  static const char* kStatements[] = {
      "select a from t where b > c",      // type error at eval
      "select sum(c) from t",             // sum over strings
      "select a from t group by b",       // non-grouped output
      "select a from t order by 99",      // bad ordinal (falls back)
      "select * from t where a / 0 = 1",  // division by zero
      "select t.a, u.a from t, t u where t.a = u.a",
      "select a from t where c like 'x%' or b is null",
      "update t set a = a where a = 1",
      "delete from t where c = 'nope'",
      "select count(*) from t where a in (select a from t)",
  };
  for (const char* s : kStatements) {
    auto r = db.Execute(s);
    (void)r;  // any Status is acceptable; crashing is not
  }
  auto sanity = db.Execute("select count(*) from t");
  ASSERT_TRUE(sanity.ok());
  EXPECT_GE(sanity->rows[0][0].int_val(), 2);
}

// Row/column agreement sweep: random numeric predicates and
// aggregate lists over a randomly generated table (with NULLs and
// int-typed values hiding in the double column, the promotion edge
// case) must match the sequential row executor in types and values,
// and be bit-identical at 1 and 8 threads.
TEST(EngineFuzz, ColumnarAgreesWithRowPathOnRandomPredicates) {
  Rng rng(0xC01A);
  engine::Database db(engine::DatabaseOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(
      db.Execute("create table f (a int, b int, c double, g int)").ok());
  for (int i = 0; i < 3000; ++i) {
    std::string a = rng.Bernoulli(0.04)
                        ? "null"
                        : std::to_string(rng.Uniform(-1000, 1000));
    std::string c;
    if (rng.Bernoulli(0.04)) {
      c = "null";
    } else if (rng.Bernoulli(0.2)) {
      c = std::to_string(rng.Uniform(-500, 500));  // int in a double col
    } else {
      c = std::to_string(rng.UniformDouble(-500.0, 500.0));
    }
    ASSERT_TRUE(db.Execute("insert into f values (" + a + ", " +
                           std::to_string(rng.Uniform(0, 100)) + ", " + c +
                           ", " + std::to_string(rng.Uniform(0, 40)) + ")")
                    .ok());
  }
  static const char* kOperands[] = {"a",     "b",     "c",     "g",
                                    "a + b", "c * 2", "b - a", "a * a"};
  static const char* kCmps[] = {"<", "<=", ">", ">=", "=", "<>"};
  static const char* kAggs[] = {"count(*)",   "count(a)", "sum(a)",
                                "sum(c)",     "avg(c)",   "min(b)",
                                "max(c)",     "sum(a + b)", "avg(b * c)",
                                "min(c)",     "max(a)",   "sum(b)"};
  auto operand = [&] { return std::string(kOperands[rng.Uniform(0, 7)]); };
  for (int iter = 0; iter < 120; ++iter) {
    std::string aggs;
    const int na = static_cast<int>(rng.Uniform(1, 4));
    for (int i = 0; i < na; ++i) {
      if (!aggs.empty()) aggs += ", ";
      aggs += kAggs[rng.Uniform(0, 11)];
    }
    std::string where;
    const int np = static_cast<int>(rng.Uniform(0, 3));
    for (int i = 0; i < np; ++i) {
      where += where.empty() ? " where " : " and ";
      if (rng.Bernoulli(0.25)) {
        where += operand() + " between " + std::to_string(rng.Uniform(-900, 0)) +
                 " and " + std::to_string(rng.Uniform(1, 900));
      } else {
        where += operand() + " " + kCmps[rng.Uniform(0, 5)] + " " +
                 std::to_string(rng.Uniform(-400, 400));
      }
    }
    const bool grouped = rng.Bernoulli(0.5);
    std::string sql = grouped ? "select g, " + aggs + " from f" + where +
                                    " group by g order by g"
                              : "select " + aggs + " from f" + where;
    SCOPED_TRACE(sql);
    auto row = db.ExecuteReference(sql);
    ASSERT_TRUE(row.ok()) << row.status().ToString();
    ASSERT_TRUE(db.Execute("set exec_threads = 1").ok());
    auto col = db.Execute(sql);
    ASSERT_TRUE(col.ok()) << col.status().ToString();
    testutil::ExpectMatchesReference(*row, *col);
    ASSERT_TRUE(db.Execute("set exec_threads = 8").ok());
    auto par = db.Execute(sql);
    ASSERT_TRUE(par.ok()) << par.status().ToString();
    testutil::ExpectResultsIdentical(*col, *par);
  }
}

// Dictionary-encoded string predicates: random equality / IN / range /
// LIKE predicates over a NULL-heavy string column (empty strings,
// duplicates, shared prefixes) must match the sequential row executor
// and be bit-identical at several thread counts — both for aggregates
// (dict predicate kernels) and for joins (vectorized probe, including
// a dictionary-coded string join key).
TEST(EngineFuzz, DictStringPredicatesAgreeWithRowPath) {
  Rng rng(0xD1C7);
  engine::Database db(engine::DatabaseOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(
      db.Execute("create table s (k int, v varchar(16), g int)").ok());
  ASSERT_TRUE(db.Execute("create table d (id int, name varchar(16))").ok());
  static const char* kPool[] = {"",     "alpha", "alpha", "beta", "gamma",
                                "delta", "del",  "zz",    "Z",    "a%b"};
  auto pick_string = [&]() -> std::string {
    if (rng.Bernoulli(0.7)) return kPool[rng.Uniform(0, 9)];
    std::string s;
    const int len = static_cast<int>(rng.Uniform(0, 4));
    for (int i = 0; i < len; ++i) {
      s += static_cast<char>('a' + rng.Uniform(0, 25));
    }
    return s;
  };
  for (int i = 0; i < 2500; ++i) {
    // NULL-heavy: a third of the dictionary column is NULL.
    const std::string v =
        rng.Bernoulli(0.33) ? "null" : "'" + pick_string() + "'";
    ASSERT_TRUE(db.Execute("insert into s values (" +
                           std::to_string(rng.Uniform(0, 400)) + ", " + v +
                           ", " + std::to_string(rng.Uniform(0, 20)) + ")")
                    .ok());
  }
  for (int i = 0; i < 30; ++i) {
    const std::string name =
        rng.Bernoulli(0.15) ? "null" : "'" + pick_string() + "'";
    ASSERT_TRUE(db.Execute("insert into d values (" + std::to_string(i) +
                           ", " + name + ")")
                    .ok());
  }
  static const char* kCmps[] = {"=", "<>", "<", "<=", ">", ">="};
  auto string_pred = [&]() -> std::string {
    switch (rng.Uniform(0, 4)) {
      case 0:  // comparison (dict range kernel)
        return "v " + std::string(kCmps[rng.Uniform(0, 5)]) + " '" +
               pick_string() + "'";
      case 1: {  // IN / NOT IN (dict set kernel), maybe with NULL item
        std::string list;
        const int n = static_cast<int>(rng.Uniform(1, 4));
        for (int i = 0; i < n; ++i) {
          if (!list.empty()) list += ", ";
          list += rng.Bernoulli(0.15) ? std::string("null")
                                      : "'" + pick_string() + "'";
        }
        return std::string("v ") + (rng.Bernoulli(0.3) ? "not in" : "in") +
               " (" + list + ")";
      }
      case 2:  // BETWEEN (dict range kernel)
        return "v between '" + pick_string() + "' and '" + pick_string() +
               "'";
      default:  // LIKE stays on the row-wise fallback
        return std::string("v ") +
               (rng.Bernoulli(0.3) ? "not like" : "like") + " '" +
               (rng.Bernoulli(0.5) ? "%" : "") + pick_string() +
               (rng.Bernoulli(0.5) ? "%" : "") + "'";
    }
  };
  for (int iter = 0; iter < 50; ++iter) {
    std::string where = " where " + string_pred();
    if (rng.Bernoulli(0.4)) where += " and " + string_pred();
    if (rng.Bernoulli(0.4)) {
      where += " and k > " + std::to_string(rng.Uniform(0, 300));
    }
    std::string sql;
    switch (iter % 3) {
      case 0:  // aggregate: dict predicate kernels
        sql = "select g, count(*), count(v), sum(k) from s" + where +
              " group by g order by g";
        break;
      case 1:  // int-keyed join: vectorized probe over a filtered driver
        sql = "select count(*), sum(s.k) from s, d where s.g = d.id and " +
              where.substr(7);
        break;
      default:  // string-keyed join: dictionary-coded key lane
        sql = "select count(*), sum(s.k) from s, d where s.v = d.name and " +
              where.substr(7);
        break;
    }
    // Row-executor baseline, then the morsel pipelines at several
    // thread counts: equal to it, and bit-identical to each other.
    SCOPED_TRACE(sql);
    auto ref = db.ExecuteReference(sql);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    ASSERT_TRUE(db.Execute("set exec_threads = 1").ok());
    auto base = db.Execute(sql);
    ASSERT_TRUE(base.ok()) << base.status().ToString();
    testutil::ExpectMatchesReference(*ref, *base);
    for (int threads : {2, 8}) {
      ASSERT_TRUE(
          db.Execute("set exec_threads = " + std::to_string(threads)).ok());
      auto got = db.Execute(sql);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      SCOPED_TRACE("threads=" + std::to_string(threads));
      testutil::ExpectResultsIdentical(*base, *got);
    }
  }
}

// Correlated-subquery sweep: seeded random aggregates with EXISTS /
// NOT EXISTS / IN conjuncts over an inner table clustered on (k, seq)
// with duplicate keys and empty key ranges, from one- and two-table
// outer blocks with NULL-heavy, skewed keys, random inner-only
// conjuncts and residuals. Each must match the row executor and be
// bit-identical at 1, 2 and 8 threads. A query whose every subquery
// correlates on the leading clustered-key column runs as morsel steps
// (morsels > 0, at least half of the sweep); one correlated on a
// non-key column stays on the row executor (morsels == 0).
TEST(EngineFuzz, CorrelatedSubqueriesMatchTheRowExecutor) {
  Rng rng(0x5E41);
  engine::Database db(engine::DatabaseOptions{.buffer_pool_pages = 0});
  ASSERT_TRUE(db.Execute("create table inr (k int not null, seq int not "
                         "null, v int, w double, tag varchar(4), "
                         "primary key (k, seq))")
                  .ok());
  ASSERT_TRUE(db.Execute("create table o1 (id int, fk int, x int, g int)")
                  .ok());
  ASSERT_TRUE(
      db.Execute("create table o2 (id2 int not null, y int, g2 int, "
                 "primary key (id2))")
          .ok());
  auto maybe_null = [&](double p, const std::string& v) {
    return rng.Bernoulli(p) ? std::string("null") : v;
  };
  // Keys 0..119: about a third own no rows, the rest 1-6 rows each.
  for (int k = 0; k < 120; ++k) {
    if (rng.Bernoulli(0.33)) continue;
    const int dup = static_cast<int>(rng.Uniform(1, 6));
    for (int seq = 0; seq < dup; ++seq) {
      static const char* kTags[] = {"a", "b", "", "zz"};
      ASSERT_TRUE(
          db.Execute("insert into inr values (" + std::to_string(k) + ", " +
                     std::to_string(seq) + ", " +
                     maybe_null(0.1, std::to_string(rng.Uniform(0, 20))) +
                     ", " +
                     maybe_null(0.1, std::to_string(rng.UniformDouble(0, 50))) +
                     ", " +
                     maybe_null(0.1, std::string("'") +
                                         kTags[rng.Uniform(0, 3)] + "'") +
                     ")")
              .ok());
    }
  }
  // Outer keys: 30% NULL, half of the rest in 0..4 (skew), the others
  // spread past the inner key range.
  for (int i = 0; i < 2600; ++i) {
    const std::string fk = maybe_null(
        0.3, std::to_string(rng.Bernoulli(0.5) ? rng.Uniform(0, 4)
                                               : rng.Uniform(0, 150)));
    ASSERT_TRUE(db.Execute("insert into o1 values (" + std::to_string(i) +
                           ", " + fk + ", " +
                           maybe_null(0.1, std::to_string(rng.Uniform(0, 60))) +
                           ", " + std::to_string(rng.Uniform(0, 6)) + ")")
                    .ok());
  }
  for (int i = 0; i < 60; ++i) {
    const std::string y =
        maybe_null(0.3, std::to_string(rng.Uniform(0, 130)));
    ASSERT_TRUE(db.Execute("insert into o2 values (" + std::to_string(i) +
                           ", " + y + ", " +
                           std::to_string(rng.Uniform(0, 3)) + ")")
                    .ok());
  }

  // Inner-only conjuncts; '@' stands for the inner binding.
  static const char* kInnerOnly[] = {
      "@.v < 12", "@.w > 20.5", "@.tag = 'a'", "@.seq >= 1", "1 = 1",
      "@.v <> @.seq", "@.tag is not null", "@.k > 30"};
  int ran_steps = 0, key_queries = 0;
  const int kQueries = 160;
  for (int iter = 0; iter < kQueries; ++iter) {
    const bool two_tables = rng.Bernoulli(0.4);
    // Outer columns the subqueries may correlate with.
    const std::string key = two_tables && rng.Bernoulli(0.5) ? "o2.y"
                            : rng.Bernoulli(0.15)            ? "o1.fk * 1.0"
                                                             : "o1.fk";
    const std::string other = two_tables ? "o2.g2" : "o1.x";
    bool all_key = true;
    std::string where;
    const int nsub = static_cast<int>(rng.Uniform(1, 2));
    for (int sq = 0; sq < nsub; ++sq) {
      const std::string b = "i" + std::to_string(sq);
      const bool on_key = !rng.Bernoulli(0.2);
      all_key = all_key && on_key;
      std::vector<std::string> conj;
      std::string head;
      switch (rng.Uniform(0, 2)) {
        case 0:
        case 1:
          head = rng.Bernoulli(0.5) ? "exists" : "not exists";
          conj.push_back(b + (on_key ? ".k = " : ".v = ") + key);
          break;
        default:
          // IN: the pair is (key, k) on a key, (key, v) off it.
          head = key + " in";
          break;
      }
      if (rng.Bernoulli(0.25)) conj.push_back(b + ".seq = o1.g");
      if (rng.Bernoulli(0.2)) conj.push_back(b + ".v = " + other);
      const int ninner = static_cast<int>(rng.Uniform(0, 2));
      for (int n = 0; n < ninner; ++n) {
        std::string c = kInnerOnly[rng.Uniform(0, 7)];
        for (size_t at = c.find('@'); at != std::string::npos;
             at = c.find('@')) {
          c.replace(at, 1, b);
        }
        conj.push_back(c);
      }
      if (rng.Bernoulli(0.4)) {
        conj.push_back(rng.Bernoulli(0.5) ? b + ".v <> " + other
                                          : b + ".w > " + other);
      }
      rng.Shuffle(&conj);
      std::string sub = head == key + " in"
                            ? "(select " + b + (on_key ? ".k" : ".v") +
                                  " from inr " + b
                            : "(select * from inr " + b;
      for (size_t c = 0; c < conj.size(); ++c) {
        sub += (c == 0 ? " where " : " and ") + conj[c];
      }
      where += (where.empty() ? "" : " and ") + head + " " + sub + ")";
    }
    if (rng.Bernoulli(0.5)) {
      where = "o1.x < " + std::to_string(rng.Uniform(5, 60)) + " and " + where;
    }
    const std::string from =
        two_tables ? " from o1, o2 where o1.g = o2.id2 and "
                   : " from o1 where ";
    const std::string sql =
        rng.Bernoulli(0.5)
            ? "select count(*), sum(o1.x), min(o1.id)" + from + where
            : "select o1.g, count(*), max(o1.x)" + from + where +
                  " group by o1.g order by o1.g";
    SCOPED_TRACE(sql);
    auto ref = db.ExecuteReference(sql);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    std::optional<engine::QueryResult> base;
    for (int threads : {1, 2, 8}) {
      ASSERT_TRUE(
          db.Execute("set exec_threads = " + std::to_string(threads)).ok());
      auto got = db.Execute(sql);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      SCOPED_TRACE("threads=" + std::to_string(threads));
      testutil::ExpectMatchesReference(*ref, *got);
      if (base.has_value()) {
        testutil::ExpectResultsIdentical(*base, *got);
      } else {
        base = std::move(got).value();
      }
    }
    if (all_key) {
      ++key_queries;
      ran_steps += base->stats.morsels > 0 ? 1 : 0;
      EXPECT_GT(base->stats.morsels, 0u);
    } else {
      EXPECT_EQ(base->stats.morsels, 0u);
    }
  }
  EXPECT_EQ(ran_steps, key_queries);
  EXPECT_GE(2 * ran_steps, kQueries);
}

TEST(UnparseFuzz, AllTpchQueriesRoundTrip) {
  std::vector<int> all = tpch::PaperQueryNumbers();
  for (int q : tpch::ExtendedQueryNumbers()) all.push_back(q);
  for (int q : all) {
    SCOPED_TRACE(testing::Message() << "Q" << q);
    auto p1 = ParseSelect(*tpch::QuerySql(q));
    ASSERT_TRUE(p1.ok()) << p1.status().ToString();
    std::string text1 = UnparseSelect(**p1);
    auto p2 = ParseSelect(text1);
    ASSERT_TRUE(p2.ok()) << text1;
    EXPECT_EQ(UnparseSelect(**p2), text1);
  }
}

TEST(UnparseFuzz, DmlRoundTrips) {
  for (const char* stmt : {
           "INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)",
           "DELETE FROM t WHERE (a < 5) AND (b IS NOT NULL)",
           "UPDATE t SET a = (a + 1), b = 'z' WHERE a = 3",
           "CREATE TABLE t (a BIGINT, b DOUBLE, c TEXT, d DATE, "
           "PRIMARY KEY (a))",
           "CREATE CLUSTERED INDEX i ON t (a, b)",
           "EXPLAIN SELECT a FROM t WHERE a = 1",
           "SET enable_seqscan = off",
           "ALTER TABLE t FRAGMENT BY HASH (a) INTO 4 REPLICA 2",
           "ALTER TABLE t FRAGMENT BY RANGE (a) INTO 3",
           "ALTER TABLE t UNFRAGMENT",
           "CREATE SAMPLE s ON t RATIO 0.01",
           "DROP SAMPLE s ON t",
       }) {
    auto p1 = Parse(stmt);
    ASSERT_TRUE(p1.ok()) << stmt << ": " << p1.status().ToString();
    std::string text1 = UnparseStmt(**p1);
    auto p2 = Parse(text1);
    ASSERT_TRUE(p2.ok()) << "re-parse failed: " << text1;
    EXPECT_EQ(UnparseStmt(**p2), text1);
  }
}

// The result cache keys on share::NormalizeSql: a collision between
// queries with different literals would serve one query's rows as
// the other's. Sweep randomized literal variations and require every
// distinct raw literal to yield a distinct fingerprint — and the
// fingerprint to be a fixed point of normalization.
TEST(FingerprintFuzz, DistinctLiteralsNeverCollide) {
  Rng rng(0xCAFE);
  std::set<std::string> raw_seen;
  std::set<std::string> fingerprints;
  for (int i = 0; i < 2000; ++i) {
    std::string sql = "SELECT   sum(V)  FROM t WHERE";
    switch (rng.Uniform(0, 2)) {
      case 0:
        sql += " a = " + std::to_string(rng.Uniform(0, 1'000'000));
        break;
      case 1: {
        std::string lit;
        size_t len = static_cast<size_t>(rng.Uniform(0, 12));
        for (size_t k = 0; k < len; ++k) {
          char c = static_cast<char>(rng.Uniform(32, 126));
          lit += c;
          if (c == '\'') lit += c;  // doubled-delimiter escape
        }
        sql += " b = '" + lit + "'";
        break;
      }
      default:
        sql += " c = " + std::to_string(rng.Uniform(0, 9999)) + "." +
               std::to_string(rng.Uniform(0, 99));
        break;
    }
    std::string fp = apuama::share::NormalizeSql(sql);
    EXPECT_EQ(apuama::share::NormalizeSql(fp), fp) << sql;
    bool fresh_raw = raw_seen.insert(sql).second;
    bool fresh_fp = fingerprints.insert(fp).second;
    // Same normalized text may legitimately recur (duplicate draw);
    // what must never happen is two DIFFERENT raw literals mapping to
    // one fingerprint — which is exactly a raw/fp set-size mismatch.
    EXPECT_EQ(fresh_raw, fresh_fp);
  }
  EXPECT_EQ(raw_seen.size(), fingerprints.size());
}

// Normalization itself must be total: any byte soup in, no crash,
// and idempotent out.
TEST(FingerprintFuzz, NormalizationTotalAndIdempotentOnByteSoup) {
  Rng rng(0xD00D);
  for (int i = 0; i < 2000; ++i) {
    size_t len = static_cast<size_t>(rng.Uniform(0, 120));
    std::string s;
    for (size_t k = 0; k < len; ++k) {
      s += static_cast<char>(rng.Uniform(1, 255));
    }
    std::string once = apuama::share::NormalizeSql(s);
    EXPECT_EQ(apuama::share::NormalizeSql(once), once);
  }
}

}  // namespace
}  // namespace apuama::sql
