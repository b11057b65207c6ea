// Shared test helpers.
#ifndef APUAMA_TESTS_TEST_UTIL_H_
#define APUAMA_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/query_result.h"
#include "types/value.h"

namespace apuama::testutil {

/// Shared SET-knob validation check: every accepted value round-trips
/// and every rejected value fails InvalidArgument with a message that
/// names the knob and lists what it accepts ("expected ..."), so a
/// mistyped value teaches its own spelling. `exec` runs one SQL
/// statement on the system under test.
inline void ExpectKnobValidation(
    const std::function<Status(const std::string&)>& exec,
    const std::string& knob, const std::vector<std::string>& accepted,
    const std::vector<std::string>& rejected) {
  for (const auto& v : accepted) {
    Status s = exec("set " + knob + " = " + v);
    EXPECT_TRUE(s.ok()) << knob << " = " << v << ": " << s.ToString();
  }
  for (const auto& v : rejected) {
    Status s = exec("set " + knob + " = " + v);
    ASSERT_FALSE(s.ok()) << knob << " = " << v << " was accepted";
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
    EXPECT_NE(s.message().find(knob), std::string::npos)
        << "rejection does not name the knob: " << s.ToString();
    EXPECT_NE(s.message().find("expected"), std::string::npos)
        << "rejection does not list accepted values: " << s.ToString();
  }
}

inline bool ValuesClose(const Value& a, const Value& b, double tol = 1e-6) {
  if (a.is_null() || b.is_null()) return a.is_null() == b.is_null();
  if (a.type() == ValueType::kDouble || b.type() == ValueType::kDouble) {
    auto da = a.AsDouble();
    auto db = b.AsDouble();
    if (!da.ok() || !db.ok()) return false;
    double scale = std::max({1.0, std::fabs(*da), std::fabs(*db)});
    return std::fabs(*da - *db) <= tol * scale;
  }
  return a.Compare(b) == 0;
}

inline bool RowsClose(const Row& a, const Row& b, double tol = 1e-6) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!ValuesClose(a[i], b[i], tol)) return false;
  }
  return true;
}

/// Asserts two results are equal up to floating-point tolerance and
/// (optionally) row order. Rows are canonically sorted when
/// `ignore_order` — use for queries whose ORDER BY leaves ties.
inline void ExpectResultsEqual(const engine::QueryResult& expected,
                               const engine::QueryResult& actual,
                               bool ignore_order = false,
                               double tol = 1e-6) {
  ASSERT_EQ(expected.num_columns(), actual.num_columns());
  ASSERT_EQ(expected.num_rows(), actual.num_rows())
      << "expected:\n"
      << expected.ToString(8) << "actual:\n"
      << actual.ToString(8);
  std::vector<Row> e = expected.rows, a = actual.rows;
  if (ignore_order) {
    auto cmp = [](const Row& x, const Row& y) {
      for (size_t i = 0; i < std::min(x.size(), y.size()); ++i) {
        int c = x[i].Compare(y[i]);
        if (c != 0) return c < 0;
      }
      return x.size() < y.size();
    };
    std::sort(e.begin(), e.end(), cmp);
    std::sort(a.begin(), a.end(), cmp);
  }
  for (size_t i = 0; i < e.size(); ++i) {
    EXPECT_TRUE(RowsClose(e[i], a[i], tol))
        << "row " << i << " differs:\n expected: "
        << [&] {
             std::string s;
             for (const auto& v : e[i]) s += v.ToString() + "\t";
             return s;
           }()
        << "\n actual:   " << [&] {
             std::string s;
             for (const auto& v : a[i]) s += v.ToString() + "\t";
             return s;
           }();
  }
}

/// Asserts `actual` matches the sequential reference executor's result
/// (Database::ExecuteReference): same shape, same value type in every
/// cell, and values within ExpectResultsEqual tolerance — the morsel
/// pipelines sum doubles per morsel, so exact bits may differ.
inline void ExpectMatchesReference(const engine::QueryResult& reference,
                                   const engine::QueryResult& actual) {
  ExpectResultsEqual(reference, actual);
  if (reference.num_rows() != actual.num_rows()) return;
  for (size_t i = 0; i < reference.rows.size(); ++i) {
    for (size_t j = 0; j < reference.rows[i].size(); ++j) {
      EXPECT_EQ(reference.rows[i][j].type(), actual.rows[i][j].type())
          << "row " << i << " col " << j << ": reference "
          << reference.rows[i][j].ToString() << " actual "
          << actual.rows[i][j].ToString();
    }
  }
}

/// Asserts two results are bit-identical: same columns, same row
/// order, and every value has the same type and the same exact printed
/// representation (no floating-point tolerance — used by the
/// parallel-determinism tests, where "close" is not good enough).
inline void ExpectResultsIdentical(const engine::QueryResult& expected,
                                   const engine::QueryResult& actual) {
  ASSERT_EQ(expected.column_names, actual.column_names);
  ASSERT_EQ(expected.num_rows(), actual.num_rows())
      << "expected:\n"
      << expected.ToString(8) << "actual:\n"
      << actual.ToString(8);
  for (size_t i = 0; i < expected.rows.size(); ++i) {
    ASSERT_EQ(expected.rows[i].size(), actual.rows[i].size()) << "row " << i;
    for (size_t j = 0; j < expected.rows[i].size(); ++j) {
      const Value& e = expected.rows[i][j];
      const Value& a = actual.rows[i][j];
      EXPECT_TRUE(e.type() == a.type() &&
                  (e.is_null() || e.Compare(a) == 0) &&
                  e.ToString() == a.ToString())
          << "row " << i << " col " << j << ": expected " << e.ToString()
          << " (" << ValueTypeName(e.type()) << ") actual " << a.ToString()
          << " (" << ValueTypeName(a.type()) << ")";
    }
  }
}

/// The integer value of one (level, metric) row of an EXPLAIN ANALYZE
/// table; a missing row fails the test and reads -1.
inline int64_t AnalyzeMetric(const engine::QueryResult& r,
                             const std::string& level,
                             const std::string& metric) {
  for (const auto& row : r.rows) {
    if (row[0].str_val() == level && row[1].str_val() == metric) {
      auto v = row[2].AsInt();
      return v.ok() ? *v : 0;
    }
  }
  ADD_FAILURE() << "no analyze row " << level << "/" << metric;
  return -1;
}

}  // namespace apuama::testutil

#endif  // APUAMA_TESTS_TEST_UTIL_H_
