// Rewrites an eligible APPROX SELECT onto its base table's scramble.
//
// Eligibility (anything else falls back to the exact path, which is
// never an error): a single-table SELECT whose select list mixes
// GROUP BY expressions with SUM / COUNT(*) / AVG aggregates, no
// DISTINCT, no HAVING, no subqueries, and an ORDER BY that addresses
// output columns only. The rewrite produces one *stats query* over
// the scramble whose select list carries the moments every estimator
// needs — group keys, per-aggregate sum(e) and sum(e*e), and one
// shared count(*) — all decomposable, so the stock SVP rewriter
// carves it into `__skey` range sub-queries whose partials the
// ordinary composition re-aggregates.
#ifndef APUAMA_APUAMA_APPROX_APPROX_REWRITER_H_
#define APUAMA_APUAMA_APPROX_APPROX_REWRITER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "apuama/approx/estimator.h"
#include "common/status.h"
#include "sql/ast.h"

namespace apuama::approx {

/// One rewritten aggregate of the original select list.
struct ApproxAggSpec {
  AggKind kind = AggKind::kSum;
  size_t item_index = 0;  // position in the original select list
  /// Column positions in the stats-query output row (-1 = unused;
  /// kCount uses only the shared count column).
  int sum_col = -1;
  int sumsq_col = -1;
};

/// The full rewrite product for one APPROX query.
struct ApproxQuerySpec {
  std::string base_table;    // lower-cased
  std::string sample_table;  // lower-cased
  /// The moments query over the scramble (exact SQL; the SVP layer
  /// adds the `__skey` range predicates per sub-query).
  std::string stats_sql;
  size_t num_group_cols = 0;  // stats columns 0..G-1 are group keys
  int count_col = -1;         // shared count(*) column position
  /// For each original select item: index into the stats row's group
  /// columns, or -1 when the item is an aggregate (see `aggs`).
  std::vector<int> item_to_group;
  std::vector<ApproxAggSpec> aggs;
  /// Output column names, mirroring exact execution's naming.
  std::vector<std::string> column_names;
  /// ORDER BY mapped to (output column slot, descending).
  std::vector<std::pair<int, bool>> order_by;
  int64_t limit = -1;
  int64_t offset = 0;
};

/// Builds the stats query for `query` over `sample_table`. Returns
/// Unsupported (with the reason) when the query is not eligible —
/// the caller falls back to exact execution.
Result<ApproxQuerySpec> BuildApproxQuery(const sql::SelectStmt& query,
                                         const std::string& base_table,
                                         const std::string& sample_table);

/// Cheap check: does `sql` start with the APPROX verb? Used on the
/// read hot path to skip the approximate tier without parsing.
bool StartsWithApproxVerb(const std::string& sql);

}  // namespace apuama::approx

#endif  // APUAMA_APUAMA_APPROX_APPROX_REWRITER_H_
