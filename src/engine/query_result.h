// Result of executing one statement.
#ifndef APUAMA_ENGINE_QUERY_RESULT_H_
#define APUAMA_ENGINE_QUERY_RESULT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "engine/exec_stats.h"
#include "types/schema.h"

namespace apuama::engine {

/// Quality metadata for approximate answers. `is_approx` false (the
/// default) means the result is exact; everything else is only
/// meaningful when it is true. The result cache reads this to tag
/// entries so an approximate answer is never served to an exact
/// query.
struct ApproxInfo {
  bool is_approx = false;
  double sample_ratio = 0.0;      // scramble rows / base rows
  double coverage = 0.0;          // fraction of the scramble scanned
  double error_target = 0.0;      // requested relative half-width (0 = none)
  double max_rel_half_width = 0.0;  // worst observed CI half-width / |est|
  int64_t seed = 0;               // sample_seed the scramble was built with
  uint64_t subqueries_skipped = 0;  // early-exit: sub-queries not merged
  /// True when the client asked for an exact answer but the admission
  /// gate's overload ladder ran it as APPROX instead. The client can
  /// retry later for an exact answer.
  bool degraded = false;
};

/// The per-read facts EXPLAIN ANALYZE prints besides `stats` and
/// `approx`. Each layer a read crosses stamps only the facts it owns:
/// the engine's read router the path, elapsed time and engine state,
/// its dispatcher the barrier, sub-query and composition timings, the
/// controller its admission facts. A fact a path never measures reads
/// 0. Only the thread that returns the result writes it.
struct QueryProfile {
  const char* path = "node";  // node, passthrough, svp, avp or approx
  int64_t elapsed_us = 0;     // the engine's read router, or the node
  int64_t barrier_wait_us = 0;
  uint64_t subqueries = 0;  // tasks dispatched (AVP: chunks)
  int64_t subquery_min_us = 0;
  int64_t subquery_max_us = 0;
  uint64_t retries = 0;  // failover resubmissions
  int64_t compose_us = 0;
  uint64_t partial_rows = 0;
  uint64_t output_rows = 0;
  uint64_t exchange_bytes = 0;
  uint64_t fragments_pruned = 0;  // intervals outside the predicate
  bool result_cache_on = false;
  bool share_scans_on = false;
  uint64_t write_fanout = 0;  // nodes the latest logical write touched
  int64_t admission_wait_us = 0;  // controller: backend acquire
  int64_t queue_wait_us = 0;      // controller: admission queue
  uint64_t shed = 0;  // controller-wide reads shed or cancelled so far
};

/// Rows + column names for SELECTs; rows_affected for DML; stats for
/// everything. This is what travels back over a Connection.
struct QueryResult {
  std::vector<std::string> column_names;
  std::vector<Row> rows;
  ExecStats stats;
  ApproxInfo approx;
  QueryProfile profile;

  size_t num_rows() const { return rows.size(); }
  size_t num_columns() const { return column_names.size(); }

  /// Tab-separated rendering (examples / debugging).
  std::string ToString(size_t max_rows = 20) const;
};

/// Replaces `result`'s columns and rows with the EXPLAIN ANALYZE table
/// (level, metric, value): the same rows in the same order on every
/// path, rendered from `profile`, `stats` and `approx`. Those three
/// stay, so a layer above can stamp its own facts and render again.
void RenderAnalyze(QueryResult* result);

}  // namespace apuama::engine

#endif  // APUAMA_ENGINE_QUERY_RESULT_H_
