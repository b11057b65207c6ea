// Result Composer (paper Fig. 1(b)): merges intra-query partial
// results.
//
// The paper loads the partials into an embedded in-memory DBMS
// (HSQLDB) and runs the composition query there. Here the partial
// rows are held as one in-memory relation and the composition
// statement's aggregate or projection tail runs over it on the
// sequential row executor (Executor::ExecuteOverRelation) — the same
// code, and so the same aggregation, ordering and typing rules, as
// the single-node reference. One path serves every composition
// shape: re-aggregation, HAVING, DISTINCT and plain row unions.
//
// Composition is per query and holds no shared state, so N
// concurrent queries compose on N cores with no shared lock.
#ifndef APUAMA_APUAMA_RESULT_COMPOSER_H_
#define APUAMA_APUAMA_RESULT_COMPOSER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/eval.h"
#include "engine/exec_stats.h"
#include "engine/query_result.h"
#include "sql/ast.h"

namespace apuama {

struct CompositionStats {
  uint64_t partial_rows = 0;       // rows composed from all partials
  uint64_t output_rows = 0;
  engine::ExecStats compose_exec;  // cost of the composition
};

class ResultComposer {
 public:
  /// Parses `composition_sql` and composes `partials` with it — the
  /// entry point for callers that hold SQL text rather than a plan.
  /// Thread-safe (no shared state across calls).
  Result<engine::QueryResult> Compose(
      const std::vector<const engine::QueryResult*>& partials,
      const std::string& composition_sql, CompositionStats* stats);
};

/// Per-query composition fed as partials arrive: each partial's rows
/// move into the one relation the composition statement reads, and
/// Finish runs the statement over it. Partials fold in the order they
/// were added. Not thread-safe — the engine adds from its dispatching
/// thread only.
class StreamingComposition {
 public:
  /// `composition` is a constant-folded composition statement
  /// (SvpPlan::composition()).
  explicit StreamingComposition(
      std::shared_ptr<const sql::SelectStmt> composition);

  /// Accepts one partial result. Every partial must have the column
  /// count of the first, and no row may be shorter than that.
  Status Add(engine::QueryResult partial);

  /// Produces the final result with combined per-partial ExecStats
  /// plus composition cost folded in. Call once, after every Add.
  Result<engine::QueryResult> Finish(CompositionStats* stats);

  /// Wall time spent in Add and Finish, in microseconds.
  uint64_t compose_micros() const { return compose_micros_; }

 private:
  std::shared_ptr<const sql::SelectStmt> composition_;
  engine::Relation partials_;  // columns named by the first partial
  size_t num_partials_ = 0;
  engine::ExecStats combined_;  // accumulated per-partial stats
  uint64_t compose_micros_ = 0;
};

}  // namespace apuama

#endif  // APUAMA_APUAMA_RESULT_COMPOSER_H_
