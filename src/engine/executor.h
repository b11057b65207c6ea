// SELECT execution.
//
// The executor is interpretive and materializing: FROM tables are
// scanned through an access path chosen by a tiny cost model
// (sequential vs clustered-range vs secondary-index scan, honoring the
// `enable_seqscan` session flag Apuama toggles), joined with hash
// joins ordered greedily over equality predicates, then filtered,
// decorrelated-semi/anti-joined for EXISTS / IN subqueries, grouped,
// sorted, and projected. All page traffic flows through the node's
// buffer pool for the cost model.
#ifndef APUAMA_ENGINE_EXECUTOR_H_
#define APUAMA_ENGINE_EXECUTOR_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "engine/eval.h"
#include "engine/exec_stats.h"
#include "engine/query_result.h"
#include "sql/analyzer.h"
#include "sql/ast.h"
#include "storage/table.h"

namespace apuama::engine {

class Database;
/// One morsel's private group table and counters (executor.cc).
struct MorselPartial;
/// A `[NOT] EXISTS (...)` or `x IN (...)` WHERE conjunct run as a semi
/// or anti step of a morsel pipeline (executor.cc).
struct SemiStep;

/// Explains what access path a scan chose (tests / ablations).
enum class AccessPath { kSeqScan, kClusteredRange, kSecondaryIndex };
const char* AccessPathName(AccessPath p);

/// Reservation hint for join outputs: left*right, overflow-proof and
/// capped so a pathological cross join cannot over-allocate up front
/// (the vector still grows on demand past the hint).
size_t JoinReserveHint(size_t left, size_t right);

/// One executor per statement. Accumulates stats into `stats`.
class Executor {
 public:
  /// `sequential_only` keeps the statement and every subquery it
  /// evaluates on the sequential row executor, never entering a morsel
  /// pipeline: the reference oracle behind Database::ExecuteReference.
  Executor(Database* db, ExecStats* stats, bool sequential_only = false)
      : db_(db), stats_(stats), sequential_only_(sequential_only) {}

  struct FromBinding;

  /// Runs a SELECT to completion. `outer` carries the enclosing
  /// row scope when this select is a correlated scalar subquery.
  Result<QueryResult> ExecuteSelect(const sql::SelectStmt& stmt,
                                    const EvalScope* outer = nullptr);

  /// Evaluates a scalar subquery: NULL on zero rows, its single value
  /// on one row, error on multiple rows or multiple columns.
  Result<Value> ScalarSubqueryValue(const sql::SelectStmt& sub,
                                    const EvalScope* outer);

  /// True when the subquery yields at least one row given the outer
  /// scope (per-row correlated fallback used by Eval).
  Result<bool> SubqueryExists(const sql::SelectStmt& sub,
                              const EvalScope* outer);

  /// True when the subquery's single output column contains `needle`.
  Result<bool> SubqueryContains(const sql::SelectStmt& sub,
                                const Value& needle, const EvalScope* outer);

  /// Access paths chosen for each base-table scan, in scan order
  /// (introspection for tests and the forced-index ablation).
  const std::vector<std::pair<std::string, AccessPath>>& scan_paths() const {
    return scan_paths_;
  }

  /// Heap positions, ascending, of the rows of `table` a DELETE or
  /// UPDATE with `where` (null = every row) affects. They come from
  /// the same access-path choice and page walk as a SELECT's scan, so
  /// `delete ... where key = K` reads only K's clustered range.
  Result<std::vector<size_t>> MatchWrite(const storage::Table& table,
                                         const sql::Expr* where);

  /// Runs `stmt`'s aggregate or projection tail on the sequential row
  /// executor over `rel` instead of its FROM and WHERE: the
  /// composition step of an intra-query read, whose partial rows
  /// arrive as one relation (paper section 3). `stmt` must have
  /// exactly one FROM entry, no WHERE and no subqueries, so no
  /// Database is needed; anything else is InvalidArgument.
  static Result<QueryResult> ExecuteOverRelation(const sql::SelectStmt& stmt,
                                                 Relation rel,
                                                 ExecStats* stats);

 private:
  struct ConjunctInfo;

  /// Access-path decision for one base-table scan: the winning path
  /// and the heap positions it reads in scan order, either the rows
  /// [range_begin, range_end) (seq scan, clustered range) or the
  /// sorted `index_positions` (secondary index).
  struct ScanPlan {
    AccessPath path = AccessPath::kSeqScan;
    size_t range_begin = 0;
    size_t range_end = 0;
    std::vector<size_t> index_positions;
  };

  /// The WHERE classifier of both join pipelines: resolves `stmt`'s
  /// FROM bindings into *from and classifies its WHERE conjuncts, in
  /// WHERE order, into *conjuncts.
  Status ClassifyWhere(const sql::SelectStmt& stmt,
                       std::vector<FromBinding>* from,
                       std::vector<ConjunctInfo>* conjuncts) const;

  /// FROM + WHERE: scans, joins, residual filters, subquery
  /// predicates. Produces the pre-aggregation relation.
  Result<Relation> ExecuteFromWhere(const sql::SelectStmt& stmt,
                                    const EvalScope* outer);

  /// Chooses the access path for one scan (bounds extraction + page
  /// cost comparison) and records it in scan_paths() / stats.
  Result<ScanPlan> PlanScan(const FromBinding& fb,
                            const std::vector<const sql::Expr*>& preds,
                            const EvalScope* outer);

  /// The one page walk: visits `plan`'s heap positions in scan order
  /// and touches each page through the buffer pool as the walk enters
  /// it, so every consumer of a plan causes the same page traffic.
  template <typename Visit>
  Status WalkScan(const storage::Table& t, const ScanPlan& plan,
                  Visit&& visit);

  /// The row source of the sequential executor and of DML: plans the
  /// scan of `fb` and walks it, handing `keep` the position of every
  /// row that passes all of `preds` (checked as the row is touched).
  template <typename Keep>
  Status FilterScan(const FromBinding& fb,
                    const std::vector<const sql::Expr*>& preds,
                    const EvalScope* outer, Keep&& keep);

  Result<Relation> ScanTable(const FromBinding& fb,
                             const std::vector<const sql::Expr*>& preds,
                             const EvalScope* outer);

  /// The one gate of both morsel pipelines: `stmt` aggregates, is not
  /// correlated, selects no `*`, and every subquery it holds is a
  /// top-level WHERE conjunct that runs as a semi or anti step
  /// (SemiStep). Morsel workers carry no executor, so any other
  /// subquery keeps the statement on the sequential row executor. One
  /// FROM table runs ExecuteMorselAggregate, more run
  /// ExecuteMorselJoin.
  bool MorselEligible(const sql::SelectStmt& stmt,
                      const EvalScope* outer) const;

  /// The coordinator side of `stmt`'s semi/anti steps, in WHERE order:
  /// plans each subquery's inner scan with its inner-only conjuncts,
  /// touches its pages and narrows it through the morsel filter over
  /// the inner table's columnar chunk, so those conjuncts see the rows
  /// (and raise the errors) they do on the row path. `outer` is the
  /// layout of the tuples the steps test.
  Result<std::vector<SemiStep>> PrepareSemiSteps(const sql::SelectStmt& stmt,
                                                 const Relation& outer);

  /// A side scan of a morsel pipeline narrowed by its conjuncts: the
  /// access path it took and each morsel's surviving heap positions,
  /// in morsel order (the same at every thread count).
  struct FilteredScan {
    AccessPath path = AccessPath::kSeqScan;
    std::vector<std::vector<uint32_t>> positions;  // per morsel
    uint64_t rows = 0;                             // survivors
  };

  /// The pre-filter of the side scans (join build sides, the inner
  /// scans of semi/anti steps): plans `fb`'s scan with `preds`, touches
  /// its pages, narrows each morsel through the morsel filter of
  /// `preds` and then `constants` (vectorized over `chunk` when one is
  /// given) and charges the work to this statement.
  Result<FilteredScan> FilterSideScan(
      const FromBinding& fb, const std::vector<const sql::Expr*>& preds,
      const std::vector<const sql::Expr*>& constants,
      const storage::ColumnarTable* chunk);

  /// Columnar morsel aggregate for eligible single-table aggregates:
  /// morsels process per-column slices through vectorized kernels
  /// (selection vectors, typed accumulation), with a per-conjunct,
  /// per-aggregate and per-key row-wise Eval fallback for whatever
  /// does not compile. The semi/anti steps narrow each morsel's
  /// selection after the filter. Each morsel folds into a private
  /// group table; the tables merge bucket by bucket in morsel-index
  /// order. The morsel decomposition and the merge order depend only
  /// on table contents — never on the thread count — so results are
  /// bit-identical at any width.
  Result<QueryResult> ExecuteMorselAggregate(const sql::SelectStmt& stmt);

  /// Morsel-parallel partitioned hash-join pipeline: every non-driver
  /// table is filtered once in morsels, the build chain is ordered by
  /// key lookups and then by the measured survival of each filter, and
  /// each build side is hashed into a 16-way partitioned table
  /// (partitions built concurrently). Then the
  /// driver table streams page-aligned morsels as selection vectors
  /// through the full probe chain (vectorized filter -> key hash ->
  /// semi-join filter -> probe -> residual filter -> ... ->
  /// semi/anti steps -> the morsel's group table) without
  /// materializing intermediate relations. The group tables merge and
  /// finish exactly as in ExecuteMorselAggregate, so results are
  /// bit-identical at every `exec_threads` setting. Returns nullopt
  /// when planning finds a shape the pipeline cannot run (cross join,
  /// outer references) — the caller then falls back to the legacy
  /// sequential chain. Planning is side-effect free until the plan is
  /// committed, so the fallback leaves no stats residue.
  Result<std::optional<QueryResult>> ExecuteMorselJoin(
      const sql::SelectStmt& stmt);

  /// The finish of every morsel pipeline once all its morsels ran:
  /// charges the partials' counters to this statement's stats, merges
  /// their group tables, adds the empty-input group of a GROUP BY-less
  /// statement, and hands the groups to the one finalizer every
  /// aggregation shares. `header` is the layout the group
  /// representatives were drawn from; `threads` is the morsel region's
  /// width; a null `pool` merges inline.
  Result<QueryResult> FinishMorselAggregate(
      ThreadPool* pool, size_t threads, const sql::SelectStmt& stmt,
      const Relation& header, const std::vector<const sql::Expr*>& agg_nodes,
      std::vector<MorselPartial>* partials);

  /// Coordinator-side page touching + morsel decomposition for one
  /// planned scan: walks the plan, so every page is touched in exactly
  /// the sequential scan's order (the buffer pool is not thread-safe
  /// and LRU state must not depend on worker timing), and returns the
  /// page-aligned morsels of its row range. For secondary-index plans
  /// the sorted position list itself is morselized and `positions`
  /// points at it.
  struct ScanMorsels {
    std::vector<storage::Table::Morsel> morsels;
    const std::vector<size_t>* positions = nullptr;

    /// Heap position of the j-th row of the scan's morsel space.
    size_t Position(size_t j) const {
      return positions != nullptr ? (*positions)[j] : j;
    }
    /// Heap positions morsel `mi` covers, in scan order: the initial
    /// selection vector of a columnar morsel.
    std::vector<uint32_t> Selection(size_t mi) const;
  };
  Result<ScanMorsels> TouchAndMorselize(const storage::Table& t,
                                        const ScanPlan& plan);
  /// `t`'s column image, counting its build or rebuild in this
  /// statement's stats. Coordinator only (Table::Columnar).
  const storage::ColumnarTable& ColumnarImage(const storage::Table& t);

  Result<Relation> ApplySubqueryPredicate(Relation rel, const sql::Expr& e,
                                          const EvalScope* outer);

  Result<QueryResult> AggregateAndProject(const sql::SelectStmt& stmt,
                                          Relation rel,
                                          const EvalScope* outer);
  Result<QueryResult> ProjectOnly(const sql::SelectStmt& stmt, Relation rel,
                                  const EvalScope* outer);

  Database* db_;
  ExecStats* stats_;
  bool sequential_only_;
  std::vector<std::pair<std::string, AccessPath>> scan_paths_;
};

}  // namespace apuama::engine

#endif  // APUAMA_ENGINE_EXECUTOR_H_
