// Simple Virtual Partitioning (SVP) query rewriter — the core of the
// paper's contribution (sections 2 and 3).
//
// Given an OLAP SELECT and the Data Catalog, the rewriter:
//   1. decides whether the query is SVP-rewritable (references a
//      fact table; any fact reference inside a subquery must be
//      equality-correlated on the partition key; aggregates must be
//      decomposable — avg becomes sum+count, count(distinct) is not
//      decomposable);
//   2. produces a sub-query template whose SELECT list is decomposed
//      into mergeable partial aggregates and whose WHERE gained
//      `vpa >= :lo AND vpa < :hi` range predicates on every
//      constrained fact reference (including inside correlated
//      subqueries — the derived-partitioning trick);
//   3. produces the composition statement that the Result Composer
//      runs over the partial rows (the `partials` relation):
//      re-aggregation (sum of sums, sum of counts, min of mins,
//      guarded sum/count for avg), HAVING, global ORDER BY and LIMIT.
//
// A non-rewritable query is not an error for Apuama: the caller
// falls back to plain inter-query routing (one node executes the
// original query). The Status message says why, for observability.
#ifndef APUAMA_APUAMA_SVP_REWRITER_H_
#define APUAMA_APUAMA_SVP_REWRITER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "apuama/data_catalog.h"
#include "common/status.h"
#include "sql/ast.h"

namespace apuama {

/// FROM name of the composition statement: the relation holding
/// every partial row.
inline constexpr char kPartialsTable[] = "partials";

/// Renames FROM references in `stmt` through `table_map` (original ->
/// physical name), pinning each original binding as an alias so
/// qualified column references keep resolving. Recurses into
/// subqueries. The exchange operator uses this to redirect queries at
/// materialized fragment copies.
void RemapSelectTables(
    sql::SelectStmt* stmt,
    const std::vector<std::pair<std::string, std::string>>& table_map);

/// The rewrite product for one query.
class SvpPlan {
 public:
  /// Key intervals [lo, hi) covering the domain, one per node.
  std::vector<std::pair<int64_t, int64_t>> MakeIntervals(int nodes) const;

  /// Renders the sub-query for one key interval.
  std::string SubquerySql(int64_t lo, int64_t hi);

  /// Renders the sub-query for one key interval with fact-table
  /// references renamed through `table_map` (exchange operator:
  /// redirect a slice at materialized fragment copies). References
  /// keep their original binding name via an alias, so column
  /// qualifiers in the query body stay valid. The template is cloned
  /// for the render; the plan itself is untouched apart from the
  /// shared patch literals.
  std::string SubquerySqlMapped(
      int64_t lo, int64_t hi,
      const std::vector<std::pair<std::string, std::string>>& table_map);

  /// Composition query text (over kPartialsTable).
  const std::string& composition_sql() const { return composition_sql_; }

  /// The composition statement, constant-folded, built once per
  /// rewrite. Immutable and shared across plan clones, so a cached
  /// plan never re-parses its composition.
  const std::shared_ptr<const sql::SelectStmt>& composition() const {
    return composition_;
  }

  /// Deep-copies the plan so a cached prototype can be rendered
  /// concurrently (SubquerySql mutates template literals in place).
  /// The composition statement is shared, not copied.
  SvpPlan Clone() const;

  int64_t domain_min() const { return domain_min_; }
  int64_t domain_max() const { return domain_max_; }

  /// Conservative inclusive bounds on the partition key implied by
  /// the query's own top-level predicates (defaults to the whole
  /// domain). Key intervals outside [pred_min, pred_max] provably
  /// contribute empty partials — the basis for fragment pruning.
  int64_t pred_min() const { return pred_min_; }
  int64_t pred_max() const { return pred_max_; }

  /// Member (fact) tables the query references, lower-cased and
  /// deduplicated — the tables whose fragmentation drives dispatch.
  const std::vector<std::string>& fact_tables() const { return fact_tables_; }

  /// Every table the query references (facts and dimensions,
  /// including inside subqueries), lower-cased — the read side of the
  /// scoped consistency barrier must conflict with writes to any of
  /// them.
  const std::vector<std::string>& all_tables() const { return all_tables_; }

  /// How many fact-table references were range-constrained
  /// (introspection for tests).
  size_t num_constrained_refs() const { return patches_.size() / 2; }

  /// Internal: a literal node inside the template to overwrite per
  /// interval. Public so the rewriter's helpers can build them.
  struct Patch {
    sql::Expr* literal;
    bool is_lo;
  };

 private:
  friend class SvpRewriter;

  std::unique_ptr<sql::SelectStmt> template_;
  std::vector<Patch> patches_;
  std::string composition_sql_;
  std::shared_ptr<const sql::SelectStmt> composition_;
  int64_t domain_min_ = 0;
  int64_t domain_max_ = 0;
  int64_t pred_min_ = 0;
  int64_t pred_max_ = 0;
  std::vector<std::string> fact_tables_;
  std::vector<std::string> all_tables_;
};

class SvpRewriter {
 public:
  explicit SvpRewriter(const DataCatalog* catalog) : catalog_(catalog) {}

  /// Rewrites `query`; Unsupported status when not SVP-rewritable
  /// (message explains why).
  Result<SvpPlan> Rewrite(const sql::SelectStmt& query) const;

  /// Cheap pre-check used by the Cluster Administrator: does the
  /// query reference any partitionable table at all?
  bool TouchesFactTable(const sql::SelectStmt& query) const;

 private:
  const DataCatalog* catalog_;
};

}  // namespace apuama

#endif  // APUAMA_APUAMA_SVP_REWRITER_H_
