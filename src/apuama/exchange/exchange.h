// Exchange operator — repartitions fragmented tables between nodes
// mid-plan (the shared-nothing escape hatch).
//
// With physical fragmentation, a node only holds current data for
// the fragments placed on it. An SVP interval whose key range is not
// covered by any single node's fragment set cannot run anywhere
// as-is; the exchange operator materializes the interval's slice of
// each fragmented table into per-query temp tables on a chosen
// compute node, and the sub-query is rendered with its fact
// references redirected at the temps (SvpPlan::SubquerySqlMapped).
//
// Three movement strategies, cheapest first; data placement picks
// one per interval:
//   local      — some node hosts every needed fragment: zero bytes.
//                The co-partitioned preset (fragments == SVP
//                intervals, fragment f placed on node f) always
//                lands here, so the aligned fast path moves nothing.
//   broadcast  — some node hosts every needed fragment of the
//                LARGEST fragmented table; the smaller fragmented
//                tables are shipped whole to that node, once per
//                compute node (the classic broadcast-small-build).
//   shuffle    — no covering node: every fragmented table's slice is
//                shipped to the compute node.
//
// Bit-identity. Slices are copied fragment-by-ascending-fragment via
// the clustered index, and Table::BulkLoad's stable sort preserves
// that order, so a temp's heap order equals the fully replicated
// table's heap order restricted to the slice. Secondary indexes are
// replicated onto the temps so the node planner picks the same access
// paths. The sub-query text over the temp applies the same range
// predicates, so partials — and therefore composed results — are
// bit-identical to the replicated baseline.
#ifndef APUAMA_APUAMA_EXCHANGE_EXCHANGE_H_
#define APUAMA_APUAMA_EXCHANGE_EXCHANGE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "apuama/data_catalog.h"
#include "cjdbc/connection.h"
#include "common/status.h"

namespace apuama::exchange {

/// Where one SVP interval's sub-query runs after exchange planning.
struct Assignment {
  int node = -1;
  /// original table -> temp table redirections for the render; empty
  /// when the interval runs against the node's own fragments.
  std::vector<std::pair<std::string, std::string>> table_map;
  /// Fallback host list for retries: every node that could also run
  /// this interval without data movement (empty for exchanged
  /// intervals — their temps exist on one node only).
  std::vector<int> alternates;
};

/// Plans and materializes the data movement for one SVP dispatch.
/// One instance per query; Cleanup() (or the destructor) drops every
/// temp table it created.
class ExchangeOperator {
 public:
  /// `seq` disambiguates temp names across concurrent queries.
  ExchangeOperator(cjdbc::ReplicaSet* replicas, uint64_t seq);
  ~ExchangeOperator();

  ExchangeOperator(const ExchangeOperator&) = delete;
  ExchangeOperator& operator=(const ExchangeOperator&) = delete;

  /// Assigns every interval a compute node, materializing temp
  /// slices where no node hosts all needed fragments. `intervals`
  /// are [lo, hi) key ranges; `specs` the fragmentation of each
  /// fragmented table the query references; `alive` the available
  /// nodes; `preferred[i]` the node interval i would run on in the
  /// fully replicated baseline (used to keep the aligned case's
  /// routing identical to the baseline's).
  Result<std::vector<Assignment>> Prepare(
      const std::vector<std::pair<int64_t, int64_t>>& intervals,
      const std::vector<const FragmentationSpec*>& specs,
      const std::vector<int>& alive, const std::vector<int>& preferred);

  /// Materializes whole copies of every spec'd table on one covering
  /// node for a query that cannot be interval-carved (non-rewritable
  /// reads over fragmented tables). Picks a node hosting everything
  /// when one exists (no movement, table_map empty); otherwise ships
  /// every fragment to `fallback_node`.
  Result<Assignment> PrepareWholeTables(
      const std::vector<const FragmentationSpec*>& specs,
      const std::vector<int>& alive, int fallback_node);

  /// Drops every temp table created by Prepare. Idempotent.
  void Cleanup();

  uint64_t bytes_shipped() const { return bytes_shipped_; }
  uint64_t shuffles() const { return shuffles_; }
  uint64_t broadcasts() const { return broadcasts_; }

 private:
  /// Rows of `spec->table` with key in [lo, hi), read fragment by
  /// ascending fragment from each fragment's first available host —
  /// exactly the replicated heap order of the slice. Bytes read from
  /// hosts other than `compute_node` are charged to bytes_shipped_.
  Result<std::vector<Row>> FetchSlice(
      const FragmentationSpec& spec, int64_t lo, int64_t hi,
      const std::vector<int>& alive, int compute_node);

  /// Creates `temp_name` on `node` as a clustered, indexed copy of
  /// `source_table`'s schema holding `rows` (already in heap order).
  Status Materialize(int node, const std::string& source_table,
                     const std::string& temp_name,
                     std::vector<Row> rows);

  cjdbc::ReplicaSet* replicas_;
  uint64_t seq_;
  uint64_t bytes_shipped_ = 0;
  uint64_t shuffles_ = 0;
  uint64_t broadcasts_ = 0;
  /// (node, temp table) pairs to drop.
  std::vector<std::pair<int, std::string>> temps_;
};

}  // namespace apuama::exchange

#endif  // APUAMA_APUAMA_EXCHANGE_EXCHANGE_H_
