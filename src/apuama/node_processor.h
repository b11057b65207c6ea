// Node Processor — one per backend DBMS (paper Fig. 1(b)).
//
// Mediates every request sent to its node: plain requests pass
// through; SVP sub-queries run with full table scans disabled
// (`SET enable_seqscan = off`, restored afterwards) so the optimizer
// cannot ignore the virtual partition — the paper's forced-index
// technique (section 3). Tracks the node's transaction counter for
// the consistency manager and keeps a small connection pool.
#ifndef APUAMA_APUAMA_NODE_PROCESSOR_H_
#define APUAMA_APUAMA_NODE_PROCESSOR_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>

#include "cjdbc/connection.h"
#include "common/status.h"
#include "engine/query_result.h"

namespace apuama {

struct NodeProcessorOptions {
  /// Apply the forced-index setting around SVP sub-queries
  /// (disable for the ablation bench).
  bool force_index_for_svp = true;
  /// Connections in the pool (bounds concurrent statements per node).
  int pool_size = 2;
  /// Intra-node morsel-execution threads applied to this node's
  /// session (third parallelism level). <= 0 leaves the node at its
  /// own default (APUAMA_EXEC_THREADS / hardware concurrency). The
  /// engine sets this from its cluster-wide budget so n_nodes nodes
  /// never oversubscribe the host with n_nodes * default threads.
  int exec_threads = 0;
};

class NodeProcessor {
 public:
  NodeProcessor(int node_id, cjdbc::ReplicaSet* replicas,
                NodeProcessorOptions options);

  int node_id() const { return node_id_; }

  /// Pass-through execution (OLTP statements, non-SVP reads).
  Result<engine::QueryResult> Execute(const std::string& sql);

  /// Executes one SVP sub-query with forced index usage.
  Result<engine::QueryResult> ExecuteSubquery(const std::string& sql);

  /// Node's committed-transaction counter (consistency checks).
  uint64_t TransactionCounter() const;

  uint64_t statements_executed() const { return statements_; }
  uint64_t subqueries_executed() const { return subqueries_; }

 private:
  int node_id_;
  cjdbc::ReplicaSet* replicas_;
  NodeProcessorOptions options_;
  // The pool bounds concurrency; slots are interchangeable, so a
  // counting guard stands in for individual connection objects.
  std::mutex pool_mu_;
  std::condition_variable pool_cv_;
  int pool_available_;
  // Concurrent clients bump these outside any lock.
  std::atomic<uint64_t> statements_{0};
  std::atomic<uint64_t> subqueries_{0};
};

}  // namespace apuama

#endif  // APUAMA_APUAMA_NODE_PROCESSOR_H_
