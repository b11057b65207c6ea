// The Apuama Engine (paper Fig. 1): Cluster Administrator +
// Intra-Query Executor + Node Processors + Result Composer, glued to
// C-JDBC through ApuamaDriver without touching controller code.
//
// Request flow for a read that lands on backend i:
//   ApuamaConnection(i) -> ApuamaEngine::ExecuteRead(i, sql)
//     Query Parser: which tables? Data Catalog: partitionable?
//     yes -> Intra-Query Executor: consistency barrier, SVP rewrite,
//            dispatch sub-queries to ALL node processors in parallel,
//            Result Composer merges partials       (intra-query path)
//     no  -> NodeProcessor(i).Execute(sql)          (inter-query path)
// Writes go through every backend (C-JDBC broadcast); each node's
// processor brackets them with the consistency manager.
#ifndef APUAMA_APUAMA_APUAMA_ENGINE_H_
#define APUAMA_APUAMA_APUAMA_ENGINE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "apuama/approx/approx_rewriter.h"
#include "apuama/approx/sample_catalog.h"
#include "apuama/avp.h"
#include "apuama/consistency.h"
#include "apuama/data_catalog.h"
#include "apuama/exchange/exchange.h"
#include "apuama/node_processor.h"
#include "apuama/plan_cache.h"
#include "apuama/result_composer.h"
#include "apuama/share/result_cache.h"
#include "apuama/share/work_sharing.h"
#include "apuama/svp_rewriter.h"
#include "cjdbc/connection.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "engine/exec_stats.h"
#include "sql/ast.h"

namespace apuama {

/// Which intra-query technique the engine applies to eligible reads.
enum class IntraQueryTechnique {
  kSvp,  // the paper: one sub-query per node
  kAvp,  // related work (SmaQ): adaptive chunks + range stealing
};

struct ApuamaOptions {
  NodeProcessorOptions node_options;
  /// Enable intra-query parallelism (off = behave exactly like plain
  /// C-JDBC; the baseline configuration).
  bool enable_intra_query = true;
  IntraQueryTechnique technique = IntraQueryTechnique::kSvp;
  /// Total intra-node (morsel) execution threads across the cluster,
  /// divided evenly per node with a floor of 1. 0 = one machine-wide
  /// default budget (engine::DefaultExecThreads()) — NOT the per-node
  /// default, which would oversubscribe the host n_nodes times.
  /// Ignored when node_options.exec_threads is already set.
  int exec_thread_budget = 0;
  /// Entries in the parse+rewrite plan cache (0 disables it).
  size_t plan_cache_entries = 128;
  /// Capacity of the versioned result cache in entries (`SET
  /// result_cache = on` enables it).
  size_t result_cache_entries = 256;
  /// How long the controller's gate holds a read open for identical
  /// arrivals (`SET share_scans = on` enables coalescing).
  int64_t admission_window_us = 200;
};

/// Cumulative engine statistics (observability / tests / benches).
/// Lock-free atomics: the counters sit on the inter-query hot path
/// (every passthrough read and write), where a shared mutex would
/// serialize otherwise independent clients.
struct ApuamaStats {
  std::atomic<uint64_t> svp_queries{0};        // queries run with
                                               // intra-query parallelism
  std::atomic<uint64_t> passthrough_reads{0};  // reads sent to one node
  std::atomic<uint64_t> writes{0};
  std::atomic<uint64_t> non_rewritable{0};     // fact queries SVP declined
  std::atomic<uint64_t> partial_rows_total{0};
  std::atomic<uint64_t> avp_chunks{0};         // AVP: sub-queries issued
  std::atomic<uint64_t> svp_retries{0};        // failover resubmissions
  // Column images rebuilt after a drop, summed over every node result
  // the engine saw (SVP partials and passthrough reads):
  std::atomic<uint64_t> columnar_rebuilds{0};
  // Physical fragmentation (shared-nothing overlay):
  std::atomic<uint64_t> routed_writes{0};      // writes sent to a replica
                                               // set instead of broadcast
  std::atomic<uint64_t> write_fanout_total{0};  // nodes touched, summed
                                                // over logical writes
  std::atomic<uint64_t> exchange_bytes{0};     // bytes moved between nodes
  // Approximate query tier:
  std::atomic<uint64_t> approx_queries{0};     // answered from a scramble
  std::atomic<uint64_t> approx_early_exits{0};  // met the error target early
  std::atomic<uint64_t> approx_fallbacks{0};   // APPROX served exactly
  std::atomic<uint64_t> scramble_builds{0};    // CREATE SAMPLE materializations
  std::atomic<uint64_t> scramble_rebuilds{0};  // staleness-triggered rebuilds

  /// Folds one node result's image rebuilds into the engine-wide
  /// total (called wherever a node ExecStats crosses the middleware
  /// boundary).
  void NoteNodeStats(const engine::ExecStats& s) {
    if (s.columnar_chunk_rebuilds != 0) {
      columnar_rebuilds.fetch_add(s.columnar_chunk_rebuilds,
                                  std::memory_order_relaxed);
    }
  }
};

class ApuamaEngine : public share::WorkSharingHooks {
 public:
  ApuamaEngine(cjdbc::ReplicaSet* replicas, DataCatalog catalog,
               ApuamaOptions options = ApuamaOptions());

  /// Read entry point for backend `node_id` (the node C-JDBC's load
  /// balancer picked). Intra-query path when eligible, else
  /// pass-through on that node. The result's profile carries the
  /// route that answered, the router's elapsed time and every fact
  /// the dispatcher measured (EXPLAIN ANALYZE renders it).
  Result<engine::QueryResult> ExecuteRead(int node_id,
                                          const std::string& sql);

  /// Write entry point for backend `node_id`. C-JDBC broadcasts one
  /// logical write as N per-node statements; the consistency manager
  /// recognizes the broadcast and brackets it as one logical write.
  Result<engine::QueryResult> ExecuteWriteOn(int node_id,
                                             const std::string& sql);

  // share::WorkSharingHooks — driven by the controller's gate.
  bool sharing_enabled() const override;
  bool cache_enabled() const override;
  int64_t admission_window_us() const override;
  std::shared_ptr<const engine::QueryResult> CacheLookup(
      const std::string& fingerprint) override;
  std::optional<share::ResultCache::FillTicket> CacheBeginFill(
      const std::string& fingerprint,
      const std::set<std::string>& tables) override;
  void CacheInsert(
      const share::ResultCache::FillTicket& ticket,
      std::shared_ptr<const engine::QueryResult> result) override;

  /// Runtime knob flips (the connection layer applies the
  /// SET share_scans / SET result_cache broadcasts).
  void SetShareScans(bool on);
  void SetResultCache(bool on);
  /// True when at least one table has a fragmentation spec.
  bool fragmentation_active() const { return catalog_.any_fragmented(); }
  /// Applies ALTER TABLE ... FRAGMENT BY / UNFRAGMENT to the Data
  /// Catalog (middleware-level DDL: no stored rows move). A table
  /// that has taken a fragment-routed write keeps its layout:
  /// UNFRAGMENT or a different spec returns Unsupported, re-applying
  /// the installed one succeeds (the controller fans DDL out once per
  /// backend).
  Status ApplyFragmentationDdl(const sql::AlterFragmentStmt& stmt);
  /// Applies CREATE SAMPLE / DROP SAMPLE: materializes (or removes)
  /// a scramble on every replica and (de)registers its private
  /// partition space. Idempotent per broadcast — a repeat call that
  /// finds a fresh identical scramble is a no-op, so the controller's
  /// per-backend DDL fan-out builds once.
  Status ApplySampleDdl(const sql::Stmt& stmt);
  /// SET sample_seed = N — seed for subsequent scramble builds.
  void SetSampleSeed(int64_t seed);
  /// SET approx_error_target = x — relative CI half-width at which
  /// an APPROX query stops merging sub-queries (0 = merge all).
  void SetApproxErrorTarget(double target);
  /// Scramble registry (introspection for tests and tools).
  const approx::SampleCatalog* sample_catalog() const {
    return &sample_catalog_;
  }
  /// Driver hook (cjdbc::Driver::RouteWrite): nodes that must apply
  /// this write synchronously, or nullopt to broadcast.
  std::optional<std::vector<int>> RouteWriteTargets(const std::string& sql);
  /// Recovery replay applied a write to `node` outside the broadcast
  /// bracket; `routed` says whether the original write was routed (the
  /// node owes a counter credit so ReplicasConsistent stays adjusted).
  void NoteRecoveryReplay(int node, bool routed);
  /// Drops every cached result (DDL, recovery replay).
  void InvalidateResultCache();
  share::ResultCache* result_cache() { return &result_cache_; }

  int num_nodes() const { return static_cast<int>(processors_.size()); }
  NodeProcessor* processor(int i) { return processors_[static_cast<size_t>(i)].get(); }
  const DataCatalog* data_catalog() const { return &catalog_; }
  DataCatalog* mutable_data_catalog() { return &catalog_; }
  const ApuamaStats& stats() const { return stats_; }
  /// The parse+rewrite plan cache (cache-level hit/miss counters).
  const PlanCache& plan_cache() const { return plan_cache_; }
  ConsistencyManager* consistency() { return &consistency_; }

  /// True when all node transaction counters are equal (replicas in
  /// the same committed state) — the paper's SVP precondition.
  bool ReplicasConsistent() const;

  /// Executes one query end to end with SVP, whatever the configured
  /// technique (tests call it directly; ExecuteRead goes through the
  /// plan cache to the same dispatcher).
  Result<engine::QueryResult> ExecuteSvp(const sql::SelectStmt& query);

 private:
  /// The read router behind ExecuteRead: the approximate tier, then
  /// the plan cache's SVP/AVP dispatch (a plan the runtime declines
  /// counts as non-rewritable), then fragmented or single-node
  /// passthrough. Stamps the route that answered into the profile:
  /// "approx", "svp", "avp" or "passthrough".
  Result<engine::QueryResult> RunRead(int node_id, const std::string& sql);

  /// Plan-cache routing for one read: lookup, or build + insert the
  /// entry on a miss (the cache counts its hits and misses). Errors
  /// only on a real rewrite failure, which is never cached.
  Result<std::shared_ptr<const PlanCache::Entry>> RouteRead(
      const std::string& sql);

  /// Where a write goes and which epochs it bumps.
  struct WriteRoute {
    /// The written table ("" = not attributable).
    std::string table;
    /// Nodes that must apply the write; nullopt = broadcast.
    std::optional<std::vector<int>> targets;
    /// Barrier conflict scope (empty = global, the legacy behavior).
    std::vector<std::string> scope;
    /// Result-cache epoch keys to bump ("t", "t#f", or "" = global).
    std::vector<std::string> epoch_keys;
  };
  /// Parses the statement and, when fragmentation is active and every
  /// written key is statically attributable to fragments, routes it to
  /// the owning replica sets. Anything else degrades safely to a
  /// broadcast with whole-table (or global) scope.
  WriteRoute ComputeWriteRoute(const std::string& sql);

  /// Installed specs for the given tables, copied (an ALTER replacing
  /// a spec must not invalidate pointers a running query holds).
  std::vector<FragmentationSpec> ActiveSpecsFor(
      const std::vector<std::string>& tables) const;

  /// Scoped-barrier read scope for a fragmented SVP dispatch: every
  /// referenced table, plus the fragments of fragmented tables that
  /// intersect the plan's predicate bounds.
  std::vector<std::string> FragmentedReadScope(
      const SvpPlan& plan, const std::vector<FragmentationSpec>& specs) const;

  /// Fragment-aware execution of a non-rewritable / passthrough read:
  /// picks a node covering every fragment (or materializes whole
  /// copies on one node and remaps the query). nullopt when the query
  /// touches no fragmented table (caller runs the normal path).
  std::optional<Result<engine::QueryResult>> ExecuteFragmentedPassthrough(
      int node_id, const std::string& sql);

  /// One sub-query of an intra-query read.
  struct SubqueryTask {
    std::string sql;
    int node = -1;              // where the first attempt runs
    std::vector<int> eligible;  // nodes a retry may pick from
  };

  /// What one read shape supplies to Dispatch: its tasks and hooks.
  /// Everything else (barrier, tracing, timing, retry, fold, stats)
  /// belongs to the dispatcher.
  struct DispatchSpec {
    const char* span_name = "engine.svp";
    /// Barrier scope (empty = global).
    std::vector<std::string> barrier_scope;
    /// Runs under the consistency barrier with the alive-node
    /// snapshot; returns the first tasks, in fold order.
    std::function<Result<std::vector<SubqueryTask>>(const std::vector<int>&)>
        prepare;
    /// Optional task source (AVP): asked after task `finished`
    /// succeeded on `node` in `us` microseconds; a returned task is
    /// appended.
    std::function<std::optional<SubqueryTask>(size_t finished, int node,
                                              int64_t us)>
        next;
    /// Optional in-order hook: sees each partial just before it is
    /// folded into the composition; false stops the read after it.
    std::function<bool(size_t task, const engine::QueryResult&)> on_fold;
  };

  /// The one intra-query dispatcher (paper section 3). Snapshots the
  /// alive nodes, holds the consistency barrier while `spec.prepare`
  /// runs and its tasks are submitted, then folds the partials into
  /// `plan`'s streaming composition in task order. A task failing
  /// with kUnavailable is resubmitted at once to an available node of
  /// its eligible set that it has not tried; when none is left the
  /// read fails with kUnavailable. Every exit joins every submitted
  /// sub-query first. `plan` is read after `prepare`, which may
  /// replace it. The result's profile carries the barrier wait, the
  /// sub-query count and times, the retries and the composition.
  Result<engine::QueryResult> Dispatch(const DispatchSpec& spec,
                                       const SvpPlan& plan);

  /// Runs a rewritten plan end to end through Dispatch with the task
  /// source for its shape: one interval per alive node (SVP),
  /// scheduler chunks (AVP), or pruned, exchange-placed intervals
  /// when the plan touches fragmented tables (either technique).
  Result<engine::QueryResult> ExecuteSvpPlan(SvpPlan plan,
                                             IntraQueryTechnique technique);

  /// The approximate tier's read hook: parses `sql`, checks it carries
  /// the APPROX verb, a scramble exists and the query is estimable,
  /// and runs it through ExecuteApproxPlan. nullopt = not applicable;
  /// the caller falls through to the exact path unchanged (counted as
  /// a fallback when the verb asked for approximation).
  std::optional<Result<engine::QueryResult>> MaybeExecuteApprox(
      const std::string& sql);

  /// Runs one rewritten APPROX query through Dispatch: a staleness
  /// check under the barrier (synchronous rebuild while writes are
  /// blocked), a 4n carve of the stats query over the scramble's key
  /// space, an in-order hook applying the CLT stopping rule, and
  /// finalization into estimates + `__ci_lo`/`__ci_hi` columns.
  Result<engine::QueryResult> ExecuteApproxPlan(
      const approx::ApproxQuerySpec& spec);

  /// Materializes the scramble for `base` as `sample` on every node
  /// and registers/refreshes its partition space and catalog entry.
  /// Caller holds sample_build_mu_.
  Status BuildScramble(const std::string& base, const std::string& sample,
                       double ratio, int64_t seed, bool rebuild);

  cjdbc::ReplicaSet* replicas_;
  DataCatalog catalog_;
  ApuamaOptions options_;
  std::vector<std::unique_ptr<NodeProcessor>> processors_;
  SvpRewriter rewriter_;
  PlanCache plan_cache_;
  ConsistencyManager consistency_;
  std::unique_ptr<ThreadPool> dispatch_pool_;
  ApuamaStats stats_;
  share::ResultCache result_cache_;
  // Knobs read on every gated read; atomics because SET broadcasts
  // race with concurrent readers of the flags.
  std::atomic<bool> share_scans_on_{false};
  std::atomic<bool> result_cache_on_{false};
  // Approximate tier knobs + scramble registry. Builds serialize on
  // sample_build_mu_ (a rebuild during one query's barrier must not
  // race another query's rebuild of the same scramble).
  std::atomic<int64_t> sample_seed_{42};
  std::atomic<double> approx_error_target_{0.0};
  approx::SampleCatalog sample_catalog_;
  std::mutex sample_build_mu_;
  // Epoch keys of the open logical write: recorded at admission
  // (the consistency manager keeps one broadcast open at a time),
  // consumed by the completion epoch bump.
  std::mutex write_table_mu_;
  std::vector<std::string> open_write_keys_;
  // Per-node counter credits: a routed write bumps only its targets'
  // transaction counters, so ReplicasConsistent compares
  // counter - credit instead of raw counters (all-zero credits make
  // that identical to the legacy raw comparison).
  std::unique_ptr<std::atomic<uint64_t>[]> write_credits_;
  // Disambiguates exchange temp-table names across concurrent queries.
  std::atomic<uint64_t> exchange_seq_{0};
  // Routes computed for the controller (RouteWriteTargets) are reused
  // by ExecuteWriteOn so both sides of a write agree on its targets
  // even if an ALTER ... FRAGMENT lands in between (a recompute could
  // otherwise wait on per-node statements that never arrive).
  std::mutex route_mu_;
  std::unordered_map<std::string, WriteRoute> route_cache_;
  // Tables that have taken a routed write (guarded by route_mu_):
  // their layout is frozen (ApplyFragmentationDdl).
  std::set<std::string> routed_tables_;
  // Fan-out (node count) of the most recent logical write, surfaced
  // by EXPLAIN ANALYZE as fragment/write_fanout.
  std::atomic<uint64_t> last_write_fanout_{0};
};

/// cjdbc::Driver implementation that interposes the Apuama Engine —
/// plugging this into a Controller is the entire integration, exactly
/// the "no C-JDBC source change" property the paper claims.
class ApuamaDriver : public cjdbc::Driver {
 public:
  explicit ApuamaDriver(ApuamaEngine* engine) : engine_(engine) {}

  Result<std::unique_ptr<cjdbc::Connection>> Connect(int node_id) override;
  int num_nodes() const override { return engine_->num_nodes(); }
  share::WorkSharingHooks* work_sharing() override { return engine_; }
  std::optional<std::vector<int>> RouteWrite(
      const std::string& sql) override {
    return engine_->RouteWriteTargets(sql);
  }

 private:
  ApuamaEngine* engine_;
};

}  // namespace apuama

#endif  // APUAMA_APUAMA_APUAMA_ENGINE_H_
