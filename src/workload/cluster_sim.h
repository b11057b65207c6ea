// Virtual-time cluster driver: the full middleware stack (C-JDBC
// routing decisions + Apuama SVP + composition) running over
// simulated nodes.
//
// Every statement is *really executed* against the replica databases
// (correct results, real buffer-pool state per node); *when* things
// happen is decided by the discrete-event core: each node is a
// k-server FIFO queue whose service times come from ExecStats through
// the CostModel. The Apuama blocking protocol is modeled exactly:
// an SVP query waits until all previously submitted writes are fully
// broadcast, blocks newly arriving writes while it waits, dispatches
// all sub-queries atomically, then releases the writes.
//
// Beyond the paper's configuration the driver also supports:
//  * AVP intra-query mode (adaptive chunks + range stealing, the
//    related-work technique of section 6) — see apuama/avp.h;
//  * lazy replication (the paper's future-work proposal): writes
//    commit on a primary and propagate asynchronously; SVP queries
//    skip the consistency barrier and may read stale replicas
//    (counted);
//  * per-node speed factors for heterogeneous-cluster experiments.
#ifndef APUAMA_WORKLOAD_CLUSTER_SIM_H_
#define APUAMA_WORKLOAD_CLUSTER_SIM_H_

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "apuama/admission/admission.h"
#include "apuama/avp.h"
#include "apuama/share/result_cache.h"
#include "apuama/svp_rewriter.h"
#include "cjdbc/load_balancer.h"
#include "common/status.h"
#include "engine/query_result.h"
#include "sim/cost_model.h"
#include "sim/event_sim.h"
#include "tpch/dbgen.h"
#include "tpch/tpch_catalog.h"

namespace apuama::workload {

/// How fact-table queries are parallelized.
enum class IntraQueryMode { kSvp, kAvp };

/// How writes reach the replicas.
enum class ReplicationMode {
  kEager,  // paper: broadcast, total order, SVP barrier
  kLazy,   // future work: primary commit + async propagation
};

struct ClusterSimOptions {
  int num_nodes = 4;
  /// Buffer-pool pages per node. 0 derives a paper-like default from
  /// the data size (≈ 30% of the fact-table heap: the full fact table
  /// does not fit on one node, a quarter partition does).
  size_t buffer_pool_pages = 0;
  /// Intra-query parallelism on (Apuama) or off (plain C-JDBC).
  bool enable_intra_query = true;
  /// SVP (the paper) or AVP (related work) for eligible queries.
  IntraQueryMode intra_mode = IntraQueryMode::kSvp;
  /// Forced index usage for sub-queries (ablation 1).
  bool force_index_for_svp = true;
  ReplicationMode replication = ReplicationMode::kEager;
  /// Lazy mode: delay before a committed write is applied to each
  /// secondary replica.
  SimTime lazy_propagation_delay_us = 2000;
  cjdbc::BalancePolicy policy = cjdbc::BalancePolicy::kLeastPending;
  /// Extra partition-key headroom registered in the Data Catalog so
  /// refresh inserts stay covered.
  int64_t key_headroom = 0;
  /// Per-node slowdown factors (service time multipliers); empty =
  /// homogeneous cluster. Size must equal num_nodes when set.
  std::vector<double> node_speed_factors;
  /// Intra-node morsel execution threads per simulated node. Pinned
  /// (default 1, the paper's single-threaded executor) rather than
  /// inherited from APUAMA_EXEC_THREADS / the host's core count, so
  /// simulated figures are bit-reproducible on any machine. <= 0 =
  /// engine::DefaultExecThreads() (opt-in, used by fig2 deltas).
  int exec_threads = 1;
  /// Inter-query work sharing, mirroring `SET result_cache` /
  /// `SET share_scans` on the real stack. Both off = byte-for-byte
  /// today's behavior.
  bool result_cache = false;
  bool share_scans = false;
  /// Approximate-tier mirror, for `APPROX SELECT` reads and stage-2
  /// degrades: SVP-eligible reads run as 4n sub-queries over a
  /// modeled scramble of `sample_ratio`, each charged sample_ratio of
  /// the exact scan cost. `error_target` > 0 enables the
  /// deterministic early-exit model: only the sub-query prefix the
  /// CLT scaling needs for that relative half-width is dispatched,
  /// the rest are skipped (counted). Timing mirror only — composed
  /// rows come from the truncated exact scan, so approx runs bypass
  /// the sharing layer.
  double sample_ratio = 0.1;
  double error_target = 0.0;
  /// Physical fragmentation overlay (the shared-nothing experiment):
  /// installs the TPC-H preset — lineitem and orders co-partitioned
  /// BY HASH on the orderkey INTO `fragments` pieces, fragment f
  /// primary on node f. SVP reads prune to the intervals that
  /// intersect the query's key predicate and dispatch each interval
  /// to the owning fragment's host (charging the exchange operator's
  /// per-byte network cost for any non-local key span); eligible
  /// writes route to the owning fragment's replica set instead of
  /// broadcasting, so the client-visible sync round spans
  /// replica_factor nodes, not num_nodes. Non-owner replicas receive
  /// the forwarded statement as a background apply (the sim keeps
  /// full physical copies, mirroring the real stack's logical
  /// overlay) charged as node busy time but neither sync overhead
  /// nor client latency. Eager replication only.
  bool fragmentation = false;
  /// Copies of each fragment (1 = primary only). Routed writes pay
  /// WriteBroadcastOverhead over the owning replica set.
  int replica_factor = 1;
  /// Fragment count for the preset; 0 = num_nodes (the aligned,
  /// fully local case). A count that does not divide the SVP
  /// interval grid exercises the exchange path: intervals spanning a
  /// fragment boundary ship the non-local span to the serving node.
  int fragments = 0;
  /// How long an admission batch stays open for more arrivals
  /// (virtual time) before its leader dispatches.
  SimTime admission_window_us = 200;
  /// SLO admission-control mirror (`SET admission` on the real
  /// stack): reads pass the overload ladder before touching the
  /// sharing front end — widen the share window, degrade eligible
  /// SELECTs to the approx tier (outcome tagged `degraded`), shed
  /// lowest-priority reads with Status::Overloaded (tagged `shed`).
  /// Off = byte-for-byte today's behavior.
  bool admission = false;
  int64_t admission_slo_us = 50'000;
  /// Dispatch slots before queueing; 0 = every node's multiprogramming
  /// slots.
  int admission_max_inflight = 0;
  int admission_queue_limit = 256;
  /// Record obs::Tracer spans stamped with *virtual* time. The sim
  /// installs its clock on the global tracer for its lifetime, so at
  /// most one traced ClusterSim should exist at a time. The
  /// destructor restores the steady clock but leaves the tracer
  /// enabled (spans intact) so callers can dump the tree afterwards.
  bool trace = false;
};

/// Outcome of one simulated statement.
struct SimOutcome {
  SimTime submitted = 0;
  SimTime completed = 0;
  bool used_svp = false;
  /// The admission ladder degraded this exact read to the approx tier.
  bool degraded = false;
  /// The admission ladder shed this read (status is Overloaded).
  bool shed = false;
  Status status;

  SimTime latency() const { return completed - submitted; }
};

class ClusterSim {
 public:
  using Callback = std::function<void(const SimOutcome&)>;

  ClusterSim(const tpch::TpchData& data, ClusterSimOptions options);
  ~ClusterSim();

  sim::EventSim* event_sim() { return &sim_; }
  int num_nodes() const { return options_.num_nodes; }
  size_t pool_pages() const { return pool_pages_; }

  /// Submits a read at the current virtual time; `done` fires at its
  /// virtual completion.
  void SubmitRead(const std::string& sql, Callback done);

  /// Per-request admission identity: tenant class plus optional
  /// explicit priority/SLO overrides (the sim mirror of a session's
  /// `SET priority` / `SET slo_target_us`). Fields at their defaults
  /// fall back to the tenant class, then the controller defaults.
  struct ReadTag {
    std::string tenant;
    int priority = -1;
    int64_t slo_us = 0;
  };

  /// Tagged submission through the admission ladder. Without the
  /// admission option this behaves exactly like the untagged overload.
  void SubmitRead(const std::string& sql, const ReadTag& tag,
                  Callback done);

  /// The ladder (null when the admission option is off).
  admission::AdmissionController* admission() { return admission_.get(); }

  /// Submits a write (INSERT/DELETE/UPDATE), broadcast to all nodes
  /// (eager) or committed on the primary and propagated (lazy).
  void SubmitWrite(const std::string& sql, Callback done);

  /// Convenience: submit, run to completion, return the outcome.
  SimOutcome RunToCompletion(const std::string& sql, bool is_write = false);

  /// Mean isolated latency over `reps` repetitions, discarding the
  /// first (cache warm-up) — the paper's Fig. 2 measurement protocol.
  Result<SimTime> MeasureIsolated(const std::string& sql, int reps = 5);

  /// True when every replica has the same committed state (after a
  /// lazy run drains, this must hold again).
  bool ReplicasConverged() const;

  // Cumulative protocol counters.
  uint64_t svp_queries() const { return svp_queries_; }
  uint64_t passthrough_reads() const { return passthrough_reads_; }
  uint64_t writes_completed() const { return writes_completed_; }
  uint64_t svp_barrier_waits() const { return svp_barrier_waits_; }
  uint64_t writes_blocked() const { return writes_blocked_count_; }
  /// Lazy mode: intra-queries dispatched against unequal replicas.
  uint64_t stale_svp_queries() const { return stale_svp_queries_; }
  /// AVP mode: chunks issued / ranges stolen across all queries.
  uint64_t avp_chunks() const { return avp_chunks_; }
  uint64_t avp_steals() const { return avp_steals_; }
  /// Fragmentation overlay: writes routed to a replica set instead of
  /// broadcast, total per-write node fan-out (sync round width; n per
  /// broadcast write, replica-set size per routed write), bytes the
  /// exchange operator shipped for non-local interval spans, and SVP
  /// intervals pruned by the key predicate.
  uint64_t routed_writes() const { return routed_writes_; }
  uint64_t write_fanout_total() const { return write_fanout_total_; }
  uint64_t exchange_bytes() const { return exchange_bytes_; }
  uint64_t fragments_pruned() const { return fragments_pruned_; }
  /// Approximate tier: SVP reads served from the modeled scramble,
  /// reads whose error target stopped them early, and sub-queries
  /// those stops skipped.
  uint64_t approx_queries() const { return approx_queries_; }
  uint64_t approx_early_exits() const { return approx_early_exits_; }
  uint64_t approx_subqueries_skipped() const {
    return approx_subqueries_skipped_;
  }
  /// Work sharing: reads served straight from the result cache,
  /// cache misses, and reads that rode another query's admission.
  uint64_t result_cache_hits() const { return result_cache_hits_; }
  uint64_t result_cache_misses() const {
    return result_cache_ ? result_cache_->misses() : 0;
  }
  uint64_t queries_coalesced() const { return queries_coalesced_; }
  /// Mean virtual write (commit) latency so far.
  SimTime mean_write_latency() const {
    return writes_completed_ == 0
               ? 0
               : write_latency_total_ /
                     static_cast<SimTime>(writes_completed_);
  }

  /// Node utilization: busy time of node i so far.
  SimTime node_busy_time(int i) const;

  /// Cardinality feedback accumulated from every executed read
  /// statement (passthrough, SVP sub-query, AVP chunk). DispatchAvp
  /// reads it to adapt the initial chunk divisor to the observed
  /// pipeline (vectorized fraction + semi-join filter survival).
  const sim::CardinalityFeedback& feedback() const { return feedback_; }

 private:
  struct SvpTicket;  // one in-flight intra-parallel query
  struct WriteTicket;
  struct ShareBatch;  // one open admission batch (by fingerprint)

  /// Read completion hook carrying the computed result (null on
  /// error) so the sharing layer can fill the cache and fan results
  /// out to coalesced followers.
  using ReadFinish =
      std::function<void(const SimOutcome&, const engine::QueryResult*)>;

  /// The post-admission read path: sharing front end (cache probe,
  /// coalescing window) or straight to the core. `approx` carries the
  /// per-request approx decision (the APPROX verb or a stage-2
  /// degrade).
  void SubmitReadFront(const std::string& sql, SimOutcome outcome,
                       ReadFinish finish, bool approx);
  /// The pre-sharing read path (SVP/AVP or load-balanced
  /// passthrough). `affinity` biases least-pending ties.
  void SubmitReadCore(const std::string& sql, SimOutcome outcome,
                      ReadFinish finish,
                      std::optional<uint64_t> affinity, bool approx);
  /// Wraps `finish` with a cache fill under a ticket snapshotted now.
  ReadFinish WithCacheFill(const std::string& sql,
                           const std::string& fingerprint,
                           ReadFinish finish);
  void DispatchIntraQuery(std::shared_ptr<SvpTicket> ticket);
  void DispatchSvp(std::shared_ptr<SvpTicket> ticket);
  void DispatchAvp(std::shared_ptr<SvpTicket> ticket);
  void StartAvpChunk(std::shared_ptr<SvpTicket> ticket, int node);
  void ComposeAndFinish(std::shared_ptr<SvpTicket> ticket);
  void DispatchWrite(std::shared_ptr<WriteTicket> ticket);
  void MaybeReleaseBarrier();
  std::vector<int> PendingCounts() const;
  SimTime Scaled(int node, SimTime t) const;

  ClusterSimOptions options_;
  const sim::CostModel cost_;
  size_t pool_pages_ = 0;
  sim::EventSim sim_;
  std::unique_ptr<cjdbc::ReplicaSet> replicas_;
  std::vector<std::unique_ptr<sim::SimServer>> servers_;
  DataCatalog catalog_;
  std::unique_ptr<SvpRewriter> rewriter_;
  cjdbc::LoadBalancer balancer_;
  std::unique_ptr<admission::AdmissionController> admission_;

  // Blocking-protocol state (virtual-time mirror of
  // apuama::ConsistencyManager). Unused in lazy replication mode.
  int writes_in_flight_ = 0;
  std::deque<std::shared_ptr<SvpTicket>> waiting_svp_;
  std::deque<std::shared_ptr<WriteTicket>> blocked_writes_;

  uint64_t svp_queries_ = 0;
  uint64_t passthrough_reads_ = 0;
  uint64_t writes_completed_ = 0;
  uint64_t svp_barrier_waits_ = 0;
  uint64_t writes_blocked_count_ = 0;
  uint64_t stale_svp_queries_ = 0;
  uint64_t avp_chunks_ = 0;
  uint64_t avp_steals_ = 0;
  uint64_t routed_writes_ = 0;
  uint64_t write_fanout_total_ = 0;
  uint64_t exchange_bytes_ = 0;
  uint64_t fragments_pruned_ = 0;
  uint64_t approx_queries_ = 0;
  uint64_t approx_early_exits_ = 0;
  uint64_t approx_subqueries_skipped_ = 0;
  SimTime write_latency_total_ = 0;

  // Work-sharing mirror: versioned result cache (allocated only when
  // the knob is on) plus open admission batches by fingerprint.
  std::unique_ptr<share::ResultCache> result_cache_;
  std::unordered_map<std::string, std::shared_ptr<ShareBatch>>
      open_shares_;
  uint64_t result_cache_hits_ = 0;
  uint64_t queries_coalesced_ = 0;

  // Observed-cardinality accumulator (single-threaded: all Observe
  // calls run inside the event loop's service-time lambdas).
  sim::CardinalityFeedback feedback_;
};

}  // namespace apuama::workload

#endif  // APUAMA_WORKLOAD_CLUSTER_SIM_H_
