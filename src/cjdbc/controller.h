// The controller — C-JDBC's request manager.
//
// Clients submit SQL; the controller classifies it, schedules it
// (total order for writes, concurrent reads), and routes it: writes
// broadcast to every Database Backend, reads go to the backend the
// load balancer picks. Backends talk to the DBMS through whatever
// Driver they were built with — plug in apuama::ApuamaDriver and
// every backend transparently gains intra-query parallelism, with no
// change to this file (the paper's headline design constraint).
#ifndef APUAMA_CJDBC_CONTROLLER_H_
#define APUAMA_CJDBC_CONTROLLER_H_

#include <atomic>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "apuama/admission/admission.h"
#include "apuama/share/coalescing_gate.h"
#include "apuama/share/work_sharing.h"
#include "cjdbc/connection.h"
#include "cjdbc/load_balancer.h"
#include "cjdbc/scheduler.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "sql/ast.h"
#include "sql/settings.h"

namespace apuama::cjdbc {

/// Statement routing classes.
enum class RequestKind { kRead, kWrite, kDdl, kControl };

/// Classifies a statement (by parsing it). DDL is broadcast like a
/// write but does not advance transaction counters.
Result<RequestKind> ClassifyRequest(const std::string& sql);

/// Classification of an already-parsed statement — connection layers
/// that parse anyway (ApuamaConnection) use this to avoid a second
/// parse of every request.
RequestKind ClassifyStmt(const sql::Stmt& stmt);

/// Lock-free atomics: counters are bumped on every request while
/// stats() readers (tests, benches, the metrics registry) poll them
/// concurrently — a mutex here would serialize independent clients.
struct ControllerStats {
  std::atomic<uint64_t> reads{0};
  std::atomic<uint64_t> writes{0};
  std::atomic<uint64_t> broadcast_statements{0};  // write * touched nodes
  std::atomic<uint64_t> routed_writes{0};         // fragment-routed (< n nodes)
  std::atomic<uint64_t> failovers{0};             // backends auto-disabled
  std::atomic<uint64_t> recovered_statements{0};  // replayed on rejoin
  std::atomic<uint64_t> result_cache_hits{0};     // served without a backend
  std::atomic<uint64_t> queries_coalesced{0};     // served by an identical read
  std::atomic<uint64_t> admission_queue_wait_us{0};  // total queued time
  std::atomic<uint64_t> admission_degraded{0};    // ladder stage 2 hits
  std::atomic<uint64_t> admission_shed{0};        // ladder stage 3 hits

  /// The counters as ordered key/value pairs (registry provider,
  /// text/JSON export).
  std::vector<std::pair<std::string, uint64_t>> Kv() const;
  std::string ToString() const;
};

class Controller {
 public:
  /// Builds one Database Backend per driver node.
  Controller(std::unique_ptr<Driver> driver,
             BalancePolicy policy = BalancePolicy::kLeastPending);

  /// Client entry point: classify, schedule, route, execute.
  Result<engine::QueryResult> Execute(const std::string& sql);

  int num_backends() const { return static_cast<int>(backends_.size()); }
  const ControllerStats& stats() const { return stats_; }
  Scheduler* scheduler() { return &scheduler_; }
  LoadBalancer* load_balancer() { return &balancer_; }
  /// The SLO scheduler in front of the read path (off by default;
  /// `SET admission = on` flips it).
  admission::AdmissionController* admission() { return admission_.get(); }

  /// Disables a backend (failure injection / administrative removal);
  /// reads avoid it and broadcasts skip it, with every skipped write
  /// appended to the recovery log.
  void SetBackendEnabled(int node_id, bool enabled);

  /// Re-enables a backend and replays every write it missed from the
  /// recovery log (C-JDBC's recovery procedure), restoring replica
  /// consistency before the backend serves reads again.
  Status RecoverBackend(int node_id);

  bool IsBackendEnabled(int node_id) const;
  /// Statements currently held in the recovery log.
  size_t recovery_log_size() const { return recovery_log_.size(); }

 private:
  struct Backend {
    std::unique_ptr<Connection> conn;
    // Atomic: failover on one request's thread flips it while other
    // readers consult it lock-free.
    std::atomic<bool> enabled{true};
    size_t applied_up_to = 0;  // prefix of recovery_log_ applied

    Backend() = default;
    Backend(Backend&& o) noexcept
        : conn(std::move(o.conn)),
          enabled(o.enabled.load()),
          applied_up_to(o.applied_up_to) {}
  };

  /// The read path: result-cache probe, then the coalescing gate when
  /// `share_scans` is on, else ExecuteReadDirect.
  Result<engine::QueryResult> ExecuteRead(const std::string& sql);
  /// Read path behind the admission ladder: Submit (blocking when
  /// queued), then shed / degrade-to-APPROX / admit per the ticket.
  Result<engine::QueryResult> ExecuteAdmitted(const std::string& sql,
                                              const sql::Stmt& stmt);
  /// Applies `SET admission|slo_target_us|priority` to the admission
  /// ladder, which lives here and nowhere below. False for every
  /// other knob: those are broadcast.
  bool ApplyAdmissionKnob(const sql::Setting& setting);
  /// The pre-sharing read path: acquire a backend, execute, release.
  /// `affinity` biases least-pending ties toward one backend.
  Result<engine::QueryResult> ExecuteReadDirect(
      const std::string& sql, std::optional<uint64_t> affinity);
  /// ExecuteReadDirect under a result-cache fill ticket: the ticket
  /// snapshots write epochs BEFORE the read runs, so a racing write
  /// rejects the fill.
  Result<engine::QueryResult> ExecuteAndFill(
      const std::string& sql, const std::string& fingerprint,
      const std::set<std::string>& tables);
  /// Applies a write, DDL or control statement to `targets` (nullopt
  /// = every enabled backend). Caller holds the write ticket. A
  /// statement at least one backend applied enters the recovery log
  /// with its target set, so rejoin replay routes the same way; one
  /// no backend applied leaves the log unchanged.
  Result<engine::QueryResult> ExecuteBroadcast(
      const std::string& sql,
      const std::optional<std::vector<int>>& targets = std::nullopt);

  std::unique_ptr<Driver> driver_;
  std::vector<Backend> backends_;
  Scheduler scheduler_;
  LoadBalancer balancer_;
  /// Hooks into the middleware's work-sharing state (null when the
  /// driver has no middleware layer — the gate stays inert).
  share::WorkSharingHooks* sharing_ = nullptr;
  std::unique_ptr<share::CoalescingGate> gate_;
  std::unique_ptr<admission::AdmissionController> admission_;
  int64_t gate_window_base_us_ = 0;  // restored when admission turns off
  // Total-ordered log of every applied broadcast statement (writes,
  // DDL and session control), kept for recovering rejoining backends.
  // Guarded by the write ticket (one broadcast at a time) plus log_mu_
  // for readers. An entry with a non-empty target set only replays on
  // those nodes.
  struct LogEntry {
    std::string sql;
    std::vector<int> targets;  // empty = all nodes
  };
  std::vector<LogEntry> recovery_log_;
  mutable std::mutex log_mu_;
  ControllerStats stats_;
  obs::Registry::ProviderHandle metrics_provider_;
};

}  // namespace apuama::cjdbc

#endif  // APUAMA_CJDBC_CONTROLLER_H_
