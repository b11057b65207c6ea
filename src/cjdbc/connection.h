// Driver / Connection abstraction.
//
// C-JDBC reaches databases through JDBC drivers; the controller only
// sees an object it can push SQL text through. We keep that boundary:
// Database backends hold Connections created by a Driver. The plain
// DirectDriver connects straight to a node's DBMS (C-JDBC alone);
// Apuama supplies its own driver that interposes NodeProcessors
// (apuama/node_processor.h), which is exactly how the paper wires
// Apuama in without touching C-JDBC.
#ifndef APUAMA_CJDBC_CONNECTION_H_
#define APUAMA_CJDBC_CONNECTION_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/database.h"
#include "engine/query_result.h"

namespace apuama::share {
class WorkSharingHooks;
}  // namespace apuama::share

namespace apuama::cjdbc {

/// One logical connection to one backend DBMS.
class Connection {
 public:
  virtual ~Connection() = default;

  /// Executes one SQL statement and returns its result.
  virtual Result<engine::QueryResult> Execute(const std::string& sql) = 0;

  /// Executes a recovery-replay statement on this node only. The
  /// controller holds the write order during recovery, so middleware
  /// layers (e.g. Apuama's consistency bracket, which expects writes
  /// to be broadcast) must pass this straight through. `routed` says
  /// whether the original statement was fragment-routed (its log
  /// entry carried explicit targets) — middleware that offsets
  /// replica counters for routed writes needs the original routing,
  /// not a recompute against possibly-changed metadata. Defaults to
  /// Execute.
  virtual Result<engine::QueryResult> ExecuteRecovery(
      const std::string& sql, bool routed) {
    (void)routed;
    return Execute(sql);
  }

  /// Executes `sqls` one by one; results align with `sqls`. Nothing
  /// in the controller calls it. It stays only because the wall-clock
  /// benchmark's timing connection (wallbench/harness.cc) overrides
  /// it and that harness's unit test calls it.
  virtual std::vector<Result<engine::QueryResult>> ExecuteShared(
      const std::vector<std::string>& sqls) {
    std::vector<Result<engine::QueryResult>> out;
    out.reserve(sqls.size());
    for (const auto& sql : sqls) out.push_back(Execute(sql));
    return out;
  }

  /// The node this connection is bound to.
  virtual int node_id() const = 0;
};

/// Creates connections to cluster nodes.
class Driver {
 public:
  virtual ~Driver() = default;
  virtual Result<std::unique_ptr<Connection>> Connect(int node_id) = 0;
  virtual int num_nodes() const = 0;

  /// Work-sharing hooks (result cache + knobs) the controller's
  /// admission gate uses. Null (the default) leaves the gate inert —
  /// a driver without a middleware layer shares nothing.
  virtual share::WorkSharingHooks* work_sharing() { return nullptr; }

  /// Write routing: the node ids that must synchronously apply this
  /// write, or nullopt to broadcast to every backend (the default —
  /// full replication). A driver aware of physical fragmentation
  /// returns the owning fragment's replica set, shrinking per-write
  /// fan-out from n to the replica factor.
  virtual std::optional<std::vector<int>> RouteWrite(
      const std::string& sql) {
    (void)sql;
    return std::nullopt;
  }
};

/// The replicated database: owns one engine::Database per node, each
/// with its own buffer pool, plus a per-node mutex (a node executes
/// statements one at a time, like a connection-serialized session).
class ReplicaSet {
 public:
  struct NodeOptions {
    size_t buffer_pool_pages = 4096;
  };

  ReplicaSet(int num_nodes, NodeOptions options);

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  engine::Database* node(int i) { return nodes_[static_cast<size_t>(i)]->db.get(); }
  std::mutex* node_mutex(int i) { return &nodes_[static_cast<size_t>(i)]->mu; }

  /// Runs a DDL/DML statement on every replica (schema setup, bulk
  /// load scripts). Stops at the first error.
  Status ApplyToAll(const std::string& sql);

  /// Executes on one node under its mutex, after AcceptStatement.
  Result<engine::QueryResult> ExecuteOn(int node_id, const std::string& sql);

  /// The check every statement for `node_id` passes before it takes
  /// the node mutex: InvalidArgument for a bad id, Unavailable when
  /// the node is marked down or an injected fault is pending (which
  /// this call consumes). Callers that lock the node themselves must
  /// run it first.
  Status AcceptStatement(int node_id);

  /// Failure injection: a node marked unavailable refuses statements
  /// until brought back. Its data is untouched (a crashed-but-
  /// recoverable replica).
  void SetNodeAvailable(int node_id, bool available);
  bool IsNodeAvailable(int node_id) const;
  /// Ids of currently available nodes, ascending.
  std::vector<int> AvailableNodes() const;

  /// Flaky-node injection: the next `count` statements on `node_id`
  /// return Unavailable while the node stays listed by
  /// AvailableNodes() (a transient fault, not a marked-down node).
  /// Overwrites any previous count; 0 clears the injection.
  void FailNextStatements(int node_id, int count);

 private:
  struct NodeState {
    std::unique_ptr<engine::Database> db;
    std::mutex mu;
    std::atomic<bool> available{true};
    std::atomic<int> fail_next{0};
  };
  std::vector<std::unique_ptr<NodeState>> nodes_;
};

/// Driver that connects the controller directly to replica DBMSs —
/// plain C-JDBC with no Apuama layer (baseline configuration).
class DirectDriver : public Driver {
 public:
  explicit DirectDriver(ReplicaSet* replicas) : replicas_(replicas) {}

  Result<std::unique_ptr<Connection>> Connect(int node_id) override;
  int num_nodes() const override { return replicas_->num_nodes(); }

 private:
  ReplicaSet* replicas_;
};

}  // namespace apuama::cjdbc

#endif  // APUAMA_CJDBC_CONNECTION_H_
