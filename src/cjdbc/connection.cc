#include "cjdbc/connection.h"

namespace apuama::cjdbc {

ReplicaSet::ReplicaSet(int num_nodes, NodeOptions options) {
  nodes_.reserve(static_cast<size_t>(num_nodes));
  for (int i = 0; i < num_nodes; ++i) {
    auto state = std::make_unique<NodeState>();
    engine::DatabaseOptions db_opts;
    db_opts.buffer_pool_pages = options.buffer_pool_pages;
    state->db = std::make_unique<engine::Database>(db_opts);
    nodes_.push_back(std::move(state));
  }
}

Status ReplicaSet::ApplyToAll(const std::string& sql) {
  for (int i = 0; i < num_nodes(); ++i) {
    APUAMA_RETURN_NOT_OK(ExecuteOn(i, sql).status());
  }
  return Status::OK();
}

Status ReplicaSet::AcceptStatement(int node_id) {
  if (node_id < 0 || node_id >= num_nodes()) {
    return Status::InvalidArgument("bad node id");
  }
  NodeState& n = *nodes_[static_cast<size_t>(node_id)];
  if (!n.available.load()) {
    return Status::Unavailable("node " + std::to_string(node_id) +
                               " is down");
  }
  for (int cur = n.fail_next.load(); cur > 0;) {
    if (n.fail_next.compare_exchange_weak(cur, cur - 1)) {
      return Status::Unavailable("node " + std::to_string(node_id) +
                                 " dropped statement (injected fault)");
    }
  }
  return Status::OK();
}

Result<engine::QueryResult> ReplicaSet::ExecuteOn(int node_id,
                                                  const std::string& sql) {
  APUAMA_RETURN_NOT_OK(AcceptStatement(node_id));
  NodeState& n = *nodes_[static_cast<size_t>(node_id)];
  std::lock_guard<std::mutex> lock(n.mu);
  return n.db->Execute(sql);
}

void ReplicaSet::SetNodeAvailable(int node_id, bool available) {
  if (node_id >= 0 && node_id < num_nodes()) {
    nodes_[static_cast<size_t>(node_id)]->available.store(available);
  }
}

void ReplicaSet::FailNextStatements(int node_id, int count) {
  if (node_id >= 0 && node_id < num_nodes()) {
    nodes_[static_cast<size_t>(node_id)]->fail_next.store(count);
  }
}

bool ReplicaSet::IsNodeAvailable(int node_id) const {
  if (node_id < 0 || node_id >= num_nodes()) return false;
  return nodes_[static_cast<size_t>(node_id)]->available.load();
}

std::vector<int> ReplicaSet::AvailableNodes() const {
  std::vector<int> out;
  for (int i = 0; i < num_nodes(); ++i) {
    if (IsNodeAvailable(i)) out.push_back(i);
  }
  return out;
}

namespace {
class DirectConnection : public Connection {
 public:
  DirectConnection(ReplicaSet* replicas, int node_id)
      : replicas_(replicas), node_id_(node_id) {}

  Result<engine::QueryResult> Execute(const std::string& sql) override {
    return replicas_->ExecuteOn(node_id_, sql);
  }

  int node_id() const override { return node_id_; }

 private:
  ReplicaSet* replicas_;
  int node_id_;
};
}  // namespace

Result<std::unique_ptr<Connection>> DirectDriver::Connect(int node_id) {
  if (node_id < 0 || node_id >= replicas_->num_nodes()) {
    return Status::Unavailable("no such node");
  }
  return std::unique_ptr<Connection>(
      new DirectConnection(replicas_, node_id));
}

}  // namespace apuama::cjdbc
