#include "apuama/node_processor.h"

#include <condition_variable>

#include "obs/trace.h"

namespace apuama {

namespace {
// Counting-semaphore guard over the connection pool.
class PoolSlot {
 public:
  PoolSlot(std::mutex* mu, std::condition_variable* cv, int* available)
      : mu_(mu), cv_(cv), available_(available) {
    std::unique_lock<std::mutex> lock(*mu_);
    cv_->wait(lock, [this] { return *available_ > 0; });
    --*available_;
  }
  ~PoolSlot() {
    {
      std::lock_guard<std::mutex> lock(*mu_);
      ++*available_;
    }
    cv_->notify_one();
  }

 private:
  std::mutex* mu_;
  std::condition_variable* cv_;
  int* available_;
};
}  // namespace

NodeProcessor::NodeProcessor(int node_id, cjdbc::ReplicaSet* replicas,
                             NodeProcessorOptions options)
    : node_id_(node_id), replicas_(replicas), options_(options),
      pool_available_(options.pool_size < 1 ? 1 : options.pool_size) {
  if (options_.exec_threads > 0) {
    std::lock_guard<std::mutex> node_lock(*replicas_->node_mutex(node_id_));
    replicas_->node(node_id_)->settings()->exec_threads =
        options_.exec_threads;
  }
}

Result<engine::QueryResult> NodeProcessor::Execute(const std::string& sql) {
  obs::Span span =
      obs::Tracer::Global().StartSpan("node.execute", "node");
  if (span.active()) span.AddAttr("node", node_id_);
  PoolSlot slot(&pool_mu_, &pool_cv_, &pool_available_);
  statements_.fetch_add(1, std::memory_order_relaxed);
  return replicas_->ExecuteOn(node_id_, sql);
}

Result<engine::QueryResult> NodeProcessor::ExecuteSubquery(
    const std::string& sql) {
  PoolSlot slot(&pool_mu_, &pool_cv_, &pool_available_);
  subqueries_.fetch_add(1, std::memory_order_relaxed);
  if (!options_.force_index_for_svp) {
    return replicas_->ExecuteOn(node_id_, sql);
  }
  // The node executes statements under its own session mutex, so the
  // SET / query / SET sequence below is not interleaved with other
  // statements' planning on the same node... almost: ExecuteOn locks
  // per statement. Take the node mutex across the whole bracket so
  // the forced setting cannot leak into an unrelated statement, after
  // the same down-node and injected-fault check ExecuteOn makes.
  APUAMA_RETURN_NOT_OK(replicas_->AcceptStatement(node_id_));
  std::lock_guard<std::mutex> node_lock(*replicas_->node_mutex(node_id_));
  engine::Database* db = replicas_->node(node_id_);
  const bool saved = db->settings()->enable_seqscan;
  db->settings()->enable_seqscan = false;
  auto result = db->Execute(sql);
  db->settings()->enable_seqscan = saved;
  return result;
}

uint64_t NodeProcessor::TransactionCounter() const {
  return replicas_->node(node_id_)->transaction_counter();
}

}  // namespace apuama
