// Failover and recovery: a replica crashes mid-workload, queries and
// updates keep flowing (the crashed node's key range is redistributed
// over the survivors; writes skip it into the recovery log), then the
// node rejoins and is caught up by log replay.
//
//   $ ./build/examples/failover_recovery
#include <cstdio>

#include "apuama/apuama_engine.h"
#include "cjdbc/controller.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"
#include "tpch/tpch_catalog.h"

using namespace apuama;  // NOLINT: example code

namespace {
int64_t CountOrders(cjdbc::ReplicaSet* replicas, int node) {
  auto r = replicas->ExecuteOn(node, "select count(*) from orders");
  return r.ok() ? r->rows[0][0].int_val() : -1;
}
}  // namespace

int main() {
  tpch::TpchData data(tpch::DbgenOptions{.scale_factor = 0.002});
  cjdbc::ReplicaSet replicas(4, cjdbc::ReplicaSet::NodeOptions{});
  if (!data.LoadIntoReplicas(&replicas).ok()) return 1;
  ApuamaEngine engine(&replicas,
                      tpch::MakeTpchCatalog(data, /*headroom=*/100));
  cjdbc::Controller controller(std::make_unique<ApuamaDriver>(&engine));

  auto insert = [&](int64_t k) {
    return controller.Execute(
        "insert into orders values (" + std::to_string(k) +
        ", 1, 'O', 42.0, date '1998-02-01', '2-HIGH', 'clerk', 0, 'ha')");
  };
  int64_t base = data.max_orderkey();

  std::printf("== 4-node cluster, normal operation ==\n");
  if (!insert(base + 1).ok()) return 1;
  auto q = controller.Execute(*tpch::QuerySql(6));
  std::printf("Q6 over 4 nodes: %s (revenue=%s)\n",
              q.ok() ? "ok" : "FAILED",
              q.ok() ? q->rows[0][0].ToString().c_str() : "-");

  std::printf("\n== node 2 crashes ==\n");
  replicas.SetNodeAvailable(2, false);
  // Writes keep succeeding: the broadcast detects the failure,
  // disables the backend, and the statement lands in the recovery log.
  if (!insert(base + 2).ok()) return 1;
  if (!insert(base + 3).ok()) return 1;
  std::printf("2 writes succeeded during the outage "
              "(failovers detected: %llu)\n",
              static_cast<unsigned long long>(
                  controller.stats().failovers));
  // Statements every survivor rejects fail for the client and stay
  // out of the recovery log, so they cannot block node 2's rejoin.
  const bool bad_insert_rejected =
      !controller.Execute("insert into region values (1)").ok();
  const bool bad_set_rejected =
      !controller.Execute("set exec_threads = 0").ok();
  std::printf("malformed INSERT rejected: %s; SET exec_threads = 0 "
              "rejected: %s\n",
              bad_insert_rejected ? "yes" : "NO",
              bad_set_rejected ? "yes" : "NO");
  if (!bad_insert_rejected || !bad_set_rejected) return 1;
  // OLAP keeps answering: node 2's key interval went to the survivors.
  q = controller.Execute(*tpch::QuerySql(6));
  std::printf("Q6 over 3 survivors: %s (revenue=%s)\n",
              q.ok() ? "ok" : "FAILED",
              q.ok() ? q->rows[0][0].ToString().c_str() : "-");

  std::printf("\n== node 2 rejoins ==\n");
  replicas.SetNodeAvailable(2, true);
  std::printf("before recovery: node 2 has %lld orders, others %lld\n",
              static_cast<long long>(CountOrders(&replicas, 2)),
              static_cast<long long>(CountOrders(&replicas, 0)));
  if (!controller.RecoverBackend(2).ok()) {
    std::printf("recovery FAILED\n");
    return 1;
  }
  std::printf("after recovery:  node 2 has %lld orders "
              "(replayed %llu statements from the recovery log)\n",
              static_cast<long long>(CountOrders(&replicas, 2)),
              static_cast<unsigned long long>(
                  controller.stats().recovered_statements));
  std::printf("replicas consistent: %s\n",
              engine.ReplicasConsistent() ? "yes" : "NO (bug!)");
  q = controller.Execute(*tpch::QuerySql(6));
  std::printf("Q6 over all 4 nodes again: %s\n",
              q.ok() ? "ok" : "FAILED");
  return engine.ReplicasConsistent() && q.ok() ? 0 : 1;
}
