// SLO-driven admission control: the ladder gate itself (deadlines,
// priorities, bounded queue, degrade, shed, epoch-rotating p99),
// load-balancer pending-count hygiene, the deterministic open-loop
// traffic harness over the sim, and the real-thread controller path
// (knob validation, byte-for-byte `SET admission = off`, typed
// Overloaded shedding, EXPLAIN ANALYZE rows, concurrency stress).
//
// The correctness bar: with admission off every read is bit-identical
// to the pre-admission stack; with it on, the same seed replays the
// same admit/degrade/shed sequence, every Submit releases exactly
// once, shed queries fail with the retryable kOverloaded status, and
// at overload the ladder's goodput is at least twice the gateless
// baseline's.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "apuama/admission/admission.h"
#include "apuama/apuama_engine.h"
#include "cjdbc/controller.h"
#include "cjdbc/load_balancer.h"
#include "common/status.h"
#include "engine/database.h"
#include "tests/test_util.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"
#include "tpch/tpch_catalog.h"
#include "workload/cluster_sim.h"
#include "workload/traffic.h"

namespace apuama {
namespace {

using admission::AdmissionController;
using engine::QueryResult;
using testutil::AnalyzeMetric;
using Ticket = AdmissionController::Ticket;
using Request = AdmissionController::Request;

const tpch::TpchData& TinyData() {
  static const tpch::TpchData* data =
      new tpch::TpchData(tpch::DbgenOptions{.scale_factor = 0.001});
  return *data;
}

// ---------------------------------------------------------------------------
// Gate unit tests (pure virtual time — no clocks, no threads)
// ---------------------------------------------------------------------------

AdmissionController::Options GateOptions() {
  AdmissionController::Options o;
  o.enabled = true;
  o.max_inflight = 2;
  o.queue_limit = 4;
  o.default_slo_us = 50'000;
  return o;
}

/// Submits expecting an inline release; fails the test otherwise.
Ticket MustRelease(AdmissionController* gate, const Request& r,
                   int64_t now) {
  std::optional<Ticket> got;
  gate->Submit(r, now, [&](const Ticket& t) { got = t; });
  EXPECT_TRUE(got.has_value()) << "release did not fire inline";
  return got.value_or(Ticket{});
}

TEST(AdmissionGateTest, DisabledGateAdmitsInlineWithBaseWindow) {
  AdmissionController::Options o = GateOptions();
  o.enabled = false;
  AdmissionController gate(o);
  Ticket t = MustRelease(&gate, Request{}, 100);
  EXPECT_EQ(t.action, AdmissionController::Action::kAdmit);
  EXPECT_EQ(t.window_us, o.window_base_us);
  EXPECT_EQ(t.queue_wait_us(), 0);
  EXPECT_EQ(gate.inflight(), 1);
  gate.OnComplete(t, 200, true);
  EXPECT_EQ(gate.inflight(), 0);
  EXPECT_EQ(gate.counters().admitted, 1u);
}

TEST(AdmissionGateTest, AdmitsUpToMaxInflightThenQueues) {
  AdmissionController gate(GateOptions());
  Ticket a = MustRelease(&gate, Request{}, 0);
  Ticket b = MustRelease(&gate, Request{}, 0);
  EXPECT_EQ(gate.inflight(), 2);

  std::optional<Ticket> c;
  gate.Submit(Request{}, 10, [&](const Ticket& t) { c = t; });
  EXPECT_FALSE(c.has_value()) << "third request should wait in queue";
  EXPECT_EQ(gate.queued(), 1);

  gate.OnComplete(a, 500, true);
  ASSERT_TRUE(c.has_value()) << "completion must drain the queue";
  EXPECT_EQ(c->action, AdmissionController::Action::kAdmit);
  EXPECT_EQ(c->queue_wait_us(), 490);
  EXPECT_EQ(gate.queued(), 0);
  gate.OnComplete(b, 600, true);
  gate.OnComplete(*c, 700, true);
  EXPECT_EQ(gate.inflight(), 0);
  EXPECT_EQ(gate.counters().queued, 1u);
}

TEST(AdmissionGateTest, QueueDrainsHighestPriorityFirst) {
  AdmissionController::Options o = GateOptions();
  o.max_inflight = 1;
  AdmissionController gate(o);
  Ticket head = MustRelease(&gate, Request{}, 0);

  std::vector<int> release_order;
  for (int priority : {0, 7, 4}) {
    Request r;
    r.priority = priority;
    gate.Submit(r, 1, [&release_order](const Ticket& t) {
      release_order.push_back(t.priority);
    });
  }
  EXPECT_TRUE(release_order.empty());

  gate.OnComplete(head, 100, true);  // frees one slot: p7 dispatches
  ASSERT_EQ(release_order.size(), 1u);
  EXPECT_EQ(release_order[0], 7);
  // Completing each released request frees the slot for the next.
  gate.OnComplete(Ticket{.dispatch_us = 100, .priority = 7, .tenant = {}},
                  200, true);
  gate.OnComplete(Ticket{.dispatch_us = 200, .priority = 4, .tenant = {}},
                  300, true);
  EXPECT_EQ(release_order, (std::vector<int>{7, 4, 0}));
}

TEST(AdmissionGateTest, ShedsWhenTheBoundedQueueIsFull) {
  AdmissionController::Options o = GateOptions();
  o.max_inflight = 1;
  o.queue_limit = 1;
  AdmissionController gate(o);
  Ticket head = MustRelease(&gate, Request{}, 0);
  gate.Submit(Request{}, 0, [](const Ticket&) {});  // fills the queue
  Ticket shed = MustRelease(&gate, Request{}, 0);
  EXPECT_TRUE(shed.shed());
  EXPECT_EQ(gate.counters().shed, 1u);
  gate.OnComplete(head, 10, true);
}

TEST(AdmissionGateTest, HopelessBacklogShedsLowPrioritySparesHigh) {
  // ewma seeds at 1000 us; a 100 us deadline predicts 10x the SLO.
  // Priority 0 sheds at 2x, priority 7 tolerates up to 16x.
  AdmissionController gate(GateOptions());
  Request low;
  low.slo_us = 100;
  low.priority = 0;
  EXPECT_TRUE(MustRelease(&gate, low, 0).shed());
  Request high = low;
  high.priority = 7;
  EXPECT_FALSE(MustRelease(&gate, high, 0).shed());
}

TEST(AdmissionGateTest, QueuedRequestCancelledOnceWaitAteTheSlo) {
  AdmissionController::Options o = GateOptions();
  o.max_inflight = 1;
  AdmissionController gate(o);
  Ticket head = MustRelease(&gate, Request{}, 0);
  Request r;
  // Backlog model at arrival: (1000 + 1000) / 150 = 13.3x the SLO —
  // under priority 7's shed rung (16x), so it queues rather than
  // shedding; patience = slo * (priority + 1) = 1200 us.
  r.slo_us = 150;
  r.priority = 7;
  std::optional<Ticket> released;
  gate.Submit(r, 0, [&](const Ticket& t) { released = t; });
  gate.OnComplete(head, 5'000, true);  // drain far past the patience
  ASSERT_TRUE(released.has_value());
  EXPECT_TRUE(released->shed());
  EXPECT_EQ(gate.counters().cancelled, 1u);
  EXPECT_EQ(gate.inflight(), 0) << "a cancel must not eat a slot";
}

TEST(AdmissionGateTest, DegradesEligibleSelectsWhenPredictionMissesSlo) {
  AdmissionController::Options o = GateOptions();
  o.max_inflight = 8;
  AdmissionController gate(o);
  // Drive the service-time EWMA far above a 10 ms deadline.
  for (int i = 0; i < 8; ++i) {
    Ticket t = MustRelease(&gate, Request{}, i * 100'000);
    gate.OnComplete(t, i * 100'000 + 80'000, true);
  }
  EXPECT_GT(gate.ewma_service_us(), 10'000);

  Request degradable;
  degradable.slo_us = 10'000;
  degradable.degradable = true;
  Ticket d = MustRelease(&gate, degradable, 900'000);
  EXPECT_TRUE(d.degraded());
  EXPECT_GT(gate.window_us(), o.window_base_us)
      << "stage 1 must widen the share window under overload";
  EXPECT_LE(gate.window_us(), o.window_max_us);
  gate.OnComplete(d, 900'100, true);

  Request exact = degradable;
  exact.degradable = false;  // not a plain SELECT: stage 2 skips it
  Ticket e = MustRelease(&gate, exact, 900'200);
  EXPECT_EQ(e.action, AdmissionController::Action::kAdmit);
  gate.OnComplete(e, 900'300, true);
}

TEST(AdmissionGateTest, WindowRestoresOnceTheGateRecovers) {
  AdmissionController::Options o = GateOptions();
  o.max_inflight = 8;
  // Short epochs so the one huge latency rotates out of the observed
  // p99 within this test's worth of healthy completions.
  o.p99_min_count = 8;
  o.p99_epoch = 16;
  AdmissionController gate(o);
  Request r;
  r.slo_us = 10'000;
  r.priority = 7;  // highest shed rung: recovery traffic must land,
                   // not shed (shed tickets never update the EWMA)
  Ticket slow = MustRelease(&gate, r, 0);
  gate.OnComplete(slow, 500'000, true);  // one huge service time
  MustRelease(&gate, r, 600'000);
  EXPECT_GT(gate.window_us(), o.window_base_us);
  // Dozens of fast completions pull the EWMA back under the SLO.
  for (int i = 0; i < 64; ++i) {
    Ticket t = MustRelease(&gate, r, 700'000 + i * 1'000);
    gate.OnComplete(t, 700'000 + i * 1'000 + 50, true);
  }
  MustRelease(&gate, r, 900'000);
  EXPECT_EQ(gate.window_us(), o.window_base_us);
}

TEST(AdmissionGateTest, EpochRotationForgetsAColdStartTail) {
  AdmissionController::Options o = GateOptions();
  o.max_inflight = 4;
  o.p99_min_count = 4;
  o.p99_epoch = 8;
  AdmissionController gate(o);
  Request r;
  r.slo_us = 10'000;
  r.degradable = true;
  // A cold-start epoch of 100 ms latencies pins p99 over the SLO...
  int64_t now = 0;
  for (int i = 0; i < 8; ++i) {
    Ticket t = MustRelease(&gate, r, now);
    now += 100'000;
    gate.OnComplete(t, now, true);
  }
  EXPECT_GT(gate.ClassP99Us(""), 10'000);
  EXPECT_TRUE(MustRelease(&gate, r, now).degraded());

  // ...but two healthy epochs age it out: p99 falls back under the
  // SLO and the ladder steps down to plain admission. Without
  // rotation this recovery never happens (histograms do not decay).
  for (int i = 0; i < 17; ++i) {
    Ticket t = MustRelease(&gate, r, now);
    now += 100;
    gate.OnComplete(t, now, true);
  }
  EXPECT_LT(gate.ClassP99Us(""), 10'000);
  Ticket healthy = MustRelease(&gate, r, now + 1'000);
  EXPECT_EQ(healthy.action, AdmissionController::Action::kAdmit);
}

TEST(AdmissionGateTest, TenantClassSuppliesDefaultsRequestOverrides) {
  AdmissionController gate(GateOptions());
  gate.SetTenantClass("gold", 2'000, 6);
  Request r;
  r.tenant = "gold";
  Ticket t = MustRelease(&gate, r, 0);
  EXPECT_EQ(t.slo_us, 2'000);
  EXPECT_EQ(t.priority, 6);
  gate.OnComplete(t, 10, true);

  Request explicit_r = r;
  explicit_r.slo_us = 7'000;
  explicit_r.priority = 1;
  Ticket u = MustRelease(&gate, explicit_r, 20);
  EXPECT_EQ(u.slo_us, 7'000);
  EXPECT_EQ(u.priority, 1);
  gate.OnComplete(u, 30, true);
}

TEST(AdmissionGateTest, EverySubmitReleasesExactlyOnce) {
  AdmissionController::Options o = GateOptions();
  o.max_inflight = 2;
  o.queue_limit = 2;
  AdmissionController gate(o);
  int releases = 0;
  std::vector<Ticket> dispatched;
  const int kSubmits = 40;
  for (int i = 0; i < kSubmits; ++i) {
    Request r;
    r.priority = i % 8;
    gate.Submit(r, i * 10, [&](const Ticket& t) {
      ++releases;
      if (!t.shed()) dispatched.push_back(t);
    });
    if (i % 3 == 0 && !dispatched.empty()) {
      Ticket t = dispatched.back();
      dispatched.pop_back();
      gate.OnComplete(t, i * 10 + 5, true);
    }
  }
  while (!dispatched.empty()) {
    Ticket t = dispatched.back();
    dispatched.pop_back();
    gate.OnComplete(t, 1'000'000, true);
  }
  EXPECT_EQ(releases, kSubmits);
  EXPECT_EQ(gate.inflight(), 0);
  EXPECT_EQ(gate.queued(), 0);
  const auto c = gate.counters();
  EXPECT_EQ(c.admitted + c.degraded + c.shed + c.cancelled,
            static_cast<uint64_t>(kSubmits));
}

// ---------------------------------------------------------------------------
// Load balancer pending-count hygiene (satellite of the shed path)
// ---------------------------------------------------------------------------

TEST(LoadBalancerPendingTest, ReleaseClampsAtZero) {
  cjdbc::LoadBalancer lb(3, cjdbc::BalancePolicy::kLeastPending);
  lb.Release(0);
  lb.Release(0);
  EXPECT_EQ(lb.pending(0), 0)
      << "double release must not go negative: a negative count wins "
         "every least-pending pick and funnels all reads to one node";
  // With counts intact, three acquires spread across all three nodes.
  std::vector<int> hits(3, 0);
  for (int i = 0; i < 3; ++i) hits[static_cast<size_t>(lb.Acquire())]++;
  EXPECT_EQ(hits, (std::vector<int>{1, 1, 1}));
}

TEST(LoadBalancerPendingTest, LeaseReleasesExactlyOnce) {
  cjdbc::LoadBalancer lb(2, cjdbc::BalancePolicy::kLeastPending);
  {
    cjdbc::LoadBalancer::Lease lease(&lb, std::nullopt);
    EXPECT_EQ(lb.pending(lease.node()), 1);
    lease.release();
    EXPECT_EQ(lb.pending(lease.node()), 0);
    lease.release();  // idempotent; destructor must also be a no-op
    EXPECT_EQ(lb.pending(lease.node()), 0);
  }
  EXPECT_EQ(lb.pending(0) + lb.pending(1), 0);
}

TEST(LoadBalancerPendingTest, CountsReturnToZeroAfterChurn) {
  cjdbc::LoadBalancer lb(4, cjdbc::BalancePolicy::kLeastPending);
  std::vector<int> nodes;
  for (int i = 0; i < 32; ++i) nodes.push_back(lb.Acquire());
  for (int n : nodes) lb.Release(n);
  for (int n : nodes) lb.Release(n);  // error paths double-release
  for (int i = 0; i < 4; ++i) EXPECT_EQ(lb.pending(i), 0) << "node " << i;
}

// ---------------------------------------------------------------------------
// Open-loop harness over the sim: determinism + the ladder's goodput
// ---------------------------------------------------------------------------

workload::ClusterSimOptions SimOptions(bool admission) {
  workload::ClusterSimOptions o;
  o.num_nodes = 3;
  o.result_cache = false;  // repeats must cost work or nothing overloads
  o.share_scans = true;
  o.admission = admission;
  o.admission_slo_us = 40'000;
  return o;
}

workload::TrafficOptions Mix(double rate_qps, SimTime duration_us,
                             uint64_t seed) {
  workload::TrafficOptions t;
  t.rate_qps = rate_qps;
  t.duration_us = duration_us;
  t.seed = seed;
  workload::TenantSpec dash;
  dash.name = "dash";
  dash.weight = 3.0;
  dash.priority = 6;
  dash.slo_us = 40'000;
  dash.queries = {*tpch::QuerySql(6), *tpch::QuerySql(14)};
  workload::TenantSpec batch;
  batch.name = "batch";
  batch.weight = 1.0;
  batch.priority = 1;
  batch.slo_us = 300'000;
  batch.queries = {*tpch::QuerySql(1)};
  t.tenants = {dash, batch};
  t.default_slo_us = 40'000;
  return t;
}

TEST(TrafficHarnessTest, SameSeedReplaysTheSameActionSequence) {
  auto run = [] {
    workload::ClusterSim sim(TinyData(), SimOptions(true));
    return workload::RunOpenLoop(&sim, Mix(600.0, 400'000, 99));
  };
  workload::OpenLoopResult a = run();
  workload::OpenLoopResult b = run();
  ASSERT_GT(a.offered, 0u);
  EXPECT_EQ(a.action_seq, b.action_seq);
  EXPECT_EQ(a.latencies, b.latencies);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_EQ(a.shed, b.shed);
  EXPECT_EQ(a.slo_met, b.slo_met);
  for (const auto& [tenant, stats] : a.per_tenant) {
    const auto it = b.per_tenant.find(tenant);
    ASSERT_NE(it, b.per_tenant.end()) << tenant;
    EXPECT_EQ(stats.offered, it->second.offered) << tenant;
    EXPECT_EQ(stats.slo_met, it->second.slo_met) << tenant;
  }
}

TEST(TrafficHarnessTest, EveryArrivalIsAccountedFor) {
  workload::ClusterSim sim(TinyData(), SimOptions(true));
  workload::OpenLoopResult r =
      workload::RunOpenLoop(&sim, Mix(800.0, 300'000, 7));
  EXPECT_EQ(r.completed + r.shed + r.errors, r.offered);
  EXPECT_EQ(r.action_seq.find('.'), std::string::npos)
      << "an arrival never resolved: " << r.action_seq;
  EXPECT_EQ(r.action_seq.size(), r.offered);
}

struct LoadPoint {
  double goodput = 0.0;
  workload::OpenLoopResult r;
};

LoadPoint RunLoad(bool admission, double rate_qps) {
  workload::ClusterSim sim(TinyData(), SimOptions(admission));
  LoadPoint p;
  p.r = workload::RunOpenLoop(&sim, Mix(rate_qps, 400'000, 21));
  p.goodput = p.r.GoodputQps(sim.event_sim()->now());
  return p;
}

TEST(TrafficHarnessTest, LadderHoldsGoodputAtTwiceBaselineUnderOverload) {
  // Well past saturation for 3 nodes of this tiny data set: the
  // gateless baseline queues unboundedly and almost nothing lands
  // inside its SLO; the ladder degrades and sheds to keep answering.
  const double overload_qps = 1'200.0;
  LoadPoint off = RunLoad(false, overload_qps);
  LoadPoint on = RunLoad(true, overload_qps);
  EXPECT_EQ(off.r.shed, 0u) << "no gate, nothing sheds";
  EXPECT_GT(on.r.shed + on.r.degraded, 0u) << "ladder never engaged";
  EXPECT_GE(on.goodput, 2.0 * off.goodput)
      << "on=" << on.goodput << " off=" << off.goodput;
}

TEST(TrafficHarnessTest, GoodputDoesNotCollapseAsOverloadDeepens) {
  LoadPoint moderate = RunLoad(true, 600.0);
  LoadPoint deep = RunLoad(true, 2'400.0);
  ASSERT_GT(moderate.goodput, 0.0);
  EXPECT_GE(deep.goodput, 0.8 * moderate.goodput)
      << "deep=" << deep.goodput << " moderate=" << moderate.goodput;
}

TEST(TrafficHarnessTest, ShedReadFailsWithRetryableOverloadedStatus) {
  workload::ClusterSimOptions o = SimOptions(true);
  o.admission_max_inflight = 1;
  o.admission_queue_limit = 1;
  workload::ClusterSim sim(TinyData(), o);
  const std::string q = *tpch::QuerySql(6);
  std::vector<workload::SimOutcome> outcomes;
  for (int i = 0; i < 3; ++i) {
    sim.SubmitRead(q, workload::ClusterSim::ReadTag{},
                   [&](const workload::SimOutcome& out) {
                     outcomes.push_back(out);
                   });
  }
  sim.event_sim()->Run();
  ASSERT_EQ(outcomes.size(), 3u);
  int sheds = 0;
  for (const auto& out : outcomes) {
    if (!out.shed) continue;
    ++sheds;
    EXPECT_EQ(out.status.code(), StatusCode::kOverloaded);
    EXPECT_NE(out.status.message().find("retry"), std::string::npos)
        << out.status.ToString();
  }
  EXPECT_EQ(sheds, 1) << "slot + queue of one: exactly the third sheds";
}

// ---------------------------------------------------------------------------
// Real-thread controller path: knobs, bit-identity, typed shed,
// EXPLAIN ANALYZE, stress
// ---------------------------------------------------------------------------

struct AdmissionCluster {
  explicit AdmissionCluster(int nodes = 3)
      : replicas(nodes,
                 cjdbc::ReplicaSet::NodeOptions{.buffer_pool_pages = 0}) {
    EXPECT_TRUE(TinyData().LoadIntoReplicas(&replicas).ok());
    engine = std::make_unique<ApuamaEngine>(
        &replicas, tpch::MakeTpchCatalog(TinyData()));
    controller = std::make_unique<cjdbc::Controller>(
        std::make_unique<ApuamaDriver>(engine.get()));
  }

  Result<QueryResult> Exec(const std::string& sql) {
    return controller->Execute(sql);
  }
  void MustExec(const std::string& sql) {
    auto r = controller->Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
  }

  cjdbc::ReplicaSet replicas;
  std::unique_ptr<ApuamaEngine> engine;
  std::unique_ptr<cjdbc::Controller> controller;
};

const std::vector<int>& ReadSet() {
  static const std::vector<int> qs = {1, 3, 6, 12, 14};
  return qs;
}

TEST(AdmissionKnobTest, KnobsValidateOnTheWholeCluster) {
  AdmissionCluster c;
  auto exec = [&](const std::string& sql) {
    return c.Exec(sql).status();
  };
  testutil::ExpectKnobValidation(exec, "admission",
                                 {"on", "off", "true", "false", "1", "0"},
                                 {"sometimes", "2"});
  testutil::ExpectKnobValidation(exec, "slo_target_us",
                                 {"1", "50000", "1000000000"},
                                 {"0", "-1", "fast", "1000000001"});
  testutil::ExpectKnobValidation(exec, "priority", {"0", "4", "7"},
                                 {"-1", "8", "high"});
  // The queue's capacity is the controller's, not a session's.
  Status limit = exec("set admission_queue_limit = 10");
  EXPECT_EQ(limit.code(), StatusCode::kNotFound) << limit.ToString();
  EXPECT_NE(limit.message().find("unknown setting"), std::string::npos)
      << limit.ToString();
}

TEST(AdmissionOffTest, TogglingOffRestoresByteForByteBaseline) {
  AdmissionCluster baseline;
  AdmissionCluster toggled;
  // Exercise the ladder, then switch it off again.
  toggled.MustExec("set admission = on");
  toggled.MustExec("set slo_target_us = 100000");
  for (int i = 0; i < 3; ++i) {
    auto r = toggled.Exec(*tpch::QuerySql(6));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  toggled.MustExec("set admission = off");

  for (int q : ReadSet()) {
    auto want = baseline.Exec(*tpch::QuerySql(q));
    auto got = toggled.Exec(*tpch::QuerySql(q));
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    testutil::ExpectResultsIdentical(*want, *got);
    EXPECT_FALSE(got->approx.degraded) << "q" << q;
  }
}

TEST(AdmissionShedTest, ShedSurfacesAsTypedRetryableOverloaded) {
  AdmissionCluster c;
  c.MustExec("set admission = on");
  // A 1 us deadline at priority 0: the seeded EWMA already predicts
  // 1000x the SLO, so the ladder sheds at arrival, deterministically.
  c.MustExec("set slo_target_us = 1");
  c.MustExec("set priority = 0");
  auto r = c.Exec(*tpch::QuerySql(6));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOverloaded);
  EXPECT_NE(r.status().message().find("retry"), std::string::npos)
      << r.status().ToString();
  EXPECT_GE(c.controller->admission()->counters().shed, 1u);

  // Relaxing the deadline recovers immediately — kOverloaded is a
  // client-retryable verdict, not a poisoned controller.
  c.MustExec("set slo_target_us = 1000000");
  auto ok = c.Exec(*tpch::QuerySql(6));
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
}

TEST(AdmissionDegradeTest, DegradedSelectIsTaggedAndFallsBackExact) {
  AdmissionCluster c;
  auto exact = c.Exec(*tpch::QuerySql(6));
  ASSERT_TRUE(exact.ok());

  c.MustExec("set admission = on");
  // Deadline just under the seeded EWMA: overload ~1.4x — above the
  // degrade threshold, far below any shed rung.
  c.MustExec("set slo_target_us = 700");
  c.MustExec("set priority = 7");
  auto degraded = c.Exec(*tpch::QuerySql(6));
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_TRUE(degraded->approx.degraded)
      << "stage 2 result must be tagged";
  EXPECT_GE(c.controller->admission()->counters().degraded, 1u);
  // No scrambled sample exists, so the approx tier fell back to the
  // exact path — same rows, still tagged as a degraded answer.
  testutil::ExpectResultsIdentical(*exact, *degraded);
}

TEST(AdmissionExplainTest, ExplainAnalyzeCarriesAdmissionRows) {
  AdmissionCluster c;
  c.MustExec("set admission = on");
  // Shed one read (as in AdmissionShedTest), then relax the deadline.
  c.MustExec("set slo_target_us = 1");
  c.MustExec("set priority = 0");
  ASSERT_EQ(c.Exec(*tpch::QuerySql(6)).status().code(),
            StatusCode::kOverloaded);
  c.MustExec("set slo_target_us = 1000000");
  auto r = c.Exec("explain analyze " + *tpch::QuerySql(6));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const auto counters = c.controller->admission()->counters();
  ASSERT_GE(counters.shed, 1u);
  EXPECT_GE(AnalyzeMetric(*r, "admission", "queue_wait_us"), 0);
  EXPECT_EQ(AnalyzeMetric(*r, "admission", "degraded_to_approx"), 0);
  EXPECT_EQ(AnalyzeMetric(*r, "admission", "shed"),
            static_cast<int64_t>(counters.shed + counters.cancelled));
}

// ---------------------------------------------------------------------------
// Concurrency stress (run under TSan in CI)
// ---------------------------------------------------------------------------

TEST(AdmissionStressTest, GateSurvivesConcurrentSubmitCompleteAndReads) {
  AdmissionController::Options o;
  o.enabled = true;
  o.max_inflight = 4;
  o.queue_limit = 64;
  o.default_slo_us = 1'000'000;
  AdmissionController gate(o);

  std::mutex mu;
  std::vector<Ticket> dispatched;
  std::atomic<int> released{0};
  std::atomic<int64_t> clock{1};
  constexpr int kThreads = 4;
  constexpr int kPerThread = 400;

  auto complete_one = [&] {
    Ticket t;
    {
      std::lock_guard<std::mutex> lock(mu);
      if (dispatched.empty()) return false;
      t = dispatched.back();
      dispatched.pop_back();
    }
    gate.OnComplete(t, clock.fetch_add(13), true);
    return true;
  };

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load()) {
      gate.counters();
      gate.window_us();
      gate.ewma_service_us();
      gate.ClassP99Us("stress");
      gate.Kv();
    }
  });

  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      for (int i = 0; i < kPerThread; ++i) {
        Request r;
        r.priority = (w + i) % 8;
        r.degradable = (i % 2) == 0;
        r.tenant = "stress";
        gate.Submit(r, clock.fetch_add(7), [&](const Ticket& t) {
          released.fetch_add(1);
          if (!t.shed()) {
            std::lock_guard<std::mutex> lock(mu);
            dispatched.push_back(t);
          }
        });
        if (i % 2 == 1) complete_one();
      }
    });
  }
  for (auto& t : workers) t.join();
  while (complete_one()) {
  }
  stop.store(true);
  reader.join();

  EXPECT_EQ(released.load(), kThreads * kPerThread);
  EXPECT_EQ(gate.inflight(), 0);
  EXPECT_EQ(gate.queued(), 0);
  const auto c = gate.counters();
  EXPECT_EQ(c.submitted, static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(c.admitted + c.degraded + c.shed + c.cancelled, c.submitted);
}

TEST(AdmissionStressTest, ControllerSurvivesReadsRacingKnobFlips) {
  AdmissionCluster c;
  c.MustExec("set admission = on");
  constexpr int kThreads = 4;
  constexpr int kQueries = 24;
  std::atomic<int> answered{0}, overloaded{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      for (int i = 0; i < kQueries; ++i) {
        auto r = c.Exec(*tpch::QuerySql((w + i) % 2 == 0 ? 6 : 14));
        if (r.ok()) {
          answered.fetch_add(1);
        } else {
          ASSERT_EQ(r.status().code(), StatusCode::kOverloaded)
              << r.status().ToString();
          overloaded.fetch_add(1);
        }
      }
    });
  }
  std::thread toggler([&] {
    for (int i = 0; i < 12; ++i) {
      auto s1 = c.Exec(i % 2 == 0 ? "set slo_target_us = 200"
                                  : "set slo_target_us = 1000000");
      ASSERT_TRUE(s1.ok());
      auto s2 = c.Exec(i % 3 == 0 ? "set admission = off"
                                  : "set admission = on");
      ASSERT_TRUE(s2.ok());
    }
  });
  for (auto& t : workers) t.join();
  toggler.join();
  EXPECT_EQ(answered.load() + overloaded.load(), kThreads * kQueries);
  EXPECT_GT(answered.load(), 0);
}

}  // namespace
}  // namespace apuama
