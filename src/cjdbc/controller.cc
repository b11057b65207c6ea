#include "cjdbc/controller.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>

#include "apuama/share/query_fingerprint.h"
#include "obs/trace.h"
#include "sql/parser.h"
#include "sql/settings.h"

namespace apuama::cjdbc {

namespace {

int64_t SteadyUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

RequestKind ClassifyStmt(const sql::Stmt& stmt) {
  switch (stmt.kind()) {
    case sql::StmtKind::kSelect:
    case sql::StmtKind::kExplain:
      return RequestKind::kRead;
    case sql::StmtKind::kInsert:
    case sql::StmtKind::kDelete:
    case sql::StmtKind::kUpdate:
      return RequestKind::kWrite;
    case sql::StmtKind::kCreateTable:
    case sql::StmtKind::kCreateIndex:
    case sql::StmtKind::kDropTable:
    case sql::StmtKind::kAlterFragment:
    case sql::StmtKind::kCreateSample:
    case sql::StmtKind::kDropSample:
      return RequestKind::kDdl;
    case sql::StmtKind::kSet:
    case sql::StmtKind::kBegin:
    case sql::StmtKind::kCommit:
    case sql::StmtKind::kRollback:
      return RequestKind::kControl;
  }
  return RequestKind::kControl;  // unreachable: all kinds enumerated
}

Result<RequestKind> ClassifyRequest(const std::string& sql) {
  APUAMA_ASSIGN_OR_RETURN(sql::StmtPtr stmt, sql::Parse(sql));
  return ClassifyStmt(*stmt);
}

Controller::Controller(std::unique_ptr<Driver> driver, BalancePolicy policy)
    : driver_(std::move(driver)),
      balancer_(driver_->num_nodes(), policy) {
  backends_.resize(static_cast<size_t>(driver_->num_nodes()));
  for (int i = 0; i < driver_->num_nodes(); ++i) {
    auto conn = driver_->Connect(i);
    if (conn.ok()) {
      backends_[static_cast<size_t>(i)].conn = std::move(conn).value();
    } else {
      backends_[static_cast<size_t>(i)].enabled = false;
    }
  }
  sharing_ = driver_->work_sharing();
  share::CoalescingGate::Options gate_options;
  if (sharing_ != nullptr) {
    gate_options.window_us = sharing_->admission_window_us();
  }
  gate_ = std::make_unique<share::CoalescingGate>(gate_options);
  gate_window_base_us_ = gate_options.window_us;
  admission::AdmissionController::Options adm_options;
  // Off until `SET admission = on`: the read path stays bit-identical
  // to the pre-admission controller.
  adm_options.enabled = false;
  // Dispatch capacity ≈ what the replicas absorb concurrently: two
  // requests per backend keeps every node busy while one waits.
  adm_options.max_inflight = std::max(2, driver_->num_nodes() * 2);
  adm_options.window_base_us = gate_window_base_us_;
  adm_options.window_max_us = std::max<int64_t>(
      2'000, gate_window_base_us_ * 10);
  admission_ = std::make_unique<admission::AdmissionController>(adm_options);
}

Result<engine::QueryResult> Controller::Execute(const std::string& sql) {
  // Parse once: classification, the admission ladder's degradability
  // check, and knob interception all read the same statement.
  APUAMA_ASSIGN_OR_RETURN(sql::StmtPtr stmt, sql::Parse(sql));
  const RequestKind kind = ClassifyStmt(*stmt);
  obs::Tracer& tracer = obs::Tracer::Global();
  switch (kind) {
    case RequestKind::kRead: {
      stats_.reads.fetch_add(1, std::memory_order_relaxed);
      obs::Span span = tracer.StartSpan("controller.read", "controller");
      // Admission off = the exact pre-scheduler read path, untouched.
      Result<engine::QueryResult> result = admission_->enabled()
                                               ? ExecuteAdmitted(sql, *stmt)
                                               : ExecuteRead(sql);
      if (result.ok() && stmt->kind() == sql::StmtKind::kExplain &&
          static_cast<const sql::ExplainStmt&>(*stmt).analyze) {
        // The backend rendered the breakdown before this layer stamped
        // its admission facts into the profile: render again.
        engine::RenderAnalyze(&*result);
      }
      return result;
    }
    case RequestKind::kWrite: {
      obs::Span span = tracer.StartSpan("controller.write", "controller");
      // Ask the driver where this write must land BEFORE taking the
      // write ticket (routing only parses; no backend work).
      std::optional<std::vector<int>> targets = driver_->RouteWrite(sql);
      uint64_t seq = 0;
      Scheduler::WriteTicket ticket = scheduler_.BeginWrite(&seq);
      stats_.writes.fetch_add(1, std::memory_order_relaxed);
      return ExecuteBroadcast(sql, targets);
    }
    case RequestKind::kDdl: {
      obs::Span span = tracer.StartSpan("controller.ddl", "controller");
      uint64_t seq = 0;
      Scheduler::WriteTicket ticket = scheduler_.BeginWrite(&seq);
      return ExecuteBroadcast(sql);
    }
    case RequestKind::kControl: {
      if (stmt->kind() == sql::StmtKind::kSet) {
        // A rejected SET changes no layer and never reaches the log.
        APUAMA_ASSIGN_OR_RETURN(
            sql::Setting setting,
            sql::ParseSetting(static_cast<const sql::SetStmt&>(*stmt)));
        if (ApplyAdmissionKnob(setting)) return engine::QueryResult{};
      }
      // Session control is broadcast so all replicas stay in step.
      uint64_t seq = 0;
      Scheduler::WriteTicket ticket = scheduler_.BeginWrite(&seq);
      return ExecuteBroadcast(sql);
    }
  }
  return Status::Internal("unreachable");
}

Result<engine::QueryResult> Controller::ExecuteRead(const std::string& sql) {
  // With sharing off, and for reads the cache cannot key (EXPLAIN, for
  // one), this is the plain read path.
  const bool sharing =
      sharing_ != nullptr &&
      (sharing_->sharing_enabled() || sharing_->cache_enabled());
  auto tables = sharing ? share::ReadTableSet(sql) : std::nullopt;
  if (!tables.has_value()) {
    return ExecuteReadDirect(sql, std::nullopt);
  }
  const std::string fingerprint = share::NormalizeSql(sql);
  // Cache hits are served immediately — no window, no backend.
  if (sharing_->cache_enabled()) {
    if (auto hit = sharing_->CacheLookup(fingerprint)) {
      stats_.result_cache_hits.fetch_add(1, std::memory_order_relaxed);
      obs::Tracer::Global().Instant("cache.hit", "share");
      return *hit;
    }
  }
  if (!sharing_->sharing_enabled()) {
    return ExecuteAndFill(sql, fingerprint, *tables);
  }
  // Coalescing gate: an identical read already inside its window
  // shares that read's execution; followers block until it publishes.
  auto admission = gate_->Admit(fingerprint);
  if (!admission.leader) {
    stats_.queries_coalesced.fetch_add(1, std::memory_order_relaxed);
    obs::Tracer::Global().Instant("gate.coalesced", "share");
    return gate_->Await(admission);
  }
  obs::Span window_span =
      obs::Tracer::Global().StartSpan("gate.window", "share");
  gate_->WaitWindow(admission);
  window_span.End();
  Result<engine::QueryResult> result =
      ExecuteAndFill(sql, fingerprint, *tables);
  gate_->Publish(admission, result);
  return result;
}

Result<engine::QueryResult> Controller::ExecuteAdmitted(
    const std::string& sql, const sql::Stmt& stmt) {
  admission::AdmissionController::Request request;
  // Stage 2 eligibility: a plain SELECT the client asked exact.
  // EXPLAIN stays exact (its output shape is the contract) and an
  // explicit APPROX query has nothing left to shed.
  request.degradable =
      stmt.kind() == sql::StmtKind::kSelect &&
      !static_cast<const sql::SelectStmt&>(stmt).approx;
  admission::AdmissionController::Ticket ticket;
  {
    // Block until the ladder rules: inline on the fast path, from a
    // completing request's thread when this one queued.
    std::mutex mu;
    std::condition_variable cv;
    bool ready = false;
    admission_->Submit(
        request, SteadyUs(),
        [&](const admission::AdmissionController::Ticket& t) {
          std::lock_guard<std::mutex> lock(mu);
          ticket = t;
          ready = true;
          cv.notify_one();
        });
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return ready; });
  }
  if (ticket.shed()) {
    obs::Tracer::Global().Instant("admission.shed", "controller");
    return Status::Overloaded(
        "admission control shed the query (priority " +
        std::to_string(ticket.priority) + "); retry later");
  }
  // Stage 1: hand the ladder's window to the coalescing gate so more
  // identical reads coalesce under overload.
  gate_->set_window_us(ticket.window_us);
  const bool degraded = ticket.degraded();
  if (degraded) {
    obs::Tracer::Global().Instant("admission.degrade", "controller");
  }
  // Degraded answers bypass the sharing front end: an approximate
  // result must never fill the exact-result cache or answer for an
  // exact follower. (The node falls back to exact execution by
  // itself when no scramble covers the query.)
  Result<engine::QueryResult> result =
      degraded ? ExecuteReadDirect("APPROX " + sql, std::nullopt)
               : ExecuteRead(sql);
  if (degraded && result.ok()) result->approx.degraded = true;
  admission_->OnComplete(ticket, SteadyUs(), result.ok());
  if (result.ok()) {
    const auto c = admission_->counters();
    result->profile.queue_wait_us = ticket.queue_wait_us();
    result->profile.shed = c.shed + c.cancelled;
  }
  return result;
}

bool Controller::ApplyAdmissionKnob(const sql::Setting& setting) {
  switch (setting.knob) {
    case sql::Knob::kAdmission:
      admission_->set_enabled(setting.on);
      // Restore the configured window so disabled means byte-for-byte
      // pre-admission behavior, whatever the ladder last chose.
      if (!setting.on) gate_->set_window_us(gate_window_base_us_);
      return true;
    case sql::Knob::kSloTargetUs:
      admission_->set_default_slo_us(setting.integer);
      return true;
    case sql::Knob::kPriority:
      admission_->set_default_priority(static_cast<int>(setting.integer));
      return true;
    default:
      return false;
  }
}

Result<engine::QueryResult> Controller::ExecuteReadDirect(
    const std::string& sql, std::optional<uint64_t> affinity) {
  // Admission wait = time to obtain a backend slot.
  const int64_t admit_t0 = SteadyUs();
  int node = balancer_.Acquire(affinity);
  const int64_t admission_wait_us = SteadyUs() - admit_t0;
  obs::Tracer::Global().Instant("balancer.acquire", "controller", "node",
                                node);
  Result<engine::QueryResult> result =
      Status::Unavailable("no backend available");
  if (backends_[static_cast<size_t>(node)].enabled) {
    result = backends_[static_cast<size_t>(node)].conn->Execute(sql);
    balancer_.Release(node);
  } else {
    // Balancer picked a disabled backend: fail over to the first
    // enabled one, bypassing balancer bookkeeping for this request.
    balancer_.Release(node);
    for (int i = 0; i < num_backends(); ++i) {
      if (backends_[static_cast<size_t>(i)].enabled) {
        result = backends_[static_cast<size_t>(i)].conn->Execute(sql);
        break;
      }
    }
  }
  if (result.ok()) result->profile.admission_wait_us = admission_wait_us;
  return result;
}

Result<engine::QueryResult> Controller::ExecuteAndFill(
    const std::string& sql, const std::string& fingerprint,
    const std::set<std::string>& tables) {
  auto ticket = sharing_->CacheBeginFill(fingerprint, tables);
  auto result = ExecuteReadDirect(sql, share::FingerprintHash(fingerprint));
  if (result.ok() && ticket.has_value()) {
    sharing_->CacheInsert(
        *ticket, std::make_shared<engine::QueryResult>(*result));
  }
  return result;
}

Result<engine::QueryResult> Controller::ExecuteBroadcast(
    const std::string& sql,
    const std::optional<std::vector<int>>& targets) {
  auto is_target = [&](int node_id) {
    return !targets.has_value() || std::find(targets->begin(), targets->end(),
                                             node_id) != targets->end();
  };
  engine::QueryResult last;
  // Backends up to date with this statement once it is logged: the
  // ones that applied it, and the ones a routed write does not touch.
  std::vector<Backend*> current;
  bool any = false;
  Status first_error = Status::OK();
  int node_id = -1;
  for (auto& b : backends_) {
    ++node_id;
    if (!b.enabled) continue;
    if (!is_target(node_id)) {
      current.push_back(&b);
      continue;
    }
    auto r = b.conn->Execute(sql);
    if (r.ok()) {
      last = std::move(r).value();
      current.push_back(&b);
      any = true;
      stats_.broadcast_statements.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (r.status().code() == StatusCode::kUnavailable) {
      // Failure detection: drop the backend from rotation; the write
      // succeeds on the survivors and the log covers the rejoin.
      b.enabled = false;
      stats_.failovers.fetch_add(1, std::memory_order_relaxed);
      obs::Tracer::Global().Instant("backend.failover", "controller");
      continue;
    }
    if (first_error.ok()) first_error = r.status();
  }
  if (any) {
    // Disabled (or newly failing) backends replay from here when they
    // rejoin. A statement no backend applied stays out of the log: the
    // client was told it failed, and its replay would fail the same
    // way and strand the rejoining backend. Caller holds the write
    // ticket, so the log order IS the replica write order.
    std::lock_guard<std::mutex> lock(log_mu_);
    recovery_log_.push_back(
        LogEntry{sql, targets.value_or(std::vector<int>{})});
    for (Backend* b : current) b->applied_up_to = recovery_log_.size();
  }
  APUAMA_RETURN_NOT_OK(first_error);
  if (!any) return Status::Unavailable("no backend available");
  return last;
}

void Controller::SetBackendEnabled(int node_id, bool enabled) {
  if (node_id >= 0 && node_id < num_backends()) {
    backends_[static_cast<size_t>(node_id)].enabled = enabled;
  }
}

bool Controller::IsBackendEnabled(int node_id) const {
  if (node_id < 0 || node_id >= num_backends()) return false;
  return backends_[static_cast<size_t>(node_id)].enabled;
}

Status Controller::RecoverBackend(int node_id) {
  if (node_id < 0 || node_id >= num_backends()) {
    return Status::InvalidArgument("bad node id");
  }
  Backend& b = backends_[static_cast<size_t>(node_id)];
  // Hold the write order while replaying so no new broadcast
  // interleaves with recovery (C-JDBC quiesces writes the same way).
  uint64_t seq = 0;
  Scheduler::WriteTicket ticket = scheduler_.BeginWrite(&seq);
  size_t target;
  {
    std::lock_guard<std::mutex> lock(log_mu_);
    target = recovery_log_.size();
  }
  while (b.applied_up_to < target) {
    LogEntry entry;
    {
      std::lock_guard<std::mutex> lock(log_mu_);
      entry = recovery_log_[b.applied_up_to];
    }
    bool applies = entry.targets.empty();
    for (int t : entry.targets) {
      if (t == node_id) applies = true;
    }
    if (applies) {
      APUAMA_RETURN_NOT_OK(
          b.conn->ExecuteRecovery(entry.sql, !entry.targets.empty())
              .status());
      stats_.recovered_statements.fetch_add(1, std::memory_order_relaxed);
    }
    ++b.applied_up_to;
  }
  b.enabled = true;
  return Status::OK();
}

}  // namespace apuama::cjdbc
