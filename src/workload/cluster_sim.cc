#include "workload/cluster_sim.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "apuama/result_composer.h"
#include "apuama/share/query_fingerprint.h"
#include "engine/database.h"
#include "obs/trace.h"
#include "sql/parser.h"
#include "storage/catalog.h"

namespace apuama::workload {

using engine::QueryResult;

namespace {

/// Bytes one shipped fact row occupies on the exchange wire
/// (serialized key + payload columns, order of magnitude).
constexpr uint64_t kExchangeRowBytes = 64;

// Modeled relative CI half-width of a full scramble at ratio 1.0 —
// the anchor of the sim's deterministic early-exit rule (the real
// stack computes the width from per-group moments instead).
constexpr double kSimFullScrambleHalfWidth = 0.005;

/// Node multiprogramming level: statements one node serves at once.
constexpr int kNodeMpl = 2;

/// Result-cache capacity when `result_cache` is on (the real stack's
/// default).
constexpr size_t kResultCacheEntries = 256;

/// Fraction of the key span [lo, hi) whose owning fragments do NOT
/// host `node` — the rows the exchange operator must ship to serve
/// the interval there. Edge fragments are open-ended, like routing.
double NonLocalFraction(const FragmentationSpec& spec, int node,
                        int64_t lo, int64_t hi) {
  if (hi <= lo) return 0.0;
  int64_t nonlocal = 0;
  for (int f = 0; f < spec.fragments; ++f) {
    const int64_t b0 =
        f == 0 ? std::numeric_limits<int64_t>::min()
               : spec.bounds[static_cast<size_t>(f)];
    const int64_t b1 =
        f == spec.fragments - 1
            ? std::numeric_limits<int64_t>::max()
            : spec.bounds[static_cast<size_t>(f) + 1];
    const int64_t o0 = std::max(lo, b0);
    const int64_t o1 = std::min(hi, b1);
    if (o1 <= o0) continue;
    const std::vector<int>& hosts = spec.HostsOf(f);
    if (std::find(hosts.begin(), hosts.end(), node) == hosts.end()) {
      nonlocal += o1 - o0;
    }
  }
  return static_cast<double>(nonlocal) / static_cast<double>(hi - lo);
}

}  // namespace

struct ClusterSim::SvpTicket {
  std::string original_sql;
  SvpPlan plan;
  // SVP: one slot per node. AVP: grows per chunk.
  std::vector<QueryResult> partials;
  std::vector<std::string> sub_sql;  // SVP only
  int remaining = 0;                 // SVP: nodes outstanding;
                                     // AVP: nodes still pumping chunks
  /// Serve from the modeled scramble (the APPROX verb, or a stage-2
  /// degrade for this request alone).
  bool approx = false;
  std::unique_ptr<AvpScheduler> avp;
  SimOutcome outcome;
  ReadFinish finish;
  uint64_t span = 0;          // sim.read, parent for the spans below
  uint64_t barrier_span = 0;  // sim.barrier_wait, open while queued
};

struct ClusterSim::WriteTicket {
  std::string sql;
  std::string target_table;  // for result-cache epoch bumps
  int remaining = 0;
  SimOutcome outcome;
  Callback done;
  uint64_t span = 0;  // sim.write
};

struct ClusterSim::ShareBatch {
  // Followers complete when the leader does, with the leader's
  // outcome (identical fingerprint = identical query = identical
  // result, so coalescing cannot change any client's bits).
  std::vector<std::pair<SimOutcome, ReadFinish>> followers;
};

ClusterSim::ClusterSim(const tpch::TpchData& data, ClusterSimOptions options)
    : options_(options),
      catalog_(tpch::MakeTpchCatalog(data, options.key_headroom)),
      balancer_(options.num_nodes, options.policy) {
  // Derive the paper-like buffer-pool size when unspecified: the full
  // fact table must miss on one node while a 1/4 partition fits.
  engine::Database probe(engine::DatabaseOptions{.buffer_pool_pages = 0});
  Status s = data.LoadInto(&probe);
  (void)s;
  size_t lineitem_pages =
      (*probe.catalog()->GetTable("lineitem"))->num_pages();
  size_t orders_pages = (*probe.catalog()->GetTable("orders"))->num_pages();
  pool_pages_ = options.buffer_pool_pages != 0
                    ? options.buffer_pool_pages
                    : std::max<size_t>(
                          64, (lineitem_pages + orders_pages) * 30 / 100);

  replicas_ = std::make_unique<cjdbc::ReplicaSet>(
      options.num_nodes,
      cjdbc::ReplicaSet::NodeOptions{.buffer_pool_pages = pool_pages_});
  s = data.LoadIntoReplicas(replicas_.get());
  (void)s;
  const int exec_threads = options.exec_threads > 0
                               ? options.exec_threads
                               : engine::DefaultExecThreads();
  for (int i = 0; i < options.num_nodes; ++i) {
    replicas_->node(i)->settings()->exec_threads = exec_threads;
  }
  if (options_.fragmentation) {
    // Shared-nothing overlay: the TPC-H preset, co-partitioning
    // lineitem and orders on the orderkey over this cluster.
    Status fs = tpch::ApplyTpchFragmentationPreset(
        &catalog_, options_.num_nodes, options_.replica_factor,
        options_.fragments);
    (void)fs;  // preset tables always belong to the registered space
  }
  rewriter_ = std::make_unique<SvpRewriter>(&catalog_);
  for (int i = 0; i < options.num_nodes; ++i) {
    servers_.push_back(std::make_unique<sim::SimServer>(&sim_, kNodeMpl));
  }
  if (options.result_cache) {
    result_cache_ = std::make_unique<share::ResultCache>(kResultCacheEntries);
  }
  if (options_.admission) {
    admission::AdmissionController::Options adm;
    adm.enabled = true;
    adm.default_slo_us = options_.admission_slo_us;
    adm.max_inflight = options_.admission_max_inflight > 0
                           ? options_.admission_max_inflight
                           : options_.num_nodes * kNodeMpl;
    adm.queue_limit = options_.admission_queue_limit;
    adm.window_base_us =
        static_cast<int64_t>(options_.admission_window_us);
    adm.window_max_us =
        std::max<int64_t>(2'000, adm.window_base_us * 10);
    admission_ =
        std::make_unique<admission::AdmissionController>(adm);
  }
  if (options_.trace) {
    obs::Tracer& tracer = obs::Tracer::Global();
    tracer.SetClock([this] { return static_cast<int64_t>(sim_.now()); });
    tracer.SetEnabled(true);
  }
}

ClusterSim::~ClusterSim() {
  if (options_.trace) {
    // Restore the steady clock; leave the tracer enabled so span
    // trees recorded in virtual time stay dumpable after the sim is
    // gone.
    obs::Tracer::Global().SetClock(nullptr);
  }
}

std::vector<int> ClusterSim::PendingCounts() const {
  std::vector<int> out;
  out.reserve(servers_.size());
  for (const auto& s : servers_) out.push_back(s->pending());
  return out;
}

SimTime ClusterSim::node_busy_time(int i) const {
  return servers_[static_cast<size_t>(i)]->busy_time();
}

SimTime ClusterSim::Scaled(int node, SimTime t) const {
  if (options_.node_speed_factors.empty()) return t;
  double f = options_.node_speed_factors[static_cast<size_t>(node)];
  return static_cast<SimTime>(static_cast<double>(t) * f);
}

bool ClusterSim::ReplicasConverged() const {
  uint64_t first = replicas_->node(0)->transaction_counter();
  for (int i = 1; i < options_.num_nodes; ++i) {
    if (replicas_->node(i)->transaction_counter() != first) return false;
  }
  return true;
}

void ClusterSim::SubmitRead(const std::string& sql, Callback done) {
  SubmitRead(sql, ReadTag{}, std::move(done));
}

void ClusterSim::SubmitRead(const std::string& sql, const ReadTag& tag,
                            Callback done) {
  SimOutcome outcome;
  outcome.submitted = sim_.now();
  ReadFinish finish = [done = std::move(done)](
                          const SimOutcome& o, const QueryResult*) {
    if (done) done(o);
  };
  auto parsed = sql::ParseSelect(sql);
  const bool approx = parsed.ok() && (*parsed)->approx;
  if (!admission_) {
    SubmitReadFront(sql, outcome, std::move(finish), approx);
    return;
  }
  // Admission ladder first: the sim mirror of the controller's
  // ExecuteAdmitted, in virtual time. The release callback runs
  // inline (fast path) or inside a completing read's event.
  admission::AdmissionController::Request request;
  request.priority = tag.priority;
  request.slo_us = tag.slo_us;
  request.tenant = tag.tenant;
  request.degradable = parsed.ok() && !approx;
  admission_->Submit(
      request, static_cast<int64_t>(sim_.now()),
      [this, sql, outcome, finish,
       approx](const admission::AdmissionController::Ticket& ticket) mutable {
        if (ticket.shed()) {
          // Stage 3: the rejection still costs the client one message
          // round trip before the retryable error lands.
          outcome.shed = true;
          sim_.After(cost_.message_us,
                     [this, outcome, finish]() mutable {
                       outcome.completed = sim_.now();
                       outcome.status = Status::Overloaded(
                           "admission control shed the query; retry later");
                       finish(outcome, nullptr);
                     });
          return;
        }
        ReadFinish wrapped =
            [this, ticket, finish](const SimOutcome& o,
                                   const QueryResult* r) {
              admission_->OnComplete(ticket,
                                     static_cast<int64_t>(sim_.now()),
                                     o.status.ok());
              finish(o, r);
            };
        if (ticket.degraded()) {
          // Stage 2: this read alone runs on the approx tier, and —
          // like an APPROX read — bypasses the sharing front end so a
          // sampled answer never fills the exact cache.
          SimOutcome degraded = outcome;
          degraded.degraded = true;
          SubmitReadCore(sql, degraded, std::move(wrapped), std::nullopt,
                         /*approx=*/true);
          return;
        }
        SubmitReadFront(sql, outcome, std::move(wrapped), approx);
      });
}

void ClusterSim::SubmitReadFront(const std::string& sql,
                                 SimOutcome outcome, ReadFinish finish,
                                 bool approx) {
  if (approx || (!options_.result_cache && !options_.share_scans)) {
    // Approx mode bypasses the sharing front end: a modeled-sample
    // answer must never fill the (exact) result cache or feed a
    // coalesced follower.
    SubmitReadCore(sql, outcome, std::move(finish), std::nullopt, approx);
    return;
  }

  // Work-sharing front end — the sim mirror of the controller's
  // admission gate. Non-SELECT reads bypass it entirely.
  auto tables = share::ReadTableSet(sql);
  if (!tables.has_value()) {
    SubmitReadCore(sql, outcome, std::move(finish), std::nullopt,
                   /*approx=*/false);
    return;
  }
  const std::string fingerprint = share::NormalizeSql(sql);
  const uint64_t affinity = share::FingerprintHash(fingerprint);

  if (result_cache_) {
    if (auto hit = result_cache_->Lookup(fingerprint, catalog_.version())) {
      // Served from the controller: one message round-trip, no node.
      ++result_cache_hits_;
      sim_.After(cost_.message_us,
                 [this, outcome, hit, finish]() mutable {
                   outcome.completed = sim_.now();
                   obs::Tracer::Global().Record(
                       "sim.cache_hit", "sim", 0, outcome.submitted,
                       outcome.completed);
                   finish(outcome, hit.get());
                 });
      return;
    }
  }

  if (!options_.share_scans) {
    // Cache-only mode: solo execution under a fill ticket.
    SubmitReadCore(sql, outcome,
                   WithCacheFill(sql, fingerprint, std::move(finish)),
                   affinity, /*approx=*/false);
    return;
  }

  // Admission batching: identical fingerprints arriving within the
  // window ride one execution.
  auto it = open_shares_.find(fingerprint);
  if (it != open_shares_.end()) {
    ++queries_coalesced_;
    obs::Tracer::Global().Record("sim.coalesced", "sim", 0, sim_.now(),
                                 sim_.now());
    it->second->followers.emplace_back(outcome, std::move(finish));
    return;
  }
  auto batch = std::make_shared<ShareBatch>();
  open_shares_[fingerprint] = batch;
  // Stage 1 of the admission ladder: under overload the controller
  // widens the window so more arrivals coalesce into this batch.
  const SimTime window =
      admission_ ? static_cast<SimTime>(admission_->window_us())
                 : options_.admission_window_us;
  sim_.After(window,
             [this, sql, fingerprint, affinity, outcome, batch,
              finish = std::move(finish)] {
               open_shares_.erase(fingerprint);
               ReadFinish fan_out =
                   [batch, finish](const SimOutcome& o,
                                   const QueryResult* r) {
                     finish(o, r);
                     for (auto& [fo, ff] : batch->followers) {
                       fo.completed = o.completed;
                       fo.status = o.status;
                       fo.used_svp = o.used_svp;
                       ff(fo, r);
                     }
                   };
               SubmitReadCore(sql, outcome,
                              WithCacheFill(sql, fingerprint,
                                            std::move(fan_out)),
                              affinity, /*approx=*/false);
             });
}

ClusterSim::ReadFinish ClusterSim::WithCacheFill(
    const std::string& sql, const std::string& fingerprint,
    ReadFinish finish) {
  if (!result_cache_) return finish;
  auto tables = share::ReadTableSet(sql);
  if (!tables.has_value()) return finish;
  // Epochs snapshot BEFORE execution: a write overlapping the read
  // rejects the fill inside Insert.
  share::ResultCache::FillTicket ticket = result_cache_->BeginFill(
      fingerprint, catalog_.version(), *tables, writes_completed_);
  return [this, ticket = std::move(ticket), finish = std::move(finish)](
             const SimOutcome& o, const QueryResult* r) {
    if (r != nullptr && o.status.ok()) {
      result_cache_->Insert(ticket,
                            std::make_shared<QueryResult>(*r));
    }
    finish(o, r);
  };
}

void ClusterSim::SubmitReadCore(const std::string& sql, SimOutcome outcome,
                                ReadFinish finish,
                                std::optional<uint64_t> affinity,
                                bool approx) {
  obs::Tracer& tracer = obs::Tracer::Global();
  const uint64_t read_span =
      tracer.Open("sim.read", "sim", 0, outcome.submitted);
  if (read_span != 0) {
    finish = [read_span, finish = std::move(finish)](
                 const SimOutcome& o, const QueryResult* r) {
      obs::Tracer::Global().Close(read_span, o.completed);
      finish(o, r);
    };
  }

  if (options_.enable_intra_query) {
    auto parsed = sql::ParseSelect(sql);
    if (parsed.ok() && rewriter_->TouchesFactTable(**parsed)) {
      auto plan = rewriter_->Rewrite(**parsed);
      if (plan.ok()) {
        auto ticket = std::make_shared<SvpTicket>();
        ticket->original_sql = sql;
        ticket->plan = std::move(plan).value();
        ticket->outcome = outcome;
        ticket->outcome.used_svp = true;
        ticket->approx = approx;
        ticket->finish = std::move(finish);
        ticket->span = read_span;
        if (options_.replication == ReplicationMode::kEager &&
            writes_in_flight_ > 0) {
          // Consistency barrier: wait for in-flight writes to land on
          // every replica before dispatching sub-queries.
          ++svp_barrier_waits_;
          ticket->barrier_span = tracer.Open("sim.barrier_wait", "sim",
                                             read_span, sim_.now());
          waiting_svp_.push_back(std::move(ticket));
        } else {
          if (options_.replication == ReplicationMode::kLazy &&
              !ReplicasConverged()) {
            ++stale_svp_queries_;  // reading unequal replicas
          }
          DispatchIntraQuery(std::move(ticket));
        }
        return;
      }
      // Not rewritable: fall through to the inter-query path.
    }
  }

  // Inter-query path: the C-JDBC load balancer picks one node.
  ++passthrough_reads_;
  int node = balancer_.Choose(PendingCounts(), affinity);
  tracer.AddAttrTo(read_span, "node", static_cast<int64_t>(node));
  auto shared_finish = std::make_shared<ReadFinish>(std::move(finish));
  auto shared_outcome = std::make_shared<SimOutcome>(outcome);
  auto res = std::make_shared<Result<QueryResult>>(QueryResult{});
  servers_[static_cast<size_t>(node)]->Enqueue(sim::SimServer::Job{
      [this, node, sql, res, shared_outcome] {
        *res = replicas_->ExecuteOn(node, sql);
        shared_outcome->status = res->status();
        if (res->ok()) feedback_.Observe((*res)->stats);
        return Scaled(node,
                      res->ok() ? cost_.StatementTime((*res)->stats)
                                : cost_.message_us);
      },
      [shared_finish, shared_outcome, res](SimTime t) {
        shared_outcome->completed = t;
        if (*shared_finish) {
          (*shared_finish)(*shared_outcome,
                           res->ok() ? &**res : nullptr);
        }
      }});
}

void ClusterSim::DispatchIntraQuery(std::shared_ptr<SvpTicket> ticket) {
  ++svp_queries_;
  if (ticket->barrier_span != 0) {
    obs::Tracer::Global().Close(ticket->barrier_span, sim_.now());
    ticket->barrier_span = 0;
  }
  if (options_.intra_mode == IntraQueryMode::kAvp &&
      !options_.fragmentation) {
    // AVP's range stealing assumes any node can serve any chunk; the
    // fragmentation overlay pins data, so it falls back to fragmented
    // SVP dispatch (mirroring the real stack).
    DispatchAvp(std::move(ticket));
  } else {
    DispatchSvp(std::move(ticket));
  }
  // Sub-queries dispatched: blocked writes may now proceed (updates
  // overlap sub-query execution, per the paper).
  while (!blocked_writes_.empty()) {
    auto w = std::move(blocked_writes_.front());
    blocked_writes_.pop_front();
    DispatchWrite(std::move(w));
  }
}

void ClusterSim::DispatchSvp(std::shared_ptr<SvpTicket> ticket) {
  const int n = options_.num_nodes;
  auto intervals = ticket->plan.MakeIntervals(n);

  // Fragmentation overlay: drop intervals the key predicate proves
  // empty (their partials are additive identities, so composition is
  // unchanged), then serve each survivor at the owning fragment's
  // primary host. Any key span whose fragment does not host the
  // serving node is shipped there by the exchange operator, charged
  // per byte.
  const FragmentationSpec* frag = nullptr;
  if (options_.fragmentation) {
    for (const auto& t : ticket->plan.fact_tables()) {
      if (const FragmentationSpec* s = catalog_.FragmentationFor(t)) {
        frag = s;
        break;
      }
    }
  }
  std::vector<int> serving;
  std::vector<double> nonlocal;
  if (frag != nullptr) {
    const int64_t pmin = ticket->plan.pred_min();
    const int64_t pmax = ticket->plan.pred_max();
    std::vector<std::pair<int64_t, int64_t>> kept;
    for (const auto& [lo, hi] : intervals) {
      if (lo < hi && lo <= pmax && hi - 1 >= pmin) kept.emplace_back(lo, hi);
    }
    if (kept.empty()) kept.push_back(intervals.front());  // composer needs a feed
    fragments_pruned_ += intervals.size() - kept.size();
    intervals = std::move(kept);
    for (const auto& [lo, hi] : intervals) {
      const int node = frag->HostsOf(frag->FragmentOf(lo)).front();
      serving.push_back(node);
      nonlocal.push_back(NonLocalFraction(*frag, node, lo, hi));
    }
  } else {
    serving.resize(intervals.size());
    std::iota(serving.begin(), serving.end(), 0);
    nonlocal.assign(intervals.size(), 0.0);
  }

  // Approximate tier (mirrors ApuamaEngine::ExecuteApproxPlan): carve
  // 4n sub-queries so the early exit has prefixes to stop between,
  // round-robin them over the nodes, and charge each one
  // sample_ratio of its exact scan cost. The stop point is the CLT
  // scaling made deterministic: the relative half-width after j of
  // n_sub sub-queries is h(j) = h_full * sqrt(n_sub / j), with the
  // full-scramble width h_full itself shrinking as 1 / sqrt(ratio).
  double time_scale = 1.0;
  if (ticket->approx && frag == nullptr) {
    const int n_sub = 4 * n;
    intervals = ticket->plan.MakeIntervals(n_sub);
    int keep = n_sub;
    if (options_.error_target > 0.0) {
      const double h_full =
          kSimFullScrambleHalfWidth /
          std::sqrt(std::max(1e-6, options_.sample_ratio));
      const double ratio_sq = (h_full / options_.error_target) *
                              (h_full / options_.error_target);
      keep = static_cast<int>(
          std::ceil(static_cast<double>(n_sub) * ratio_sq));
      keep = std::max(1, std::min(n_sub, keep));
    }
    ++approx_queries_;
    if (keep < n_sub) ++approx_early_exits_;
    approx_subqueries_skipped_ += static_cast<uint64_t>(n_sub - keep);
    intervals.resize(static_cast<size_t>(keep));
    serving.clear();
    nonlocal.assign(intervals.size(), 0.0);
    for (size_t i = 0; i < intervals.size(); ++i) {
      serving.push_back(static_cast<int>(i) % n);
    }
    time_scale = options_.sample_ratio;
  }

  const int m = static_cast<int>(intervals.size());
  ticket->sub_sql.clear();
  for (const auto& [lo, hi] : intervals) {
    ticket->sub_sql.push_back(ticket->plan.SubquerySql(lo, hi));
  }
  ticket->partials.resize(static_cast<size_t>(m));
  ticket->remaining = m;

  for (int k = 0; k < m; ++k) {
    const int node = serving[static_cast<size_t>(k)];
    const double ship_frac = nonlocal[static_cast<size_t>(k)];
    auto started = std::make_shared<SimTime>(0);
    servers_[static_cast<size_t>(node)]->Enqueue(sim::SimServer::Job{
        [this, ticket, k, node, ship_frac, time_scale, started] {
          *started = sim_.now();
          engine::Database* db = replicas_->node(node);
          const bool saved = db->settings()->enable_seqscan;
          if (options_.force_index_for_svp) {
            db->settings()->enable_seqscan = false;
          }
          auto r = db->Execute(ticket->sub_sql[static_cast<size_t>(k)]);
          db->settings()->enable_seqscan = saved;
          if (r.ok()) {
            feedback_.Observe(r->stats);
            SimTime t = static_cast<SimTime>(
                static_cast<double>(cost_.StatementTime(r->stats)) *
                time_scale);
            if (ship_frac > 0.0) {
              const uint64_t bytes =
                  static_cast<uint64_t>(
                      static_cast<double>(r->stats.tuples_scanned) *
                      ship_frac) *
                  kExchangeRowBytes;
              exchange_bytes_ += bytes;
              t += cost_.ExchangeTransferTime(bytes);
            }
            ticket->partials[static_cast<size_t>(k)] = std::move(r).value();
            return Scaled(node, t);
          }
          ticket->outcome.status = r.status();
          return Scaled(node, cost_.message_us);
        },
        [this, ticket, node, started](SimTime t) {
          obs::Tracer& tracer = obs::Tracer::Global();
          uint64_t sid = tracer.Record("sim.subquery", "sim", ticket->span,
                                       *started, t);
          tracer.AddAttrTo(sid, "node", static_cast<int64_t>(node));
          if (--ticket->remaining > 0) return;
          ComposeAndFinish(ticket);
        }});
  }
}

void ClusterSim::DispatchAvp(std::shared_ptr<SvpTicket> ticket) {
  const int n = options_.num_nodes;
  // Cardinality feedback: size the first chunks to the observed
  // pipeline. A vectorized/filter-heavy pipeline does less work per
  // key, so the divisor shrinks and the scheduler starts with larger
  // chunks (less per-chunk message overhead before the adaptive
  // feedback loop takes over).
  AvpOptions avp;
  avp.initial_divisor =
      cost_.AdaptedAvpDivisor(avp.initial_divisor, feedback_);
  ticket->avp = std::make_unique<AvpScheduler>(
      n, ticket->plan.domain_min(), ticket->plan.domain_max(), avp);
  ticket->remaining = n;  // nodes still pumping chunks
  for (int i = 0; i < n; ++i) {
    StartAvpChunk(ticket, i);
  }
}

void ClusterSim::StartAvpChunk(std::shared_ptr<SvpTicket> ticket,
                               int node) {
  auto chunk = ticket->avp->NextChunk(node);
  if (!chunk.has_value()) {
    if (--ticket->remaining == 0) {
      avp_chunks_ += static_cast<uint64_t>(ticket->avp->chunks_issued());
      avp_steals_ += static_cast<uint64_t>(ticket->avp->steals());
      ComposeAndFinish(ticket);
    }
    return;
  }
  auto [lo, hi] = *chunk;
  const int64_t keys = hi - lo;
  auto started = std::make_shared<SimTime>(0);
  servers_[static_cast<size_t>(node)]->Enqueue(sim::SimServer::Job{
      [this, ticket, node, lo, hi, started] {
        *started = sim_.now();
        std::string sub = ticket->plan.SubquerySql(lo, hi);
        engine::Database* db = replicas_->node(node);
        const bool saved = db->settings()->enable_seqscan;
        if (options_.force_index_for_svp) {
          db->settings()->enable_seqscan = false;
        }
        auto r = db->Execute(sub);
        db->settings()->enable_seqscan = saved;
        if (r.ok()) {
          feedback_.Observe(r->stats);
          SimTime t = cost_.StatementTime(r->stats);
          ticket->partials.push_back(std::move(r).value());
          return Scaled(node, t);
        }
        ticket->outcome.status = r.status();
        return Scaled(node, cost_.message_us);
      },
      [this, ticket, node, keys, started](SimTime t) {
        obs::Tracer& tracer = obs::Tracer::Global();
        uint64_t sid = tracer.Record("sim.avp_chunk", "sim", ticket->span,
                                     *started, t);
        tracer.AddAttrTo(sid, "node", static_cast<int64_t>(node));
        ticket->avp->ReportChunkTime(node, keys, t - *started);
        StartAvpChunk(ticket, node);
      }});
}

void ClusterSim::ComposeAndFinish(std::shared_ptr<SvpTicket> ticket) {
  if (!ticket->outcome.status.ok()) {
    ticket->outcome.completed = sim_.now();
    if (ticket->finish) ticket->finish(ticket->outcome, nullptr);
    return;
  }
  StreamingComposition sink(ticket->plan.composition());
  Status added = Status::OK();
  for (auto& p : ticket->partials) {
    added = sink.Add(std::move(p));
    if (!added.ok()) break;
  }
  CompositionStats cstats;
  auto final_result = std::make_shared<Result<QueryResult>>(
      added.ok() ? sink.Finish(&cstats) : Result<QueryResult>(added));
  ticket->outcome.status = final_result->status();
  SimTime compose_time =
      final_result->ok()
          ? cost_.CompositionTime(cstats.compose_exec,
                                          cstats.partial_rows)
          : 0;
  auto finish = ticket->finish;
  auto outcome = std::make_shared<SimOutcome>(ticket->outcome);
  const uint64_t parent_span = ticket->span;
  const SimTime compose_start = sim_.now();
  sim_.After(compose_time, [this, finish, outcome, final_result,
                            parent_span, compose_start] {
    outcome->completed = sim_.now();
    obs::Tracer::Global().Record("sim.compose", "sim", parent_span,
                                 compose_start, outcome->completed);
    if (finish) {
      finish(*outcome, final_result->ok() ? &**final_result : nullptr);
    }
  });
}

void ClusterSim::SubmitWrite(const std::string& sql, Callback done) {
  auto ticket = std::make_shared<WriteTicket>();
  ticket->sql = sql;
  ticket->outcome.submitted = sim_.now();
  ticket->done = std::move(done);
  ticket->span = obs::Tracer::Global().Open("sim.write", "sim", 0,
                                            ticket->outcome.submitted);
  if (options_.replication == ReplicationMode::kEager &&
      !waiting_svp_.empty()) {
    // An SVP query is preparing: new updates are blocked until its
    // sub-queries are dispatched.
    ++writes_blocked_count_;
    blocked_writes_.push_back(std::move(ticket));
    return;
  }
  DispatchWrite(std::move(ticket));
}

void ClusterSim::DispatchWrite(std::shared_ptr<WriteTicket> ticket) {
  const int n = options_.num_nodes;

  if (result_cache_) {
    // Admission bump: fills snapshotted before this point are
    // rejected; the completion bump below re-invalidates anything
    // filled while the write was applying.
    ticket->target_table = share::WriteTargetTable(ticket->sql);
    result_cache_->BeginTableWrite(ticket->target_table);
  }

  if (options_.replication == ReplicationMode::kLazy) {
    // Primary commit: the client returns once node 0 applied the
    // write; secondaries apply asynchronously after a propagation
    // delay (ordering preserved by FIFO node queues + event order).
    servers_[0]->Enqueue(sim::SimServer::Job{
        [this, ticket] {
          auto r = replicas_->ExecuteOn(0, ticket->sql);
          if (!r.ok()) ticket->outcome.status = r.status();
          return Scaled(0, r.ok() ? cost_.StatementTime(r->stats)
                                  : cost_.message_us);
        },
        [this, ticket](SimTime t) {
          ++writes_completed_;
          ticket->outcome.completed = t;
          write_latency_total_ += ticket->outcome.latency();
          obs::Tracer::Global().Close(ticket->span, t);
          if (result_cache_) {
            result_cache_->EndTableWrite(ticket->target_table);
          }
          if (ticket->done) ticket->done(ticket->outcome);
        }});
    for (int i = 1; i < n; ++i) {
      sim_.After(options_.lazy_propagation_delay_us, [this, ticket, i] {
        servers_[static_cast<size_t>(i)]->Enqueue(sim::SimServer::Job{
            [this, ticket, i] {
              auto r = replicas_->ExecuteOn(i, ticket->sql);
              return Scaled(i, r.ok()
                                   ? cost_.StatementTime(r->stats)
                                   : cost_.message_us);
            },
            [this, ticket](SimTime) {
              // Each secondary apply re-bumps: conservative (extra
              // invalidations), never stale (a fill racing any
              // replica's apply is rejected).
              if (result_cache_) {
                result_cache_->EndTableWrite(ticket->target_table);
              }
            }});
      });
    }
    return;
  }

  // Eager (the paper): broadcast + coordination. Replica-consistency
  // coordination: committing a write requires a total-order round
  // across the replicas that take it, and every participating node's
  // session is held for that round — so the per-node charge *grows
  // with the fan-out*. At full broadcast this is the mechanism behind
  // the paper's Fig. 4 stall at 16-32 nodes ("the consistency
  // protocol makes the update propagation delay hurt performance").
  // Under the fragmentation overlay a statically attributable write
  // (FragmentationSpec::WrittenFragments, the engine's router too)
  // routes to the owning fragments' replica sets, so the sync round
  // spans replica_factor nodes regardless of cluster size; the
  // remaining replicas receive the forwarded statement as a
  // background apply (full copies stay converged — the overlay is
  // logical) that costs node busy time but neither sync overhead nor
  // client latency. FIFO node queues order every background apply
  // before any read enqueued after the commit, so results stay exact.
  std::optional<std::vector<int>> fragments;
  const FragmentationSpec* spec =
      options_.fragmentation
          ? catalog_.FragmentationFor(share::WriteTargetTable(ticket->sql))
          : nullptr;
  if (spec != nullptr) {
    auto t = replicas_->node(0)->catalog()->GetTable(spec->table);
    if (t.ok()) {
      fragments = spec->WrittenFragments(ticket->sql, (*t)->schema());
    }
  }
  std::vector<int> owners;
  if (fragments.has_value()) {
    owners = spec->HostsOf(*fragments);
    ++routed_writes_;
  } else {
    owners.resize(static_cast<size_t>(n));
    std::iota(owners.begin(), owners.end(), 0);
  }
  write_fanout_total_ += owners.size();
  ++writes_in_flight_;
  ticket->remaining = static_cast<int>(owners.size());
  SimTime sync =
      cost_.WriteBroadcastOverhead(static_cast<int>(owners.size()));
  for (int i : owners) {
    servers_[static_cast<size_t>(i)]->Enqueue(sim::SimServer::Job{
        [this, ticket, i, sync] {
          auto r = replicas_->ExecuteOn(i, ticket->sql);
          if (!r.ok()) ticket->outcome.status = r.status();
          return Scaled(i, (r.ok() ? cost_.StatementTime(r->stats)
                                   : cost_.message_us) +
                               sync);
        },
        [this, ticket](SimTime t) {
          if (--ticket->remaining > 0) return;
          --writes_in_flight_;
          ++writes_completed_;
          ticket->outcome.completed = t;
          write_latency_total_ += ticket->outcome.latency();
          obs::Tracer::Global().Close(ticket->span, t);
          if (result_cache_) {
            // Completion bump: after this, no lookup can return a
            // result computed before the write.
            result_cache_->EndTableWrite(ticket->target_table);
          }
          if (ticket->done) ticket->done(ticket->outcome);
          MaybeReleaseBarrier();
        }});
  }
  if (!fragments.has_value()) return;
  for (int i = 0; i < n; ++i) {
    if (std::find(owners.begin(), owners.end(), i) != owners.end()) {
      continue;
    }
    servers_[static_cast<size_t>(i)]->Enqueue(sim::SimServer::Job{
        [this, ticket, i] {
          auto r = replicas_->ExecuteOn(i, ticket->sql);
          return Scaled(i, r.ok() ? cost_.StatementTime(r->stats)
                                  : cost_.message_us);
        },
        [](SimTime) {}});
  }
}

void ClusterSim::MaybeReleaseBarrier() {
  if (writes_in_flight_ > 0) return;
  while (!waiting_svp_.empty()) {
    auto t = std::move(waiting_svp_.front());
    waiting_svp_.pop_front();
    DispatchIntraQuery(std::move(t));
  }
}

SimOutcome ClusterSim::RunToCompletion(const std::string& sql,
                                       bool is_write) {
  SimOutcome result;
  bool fired = false;
  auto cb = [&](const SimOutcome& o) {
    result = o;
    fired = true;
  };
  if (is_write) {
    SubmitWrite(sql, cb);
  } else {
    SubmitRead(sql, cb);
  }
  sim_.Run();
  if (!fired) result.status = Status::Internal("query never completed");
  return result;
}

Result<SimTime> ClusterSim::MeasureIsolated(const std::string& sql,
                                            int reps) {
  if (reps < 2) reps = 2;
  SimTime total = 0;
  for (int i = 0; i < reps; ++i) {
    SimOutcome o = RunToCompletion(sql);
    APUAMA_RETURN_NOT_OK(o.status);
    if (i > 0) total += o.latency();  // discard the cold first run
  }
  return total / (reps - 1);
}

}  // namespace apuama::workload
