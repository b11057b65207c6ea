#include "apuama/apuama_engine.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <limits>
#include <map>
#include <mutex>
#include <set>
#include <tuple>

#include "apuama/share/query_fingerprint.h"
#include "cjdbc/controller.h"
#include "common/string_util.h"
#include "engine/database.h"
#include "obs/trace.h"
#include "sql/analyzer.h"
#include "sql/parser.h"
#include "sql/settings.h"
#include "sql/unparse.h"

namespace apuama {

namespace {

// Sub-query dispatch pool size: at least this many threads, and at
// least one per node.
constexpr size_t kMinDispatchThreads = 8;

int64_t SteadyUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

ApuamaEngine::ApuamaEngine(cjdbc::ReplicaSet* replicas, DataCatalog catalog,
                           ApuamaOptions options)
    : replicas_(replicas), catalog_(std::move(catalog)),
      options_(options), rewriter_(&catalog_),
      plan_cache_(options.plan_cache_entries),
      consistency_(replicas->num_nodes(), [replicas](int i) {
        return replicas->IsNodeAvailable(i);
      }),
      result_cache_(options.result_cache_entries) {
  write_credits_ = std::make_unique<std::atomic<uint64_t>[]>(
      static_cast<size_t>(replicas->num_nodes()));
  for (int i = 0; i < replicas->num_nodes(); ++i) {
    write_credits_[static_cast<size_t>(i)].store(0,
                                                 std::memory_order_relaxed);
  }
  NodeProcessorOptions node_options = options.node_options;
  if (node_options.exec_threads <= 0) {
    // Split one machine-wide thread budget across the nodes this
    // process simulates, instead of letting every node claim the full
    // hardware concurrency for itself.
    const int budget = options.exec_thread_budget > 0
                           ? options.exec_thread_budget
                           : engine::DefaultExecThreads();
    node_options.exec_threads =
        std::max(1, budget / std::max(1, replicas_->num_nodes()));
  }
  for (int i = 0; i < replicas_->num_nodes(); ++i) {
    processors_.push_back(
        std::make_unique<NodeProcessor>(i, replicas_, node_options));
  }
  dispatch_pool_ = std::make_unique<ThreadPool>(
      std::max(kMinDispatchThreads,
               static_cast<size_t>(replicas_->num_nodes())));
}

bool ApuamaEngine::ReplicasConsistent() const {
  // Down nodes are excluded: their counters freeze while unavailable
  // and they rejoin through recovery, not through this check.
  //
  // Counters are credit-adjusted: a routed write advances only its
  // target nodes' counters, and each target earns one credit for it,
  // so `counter - credit` is the count of broadcast writes — equal
  // across replicas exactly when no broadcast is in flight. With no
  // routed writes all credits are zero and this is the legacy raw
  // comparison.
  std::vector<int> alive = replicas_->AvailableNodes();
  if (alive.empty()) return true;
  auto adjusted = [this](int i) {
    return processors_[static_cast<size_t>(i)]->TransactionCounter() -
           write_credits_[static_cast<size_t>(i)].load(
               std::memory_order_acquire);
  };
  const uint64_t first = adjusted(alive[0]);
  for (int i : alive) {
    if (adjusted(i) != first) return false;
  }
  return true;
}

Result<std::shared_ptr<const PlanCache::Entry>> ApuamaEngine::RouteRead(
    const std::string& sql) {
  // Query Parser + Data Catalog: is this an SVP candidate? The
  // routing decision (and the rewritten plan prototype) is cached
  // by normalized SQL — OLAP drivers resubmit the same templates,
  // so repeats skip parse, analysis and rewrite.
  const uint64_t catalog_version = catalog_.version();
  const std::string key = PlanCache::NormalizeSql(sql);
  std::shared_ptr<const PlanCache::Entry> entry =
      plan_cache_.Lookup(key, catalog_version);
  if (entry != nullptr) return entry;
  auto built = std::make_shared<PlanCache::Entry>();
  auto parsed = sql::ParseSelect(sql);
  if (!parsed.ok() || !rewriter_.TouchesFactTable(**parsed)) {
    built->kind = PlanCache::Kind::kPassthrough;
  } else {
    auto plan = rewriter_.Rewrite(**parsed);
    if (plan.ok()) {
      built->kind = PlanCache::Kind::kSvp;
      built->plan = std::move(plan).value();
    } else if (plan.status().code() == StatusCode::kUnsupported) {
      built->kind = PlanCache::Kind::kNonRewritable;
    } else {
      return plan.status();  // real rewrite error: do not cache
    }
  }
  plan_cache_.Insert(key, catalog_version, built);
  return std::shared_ptr<const PlanCache::Entry>(std::move(built));
}

Result<engine::QueryResult> ApuamaEngine::ExecuteRead(
    int node_id, const std::string& sql) {
  const int64_t t0 = SteadyUs();
  Result<engine::QueryResult> result = RunRead(node_id, sql);
  if (result.ok()) {
    engine::QueryProfile& p = result->profile;
    p.elapsed_us = SteadyUs() - t0;
    p.output_rows = result->rows.size();
    p.result_cache_on = cache_enabled();
    p.share_scans_on = sharing_enabled();
    p.write_fanout = last_write_fanout_.load(std::memory_order_relaxed);
  }
  return result;
}

Result<engine::QueryResult> ApuamaEngine::RunRead(int node_id,
                                                  const std::string& sql) {
  if (node_id < 0 || node_id >= num_nodes()) {
    return Status::InvalidArgument("bad node id");
  }
  // Approximate tier. The verb check keeps the exact hot path
  // untouched; ineligible queries fall back to exact execution below.
  if (approx::StartsWithApproxVerb(sql)) {
    if (auto approx_result = MaybeExecuteApprox(sql)) {
      if (approx_result->ok()) (*approx_result)->profile.path = "approx";
      return std::move(*approx_result);
    }
  }
  if (options_.enable_intra_query) {
    APUAMA_ASSIGN_OR_RETURN(std::shared_ptr<const PlanCache::Entry> entry,
                            RouteRead(sql));
    switch (entry->kind) {
      case PlanCache::Kind::kSvp: {
        auto result = ExecuteSvpPlan(entry->plan.Clone(), options_.technique);
        if (result.ok()) {
          result->profile.path =
              options_.technique == IntraQueryTechnique::kAvp ? "avp" : "svp";
          return result;
        }
        if (result.status().code() != StatusCode::kUnsupported) return result;
        // Unsupported at runtime: fall through to inter-query path.
        stats_.non_rewritable.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      case PlanCache::Kind::kNonRewritable:
        stats_.non_rewritable.fetch_add(1, std::memory_order_relaxed);
        break;
      case PlanCache::Kind::kPassthrough:
        break;
    }
  }
  stats_.passthrough_reads.fetch_add(1, std::memory_order_relaxed);
  const int64_t t0 = SteadyUs();
  std::optional<Result<engine::QueryResult>> fragmented =
      ExecuteFragmentedPassthrough(node_id, sql);
  Result<engine::QueryResult> result =
      fragmented.has_value()
          ? std::move(*fragmented)
          : processors_[static_cast<size_t>(node_id)]->Execute(sql);
  if (result.ok()) {
    stats_.NoteNodeStats(result->stats);
    engine::QueryProfile& p = result->profile;
    p.path = "passthrough";
    p.subqueries = 1;
    p.subquery_min_us = p.subquery_max_us = SteadyUs() - t0;
  }
  return result;
}

std::optional<std::vector<int>> ApuamaEngine::RouteWriteTargets(
    const std::string& sql) {
  WriteRoute route = ComputeWriteRoute(sql);
  {
    std::lock_guard<std::mutex> lock(route_mu_);
    if (route_cache_.size() > 64) route_cache_.clear();
    route_cache_[sql] = route;
  }
  return route.targets;
}

Result<engine::QueryResult> ApuamaEngine::ExecuteWriteOn(
    int node_id, const std::string& sql) {
  if (node_id < 0 || node_id >= num_nodes()) {
    return Status::InvalidArgument("bad node id");
  }
  WriteRoute route;
  bool have_route = false;
  {
    std::lock_guard<std::mutex> lock(route_mu_);
    auto it = route_cache_.find(sql);
    if (it != route_cache_.end()) {
      route = it->second;
      have_route = true;
    }
  }
  if (!have_route) route = ComputeWriteRoute(sql);
  ConsistencyManager::WriteClass cls = consistency_.BeginNodeWrite(
      node_id, sql, route.targets.value_or(std::vector<int>{}), route.scope);
  if (cls == ConsistencyManager::WriteClass::kNew) {
    // Admission bump: epochs move even with the cache knob off —
    // entries filled while it was on must not survive a write
    // performed while it was off and then be served after re-enable.
    {
      std::lock_guard<std::mutex> lock(write_table_mu_);
      open_write_keys_ = route.epoch_keys;
    }
    result_cache_.BeginTableWrite(route.epoch_keys);
    stats_.writes.fetch_add(1, std::memory_order_relaxed);
    const uint64_t fanout = route.targets
                                ? static_cast<uint64_t>(route.targets->size())
                                : static_cast<uint64_t>(num_nodes());
    last_write_fanout_.store(fanout, std::memory_order_relaxed);
    stats_.write_fanout_total.fetch_add(fanout, std::memory_order_relaxed);
    if (route.targets) {
      stats_.routed_writes.fetch_add(1, std::memory_order_relaxed);
    }
  }
  auto result = processors_[static_cast<size_t>(node_id)]->Execute(sql);
  if (result.ok() && route.targets) {
    // This node advanced its transaction counter for a write the
    // non-target nodes will never see: credit it so ReplicasConsistent
    // keeps comparing counter - credit (see that function).
    write_credits_[static_cast<size_t>(node_id)].fetch_add(
        1, std::memory_order_release);
    consistency_.NotifyStateChange();
    std::lock_guard<std::mutex> lock(route_mu_);
    routed_tables_.insert(route.table);
  }
  if (consistency_.EndNodeWrite(node_id, cls)) {
    // Completion bump: after this, no lookup can return a result
    // computed before the write (see ResultCache freshness contract).
    std::vector<std::string> keys;
    {
      std::lock_guard<std::mutex> lock(write_table_mu_);
      keys = open_write_keys_;
    }
    result_cache_.EndTableWrite(keys);
  }
  return result;
}

bool ApuamaEngine::sharing_enabled() const {
  return share_scans_on_.load(std::memory_order_relaxed);
}

bool ApuamaEngine::cache_enabled() const {
  return result_cache_on_.load(std::memory_order_relaxed);
}

int64_t ApuamaEngine::admission_window_us() const {
  return options_.admission_window_us;
}

std::shared_ptr<const engine::QueryResult> ApuamaEngine::CacheLookup(
    const std::string& fingerprint) {
  return result_cache_.Lookup(fingerprint, catalog_.version());
}

std::optional<share::ResultCache::FillTicket> ApuamaEngine::CacheBeginFill(
    const std::string& fingerprint, const std::set<std::string>& tables) {
  if (!cache_enabled()) return std::nullopt;
  std::set<std::string> keys = tables;
  if (fragmentation_active()) {
    // Routed writes bump only their fragment's epoch ("t#f"), so a
    // cached result must also subscribe to the fragments it could
    // have read. The SVP plan's predicate bounds narrow that set;
    // without a plan every fragment is subscribed (conservative).
    // The bare "t" key stays subscribed either way — it catches
    // unattributable (broadcast) writes to the table.
    int64_t pred_min = std::numeric_limits<int64_t>::min();
    int64_t pred_max = std::numeric_limits<int64_t>::max();
    if (options_.enable_intra_query) {
      // The fingerprint is normalized-but-parseable SQL, so the plan
      // cache can answer for it directly.
      auto entry = RouteRead(fingerprint);
      if (entry.ok() && (*entry)->kind == PlanCache::Kind::kSvp) {
        pred_min = (*entry)->plan.pred_min();
        pred_max = (*entry)->plan.pred_max();
      }
    }
    for (const auto& t : tables) {
      const FragmentationSpec* spec = catalog_.FragmentationFor(t);
      if (spec == nullptr) continue;
      for (int f = 0; f < spec->fragments; ++f) {
        if (spec->Intersects(f, pred_min, pred_max)) {
          keys.insert(t + "#" + std::to_string(f));
        }
      }
    }
  }
  return result_cache_.BeginFill(fingerprint, catalog_.version(), keys,
                                 consistency_.logical_writes());
}

void ApuamaEngine::CacheInsert(
    const share::ResultCache::FillTicket& ticket,
    std::shared_ptr<const engine::QueryResult> result) {
  result_cache_.Insert(ticket, std::move(result));
}

void ApuamaEngine::SetShareScans(bool on) {
  share_scans_on_.store(on, std::memory_order_relaxed);
}

void ApuamaEngine::SetResultCache(bool on) {
  result_cache_on_.store(on, std::memory_order_relaxed);
}

void ApuamaEngine::InvalidateResultCache() { result_cache_.InvalidateAll(); }

Status ApuamaEngine::ApplyFragmentationDdl(
    const sql::AlterFragmentStmt& stmt) {
  FragmentationSpec spec;
  spec.table = ToLower(stmt.table);
  spec.key_column = ToLower(stmt.column);
  spec.method = stmt.by_hash ? FragmentationSpec::Method::kHash
                             : FragmentationSpec::Method::kRange;
  spec.fragments = static_cast<int>(stmt.fragments);
  spec.replica_factor =
      std::min(static_cast<int>(stmt.replica_factor), num_nodes());
  {
    std::lock_guard<std::mutex> lock(route_mu_);
    if (routed_tables_.count(spec.table) > 0) {
      // A routed write's rows live only on its fragment's hosts, so
      // any other layout would let reads miss them. The installed spec
      // stays as it is: its bounds placed those rows.
      auto layout = [](const FragmentationSpec& f) {
        return std::tie(f.key_column, f.method, f.fragments,
                        f.replica_factor);
      };
      const FragmentationSpec* installed =
          catalog_.FragmentationFor(spec.table);
      if (!stmt.unfragment && installed != nullptr &&
          layout(*installed) == layout(spec)) {
        return Status::OK();
      }
      return Status::Unsupported(
          "table " + spec.table +
          " has taken fragment-routed writes; its layout cannot change");
    }
  }
  if (stmt.unfragment) return catalog_.ClearFragmentation(spec.table);
  return catalog_.SetFragmentation(std::move(spec), num_nodes());
}

void ApuamaEngine::NoteRecoveryReplay(int node, bool routed) {
  if (routed && node >= 0 && node < num_nodes()) {
    // The replayed write was routed: its non-target replicas never
    // bumped their counters, so this node's replay bump needs the
    // matching credit (exactly as the original targets earned one).
    write_credits_[static_cast<size_t>(node)].fetch_add(
        1, std::memory_order_release);
  }
}

std::vector<FragmentationSpec> ApuamaEngine::ActiveSpecsFor(
    const std::vector<std::string>& tables) const {
  std::vector<FragmentationSpec> out;
  for (const auto& t : tables) {
    const FragmentationSpec* spec = catalog_.FragmentationFor(t);
    if (spec == nullptr) continue;
    bool seen = false;
    for (const auto& s : out) seen = seen || s.table == spec->table;
    // Copied, not pointed to: a concurrent ALTER replacing the spec
    // must not invalidate what a running query planned against.
    if (!seen) out.push_back(*spec);
  }
  return out;
}

std::vector<std::string> ApuamaEngine::FragmentedReadScope(
    const SvpPlan& plan,
    const std::vector<FragmentationSpec>& specs) const {
  // Whole-table keys for every referenced table (conflicts with
  // broadcast writes, including to dimensions), plus the fragment
  // keys this query can actually read (conflicts with routed writes
  // to those fragments only — writers of pruned fragments proceed).
  std::vector<std::string> scope(plan.all_tables());
  for (const auto& spec : specs) {
    for (int f = 0; f < spec.fragments; ++f) {
      if (spec.Intersects(f, plan.pred_min(), plan.pred_max())) {
        scope.push_back(spec.table + "#" + std::to_string(f));
      }
    }
  }
  return scope;
}

ApuamaEngine::WriteRoute ApuamaEngine::ComputeWriteRoute(
    const std::string& sql) {
  WriteRoute route;
  const std::string table = share::WriteTargetTable(sql);
  route.table = table;
  route.epoch_keys = {table};  // "" = global epoch, the legacy behavior
  if (!fragmentation_active()) {
    return route;  // empty scope = global barrier conflict (legacy)
  }
  if (table.empty()) {
    // Unattributable write under fragmentation: global scope AND
    // global epoch — conflicts with every reader, invalidates
    // everything. Correct, just maximally conservative.
    return route;
  }
  // Scoped but unrouted default: conflicts with any reader of the
  // table, broadcast to every node.
  route.scope = {table};
  const FragmentationSpec* installed = catalog_.FragmentationFor(table);
  if (installed == nullptr) return route;
  const FragmentationSpec spec = *installed;  // copy (ALTER race)
  // The node schema is immutable after CREATE TABLE, so reading it
  // without the node mutex is safe.
  auto t = replicas_->node(0)->catalog()->GetTable(spec.table);
  if (!t.ok()) return route;
  std::optional<std::vector<int>> fragments =
      spec.WrittenFragments(sql, (*t)->schema());
  if (!fragments.has_value()) return route;  // not attributable
  std::vector<std::string> keys;
  for (int f : *fragments) keys.push_back(table + "#" + std::to_string(f));
  route.targets = spec.HostsOf(*fragments);
  route.scope = keys;
  route.epoch_keys = std::move(keys);
  return route;
}

std::optional<Result<engine::QueryResult>>
ApuamaEngine::ExecuteFragmentedPassthrough(int node_id,
                                           const std::string& sql) {
  if (!fragmentation_active()) return std::nullopt;
  auto parsed = sql::ParseSelect(sql);
  if (!parsed.ok()) return std::nullopt;  // not a SELECT: normal path
  std::set<std::string> referenced = sql::AllReferencedTables(**parsed);
  std::vector<FragmentationSpec> specs = ActiveSpecsFor(
      std::vector<std::string>(referenced.begin(), referenced.end()));
  if (specs.empty()) return std::nullopt;  // no fragmented table read
  std::vector<const FragmentationSpec*> spec_ptrs;
  spec_ptrs.reserve(specs.size());
  for (const auto& s : specs) spec_ptrs.push_back(&s);
  std::vector<int> alive = replicas_->AvailableNodes();
  if (alive.empty()) {
    return Result<engine::QueryResult>(
        Status::Unavailable("no node available"));
  }
  // A non-rewritable read cannot be interval-carved: run it whole on
  // a node that hosts every fragment, materializing whole-table
  // copies there when no node does.
  exchange::ExchangeOperator ex(
      replicas_, exchange_seq_.fetch_add(1, std::memory_order_relaxed));
  auto assignment = ex.PrepareWholeTables(spec_ptrs, alive, node_id);
  if (!assignment.ok()) {
    return Result<engine::QueryResult>(assignment.status());
  }
  std::string to_run = sql;
  if (!assignment->table_map.empty()) {
    RemapSelectTables(parsed->get(), assignment->table_map);
    to_run = sql::UnparseSelect(**parsed);
  }
  auto result =
      processors_[static_cast<size_t>(assignment->node)]->Execute(to_run);
  stats_.exchange_bytes.fetch_add(ex.bytes_shipped(),
                                  std::memory_order_relaxed);
  return result;
}

Result<engine::QueryResult> ApuamaEngine::ExecuteSvp(
    const sql::SelectStmt& query) {
  APUAMA_ASSIGN_OR_RETURN(SvpPlan plan, rewriter_.Rewrite(query));
  return ExecuteSvpPlan(std::move(plan), IntraQueryTechnique::kSvp);
}

namespace {

// One finished attempt at a sub-query task, posted by a dispatch
// worker to the dispatching thread.
struct Attempt {
  size_t task;
  int node;
  int64_t us;
  Result<engine::QueryResult> result;
};

}  // namespace

Result<engine::QueryResult> ApuamaEngine::Dispatch(const DispatchSpec& spec,
                                                   const SvpPlan& plan) {
  // Partition over the *available* nodes: a crashed replica's key
  // range is redistributed across the survivors.
  const std::vector<int> alive = replicas_->AvailableNodes();
  if (alive.empty()) return Status::Unavailable("no node available");
  obs::Tracer& tracer = obs::Tracer::Global();
  const bool tracing = tracer.enabled();
  obs::Span span = tracer.StartSpan(spec.span_name, "engine");
  if (span.active()) {
    span.AddAttr("nodes", static_cast<int64_t>(alive.size()));
  }
  const uint64_t parent =
      span.active() ? span.id() : tracer.current_span_id();

  // Workers post finished attempts to `done`; only this thread reads
  // them and touches the tasks, the plan, the sink and the timings.
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Attempt> done;
  std::atomic<bool> cancel{false};  // set once stopped or failed
  size_t in_flight = 0;
  std::vector<SubqueryTask> tasks;
  std::vector<std::vector<int>> tried;  // per task: nodes it ran on
  uint64_t retries = 0;
  // Fastest and slowest sub-query whose partial arrived before the
  // read stopped (a composed read has at least one).
  int64_t sub_min_us = std::numeric_limits<int64_t>::max();
  int64_t sub_max_us = 0;

  auto submit = [&](size_t t, int node) {
    tried[t].push_back(node);
    ++in_flight;
    NodeProcessor* np = processors_[static_cast<size_t>(node)].get();
    dispatch_pool_->Submit([&mu, &cv, &done, &cancel, &tracer, tracing,
                            parent, np, t, node, sql = tasks[t].sql] {
      // A task not yet started when the read stopped or failed is
      // skipped: its pages are an early exit's whole saving.
      Result<engine::QueryResult> r = engine::QueryResult{};
      int64_t us = 0;
      if (!cancel.load(std::memory_order_relaxed)) {
        obs::Span sub = tracing ? tracer.StartSpanUnder(
                                      parent, "node.subquery", "node")
                                : obs::Span();
        if (sub.active()) sub.AddAttr("node", node);
        const int64_t t0 = SteadyUs();
        try {
          r = np->ExecuteSubquery(sql);
        } catch (const std::exception& e) {
          // The dispatcher waits for this post; it must always come.
          r = Status::Internal(std::string("sub-query threw: ") + e.what());
        }
        us = SteadyUs() - t0;
      }
      std::lock_guard<std::mutex> lock(mu);
      done.push_back(Attempt{t, node, us, std::move(r)});
      cv.notify_one();
    });
  };
  auto add_task = [&](SubqueryTask task) {
    tasks.push_back(std::move(task));
    tried.emplace_back();
    submit(tasks.size() - 1, tasks.back().node);
  };
  // The retry rule: the first available node of the task's eligible
  // set it has not tried, scanning from an offset by task index so
  // several failed tasks spread over the survivors.
  auto retry_target = [&](size_t t) {
    const std::vector<int>& eligible = tasks[t].eligible;
    for (size_t off = 0; off < eligible.size(); ++off) {
      const int cand = eligible[(t + off) % eligible.size()];
      if (std::find(tried[t].begin(), tried[t].end(), cand) ==
              tried[t].end() &&
          replicas_->IsNodeAvailable(cand)) {
        return cand;
      }
    }
    return -1;
  };

  // Consistency barrier: block new updates, wait for replicas to be
  // mutually consistent, prepare and dispatch every first task, then
  // unblock (updates may overlap sub-query *execution*, per the
  // paper). The guard releases it on every exit.
  const int64_t barrier_t0 = SteadyUs();
  obs::Span barrier_span = tracer.StartSpan("engine.barrier", "engine");
  ConsistencyManager::SvpPrepareGuard barrier(
      &consistency_, [this] { return ReplicasConsistent(); },
      spec.barrier_scope);
  barrier_span.End();
  const int64_t barrier_us = SteadyUs() - barrier_t0;
  APUAMA_ASSIGN_OR_RETURN(std::vector<SubqueryTask> first,
                          spec.prepare(alive));
  for (SubqueryTask& task : first) add_task(std::move(task));
  barrier.Release();  // all first tasks dispatched

  // Partials join the composition in task order as they arrive; the
  // composition itself runs in Finish. A partial that finishes early
  // waits in `ready` until every earlier task has folded, so a retried
  // partial lands where the fault-free run put it (bit-identical
  // results).
  StreamingComposition sink(plan.composition());
  std::map<size_t, engine::QueryResult> ready;
  size_t next_fold = 0;
  Status failure = Status::OK();
  bool stopped = false;
  while (in_flight > 0) {
    Attempt a = [&] {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&done] { return !done.empty(); });
      Attempt front = std::move(done.front());
      done.pop_front();
      return front;
    }();
    --in_flight;
    if (stopped || !failure.ok()) continue;  // draining
    if (!a.result.ok()) {
      const bool unavailable =
          a.result.status().code() == StatusCode::kUnavailable;
      const int target = unavailable ? retry_target(a.task) : -1;
      if (target >= 0) {
        ++retries;
        submit(a.task, target);
      } else {
        failure = unavailable ? Status::Unavailable(
                                    "no eligible node left for a sub-query: " +
                                    a.result.status().message())
                              : a.result.status();
        cancel.store(true, std::memory_order_relaxed);
      }
      continue;
    }
    sub_min_us = std::min(sub_min_us, a.us);
    sub_max_us = std::max(sub_max_us, a.us);
    if (spec.next) {
      if (std::optional<SubqueryTask> more =
              spec.next(a.task, a.node, a.us)) {
        add_task(std::move(*more));
      }
    }
    ready.emplace(a.task, std::move(a.result).value());
    while (!ready.empty() && ready.begin()->first == next_fold) {
      engine::QueryResult partial = std::move(ready.begin()->second);
      ready.erase(ready.begin());
      stats_.NoteNodeStats(partial.stats);
      const bool more = !spec.on_fold || spec.on_fold(next_fold, partial);
      ++next_fold;
      failure = sink.Add(std::move(partial));
      stopped = failure.ok() && !more;
      if (stopped || !failure.ok()) {
        cancel.store(true, std::memory_order_relaxed);
        break;
      }
    }
  }
  stats_.svp_retries.fetch_add(retries, std::memory_order_relaxed);
  APUAMA_RETURN_NOT_OK(failure);

  CompositionStats cstats;
  obs::Span compose_span = tracer.StartSpan("engine.compose", "engine");
  Result<engine::QueryResult> result = sink.Finish(&cstats);
  compose_span.End();
  if (result.ok()) {
    engine::QueryProfile& p = result->profile;
    p.barrier_wait_us = barrier_us;
    p.subqueries = tasks.size();
    p.subquery_min_us = sub_min_us;
    p.subquery_max_us = sub_max_us;
    p.retries = retries;
    p.compose_us = static_cast<int64_t>(sink.compose_micros());
    p.partial_rows = cstats.partial_rows;
    stats_.svp_queries.fetch_add(1, std::memory_order_relaxed);
    stats_.partial_rows_total.fetch_add(cstats.partial_rows,
                                        std::memory_order_relaxed);
  }
  return result;
}

Result<engine::QueryResult> ApuamaEngine::ExecuteSvpPlan(
    SvpPlan plan, IntraQueryTechnique technique) {
  DispatchSpec spec;
  const std::vector<FragmentationSpec> specs =
      ActiveSpecsFor(plan.fact_tables());
  if (!specs.empty()) {
    // Fragmented tables, under either technique (AVP's range stealing
    // assumes any node can serve any chunk). Nodes hold only their
    // placed fragments, so the exchange operator places each interval
    // (zero movement when placement allows, materialized temps
    // otherwise) and retries stay within that placement. Placement
    // runs under the scoped barrier: materialized slices must
    // snapshot the committed state the local fragments will serve.
    std::vector<const FragmentationSpec*> spec_ptrs;
    spec_ptrs.reserve(specs.size());
    for (const auto& s : specs) spec_ptrs.push_back(&s);
    exchange::ExchangeOperator ex(
        replicas_, exchange_seq_.fetch_add(1, std::memory_order_relaxed));
    uint64_t pruned = 0;
    spec.barrier_scope = FragmentedReadScope(plan, specs);
    spec.prepare = [&](const std::vector<int>& alive)
        -> Result<std::vector<SubqueryTask>> {
      const auto intervals = plan.MakeIntervals(static_cast<int>(alive.size()));
      // Fragment pruning: an interval entirely outside the inclusive
      // predicate bounds contributes a provably empty partial. At
      // least one interval always runs — partial-aggregate
      // composition needs a feed even when it carries zero rows.
      // `preferred` is the node an interval runs on under full
      // replication, so the co-partitioned aligned case routes
      // identically to the replicated baseline.
      std::vector<std::pair<int64_t, int64_t>> kept;
      std::vector<int> preferred;
      for (size_t i = 0; i < intervals.size(); ++i) {
        const auto [lo, hi] = intervals[i];
        if (lo < hi && lo <= plan.pred_max() && hi - 1 >= plan.pred_min()) {
          kept.push_back(intervals[i]);
          preferred.push_back(alive[i]);
        }
      }
      if (kept.empty()) {
        kept.push_back(intervals[0]);
        preferred.push_back(alive[0]);
      }
      pruned = static_cast<uint64_t>(intervals.size() - kept.size());
      APUAMA_ASSIGN_OR_RETURN(std::vector<exchange::Assignment> placed,
                              ex.Prepare(kept, spec_ptrs, alive, preferred));
      std::vector<SubqueryTask> tasks(kept.size());
      for (size_t k = 0; k < kept.size(); ++k) {
        const auto [lo, hi] = kept[k];
        tasks[k].sql = placed[k].table_map.empty()
                           ? plan.SubquerySql(lo, hi)
                           : plan.SubquerySqlMapped(lo, hi,
                                                    placed[k].table_map);
        tasks[k].node = placed[k].node;
        tasks[k].eligible = std::move(placed[k].alternates);
      }
      return tasks;
    };
    auto result = Dispatch(spec, plan);
    stats_.exchange_bytes.fetch_add(ex.bytes_shipped(),
                                    std::memory_order_relaxed);
    if (result.ok()) {
      result->profile.fragments_pruned = pruned;
      result->profile.exchange_bytes = ex.bytes_shipped();
    }
    return result;
  }

  if (technique == IntraQueryTechnique::kAvp) {
    // AVP: every alive node starts on a chunk of its own range; the
    // node that finishes a chunk asks the scheduler for that slot's
    // next one (adaptive size, stealing from loaded peers once the
    // range is drained). A retried chunk's slot continues on the node
    // that finished it, so every slot's range still drains.
    spec.span_name = "engine.avp";
    std::optional<AvpScheduler> scheduler;
    std::vector<int> nodes;
    std::vector<std::pair<int, int64_t>> chunk_of;  // task: (slot, keys)
    auto chunk = [&](int slot, int node) -> std::optional<SubqueryTask> {
      const auto range = scheduler->NextChunk(slot);
      if (!range.has_value()) return std::nullopt;
      chunk_of.emplace_back(slot, range->second - range->first);
      return SubqueryTask{plan.SubquerySql(range->first, range->second),
                          node, nodes};
    };
    spec.prepare = [&](const std::vector<int>& alive)
        -> Result<std::vector<SubqueryTask>> {
      nodes = alive;
      const int n = static_cast<int>(alive.size());
      scheduler.emplace(n, plan.domain_min(), plan.domain_max());
      std::vector<SubqueryTask> tasks;
      for (int slot = 0; slot < n; ++slot) {
        if (auto t = chunk(slot, alive[static_cast<size_t>(slot)])) {
          tasks.push_back(std::move(*t));
        }
      }
      return tasks;
    };
    spec.next = [&](size_t finished, int node, int64_t us) {
      const auto [slot, keys] = chunk_of[finished];
      scheduler->ReportChunkTime(slot, keys, us);
      return chunk(slot, node);
    };
    auto result = Dispatch(spec, plan);
    if (result.ok()) {
      stats_.avp_chunks.fetch_add(
          static_cast<uint64_t>(scheduler->chunks_issued()),
          std::memory_order_relaxed);
    }
    return result;
  }

  // SVP: one interval per alive node. Full replication lets any node
  // serve any interval — the failover benefit of VP over physical
  // partitioning.
  spec.prepare = [&plan](const std::vector<int>& alive)
      -> Result<std::vector<SubqueryTask>> {
    const auto intervals = plan.MakeIntervals(static_cast<int>(alive.size()));
    std::vector<SubqueryTask> tasks;
    tasks.reserve(intervals.size());
    for (size_t i = 0; i < intervals.size(); ++i) {
      const auto [lo, hi] = intervals[i];
      tasks.push_back({plan.SubquerySql(lo, hi), alive[i], alive});
    }
    return tasks;
  };
  return Dispatch(spec, plan);
}

namespace {

// The SETs the engine acts on: the controller's gate reads the
// sharing flags before any node session sees a query, and the
// approximate tier lives above the nodes. Idempotent, so the
// per-node broadcast calling this once per backend is harmless.
void ApplyEngineKnob(ApuamaEngine* engine, const sql::Setting& setting) {
  switch (setting.knob) {
    case sql::Knob::kShareScans:
      return engine->SetShareScans(setting.on);
    case sql::Knob::kResultCache:
      return engine->SetResultCache(setting.on);
    case sql::Knob::kSampleSeed:
      return engine->SetSampleSeed(setting.integer);
    case sql::Knob::kApproxErrorTarget:
      return engine->SetApproxErrorTarget(setting.real);
    default:
      return;
  }
}

class ApuamaConnection : public cjdbc::Connection {
 public:
  ApuamaConnection(ApuamaEngine* engine, int node_id)
      : engine_(engine), node_id_(node_id) {}

  Result<engine::QueryResult> ExecuteRecovery(
      const std::string& sql, bool routed) override {
    // Replay goes straight to the node: the controller already holds
    // the write order and this statement is not a broadcast.
    if (auto parsed = sql::Parse(sql);
        parsed.ok() &&
        ((*parsed)->kind() == sql::StmtKind::kAlterFragment ||
         (*parsed)->kind() == sql::StmtKind::kCreateSample ||
         (*parsed)->kind() == sql::StmtKind::kDropSample)) {
      // Middleware-level DDL: the catalog already changed when the
      // statement first ran (sample DDL wrote the scramble to every
      // node, including down ones); there is nothing to replay.
      engine_->InvalidateResultCache();
      return engine::QueryResult{};
    }
    auto result = engine_->processor(node_id_)->Execute(sql);
    if (result.ok()) {
      // `routed` comes from the recovery log (whether the original
      // write was fragment-routed), NOT recomputed here — the
      // fragmentation spec may have changed since the write ran.
      engine_->NoteRecoveryReplay(node_id_, routed);
    }
    // Replayed writes bypass the per-table epoch bracketing, so the
    // cache cannot attribute them: drop everything.
    engine_->InvalidateResultCache();
    engine_->consistency()->NotifyStateChange();
    return result;
  }

  Result<engine::QueryResult> Execute(const std::string& sql) override {
    APUAMA_ASSIGN_OR_RETURN(sql::StmtPtr parsed, sql::Parse(sql));
    switch (cjdbc::ClassifyStmt(*parsed)) {
      case cjdbc::RequestKind::kRead: {
        if (parsed->kind() == sql::StmtKind::kExplain) {
          const auto& ex = static_cast<const sql::ExplainStmt&>(*parsed);
          if (ex.analyze) {
            // The inner SELECT takes the normal read path; the profile
            // it returns with renders as the breakdown.
            APUAMA_ASSIGN_OR_RETURN(
                engine::QueryResult r,
                engine_->ExecuteRead(node_id_, sql::UnparseSelect(*ex.query)));
            engine::RenderAnalyze(&r);
            return r;
          }
        }
        return engine_->ExecuteRead(node_id_, sql);
      }
      case cjdbc::RequestKind::kWrite:
        return engine_->ExecuteWriteOn(node_id_, sql);
      case cjdbc::RequestKind::kDdl: {
        if (parsed->kind() == sql::StmtKind::kAlterFragment) {
          // Fragmentation DDL changes middleware metadata only — no
          // stored rows move, so the node DBMS never sees it. The
          // catalog version bump keys both caches: a plan compiled
          // against the old placement can never be reused, and every
          // cached result (keyed on the old version) goes stale.
          const auto& alter =
              static_cast<const sql::AlterFragmentStmt&>(*parsed);
          APUAMA_RETURN_NOT_OK(engine_->ApplyFragmentationDdl(alter));
          engine_->InvalidateResultCache();
          return engine::QueryResult{};
        }
        if (parsed->kind() == sql::StmtKind::kCreateSample ||
            parsed->kind() == sql::StmtKind::kDropSample) {
          // Sample DDL is likewise middleware-level; ApplySampleDdl
          // handles cache invalidation itself (the scramble's built-at
          // epochs must be snapshotted after that bump, not before).
          APUAMA_RETURN_NOT_OK(engine_->ApplySampleDdl(*parsed));
          return engine::QueryResult{};
        }
        // Schema statements pass straight through to the node (the
        // controller broadcasts them to every backend); any cached
        // result may now name dropped tables or miss new data.
        auto result = engine_->processor(node_id_)->Execute(sql);
        engine_->InvalidateResultCache();
        return result;
      }
      case cjdbc::RequestKind::kControl: {
        if (parsed->kind() != sql::StmtKind::kSet) {
          return engine_->processor(node_id_)->Execute(sql);
        }
        // A rejected SET leaves the engine untouched; an accepted one
        // still goes on to the node.
        APUAMA_ASSIGN_OR_RETURN(
            sql::Setting setting,
            sql::ParseSetting(static_cast<const sql::SetStmt&>(*parsed)));
        auto result = engine_->processor(node_id_)->Execute(sql);
        if (result.ok()) ApplyEngineKnob(engine_, setting);
        return result;
      }
    }
    return Status::Internal("unreachable");
  }

  int node_id() const override { return node_id_; }

 private:
  ApuamaEngine* engine_;
  int node_id_;
};

}  // namespace

Result<std::unique_ptr<cjdbc::Connection>> ApuamaDriver::Connect(
    int node_id) {
  if (node_id < 0 || node_id >= engine_->num_nodes()) {
    return Status::Unavailable("no such node");
  }
  return std::unique_ptr<cjdbc::Connection>(
      new ApuamaConnection(engine_, node_id));
}

}  // namespace apuama
