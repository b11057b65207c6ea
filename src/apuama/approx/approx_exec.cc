// Approximate query tier: scramble DDL, staleness-checked rebuilds,
// and the APPROX execution path (ApuamaEngine member definitions).
//
// The scramble is built once per CREATE SAMPLE and lives as a real
// table on every replica, so an APPROX query is just an SVP query
// over the scramble's private `__skey` partition space: the stock
// carve yields k-of-n uniform subsampling, the stock streaming
// composer merges moments, and the estimator layer turns cumulative
// moments into point estimates with confidence intervals. Early exit
// cancels not-yet-started sub-queries once the running interval is
// tight enough — the pages those sub-queries would have scanned are
// the approximate tier's entire saving.
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <utility>

#include "apuama/apuama_engine.h"
#include "apuama/approx/estimator.h"
#include "apuama/approx/sample_catalog.h"
#include "common/string_util.h"
#include "engine/database.h"
#include "sql/parser.h"
#include "sql/unparse.h"

namespace apuama {

namespace {

// Uniform double in [0, 1) from a 64-bit hash (top 53 bits), the
// standard exact-in-IEEE conversion — membership tests are then
// bit-identical on every platform and thread count.
double HashToUnit(uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

// Group key of one stats row: the first `group_cols` values joined on
// a separator no ToString rendering contains.
std::string GroupKeyOf(const Row& row, size_t group_cols) {
  std::string key;
  for (size_t g = 0; g < group_cols && g < row.size(); ++g) {
    key += row[g].ToString();
    key += '\x1f';
  }
  return key;
}

// FNV-1a — mixes a group key into the deterministic bootstrap seed.
uint64_t FnvHash(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

double ValueToDoubleOrZero(const Value& v) {
  auto d = v.AsDouble();
  return d.ok() ? *d : 0.0;
}

int64_t ValueToIntOrZero(const Value& v) {
  auto i = v.AsInt();
  return i.ok() ? *i : 0;
}

// Moments of every aggregate of one stats row, read positionally.
std::vector<approx::GroupMoments> RowMoments(
    const Row& row, const approx::ApproxQuerySpec& spec) {
  std::vector<approx::GroupMoments> out(spec.aggs.size());
  const int64_t cnt =
      spec.count_col >= 0 &&
              static_cast<size_t>(spec.count_col) < row.size()
          ? ValueToIntOrZero(row[static_cast<size_t>(spec.count_col)])
          : 0;
  for (size_t a = 0; a < spec.aggs.size(); ++a) {
    out[a].cnt = cnt;
    const auto& agg = spec.aggs[a];
    if (agg.sum_col >= 0 &&
        static_cast<size_t>(agg.sum_col) < row.size()) {
      out[a].sum = ValueToDoubleOrZero(row[static_cast<size_t>(agg.sum_col)]);
    }
    if (agg.sumsq_col >= 0 &&
        static_cast<size_t>(agg.sumsq_col) < row.size()) {
      out[a].sumsq =
          ValueToDoubleOrZero(row[static_cast<size_t>(agg.sumsq_col)]);
    }
  }
  return out;
}

}  // namespace

void ApuamaEngine::SetSampleSeed(int64_t seed) {
  sample_seed_.store(seed, std::memory_order_relaxed);
}

void ApuamaEngine::SetApproxErrorTarget(double target) {
  approx_error_target_.store(target, std::memory_order_relaxed);
}

Status ApuamaEngine::BuildScramble(const std::string& base,
                                   const std::string& sample, double ratio,
                                   int64_t seed, bool rebuild) {
  // Read the base rows from node 0 (full replication: every node
  // holds the same committed state, and the caller's barrier keeps
  // writes out while we copy).
  std::vector<Row> base_rows;
  Schema base_schema;
  {
    std::lock_guard<std::mutex> lock(*replicas_->node_mutex(0));
    engine::Database* db = replicas_->node(0);
    APUAMA_ASSIGN_OR_RETURN(const storage::Table* table,
                            static_cast<const engine::Database*>(db)
                                ->catalog()
                                ->GetTable(base));
    base_schema = table->schema();
    base_rows = table->rows();
  }
  const uint64_t n_base = base_rows.size();

  // Deterministic selection + permutation: row i joins the sample iff
  // hash(seed, i) maps below `ratio`; its rank is a second hash, so
  // sorting by (rank, i) is a uniform-random permutation reproducible
  // from the seed alone.
  std::vector<std::pair<uint64_t, uint64_t>> picked;  // (rank, base row)
  for (uint64_t i = 0; i < n_base; ++i) {
    const uint64_t h = approx::HashSeedIndex(seed, i);
    if (ratio < 1.0 && HashToUnit(h) >= ratio) continue;
    picked.emplace_back(approx::Mix64(h ^ 0xda3e39cb94b95bdbULL), i);
  }
  std::sort(picked.begin(), picked.end());
  const uint64_t m = picked.size();

  std::vector<Row> sample_rows;
  sample_rows.reserve(picked.size());
  for (uint64_t rank = 0; rank < m; ++rank) {
    Row r = base_rows[picked[rank].second];
    r.push_back(Value::Int(static_cast<int64_t>(rank)));
    sample_rows.push_back(std::move(r));
  }

  // Physical DDL for every replica: drop + create (clustered on
  // __skey via the primary key) + bulk load. Down nodes get the same
  // treatment — their heaps are intact and must match on rejoin.
  sql::CreateTableStmt create;
  create.table = sample;
  for (const auto& col : base_schema.columns()) {
    sql::ColumnDef def;
    def.name = col.name;
    def.type = col.type;
    def.not_null = col.not_null;
    create.columns.push_back(def);
  }
  sql::ColumnDef skey;
  skey.name = "__skey";
  skey.type = ValueType::kInt64;
  skey.not_null = true;
  create.columns.push_back(skey);
  create.primary_key = {"__skey"};

  for (int i = 0; i < replicas_->num_nodes(); ++i) {
    std::lock_guard<std::mutex> lock(*replicas_->node_mutex(i));
    engine::Database* db = replicas_->node(i);
    sql::DropTableStmt drop;
    drop.table = sample;
    (void)db->ExecuteStmt(drop);  // NotFound on first build is fine
    APUAMA_RETURN_NOT_OK(db->ExecuteStmt(create).status());
    APUAMA_ASSIGN_OR_RETURN(storage::Table * table,
                            db->catalog()->GetTable(sample));
    APUAMA_RETURN_NOT_OK(table->BulkLoad(sample_rows));
  }

  // Register (or refresh) the scramble's private partition space so
  // the stock SVP rewriter carves `__skey` ranges over it. The domain
  // only moves when m changed — an identical rebuild keeps cached
  // plans valid.
  const int64_t domain_max =
      m > 0 ? static_cast<int64_t>(m) - 1 : 0;
  const VirtualPartitionSpace* space = catalog_.SpaceForTable(sample);
  if (space == nullptr) {
    VirtualPartitionSpace s;
    s.name = sample;
    s.members.push_back({sample, "__skey"});
    s.min_value = 0;
    s.max_value = domain_max;
    APUAMA_RETURN_NOT_OK(catalog_.RegisterSpace(std::move(s)));
  } else if (space->min_value != 0 || space->max_value != domain_max) {
    APUAMA_RETURN_NOT_OK(catalog_.UpdateDomain(sample, 0, domain_max));
  }

  // Snapshot the guarding epochs AFTER the load: any later movement
  // of these counters means a write or DDL landed and the scramble is
  // stale (the same counters that invalidate cached results).
  approx::SampleEntry entry;
  entry.base_table = base;
  entry.sample_table = sample;
  entry.requested_ratio = ratio;
  entry.actual_ratio =
      n_base > 0 ? static_cast<double>(m) / static_cast<double>(n_base) : 0.0;
  entry.seed = seed;
  entry.sample_rows = m;
  entry.base_rows = n_base;
  entry.built_epochs = {{"", result_cache_.TableEpoch("")},
                        {base, result_cache_.TableEpoch(base)}};
  sample_catalog_.Put(std::move(entry));
  (rebuild ? stats_.scramble_rebuilds : stats_.scramble_builds)
      .fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status ApuamaEngine::ApplySampleDdl(const sql::Stmt& stmt) {
  if (stmt.kind() == sql::StmtKind::kCreateSample) {
    const auto& create = static_cast<const sql::CreateSampleStmt&>(stmt);
    const std::string base = ToLower(create.table);
    const std::string sample = create.sample_name.empty()
                                   ? approx::DefaultSampleName(base)
                                   : ToLower(create.sample_name);
    if (!(create.ratio > 0.0) || create.ratio > 1.0) {
      return Status::InvalidArgument(
          "sample ratio must be in (0, 1], got " +
          std::to_string(create.ratio));
    }
    if (sample_catalog_.ByName(base).has_value()) {
      return Status::InvalidArgument("cannot sample a sample table: " +
                                     base);
    }
    if (catalog_.FragmentationFor(base) != nullptr) {
      return Status::InvalidArgument(
          "table " + base + " is fragmented; unfragment before sampling");
    }
    const int64_t seed = sample_seed_.load(std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(sample_build_mu_);
    if (auto existing = sample_catalog_.ForBase(base)) {
      // Idempotence: the controller broadcasts DDL to every backend,
      // so this runs once per node. A fresh identical scramble means
      // a previous call of the same broadcast already built it.
      bool fresh = EqualsIgnoreCase(existing->sample_table, sample) &&
                   existing->requested_ratio == create.ratio &&
                   existing->seed == seed;
      for (const auto& [key, epoch] : existing->built_epochs) {
        fresh = fresh && result_cache_.TableEpoch(key) == epoch;
      }
      if (fresh) return Status::OK();
      if (!EqualsIgnoreCase(existing->sample_table, sample)) {
        // Renamed scramble: retire the old physical table and space
        // (one scramble per base table).
        for (int i = 0; i < replicas_->num_nodes(); ++i) {
          std::lock_guard<std::mutex> node_lock(*replicas_->node_mutex(i));
          sql::DropTableStmt drop;
          drop.table = existing->sample_table;
          (void)replicas_->node(i)->ExecuteStmt(drop);
        }
        (void)catalog_.RemoveSpace(existing->sample_table);
        sample_catalog_.Remove(base);
      }
    }
    // Drop cached results BEFORE building: the snapshot the build
    // takes afterwards then reflects this DDL's own epoch bump, so a
    // repeated broadcast call sees a fresh entry and no-ops.
    InvalidateResultCache();
    return BuildScramble(base, sample, create.ratio, seed,
                         /*rebuild=*/false);
  }
  if (stmt.kind() == sql::StmtKind::kDropSample) {
    const auto& drop = static_cast<const sql::DropSampleStmt&>(stmt);
    const std::string base = ToLower(drop.table);
    std::lock_guard<std::mutex> lock(sample_build_mu_);
    auto entry = sample_catalog_.ForBase(base);
    // No entry: an earlier call of the same broadcast already dropped
    // it (or it never existed) — OK either way, like UNFRAGMENT.
    if (!entry.has_value()) return Status::OK();
    if (!drop.sample_name.empty() &&
        !EqualsIgnoreCase(drop.sample_name, entry->sample_table)) {
      return Status::NotFound("no sample " + ToLower(drop.sample_name) +
                              " on " + base);
    }
    for (int i = 0; i < replicas_->num_nodes(); ++i) {
      std::lock_guard<std::mutex> node_lock(*replicas_->node_mutex(i));
      sql::DropTableStmt node_drop;
      node_drop.table = entry->sample_table;
      (void)replicas_->node(i)->ExecuteStmt(node_drop);
    }
    APUAMA_RETURN_NOT_OK(catalog_.RemoveSpace(entry->sample_table));
    sample_catalog_.Remove(base);
    InvalidateResultCache();
    return Status::OK();
  }
  return Status::Internal("not a sample DDL statement");
}

std::optional<Result<engine::QueryResult>> ApuamaEngine::MaybeExecuteApprox(
    const std::string& sql) {
  auto parsed = sql::ParseSelect(sql);
  if (!parsed.ok()) return std::nullopt;
  const sql::SelectStmt& query = **parsed;
  if (!query.approx) return std::nullopt;
  auto fallback = [&]() -> std::optional<Result<engine::QueryResult>> {
    stats_.approx_fallbacks.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  };
  if (query.from.size() != 1) return fallback();
  const std::string base = ToLower(query.from[0].table);
  auto entry = sample_catalog_.ForBase(base);
  if (!entry.has_value()) return fallback();
  auto spec = approx::BuildApproxQuery(query, base, entry->sample_table);
  if (!spec.ok()) return fallback();
  auto result = ExecuteApproxPlan(*spec);
  if (!result.ok() &&
      result.status().code() == StatusCode::kUnsupported) {
    return fallback();
  }
  return result;
}

Result<engine::QueryResult> ApuamaEngine::ExecuteApproxPlan(
    const approx::ApproxQuerySpec& spec) {
  const double error_target =
      approx_error_target_.load(std::memory_order_relaxed);
  approx::SampleEntry entry;
  SvpPlan plan;
  std::vector<std::pair<int64_t, int64_t>> intervals;
  std::map<std::string, std::vector<approx::GroupMoments>> cumulative;
  std::map<std::string, std::vector<std::vector<approx::GroupMoments>>>
      per_sub;  // group -> agg -> one entry per contributing interval
  uint64_t covered_keys = 0;  // __skey values in merged intervals
  int64_t total_cnt = 0;      // sample rows matched so far
  size_t merged = 0;
  bool stopped = false;

  DispatchSpec d;
  d.span_name = "engine.approx";
  // The consistency barrier doubles as the staleness window: while
  // writes are blocked and replicas agree, compare the scramble's
  // built-at epochs against the live counters and rebuild in place on
  // mismatch (with the entry's ORIGINAL seed, so a rebuild is
  // bit-reproducible). An APPROX answer can therefore never be
  // computed from a scramble older than the base table's last
  // committed write.
  d.prepare = [&](const std::vector<int>& alive)
      -> Result<std::vector<SubqueryTask>> {
    {
      std::lock_guard<std::mutex> lock(sample_build_mu_);
      auto current = sample_catalog_.ForBase(spec.base_table);
      if (!current.has_value()) {
        return Status::Unsupported("approx: sample was dropped");
      }
      bool stale = false;
      for (const auto& [key, epoch] : current->built_epochs) {
        stale = stale || result_cache_.TableEpoch(key) != epoch;
      }
      if (stale) {
        APUAMA_RETURN_NOT_OK(BuildScramble(
            current->base_table, current->sample_table,
            current->requested_ratio, current->seed, /*rebuild=*/true));
        current = sample_catalog_.ForBase(spec.base_table);
      }
      entry = *current;
    }
    // Carve the stats query over the scramble's key space with the
    // stock SVP machinery — more sub-queries than nodes, so the
    // early-exit rule has prefixes to stop between.
    APUAMA_ASSIGN_OR_RETURN(std::shared_ptr<const PlanCache::Entry> route,
                            RouteRead(spec.stats_sql));
    if (route->kind != PlanCache::Kind::kSvp) {
      return Status::Unsupported("approx: stats query is not SVP-rewritable");
    }
    plan = route->plan.Clone();
    int n_sub = 4 * static_cast<int>(alive.size());
    if (entry.sample_rows > 0 &&
        static_cast<uint64_t>(n_sub) > entry.sample_rows) {
      n_sub = static_cast<int>(entry.sample_rows);
    }
    intervals = plan.MakeIntervals(std::max(n_sub, 1));
    std::vector<SubqueryTask> tasks;
    tasks.reserve(intervals.size());
    for (size_t i = 0; i < intervals.size(); ++i) {
      const auto [lo, hi] = intervals[i];
      tasks.push_back(
          {plan.SubquerySql(lo, hi), alive[i % alive.size()], alive});
    }
    return tasks;
  };
  // In-order moments: the merged prefix — and with it the stopping
  // decision, the estimates, and the intervals — is a pure function of
  // the seed and the data, at any thread count.
  d.on_fold = [&](size_t task, const engine::QueryResult& partial) {
    for (const Row& row : partial.rows) {
      const std::string key = GroupKeyOf(row, spec.num_group_cols);
      std::vector<approx::GroupMoments> moments = RowMoments(row, spec);
      auto& cum = cumulative[key];
      auto& subs = per_sub[key];
      if (cum.empty()) {
        cum.resize(spec.aggs.size());
        subs.resize(spec.aggs.size());
      }
      for (size_t a = 0; a < moments.size(); ++a) {
        cum[a] += moments[a];
        subs[a].push_back(moments[a]);
        if (a == 0) total_cnt += moments[a].cnt;
      }
    }
    covered_keys +=
        static_cast<uint64_t>(intervals[task].second - intervals[task].first);
    ++merged;
    if (error_target <= 0.0 || total_cnt == 0 || merged == intervals.size()) {
      return true;
    }
    const double f_now =
        entry.base_rows > 0 ? static_cast<double>(covered_keys) /
                                  static_cast<double>(entry.base_rows)
                            : 0.0;
    double worst = 0.0;
    for (const auto& [key, cum] : cumulative) {
      for (size_t a = 0; a < cum.size(); ++a) {
        const approx::Estimate est =
            approx::EstimateAgg(spec.aggs[a].kind, cum[a], f_now);
        worst = std::max(worst, est.RelativeHalfWidth());
      }
    }
    stopped = worst <= error_target;
    return !stopped;
  };
  APUAMA_ASSIGN_OR_RETURN(engine::QueryResult stats_result,
                          Dispatch(d, plan));
  const uint64_t skipped = static_cast<uint64_t>(intervals.size() - merged);

  // Finalize: scale the merged moments into estimates, attach the
  // per-group CLT (or bootstrap) intervals as trailing __ci columns,
  // and restore the original select-list order.
  const double f =
      entry.base_rows > 0
          ? static_cast<double>(covered_keys) /
                static_cast<double>(entry.base_rows)
          : 0.0;
  engine::QueryResult out;
  out.column_names = spec.column_names;
  if (spec.aggs.size() == 1) {
    out.column_names.push_back("__ci_lo");
    out.column_names.push_back("__ci_hi");
  } else {
    for (const auto& agg : spec.aggs) {
      out.column_names.push_back(StrFormat("__ci_lo_%zu", agg.item_index));
      out.column_names.push_back(StrFormat("__ci_hi_%zu", agg.item_index));
    }
  }
  double worst_rel = 0.0;
  for (const Row& row : stats_result.rows) {
    const std::string key = GroupKeyOf(row, spec.num_group_cols);
    Row orow(spec.item_to_group.size());
    std::vector<Value> ci;
    ci.reserve(spec.aggs.size() * 2);
    const std::vector<approx::GroupMoments> moments = RowMoments(row, spec);
    for (size_t item = 0; item < spec.item_to_group.size(); ++item) {
      const int g = spec.item_to_group[item];
      if (g >= 0) orow[item] = row[static_cast<size_t>(g)];
    }
    for (size_t a = 0; a < spec.aggs.size(); ++a) {
      const auto& agg = spec.aggs[a];
      approx::Estimate est =
          approx::EstimateAgg(agg.kind, moments[a], f);
      if (moments[a].cnt < approx::kBootstrapThreshold) {
        auto it = per_sub.find(key);
        if (it != per_sub.end() && it->second[a].size() >= 2) {
          const uint64_t bseed =
              static_cast<uint64_t>(entry.seed) ^ FnvHash(key);
          if (auto boot = approx::BootstrapAgg(agg.kind, it->second[a], f,
                                               bseed)) {
            est = *boot;
          }
        }
      }
      orow[agg.item_index] = Value::Double(est.value);
      ci.push_back(Value::Double(est.lo));
      ci.push_back(Value::Double(est.hi));
      worst_rel = std::max(worst_rel, est.RelativeHalfWidth());
    }
    for (auto& v : ci) orow.push_back(std::move(v));
    out.rows.push_back(std::move(orow));
  }
  if (!spec.order_by.empty()) {
    std::stable_sort(out.rows.begin(), out.rows.end(),
                     [&spec](const Row& a, const Row& b) {
                       for (const auto& [slot, desc] : spec.order_by) {
                         const int c =
                             a[static_cast<size_t>(slot)].Compare(
                                 b[static_cast<size_t>(slot)]);
                         if (c != 0) return desc ? c > 0 : c < 0;
                       }
                       return false;
                     });
  }
  if (spec.offset > 0) {
    const size_t off = std::min(out.rows.size(),
                                static_cast<size_t>(spec.offset));
    out.rows.erase(out.rows.begin(),
                   out.rows.begin() + static_cast<long>(off));
  }
  if (spec.limit >= 0 &&
      out.rows.size() > static_cast<size_t>(spec.limit)) {
    out.rows.resize(static_cast<size_t>(spec.limit));
  }
  out.stats = stats_result.stats;
  out.profile = stats_result.profile;
  out.approx.is_approx = true;
  out.approx.sample_ratio = entry.actual_ratio;
  out.approx.coverage =
      entry.sample_rows > 0
          ? static_cast<double>(covered_keys) /
                static_cast<double>(entry.sample_rows)
          : 0.0;
  out.approx.error_target = error_target;
  out.approx.max_rel_half_width = worst_rel;
  out.approx.seed = entry.seed;
  out.approx.subqueries_skipped = skipped;
  stats_.approx_queries.fetch_add(1, std::memory_order_relaxed);
  if (stopped) {
    stats_.approx_early_exits.fetch_add(1, std::memory_order_relaxed);
  }
  stats_.approx_subqueries_skipped.fetch_add(skipped,
                                             std::memory_order_relaxed);
  return out;
}

}  // namespace apuama
