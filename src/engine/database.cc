#include "engine/database.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <thread>
#include <tuple>

#include "common/logging.h"
#include "common/string_util.h"
#include "engine/eval.h"
#include "engine/executor.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sql/analyzer.h"
#include "sql/parser.h"
#include "sql/settings.h"

namespace apuama::engine {

using sql::Stmt;
using sql::StmtKind;

std::vector<std::pair<std::string, uint64_t>> ExecStats::Kv() const {
  return {{"pages_disk", pages_disk},
          {"pages_cache", pages_cache},
          {"tuples_scanned", tuples_scanned},
          {"tuples_output", tuples_output},
          {"cpu_ops", cpu_ops},
          {"cpu_par", cpu_ops_parallel},
          {"rows_affected", rows_affected},
          {"morsels", morsels},
          {"threads", exec_threads},
          {"join_build", join_build_rows},
          {"join_probe", join_probe_rows},
          {"filter_skipped", filter_skipped_rows},
          {"seq", used_seq_scan ? 1u : 0u},
          {"idx", used_index_scan ? 1u : 0u},
          {"vec_rows", vectorized_rows},
          {"col_chunks", columnar_chunks_built},
          {"col_rebuilds", columnar_chunk_rebuilds},
          {"dict_hits", dict_hits},
          {"probe_vec", probe_vectorized_rows}};
}

std::string ExecStats::ToString() const { return obs::RenderKvText(Kv()); }

std::string ExecStats::ToJson() const { return obs::RenderKvJson(Kv()); }

std::string QueryResult::ToString(size_t max_rows) const {
  std::string out = Join(column_names, "\t") + "\n";
  size_t n = std::min(rows.size(), max_rows);
  for (size_t i = 0; i < n; ++i) {
    std::vector<std::string> cells;
    cells.reserve(rows[i].size());
    for (const Value& v : rows[i]) cells.push_back(v.ToString());
    out += Join(cells, "\t") + "\n";
  }
  if (rows.size() > n) {
    out += StrFormat("... (%zu rows total)\n", rows.size());
  }
  return out;
}

void RenderAnalyze(QueryResult* result) {
  const QueryProfile& p = result->profile;
  const ExecStats& s = result->stats;
  const ApproxInfo& a = result->approx;
  auto n = [](auto v) { return Value::Int(static_cast<int64_t>(v)); };
  const std::tuple<const char*, const char*, Value> facts[] = {
      {"query", "path", Value::Str(p.path)},
      {"controller", "admission_wait_us", n(p.admission_wait_us)},
      {"admission", "queue_wait_us", n(p.queue_wait_us)},
      {"admission", "degraded_to_approx", n(a.degraded)},
      {"admission", "shed", n(p.shed)},
      {"engine", "barrier_wait_us", n(p.barrier_wait_us)},
      {"engine", "subqueries", n(p.subqueries)},
      {"engine", "subquery_min_us", n(p.subquery_min_us)},
      {"engine", "subquery_max_us", n(p.subquery_max_us)},
      {"engine", "subquery_skew_us", n(p.subquery_max_us - p.subquery_min_us)},
      {"engine", "retries", n(p.retries)},
      {"node", "threads", n(s.exec_threads)},
      {"node", "morsels", n(s.morsels)},
      {"node", "pages_disk", n(s.pages_disk)},
      {"node", "pages_cache", n(s.pages_cache)},
      {"node", "tuples_scanned", n(s.tuples_scanned)},
      {"node", "vectorized_rows", n(s.vectorized_rows)},
      {"node", "dict_hits", n(s.dict_hits)},
      {"node", "probe_vectorized_rows", n(s.probe_vectorized_rows)},
      {"compose", "compose_us", n(p.compose_us)},
      {"compose", "partial_rows", n(p.partial_rows)},
      {"compose", "output_rows", n(p.output_rows)},
      {"share", "result_cache_on", n(p.result_cache_on)},
      {"share", "share_scans_on", n(p.share_scans_on)},
      {"fragment", "exchange_bytes", n(p.exchange_bytes)},
      {"fragment", "fragments_pruned", n(p.fragments_pruned)},
      {"fragment", "write_fanout", n(p.write_fanout)},
      {"approx", "sample_ratio", Value::Double(a.sample_ratio)},
      {"approx", "ci_half_width", Value::Double(a.max_rel_half_width)},
      {"approx", "subqueries_skipped", n(a.subqueries_skipped)},
      {"query", "elapsed_us", n(p.elapsed_us)},
  };
  result->column_names = {"level", "metric", "value"};
  result->rows.clear();
  for (const auto& [level, metric, value] : facts) {
    result->rows.push_back({Value::Str(level), Value::Str(metric), value});
  }
}

int DefaultExecThreads() {
  if (const char* env = std::getenv("APUAMA_EXEC_THREADS")) {
    char* end = nullptr;
    long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v >= 1) {
      return static_cast<int>(std::min<long>(v, 128));
    }
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(std::min<unsigned>(hw, 128));
}

Database::Database(DatabaseOptions options)
    : options_(options), pool_(options.buffer_pool_pages) {
  settings_.exec_threads = DefaultExecThreads();
}

ThreadPool* Database::exec_pool() {
  const int threads = settings_.exec_threads;
  if (threads <= 1) return nullptr;
  if (exec_pool_ == nullptr || exec_pool_threads_ != threads) {
    exec_pool_ = std::make_unique<ThreadPool>(
        static_cast<size_t>(threads - 1));
    exec_pool_threads_ = threads;
  }
  return exec_pool_.get();
}

Result<QueryResult> Database::Execute(const std::string& sql) {
  APUAMA_ASSIGN_OR_RETURN(sql::StmtPtr stmt, sql::Parse(sql));
  return ExecuteStmt(*stmt);
}

Result<QueryResult> Database::ExecuteReference(const std::string& sql) {
  APUAMA_ASSIGN_OR_RETURN(sql::StmtPtr stmt, sql::Parse(sql));
  if (stmt->kind() != StmtKind::kSelect) {
    return Status::InvalidArgument("ExecuteReference runs SELECTs only");
  }
  auto select = static_cast<const sql::SelectStmt&>(*stmt).Clone();
  sql::FoldConstants(select.get());
  ExecStats stats;
  Executor exec(this, &stats, /*sequential_only=*/true);
  return exec.ExecuteSelect(*select);
}

Result<QueryResult> Database::ExecuteStmt(const Stmt& stmt) {
  switch (stmt.kind()) {
    case StmtKind::kSelect: {
      auto select = static_cast<const sql::SelectStmt&>(stmt).Clone();
      sql::FoldConstants(select.get());
      ExecStats stats;
      Executor exec(this, &stats);
      return exec.ExecuteSelect(*select);
    }
    case StmtKind::kInsert:
      return ExecuteInsert(static_cast<const sql::InsertStmt&>(stmt));
    case StmtKind::kDelete:
      return ExecuteDelete(static_cast<const sql::DeleteStmt&>(stmt));
    case StmtKind::kUpdate:
      return ExecuteUpdate(static_cast<const sql::UpdateStmt&>(stmt));
    case StmtKind::kCreateTable:
      return ExecuteCreateTable(
          static_cast<const sql::CreateTableStmt&>(stmt));
    case StmtKind::kCreateIndex:
      return ExecuteCreateIndex(
          static_cast<const sql::CreateIndexStmt&>(stmt));
    case StmtKind::kDropTable: {
      const auto& drop = static_cast<const sql::DropTableStmt&>(stmt);
      APUAMA_RETURN_NOT_OK(catalog_.DropTable(drop.table));
      return QueryResult{};
    }
    case StmtKind::kCreateSample:
    case StmtKind::kDropSample:
      // Scrambles live in the middleware catalog; a single node has
      // no ratio/seed metadata to build one from.
      return Status::InvalidArgument(
          "sample DDL is middleware-level; run it through the cluster "
          "controller");
    case StmtKind::kAlterFragment:
      // Fragment placement is middleware metadata; a single node
      // stores whole tables and has no placement to change.
      return Status::InvalidArgument(
          "fragmentation DDL is middleware-level; run it through the "
          "cluster controller");
    case StmtKind::kSet:
      return ExecuteSet(static_cast<const sql::SetStmt&>(stmt));
    case StmtKind::kExplain:
      return ExecuteExplain(static_cast<const sql::ExplainStmt&>(stmt));
    case StmtKind::kBegin:
      in_txn_ = true;
      txn_wrote_ = false;
      undo_log_.clear();
      return QueryResult{};
    case StmtKind::kCommit: {
      if (in_txn_ && txn_wrote_) ++txn_counter_;
      in_txn_ = false;
      txn_wrote_ = false;
      undo_log_.clear();
      return QueryResult{};
    }
    case StmtKind::kRollback: {
      Status s = ApplyRollback();
      in_txn_ = false;
      txn_wrote_ = false;
      undo_log_.clear();
      APUAMA_RETURN_NOT_OK(s);
      return QueryResult{};
    }
  }
  return Status::Internal("unhandled statement kind");
}

void Database::RecordUndo(UndoEntry::Kind kind, const std::string& table,
                          std::vector<Row> rows) {
  if (!in_txn_ || rows.empty()) return;
  undo_log_.push_back(UndoEntry{kind, table, std::move(rows)});
}

namespace {
bool RowsExactlyEqual(const Row& a, const Row& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].Compare(b[i]) != 0) return false;
  }
  return true;
}

// Removes one row matching `row` exactly. Uses the clustered key to
// land near the row, then matches the full tuple (keys are unique in
// practice, but duplicates are handled).
Status RemoveExactRow(storage::Table* t, const Row& row) {
  size_t begin = 0, end = t->num_rows();
  if (!t->clustered_key().empty()) {
    Row key = t->KeyOfRow(row);
    size_t pos = t->PositionOfKey(key);
    if (pos < t->num_rows()) {
      begin = pos;
      // Scan only while the clustered key still matches.
      end = t->num_rows();
    }
  }
  for (size_t i = begin; i < end; ++i) {
    if (RowsExactlyEqual(t->row(i), row)) {
      t->DeleteAt({i});
      return Status::OK();
    }
    if (!t->clustered_key().empty() && i > begin) {
      // Past the equal-key run: stop early.
      Row key = t->KeyOfRow(row);
      Row cur_key = t->KeyOfRow(t->row(i));
      if (!RowsExactlyEqual(key, cur_key)) break;
    }
  }
  return Status::NotFound("row to undo not found (concurrent change?)");
}
}  // namespace

Status Database::ApplyRollback() {
  for (auto it = undo_log_.rbegin(); it != undo_log_.rend(); ++it) {
    APUAMA_ASSIGN_OR_RETURN(storage::Table * table,
                            catalog_.GetTable(it->table));
    switch (it->kind) {
      case UndoEntry::Kind::kInsertedRows:
        for (const Row& r : it->rows) {
          APUAMA_RETURN_NOT_OK(RemoveExactRow(table, r));
        }
        break;
      case UndoEntry::Kind::kDeletedRows:
        for (const Row& r : it->rows) {
          APUAMA_RETURN_NOT_OK(table->Insert(Row(r)).status());
        }
        break;
    }
  }
  return Status::OK();
}

Result<QueryResult> Database::ExecuteExplain(const sql::ExplainStmt& stmt) {
  if (stmt.analyze) {
    // The node's own read path; it knows its elapsed time and output
    // rows, and every fact of the layers above reads 0.
    const auto t0 = std::chrono::steady_clock::now();
    APUAMA_ASSIGN_OR_RETURN(QueryResult r, ExecuteStmt(*stmt.query));
    r.profile.elapsed_us =
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count();
    r.profile.output_rows = r.rows.size();
    RenderAnalyze(&r);
    return r;
  }
  auto select = stmt.query->Clone();
  sql::FoldConstants(select.get());
  ExecStats stats;
  Executor exec(this, &stats);
  APUAMA_ASSIGN_OR_RETURN(QueryResult inner, exec.ExecuteSelect(*select));
  QueryResult qr;
  qr.column_names = {"plan"};
  for (const auto& [binding, path] : exec.scan_paths()) {
    qr.rows.push_back(
        {Value::Str(std::string(AccessPathName(path)) + " on " + binding)});
  }
  qr.rows.push_back({Value::Str(StrFormat("output rows: %zu",
                                          inner.rows.size()))});
  qr.rows.push_back({Value::Str(stats.ToString())});
  qr.stats = stats;
  return qr;
}

void Database::NoteWriteCommitted() {
  if (in_txn_) {
    txn_wrote_ = true;
  } else {
    ++txn_counter_;
  }
}

namespace {
// Evaluates a literal-only expression (insert values, update rhs).
Result<Value> EvalConst(const sql::Expr& e) {
  EvalContext ctx;  // no scope: only literals/arithmetic resolve
  return Eval(e, ctx);
}
}  // namespace

Result<QueryResult> Database::ExecuteInsert(const sql::InsertStmt& stmt) {
  APUAMA_ASSIGN_OR_RETURN(storage::Table * table,
                          catalog_.GetTable(stmt.table));
  const Schema& schema = table->schema();

  // Column mapping: schema order when unspecified.
  std::vector<int> slots;
  if (stmt.columns.empty()) {
    for (size_t i = 0; i < schema.num_columns(); ++i) {
      slots.push_back(static_cast<int>(i));
    }
  } else {
    for (const auto& c : stmt.columns) {
      int idx = schema.FindColumn(c);
      if (idx < 0) return Status::NotFound("no column " + c);
      slots.push_back(idx);
    }
  }

  QueryResult qr;
  std::vector<Row> inserted;  // for transactional undo
  for (const auto& row_exprs : stmt.rows) {
    if (row_exprs.size() != slots.size()) {
      return Status::InvalidArgument("VALUES arity mismatch");
    }
    Row row(schema.num_columns(), Value::Null());
    for (size_t i = 0; i < slots.size(); ++i) {
      APUAMA_ASSIGN_OR_RETURN(Value v, EvalConst(*row_exprs[i]));
      // Coerce int literals into date/double columns.
      const Column& col = schema.column(static_cast<size_t>(slots[i]));
      if (!v.is_null() && col.type == ValueType::kDate &&
          v.type() == ValueType::kString) {
        APUAMA_ASSIGN_OR_RETURN(v, Value::DateFromString(v.str_val()));
      }
      if (!v.is_null() && col.type == ValueType::kDouble &&
          v.type() == ValueType::kInt64) {
        v = Value::Double(static_cast<double>(v.int_val()));
      }
      row[static_cast<size_t>(slots[i])] = std::move(v);
    }
    if (in_txn_) inserted.push_back(row);
    APUAMA_ASSIGN_OR_RETURN(const size_t pos, table->Insert(std::move(row)));
    ++qr.stats.rows_affected;
    // A write dirties the page it lands on.
    bool hit = pool_.Touch(table->PageOfPosition(pos));
    if (hit) {
      ++qr.stats.pages_cache;
    } else {
      ++qr.stats.pages_disk;
    }
    qr.stats.cpu_ops += schema.num_columns();
  }
  RecordUndo(UndoEntry::Kind::kInsertedRows, table->name(),
             std::move(inserted));
  NoteWriteCommitted();
  return qr;
}

Result<QueryResult> Database::ExecuteDelete(const sql::DeleteStmt& stmt) {
  APUAMA_ASSIGN_OR_RETURN(storage::Table * table,
                          catalog_.GetTable(stmt.table));
  QueryResult qr;
  sql::ExprPtr folded;
  const sql::Expr* where = stmt.where.get();
  if (where != nullptr) {
    folded = where->Clone();
    sql::FoldConstants(folded.get());
    where = folded.get();
  }
  Executor exec(this, &qr.stats);
  APUAMA_ASSIGN_OR_RETURN(std::vector<size_t> positions,
                          exec.MatchWrite(*table, where));
  if (in_txn_) {
    std::vector<Row> removed;
    removed.reserve(positions.size());
    for (size_t pos : positions) removed.push_back(table->row(pos));
    RecordUndo(UndoEntry::Kind::kDeletedRows, table->name(),
               std::move(removed));
  }
  table->DeleteAt(positions);
  qr.stats.rows_affected = positions.size();
  NoteWriteCommitted();
  return qr;
}

Result<QueryResult> Database::ExecuteUpdate(const sql::UpdateStmt& stmt) {
  APUAMA_ASSIGN_OR_RETURN(storage::Table * table,
                          catalog_.GetTable(stmt.table));
  const Schema& schema = table->schema();
  QueryResult qr;
  sql::ExprPtr folded;
  const sql::Expr* where = stmt.where.get();
  if (where != nullptr) {
    folded = where->Clone();
    sql::FoldConstants(folded.get());
    where = folded.get();
  }
  Executor exec(this, &qr.stats);
  APUAMA_ASSIGN_OR_RETURN(std::vector<size_t> positions,
                          exec.MatchWrite(*table, where));

  // Evaluate assignments per row (rhs may reference current values),
  // then re-insert: updating clustered-key columns must re-sort.
  std::vector<int> slots;
  for (const auto& [col, rhs] : stmt.assignments) {
    (void)rhs;
    int idx = schema.FindColumn(col);
    if (idx < 0) return Status::NotFound("no column " + col);
    slots.push_back(idx);
  }
  Relation rel;
  for (const auto& col : schema.columns()) {
    rel.columns.push_back(ColumnBinding{table->name(), col.name});
  }
  ColumnResolver resolver(&rel);
  EvalScope scope{&resolver, nullptr, nullptr};
  EvalContext ctx;
  ctx.scope = &scope;
  ctx.cpu_ops = &qr.stats.cpu_ops;

  std::vector<Row> updated;
  updated.reserve(positions.size());
  for (size_t pos : positions) {
    Row r = table->row(pos);
    scope.row = &r;
    Row next = r;
    for (size_t i = 0; i < slots.size(); ++i) {
      APUAMA_ASSIGN_OR_RETURN(Value v, Eval(*stmt.assignments[i].second, ctx));
      next[static_cast<size_t>(slots[i])] = std::move(v);
    }
    updated.push_back(std::move(next));
  }
  if (in_txn_) {
    std::vector<Row> old_rows;
    old_rows.reserve(positions.size());
    for (size_t pos : positions) old_rows.push_back(table->row(pos));
    RecordUndo(UndoEntry::Kind::kDeletedRows, table->name(),
               std::move(old_rows));
    RecordUndo(UndoEntry::Kind::kInsertedRows, table->name(),
               std::vector<Row>(updated));
  }
  table->DeleteAt(positions);
  for (Row& r : updated) {
    APUAMA_RETURN_NOT_OK(table->Insert(std::move(r)).status());
  }
  qr.stats.rows_affected = positions.size();
  NoteWriteCommitted();
  return qr;
}

Result<QueryResult> Database::ExecuteCreateTable(
    const sql::CreateTableStmt& stmt) {
  Schema schema;
  for (const auto& def : stmt.columns) {
    APUAMA_RETURN_NOT_OK(
        schema.AddColumn(Column(ToLower(def.name), def.type, def.not_null)));
  }
  APUAMA_ASSIGN_OR_RETURN(storage::Table * table,
                          catalog_.CreateTable(stmt.table, std::move(schema)));
  if (!stmt.primary_key.empty()) {
    std::vector<int> key;
    for (const auto& c : stmt.primary_key) {
      int idx = table->schema().FindColumn(c);
      if (idx < 0) return Status::NotFound("PK column " + c + " not found");
      key.push_back(idx);
    }
    APUAMA_RETURN_NOT_OK(table->SetClusteredKey(std::move(key)));
  }
  return QueryResult{};
}

Result<QueryResult> Database::ExecuteCreateIndex(
    const sql::CreateIndexStmt& stmt) {
  APUAMA_ASSIGN_OR_RETURN(storage::Table * table,
                          catalog_.GetTable(stmt.table));
  if (stmt.clustered) {
    std::vector<int> key;
    for (const auto& c : stmt.columns) {
      int idx = table->schema().FindColumn(c);
      if (idx < 0) return Status::NotFound("column " + c + " not found");
      key.push_back(idx);
    }
    APUAMA_RETURN_NOT_OK(table->SetClusteredKey(std::move(key)));
    pool_.InvalidateTable(table->id());  // heap physically reordered
    return QueryResult{};
  }
  if (stmt.columns.size() != 1) {
    return Status::Unsupported(
        "secondary indexes are single-column in this engine");
  }
  APUAMA_RETURN_NOT_OK(table->CreateIndex(stmt.index_name, stmt.columns[0]));
  return QueryResult{};
}

Result<QueryResult> Database::ExecuteSet(const sql::SetStmt& stmt) {
  APUAMA_ASSIGN_OR_RETURN(sql::Setting setting, sql::ParseSetting(stmt));
  switch (setting.knob) {
    case sql::Knob::kEnableSeqscan:
      settings_.enable_seqscan = setting.on;
      break;
    case sql::Knob::kExecThreads:
      settings_.exec_threads = static_cast<int>(setting.integer);
      break;
    // Observability knobs flip process-wide state (the tracer and the
    // logger are global), so a clustered SET broadcast applying them
    // once per backend stays idempotent.
    case sql::Knob::kTrace:
      obs::Tracer::Global().SetEnabled(setting.on);
      break;
    case sql::Knob::kLogLevel:
      SetLogLevel(setting.level);
      break;
    default:
      // A middleware knob: it acts above the node. Accepting it here
      // keeps recovery replay and callers of a bare Database working.
      break;
  }
  return QueryResult{};
}

}  // namespace apuama::engine
