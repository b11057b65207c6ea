// A single-node database instance: the black-box DBMS Apuama talks to.
//
// One Database per simulated cluster node. It exposes exactly the
// surface the middleware needs: execute SQL text, per-session settings
// (enable_seqscan), and a monotone transaction counter the Apuama
// consistency manager compares across replicas.
#ifndef APUAMA_ENGINE_DATABASE_H_
#define APUAMA_ENGINE_DATABASE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "engine/exec_stats.h"
#include "engine/query_result.h"
#include "sql/ast.h"
#include "storage/buffer_pool.h"
#include "storage/catalog.h"

namespace apuama::engine {

/// The session settings the node reads, PostgreSQL-style. Apuama
/// flips enable_seqscan off around SVP sub-queries (paper section 3).
/// `SET` validates every knob through sql::ParseSetting; the ones the
/// middleware acts on are accepted here without being stored.
struct SessionSettings {
  bool enable_seqscan = true;
  /// Intra-node threads for morsel-parallel aggregates (third level of
  /// parallelism under inter-query and inter-node). 1 = run the morsel
  /// pipeline inline. Seeded from DefaultExecThreads(); `SET
  /// exec_threads = N` overrides per session.
  int exec_threads = 1;
};

/// Default intra-node execution threads: the APUAMA_EXEC_THREADS
/// environment variable when set (clamped to [1, 128]), otherwise the
/// hardware concurrency.
int DefaultExecThreads();

struct DatabaseOptions {
  /// Buffer pool capacity in 8 KiB pages; 0 = unbounded.
  size_t buffer_pool_pages = 4096;
};

class Database {
 public:
  explicit Database(DatabaseOptions options = DatabaseOptions());

  /// Parses and executes one SQL statement.
  Result<QueryResult> Execute(const std::string& sql);

  /// Executes an already-parsed statement.
  Result<QueryResult> ExecuteStmt(const sql::Stmt& stmt);

  /// Runs one SELECT on the sequential row executor only: neither the
  /// statement nor any subquery it evaluates enters a morsel pipeline.
  /// The oracle tests compare the morsel pipelines against; values
  /// agree up to floating-point association.
  Result<QueryResult> ExecuteReference(const std::string& sql);

  storage::Catalog* catalog() { return &catalog_; }
  const storage::Catalog* catalog() const { return &catalog_; }
  storage::BufferPool* buffer_pool() { return &pool_; }
  SessionSettings* settings() { return &settings_; }
  const SessionSettings& settings() const { return settings_; }

  /// Shared worker pool for morsel-parallel execution, sized
  /// exec_threads - 1 (the query thread participates via ParallelFor).
  /// Null when exec_threads <= 1. Lazily (re)built when the setting
  /// changes; one pool per node bounds intra-node threads regardless
  /// of how many statements the node processes over its lifetime.
  ThreadPool* exec_pool();

  /// Count of committed write transactions (INSERT/DELETE/UPDATE
  /// statements outside explicit transactions; one per COMMIT inside).
  /// Atomic: the Apuama consistency manager reads it cross-thread.
  uint64_t transaction_counter() const { return txn_counter_.load(); }

 private:
  /// One reversible effect inside an explicit transaction.
  struct UndoEntry {
    enum class Kind { kInsertedRows, kDeletedRows } kind;
    std::string table;
    std::vector<Row> rows;
  };

  Result<QueryResult> ExecuteInsert(const sql::InsertStmt& stmt);
  Result<QueryResult> ExecuteDelete(const sql::DeleteStmt& stmt);
  Result<QueryResult> ExecuteUpdate(const sql::UpdateStmt& stmt);
  Result<QueryResult> ExecuteCreateTable(const sql::CreateTableStmt& stmt);
  Result<QueryResult> ExecuteCreateIndex(const sql::CreateIndexStmt& stmt);
  Result<QueryResult> ExecuteSet(const sql::SetStmt& stmt);
  Result<QueryResult> ExecuteExplain(const sql::ExplainStmt& stmt);

  void NoteWriteCommitted();
  /// Records a reversible effect (no-op outside a transaction).
  void RecordUndo(UndoEntry::Kind kind, const std::string& table,
                  std::vector<Row> rows);
  /// Undoes the current transaction's effects, newest first.
  Status ApplyRollback();

  DatabaseOptions options_;
  storage::Catalog catalog_;
  storage::BufferPool pool_;
  SessionSettings settings_;
  std::unique_ptr<ThreadPool> exec_pool_;
  int exec_pool_threads_ = 0;  // exec_threads the pool was built for
  std::atomic<uint64_t> txn_counter_{0};
  bool in_txn_ = false;
  bool txn_wrote_ = false;
  std::vector<UndoEntry> undo_log_;
};

}  // namespace apuama::engine

#endif  // APUAMA_ENGINE_DATABASE_H_
