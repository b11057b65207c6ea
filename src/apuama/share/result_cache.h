// Versioned result cache — serves repeated reads without touching the
// backends, invalidated by exactly the writes that affect them.
//
// Keying. Entries are keyed on the normalized-SQL fingerprint
// (share::NormalizeSql, the same normalization the plan cache uses)
// and validated against (a) the catalog version — any partition-space
// registration or domain change drops every entry, mirroring the plan
// cache — and (b) per-table write epochs derived from the logical
// write stream the SVP consistency barrier observes: every logical
// write bumps its target table's epoch once when it is admitted and
// once more when it completes, and writes whose target cannot be
// attributed (plus DDL and recovery replay) bump a global epoch that
// guards every entry.
//
// Freshness contract. A fill ticket snapshots all relevant epochs
// BEFORE the query executes; Insert re-validates the snapshot under
// the cache lock. The double bump (admission + completion) closes the
// classic race: a read that starts before a write is admitted cannot
// publish pre-write bits after the write completes (the completion
// bump invalidates its ticket), and a read that overlaps the write
// sees at least one bump either way. After a write completes, no
// lookup can return a result computed before that write.
//
// Concurrency: one mutex guards everything; cached results are
// shared_ptr<const QueryResult>, so hits are served without copying
// row data under the lock.
#ifndef APUAMA_SHARE_RESULT_CACHE_H_
#define APUAMA_SHARE_RESULT_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "engine/query_result.h"

namespace apuama::share {

class ResultCache {
 public:
  explicit ResultCache(size_t capacity) : capacity_(capacity) {}

  /// Epoch snapshot a result was computed against. `tables` empty
  /// with `whole_database` set means the read could not be attributed
  /// to specific tables (e.g. unparsable) — it is guarded by the
  /// global epoch alone, which every write also bumps... see Note in
  /// BeginFill.
  struct FillTicket {
    std::string key;
    uint64_t catalog_version = 0;
    uint64_t global_epoch = 0;
    /// Replica transaction counter at fill time (observability; the
    /// per-table epochs below are what validation uses).
    uint64_t writes_observed = 0;
    std::vector<std::pair<std::string, uint64_t>> table_epochs;
  };

  /// Returns the cached result for `key` if present and still valid
  /// at `catalog_version` and the current epochs; stale entries are
  /// erased and counted as misses.
  ///
  /// Exactness: only an `APPROX SELECT` computes an approximate
  /// answer, and the key (normalized SQL) keeps the verb, so an exact
  /// query never looks up an approximate entry.
  std::shared_ptr<const engine::QueryResult> Lookup(
      const std::string& key, uint64_t catalog_version);

  /// Snapshots the epochs guarding `tables` (lowercased table names
  /// the query reads). Call BEFORE executing the query, then pass the
  /// ticket to Insert with the computed result. `writes_observed` is
  /// the caller's logical-write counter, recorded for observability.
  /// An empty `tables` set makes the entry global-epoch-guarded: any
  /// write anywhere invalidates it.
  FillTicket BeginFill(const std::string& key, uint64_t catalog_version,
                       const std::set<std::string>& tables,
                       uint64_t writes_observed);

  /// Publishes a result if the ticket's epoch snapshot is still
  /// current; otherwise the fill is rejected (a write raced the
  /// read). Returns true when the entry was stored.
  bool Insert(const FillTicket& ticket,
              std::shared_ptr<const engine::QueryResult> result);

  /// Write bracketing: call BeginTableWrite when a logical write on
  /// `table` is admitted and EndTableWrite when it completes. Both
  /// bump the table's epoch (see Freshness contract above). An empty
  /// table name bumps the global epoch instead (unattributable
  /// write).
  void BeginTableWrite(const std::string& table);
  void EndTableWrite(const std::string& table);

  /// Multi-key bracketing for fragment-routed writes: each key is an
  /// epoch key ("table" or "table#fragment") and all of them bump
  /// under one lock acquisition. An empty vector bumps the global
  /// epoch, mirroring the single-key overload's empty-string case.
  void BeginTableWrite(const std::vector<std::string>& keys);
  void EndTableWrite(const std::vector<std::string>& keys);

  /// Drops everything and bumps the global epoch (DDL, recovery
  /// replay, catalog changes).
  void InvalidateAll();

  /// Current epoch of one key ("table" or "table#fragment"; "" =
  /// global). The scramble builder compares this against the epoch a
  /// sample was built at to decide whether a rebuild is due — the
  /// same counter that invalidates cached results invalidates
  /// samples.
  uint64_t TableEpoch(const std::string& table) const;

  // Observability.
  uint64_t hits() const;
  uint64_t misses() const;
  uint64_t insert_rejects() const;
  size_t size() const;

 private:
  struct Entry {
    std::shared_ptr<const engine::QueryResult> result;
    uint64_t catalog_version = 0;
    uint64_t global_epoch = 0;
    std::vector<std::pair<std::string, uint64_t>> table_epochs;
  };

  void BumpLocked(const std::string& table);
  bool ValidLocked(const Entry& e, uint64_t catalog_version) const;

  const size_t capacity_;
  mutable std::mutex mu_;
  // LRU list front = most recent; map points into the list.
  std::list<std::pair<std::string, Entry>> lru_;
  std::unordered_map<std::string,
                     std::list<std::pair<std::string, Entry>>::iterator>
      map_;
  std::unordered_map<std::string, uint64_t> table_epochs_;
  uint64_t global_epoch_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t insert_rejects_ = 0;
};

}  // namespace apuama::share

#endif  // APUAMA_SHARE_RESULT_CACHE_H_
