// LRU cache of parse + SVP-rewrite outcomes, keyed on normalized SQL.
//
// OLAP workloads (and every bench driver here) re-submit the same
// query shapes over and over; parsing and rewriting Q21 costs far
// more than rendering its sub-queries. The cache stores the full
// routing decision for a read — pass through, fact query that SVP
// declined, or an SvpPlan prototype — so a repeat query skips parse,
// analysis and rewrite entirely. Plans are stored once and Clone()d
// per execution (rendering mutates template literals); the
// composition statement inside is shared, not copied.
//
// Entries are invalidated wholesale when the Data Catalog version
// changes (domain refresh / new partition space): interval math and
// rewritability both depend on catalog contents.
#ifndef APUAMA_APUAMA_PLAN_CACHE_H_
#define APUAMA_APUAMA_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "apuama/svp_rewriter.h"

namespace apuama {

class PlanCache {
 public:
  enum class Kind {
    kPassthrough,     // not a SELECT / touches no fact table
    kNonRewritable,   // fact query SVP declined (counts a stat)
    kSvp,             // rewritable: `plan` holds the prototype
  };

  struct Entry {
    Kind kind = Kind::kPassthrough;
    SvpPlan plan;  // meaningful only when kind == kSvp
  };

  explicit PlanCache(size_t capacity = 128) : capacity_(capacity) {}

  /// Cached entry for `key` at `catalog_version`, or null. A version
  /// change drops every entry (catalog contents shifted under us).
  std::shared_ptr<const Entry> Lookup(const std::string& key,
                                      uint64_t catalog_version);

  /// Stores `entry` (evicting the least-recently-used key if full).
  /// Dropped silently if `catalog_version` differs from the version
  /// the cache is tracking (only Lookup advances that version).
  void Insert(const std::string& key, uint64_t catalog_version,
              std::shared_ptr<const Entry> entry);

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return map_.size();
  }

  /// Lookups that returned a cached entry. Together with misses()
  /// these make cache efficacy observable (engine stats / SHOW-style
  /// output) without instrumenting every caller.
  uint64_t hits() const {
    std::lock_guard<std::mutex> lock(mu_);
    return hits_;
  }
  /// Lookups that found nothing (including version-invalidated ones).
  uint64_t misses() const {
    std::lock_guard<std::mutex> lock(mu_);
    return misses_;
  }

  /// Cache key: lower-cased SQL with whitespace runs collapsed —
  /// outside string literals only; quoted content ('…' or "…",
  /// doubled-delimiter escapes included) is preserved verbatim, since
  /// literals are part of the plan and must key distinctly.
  static std::string NormalizeSql(const std::string& sql);

 private:
  using LruList =
      std::list<std::pair<std::string, std::shared_ptr<const Entry>>>;

  mutable std::mutex mu_;
  size_t capacity_;
  uint64_t version_ = 0;  // catalog version the entries were built at
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  LruList lru_;           // front = most recent
  std::unordered_map<std::string, LruList::iterator> map_;
};

}  // namespace apuama

#endif  // APUAMA_APUAMA_PLAN_CACHE_H_
