// WorkSharingHooks — the seam between the C-JDBC controller's
// admission gate and the Apuama engine's work-sharing state.
//
// The gate lives in cjdbc (it must intercept reads before load
// balancing), but the result cache's versioning inputs — catalog
// version, the logical-write stream the consistency barrier observes
// — live in the Apuama engine. cjdbc cannot link apuama_core, so the
// engine implements this interface and exposes it through
// cjdbc::Driver::work_sharing(); a driver without an Apuama layer
// returns nullptr and the controller's gate stays inert.
#ifndef APUAMA_SHARE_WORK_SHARING_H_
#define APUAMA_SHARE_WORK_SHARING_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>

#include "apuama/share/result_cache.h"
#include "engine/query_result.h"

namespace apuama::share {

class WorkSharingHooks {
 public:
  virtual ~WorkSharingHooks() = default;

  /// SET share_scans: coalescing of identical concurrent reads.
  virtual bool sharing_enabled() const = 0;
  /// SET result_cache: versioned result caching.
  virtual bool cache_enabled() const = 0;
  /// How long the gate holds a batch open for identical arrivals.
  virtual int64_t admission_window_us() const = 0;

  /// Probes the result cache; counts a hit/miss in engine stats.
  virtual std::shared_ptr<const engine::QueryResult> CacheLookup(
      const std::string& fingerprint) = 0;

  /// Snapshots cache epochs before executing a read over `tables`
  /// (nullopt when the cache is off or the result must not be cached,
  /// e.g. the read's table set could not be determined safely).
  virtual std::optional<ResultCache::FillTicket> CacheBeginFill(
      const std::string& fingerprint,
      const std::set<std::string>& tables) = 0;

  /// Publishes a computed result under a BeginFill ticket; rejected
  /// internally if a write overlapped.
  virtual void CacheInsert(
      const ResultCache::FillTicket& ticket,
      std::shared_ptr<const engine::QueryResult> result) = 0;
};

}  // namespace apuama::share

#endif  // APUAMA_SHARE_WORK_SHARING_H_
