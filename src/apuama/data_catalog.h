// Data Catalog — Apuama's metadata about virtually-partitionable
// tables (paper Fig. 1(b)).
//
// Virtual partitioning metadata is expressed as *partition key
// spaces*: a set of (table, column) members sharing one key domain.
// TPC-H registers a single space {(orders, o_orderkey),
// (lineitem, l_orderkey)} — the derived partitioning the paper uses
// (lineitem derives its partitioning from orders through the foreign
// key). A query touching any member table can be SVP-rewritten by
// constraining every member reference to the same key interval.
#ifndef APUAMA_APUAMA_DATA_CATALOG_H_
#define APUAMA_APUAMA_DATA_CATALOG_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "types/schema.h"

namespace apuama {

/// Equal-width key intervals [lo, hi) covering the inclusive domain
/// [min, max], one per part; the first `span % parts` intervals are
/// one key wider. This is the single source of truth for interval
/// math: SVP sub-query carving (SvpPlan::MakeIntervals) and physical
/// fragment boundaries both delegate here, so a table fragmented
/// INTO k at the same domain has fragments that coincide exactly
/// with the k-node SVP intervals.
std::vector<std::pair<int64_t, int64_t>> KeyIntervals(int64_t min_value,
                                                      int64_t max_value,
                                                      int parts);

/// Physical fragmentation of one table (the shared-nothing overlay).
///
/// The dialect's HASH is an order-preserving multiplicative
/// bucketization of the key domain, so hash fragments coincide with
/// key ranges — RANGE and HASH differ only in declared intent, both
/// use the frozen `bounds` below. Boundaries are frozen when the
/// spec is installed (from the partition space's domain at that
/// moment); the edge fragments are open-ended for routing, so a
/// later domain extension (refresh headroom) cannot migrate an
/// already-placed key to a different fragment.
struct FragmentationSpec {
  enum class Method { kHash, kRange };

  std::string table;       // lower-cased
  std::string key_column;  // must be the table's VPA
  Method method = Method::kHash;
  int fragments = 1;
  int replica_factor = 1;
  /// fragment -> host node ids, primary first (`placement[f][0]`).
  std::vector<std::vector<int>> placement;
  /// Frozen interval bounds, size fragments+1: fragment f covers
  /// [bounds[f], bounds[f+1]) — except routing treats fragment 0 as
  /// (-inf, bounds[1]) and the last as [bounds[k-1], +inf).
  std::vector<int64_t> bounds;

  /// Owning fragment of a key (total: out-of-range keys clamp to the
  /// edge fragments).
  int FragmentOf(int64_t key) const;

  /// True when fragment f can hold keys in the inclusive [lo, hi]
  /// (edge fragments open-ended, matching FragmentOf).
  bool Intersects(int fragment, int64_t lo, int64_t hi) const;

  const std::vector<int>& HostsOf(int fragment) const {
    return placement[static_cast<size_t>(fragment)];
  }

  /// Sorted, deduplicated union of the hosts of `fragments`.
  std::vector<int> HostsOf(const std::vector<int>& fragments) const;

  /// Which fragments of this table the INSERT, UPDATE or DELETE `sql`
  /// writes: sorted and deduplicated, or nullopt when the write is not
  /// statically attributable and must broadcast. Attributable means
  /// every inserted key is an integer literal, or the UPDATE/DELETE
  /// WHERE pins the key with a top-level `key = literal` conjunct (an
  /// UPDATE that assigns the key is never attributable). `schema` is
  /// the table's schema; it locates the key in an INSERT without a
  /// column list. The one write router of the engine and simulator.
  std::optional<std::vector<int>> WrittenFragments(const std::string& sql,
                                                   const Schema& schema) const;
};

struct VirtualPartitionSpace {
  struct Member {
    std::string table;   // lower-cased
    std::string column;  // the VPA for that table
  };

  std::string name;
  std::vector<Member> members;
  int64_t min_value = 0;  // inclusive domain bounds of the key
  int64_t max_value = 0;  // inclusive

  /// Member entry for a table, or nullptr.
  const Member* FindMember(const std::string& table) const;

  /// True when `column` is the VPA of some member table.
  bool IsMemberColumn(const std::string& column) const;
};

class DataCatalog {
 public:
  DataCatalog() = default;
  DataCatalog(const DataCatalog& o)
      : spaces_(o.spaces_),
        fragmentation_(o.fragmentation_),
        version_(o.version_.load()) {}
  DataCatalog(DataCatalog&& o) noexcept
      : spaces_(std::move(o.spaces_)),
        fragmentation_(std::move(o.fragmentation_)),
        version_(o.version_.load()) {}
  DataCatalog& operator=(const DataCatalog& o) {
    spaces_ = o.spaces_;
    fragmentation_ = o.fragmentation_;
    version_.store(o.version_.load());
    return *this;
  }
  DataCatalog& operator=(DataCatalog&& o) noexcept {
    spaces_ = std::move(o.spaces_);
    fragmentation_ = std::move(o.fragmentation_);
    version_.store(o.version_.load());
    return *this;
  }

  /// Registers a space; member tables must not already belong to one.
  Status RegisterSpace(VirtualPartitionSpace space);

  /// The space a table belongs to, or nullptr.
  const VirtualPartitionSpace* SpaceForTable(const std::string& table) const;

  bool IsPartitionable(const std::string& table) const {
    return SpaceForTable(table) != nullptr;
  }

  /// Updates a space's key domain (after refresh streams grow it).
  Status UpdateDomain(const std::string& space_name, int64_t min_value,
                      int64_t max_value);

  /// Removes a space by name (DROP SAMPLE deregisters the scramble's
  /// private space). Member tables must not be fragmented. Bumps
  /// version() so plans carved against the space cannot be reused.
  Status RemoveSpace(const std::string& space_name);

  const std::vector<VirtualPartitionSpace>& spaces() const { return spaces_; }

  /// Installs (or replaces) a table's fragmentation spec. The table
  /// must belong to a partition space and `key_column` must be its
  /// VPA (fragment boundaries are key intervals, so the overlay only
  /// composes with SVP through the shared key). Fills `bounds` from
  /// the space's current domain when the caller left it empty, and
  /// derives a natural placement (fragment f primary on node
  /// f % cluster, replicas on the following nodes) when `placement`
  /// is empty and `cluster_nodes` > 0. Bumps version().
  Status SetFragmentation(FragmentationSpec spec, int cluster_nodes);

  /// Removes a table's fragmentation spec (back to fully
  /// replicated). OK even when none is installed; bumps version()
  /// only when a spec was removed.
  Status ClearFragmentation(const std::string& table);

  /// The fragmentation spec for a table, or nullptr when the table
  /// is fully replicated.
  const FragmentationSpec* FragmentationFor(const std::string& table) const;

  bool any_fragmented() const { return !fragmentation_.empty(); }

  const std::vector<FragmentationSpec>& fragmentation() const {
    return fragmentation_;
  }

  /// Monotonic change counter, bumped by every successful
  /// RegisterSpace/UpdateDomain. Cached SVP plans are keyed on it so
  /// a domain refresh invalidates stale interval math.
  uint64_t version() const {
    return version_.load(std::memory_order_acquire);
  }

 private:
  std::vector<VirtualPartitionSpace> spaces_;
  std::vector<FragmentationSpec> fragmentation_;
  std::atomic<uint64_t> version_{0};
};

}  // namespace apuama

#endif  // APUAMA_APUAMA_DATA_CATALOG_H_
