// Replica-consistency coordination for SVP queries (paper section 3).
//
// C-JDBC guarantees all replicas apply updates in the same order, but
// it cannot order updates against the *sub-queries* Apuama fans out —
// different node OSs could interleave them differently. Apuama
// therefore: (1) keeps a transaction counter per node, (2) before
// dispatching an SVP query, blocks newly arriving update transactions
// and waits until every node's counter is equal (no in-flight
// updates), (3) dispatches all sub-queries, then (4) unblocks
// updates. Updates may then run concurrently with still-executing
// sub-queries; per-statement isolation at each DBMS keeps results
// consistent, which is what lets throughput stay high.
//
// A C-JDBC write is *broadcast*: the controller sends the same
// statement to every backend in turn, and Apuama sees N per-node
// statements for one logical write. The manager therefore tracks
// logical writes: the first per-node statement opens one (blocking if
// an SVP dispatch is preparing), the remaining statements of the same
// broadcast pass through unimpeded, and the logical write closes when
// every *reachable* node has applied it — a crashed replica is not
// waited for (the controller skips it and the recovery log covers its
// rejoin). A statement arriving for a node after its broadcast
// already closed (the attempt on a dead node, sequenced last) is a
// "tail": it executes without opening a new logical write.
//
// With physical fragmentation, writes stop being cluster-wide: a
// routed write touches only the owning fragment's replica set, and
// only readers of that fragment need ordering against it. Both sides
// therefore carry an optional *scope* — a set of epoch keys ("table"
// for whole-table access, "table#f" for one fragment). A write and a
// read conflict when their scopes intersect; an empty scope means
// global (conflicts with everything), which is exactly the legacy
// behavior when fragmentation is off.
#ifndef APUAMA_APUAMA_CONSISTENCY_H_
#define APUAMA_APUAMA_CONSISTENCY_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace apuama {

class ConsistencyManager {
 public:
  /// How a per-node write statement relates to logical broadcasts.
  enum class WriteClass {
    kNew,           // opened a new logical write
    kContinuation,  // part of the currently open broadcast
    kTail,          // late statement of an already-closed broadcast
  };

  /// `node_relevant(i)` tells whether node i currently participates
  /// in broadcasts (an unavailable replica is skipped by the
  /// controller, so a logical write must not wait for it). Null means
  /// every node always participates.
  explicit ConsistencyManager(int num_nodes,
                              std::function<bool(int)> node_relevant =
                                  nullptr);

  /// Brackets the execution of one write statement on one node.
  /// Begin blocks while a *conflicting* SVP dispatch is preparing,
  /// unless this statement continues (or tails) an existing
  /// broadcast. Pass the returned class back to EndNodeWrite.
  ///
  /// `targets` (consulted only when this call opens a new logical
  /// write) lists the node ids the controller routes the statement
  /// to; empty means every node. The broadcast closes when all
  /// *targeted, reachable* nodes have applied it. `scope` is the
  /// write's epoch-key set (empty = global).
  WriteClass BeginNodeWrite(int node, const std::string& statement,
                            const std::vector<int>& targets = {},
                            const std::vector<std::string>& scope = {});
  /// Returns true when this call closed the logical broadcast (every
  /// reachable node has applied the write). The engine uses this to
  /// bump the result cache's completion epoch exactly once per
  /// logical write; tail statements never close a broadcast.
  bool EndNodeWrite(int node, WriteClass cls);

  /// Brackets SVP dispatch: Begin blocks new conflicting logical
  /// writes and waits until no conflicting logical write is open, no
  /// conflicting per-node statement is executing, AND
  /// `counters_equal()` holds (all replica transaction counters
  /// agree, offset-adjusted by the engine for routed writes); End
  /// unblocks writes — call it as soon as all sub-queries are
  /// *dispatched*. `read_scope` is the epoch-key set the read
  /// touches (empty = global: conflicts with every write). Pass the
  /// same scope to the matching EndSvpPrepare.
  void BeginSvpPrepare(const std::function<bool()>& counters_equal,
                       const std::vector<std::string>& read_scope = {});
  void EndSvpPrepare(const std::vector<std::string>& read_scope = {});

  /// RAII form of that bracket: Begin on construction, End on
  /// Release() or destruction, whichever comes first, so every exit
  /// of a dispatch releases the barrier exactly once.
  class SvpPrepareGuard {
   public:
    SvpPrepareGuard(ConsistencyManager* manager,
                    const std::function<bool()>& counters_equal,
                    std::vector<std::string> read_scope)
        : manager_(manager), read_scope_(std::move(read_scope)) {
      manager_->BeginSvpPrepare(counters_equal, read_scope_);
    }
    ~SvpPrepareGuard() { Release(); }
    SvpPrepareGuard(const SvpPrepareGuard&) = delete;
    SvpPrepareGuard& operator=(const SvpPrepareGuard&) = delete;

    void Release() {
      if (manager_ != nullptr) manager_->EndSvpPrepare(read_scope_);
      manager_ = nullptr;
    }

   private:
    ConsistencyManager* manager_;
    std::vector<std::string> read_scope_;
  };

  /// Wakes waiters to re-check their predicates after an external
  /// state change (e.g. a recovery replay advanced a node's counter).
  void NotifyStateChange() { cv_.notify_all(); }

  // Observability. Locked: the cache-fill path reads these counters
  // while writers are bumping them.
  uint64_t writes_blocked() const {
    std::lock_guard<std::mutex> lock(mu_);
    return writes_blocked_;
  }
  uint64_t svp_waits() const {
    std::lock_guard<std::mutex> lock(mu_);
    return svp_waits_;
  }
  uint64_t logical_writes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return logical_writes_;
  }

 private:
  bool BroadcastComplete() const;
  void CloseBroadcastLocked();
  /// True when the scopes overlap; an empty scope is global and
  /// overlaps everything.
  static bool ScopesConflict(const std::vector<std::string>& a,
                             const std::vector<std::string>& b);
  /// Any preparing SVP read whose scope conflicts with `write_scope`?
  bool AnyPreparingConflictsLocked(
      const std::vector<std::string>& write_scope) const;
  /// Any open/executing write whose scope conflicts with `read_scope`?
  bool AnyWriteConflictsLocked(
      const std::vector<std::string>& read_scope) const;

  const int num_nodes_;
  const std::function<bool(int)> node_relevant_;
  mutable std::mutex mu_;
  std::condition_variable cv_;

  bool write_open_ = false;
  std::string open_stmt_;
  std::vector<bool> node_done_;
  std::vector<bool> open_targeted_;   // empty = every node targeted
  std::vector<std::string> open_scope_;  // empty = global
  // The most recently closed broadcast, for classifying tails.
  std::string last_stmt_;
  std::vector<bool> last_done_;
  std::vector<std::string> last_scope_;
  // Statements in flight, split by which broadcast they belong to so
  // scoped readers can ignore non-conflicting writers.
  int executing_open_ = 0;
  int executing_tail_ = 0;

  // One entry per SVP dispatch currently preparing (its read scope).
  std::vector<std::vector<std::string>> preparing_scopes_;

  uint64_t writes_blocked_ = 0;
  uint64_t svp_waits_ = 0;
  uint64_t logical_writes_ = 0;
};

}  // namespace apuama

#endif  // APUAMA_APUAMA_CONSISTENCY_H_
