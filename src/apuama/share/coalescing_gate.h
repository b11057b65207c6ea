// Coalescing gate: identical reads (same query fingerprint) arriving
// within a small admission window run once. The first arrival becomes
// the LEADER — it holds the window open, closes it, executes the read
// exactly as it would with sharing off, and publishes the result.
// Later arrivals with the same fingerprint become FOLLOWERS: they
// block until the leader publishes and never touch a backend. A read
// with a different fingerprint opens (and leads) its own batch.
//
// Freshness: the window closes before the leader executes, so every
// follower's result was computed after that follower arrived.
//
// The gate is pure rendezvous bookkeeping — it never executes SQL and
// has no engine dependencies, so the C-JDBC controller and tests can
// drive it directly. Liveness contract: a leader MUST call WaitWindow
// and then Publish exactly once; every waiting follower then wakes.
#ifndef APUAMA_SHARE_COALESCING_GATE_H_
#define APUAMA_SHARE_COALESCING_GATE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/status.h"
#include "engine/query_result.h"

namespace apuama::share {

class CoalescingGate {
 public:
  struct Options {
    /// How long a leader holds the batch open for identical arrivals.
    int64_t window_us = 200;
  };

  explicit CoalescingGate(Options options) : window_us_(options.window_us) {}

  /// Overrides the admission window at runtime — stage 1 of the
  /// admission ladder widens it under overload so more identical
  /// reads coalesce. Takes effect for the next WaitWindow.
  void set_window_us(int64_t window_us) {
    window_us_.store(window_us, std::memory_order_relaxed);
  }
  int64_t window_us() const {
    return window_us_.load(std::memory_order_relaxed);
  }

  struct Batch {
    std::string fingerprint;
    Result<engine::QueryResult> result =
        Status::Internal("coalescing leader published no result");
    bool done = false;
    std::condition_variable cv;
  };

  /// One admitted read's handle into its batch.
  struct Admission {
    std::shared_ptr<Batch> batch;
    bool leader = false;  // true: run WaitWindow, execute, Publish
  };

  /// Joins the open batch for `fingerprint` as a follower, or opens
  /// one and leads it.
  Admission Admit(const std::string& fingerprint);

  /// Leader only: holds the window open, then closes the batch. An
  /// identical read arriving after this opens a new batch.
  void WaitWindow(const Admission& admission);

  /// Leader only: publishes the batch's one result and wakes every
  /// waiting follower.
  void Publish(const Admission& admission,
               Result<engine::QueryResult> result);

  /// Followers: blocks until the leader publishes, then returns its
  /// result.
  Result<engine::QueryResult> Await(const Admission& admission);

 private:
  std::atomic<int64_t> window_us_;
  std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<Batch>> open_;
};

}  // namespace apuama::share

#endif  // APUAMA_SHARE_COALESCING_GATE_H_
