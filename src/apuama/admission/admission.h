// SLO-driven admission control — the C-JDBC gate's scheduler.
//
// The PR 4 admission window is a rendezvous, not a scheduler: every
// read passes, FIFO, and under overload queueing delay grows without
// bound. This controller replaces that pass-through with a real
// policy: every read arrives with a deadline (SLO) and a priority
// class, the gate estimates the queueing delay it would suffer from
// recent service times (EWMA) and the current backlog, and applies a
// three-stage overload ladder:
//
//   stage 1  widen the coalescing window so more identical reads
//            share one execution (capacity grows, nothing is
//            turned away);
//   stage 2  degrade eligible plain SELECTs to APPROX — shedding
//            precision instead of queries (the PR 9 tier answers
//            from a scramble at a fraction of the exact cost), with
//            the result tagged `degraded`;
//   stage 3  shed lowest-priority queries with a typed retryable
//            Status (kOverloaded) — higher priorities tolerate
//            proportionally more predicted overload before shedding,
//            and a full bounded queue sheds unconditionally.
//
// Per-class p99 latency is tracked in PR 5 fixed-bucket histograms
// (owned per controller instance, so decisions are deterministic and
// never bleed across sims/tests) and feeds back into the overload
// estimate once enough observations exist.
//
// Virtual-time contract: the controller NEVER reads a clock — every
// entry point takes `now_us`. The threaded C-JDBC controller passes
// steady-clock time; the discrete-event ClusterSim passes virtual
// time, making a run a pure function of arrival order and the seed.
// Release callbacks fire synchronously inside Submit (fast path) or
// inside a later OnComplete, on the completing caller's context.
#ifndef APUAMA_APUAMA_ADMISSION_ADMISSION_H_
#define APUAMA_APUAMA_ADMISSION_ADMISSION_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace apuama::admission {

class AdmissionController {
 public:
  struct Options {
    /// Master switch. Off = Submit admits everything untouched (the
    /// byte-for-byte baseline; callers should bypass Submit entirely
    /// on the hot path when disabled).
    bool enabled = false;
    /// Deadline/priority defaults for requests that carry neither
    /// their own values nor a tenant class.
    int64_t default_slo_us = 50'000;
    int default_priority = 4;  // 0 = shed first .. 7 = shed last
    /// Concurrent dispatched requests the gate allows before queueing
    /// (≈ what the backends can absorb: nodes × multiprogramming).
    int max_inflight = 8;
    /// Waiting requests beyond this are shed regardless of priority —
    /// the bounded admission queue.
    int queue_limit = 256;
    /// Coalescing window ladder (stage 1): base when healthy, widened
    /// proportionally to predicted overload, capped at max.
    int64_t window_base_us = 200;
    int64_t window_max_us = 2'000;
    /// Ladder stages 2/3 on/off (tests isolate one stage at a time).
    bool allow_degrade = true;
    bool allow_shed = true;
    /// Predicted-latency / SLO ratio at which eligible SELECTs start
    /// degrading to APPROX.
    double degrade_at = 1.0;
    /// Ratio at which priority-0 requests shed; priority p sheds at
    /// shed_at * (p + 1), so the lowest classes go first.
    double shed_at = 2.0;
    /// Seed for the service-time EWMA before any completion lands.
    int64_t ewma_seed_us = 1'000;
    /// Histogram observations per class before observed p99 joins the
    /// overload estimate (too few and one slow query stampedes).
    uint64_t p99_min_count = 64;
    /// Completions per class histogram epoch. Fixed-bucket histograms
    /// never decay, so each class rotates to a fresh histogram every
    /// epoch (keeping the previous one for reads while the new one
    /// warms). Without this a cold-start or past-burst tail pins the
    /// observed p99 above the SLO forever and the ladder never climbs
    /// back down. Count-based rotation keeps the controller
    /// clock-free and deterministic under the sim.
    uint64_t p99_epoch = 256;
  };

  /// What the ladder decided for one request.
  enum class Action { kAdmit, kDegrade, kShed };

  struct Request {
    int priority = -1;    // -1 = tenant-class / controller default
    int64_t slo_us = 0;   // 0 = tenant-class / controller default
    /// Eligible for stage 2 (a plain SELECT, not already APPROX).
    bool degradable = false;
    std::string tenant;   // "" = the default class
  };

  /// The resolved outcome handed to the release callback. Carries
  /// everything OnComplete needs, so callers just thread it through.
  struct Ticket {
    uint64_t id = 0;
    Action action = Action::kAdmit;
    int64_t arrive_us = 0;
    int64_t dispatch_us = 0;
    int64_t slo_us = 0;
    int priority = 0;
    /// Stage-1 window at dispatch time (what the coalescing gate
    /// should hold open for this request's batch).
    int64_t window_us = 0;
    std::string tenant;

    int64_t queue_wait_us() const { return dispatch_us - arrive_us; }
    bool degraded() const { return action == Action::kDegrade; }
    bool shed() const { return action == Action::kShed; }
  };

  /// Fires exactly once per Submit: synchronously (immediate admit or
  /// shed) or later from inside another request's OnComplete (the
  /// request waited in the bounded queue).
  using ReleaseFn = std::function<void(const Ticket&)>;

  /// Monotonic counters (all since construction).
  struct Counters {
    uint64_t submitted = 0;
    uint64_t admitted = 0;    // dispatched exact
    uint64_t degraded = 0;    // dispatched as APPROX (stage 2)
    uint64_t shed = 0;        // rejected at arrival (stage 3)
    uint64_t cancelled = 0;   // shed at release: queue wait ate the SLO
    uint64_t queued = 0;      // went through the bounded queue
    uint64_t slo_met = 0;
    uint64_t slo_missed = 0;
  };

  explicit AdmissionController(Options options);

  /// Registers (or overwrites) a tenant class: requests naming
  /// `tenant` inherit these defaults when they carry none.
  void SetTenantClass(const std::string& tenant, int64_t slo_us,
                      int priority);

  /// Runs the ladder for one arrival. The callback always fires
  /// exactly once; inspect Ticket::action for the verdict. When the
  /// controller is disabled the request admits immediately with the
  /// base window.
  void Submit(const Request& request, int64_t now_us, ReleaseFn on_release);

  /// Completion of a dispatched (admitted/degraded) ticket: updates
  /// the EWMA service time, the per-class latency histogram, goodput
  /// counters, and releases queued requests — their callbacks run
  /// inside this call, on this thread.
  void OnComplete(const Ticket& ticket, int64_t now_us, bool ok);

  // --- Knobs (the controller's SET knobs / sim options). -------------
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_default_slo_us(int64_t v);
  void set_default_priority(int v);

  // --- Introspection. ------------------------------------------------
  /// Current stage-1 window from the latest overload estimate.
  int64_t window_us() const {
    return window_us_.load(std::memory_order_relaxed);
  }
  Counters counters() const;
  /// Requests dispatched but not completed / waiting in the queue.
  int inflight() const;
  int queued() const;
  /// Smoothed service time driving the queueing-delay estimate.
  int64_t ewma_service_us() const;
  /// Observed p99 latency of a class (0 when unseen). PR 5 histogram.
  int64_t ClassP99Us(const std::string& tenant) const;
  /// Ordered counters for a metrics-registry provider.
  std::vector<std::pair<std::string, uint64_t>> Kv() const;

 private:
  struct Waiter {
    Request request;
    int64_t arrive_us = 0;
    uint64_t id = 0;
    int priority = 0;
    int64_t slo_us = 0;
    ReleaseFn on_release;
  };

  struct ClassTrack {
    int64_t slo_us = 0;
    int priority = 0;
    bool has_defaults = false;
    /// Current epoch's latencies; rotated into `prev_latency` every
    /// p99_epoch completions so the p99 signal ages out.
    std::unique_ptr<obs::Histogram> latency;
    std::unique_ptr<obs::Histogram> prev_latency;
  };

  // All Locked methods require mu_.
  ClassTrack& TrackLocked(const std::string& tenant);
  void ResolveLocked(const Request& request, int* priority,
                     int64_t* slo_us);
  /// Predicted latency / SLO for a request arriving now, from the
  /// EWMA backlog model and (when warm) the class's observed p99.
  double OverloadLocked(const std::string& tenant, int64_t slo_us) const;
  /// Stage-1 window for a given overload ratio; also stores it.
  int64_t LadderWindowLocked(double overload);
  /// Observed p99 of the warmest readable epoch (current if past
  /// p99_min_count, else the previous full epoch); 0 = not warm.
  int64_t ClassP99Locked(const ClassTrack& track) const;
  Ticket MakeTicketLocked(const Waiter& w, Action action,
                          int64_t now_us);
  /// Pops releasable waiters while capacity allows. Returns the
  /// (ticket, callback) pairs to fire AFTER dropping mu_.
  std::vector<std::pair<Ticket, ReleaseFn>> DrainQueueLocked(
      int64_t now_us);

  const Options options_;
  std::atomic<bool> enabled_;
  std::atomic<int64_t> window_us_;

  mutable std::mutex mu_;
  int64_t default_slo_us_;
  int default_priority_;
  int64_t ewma_us_;
  int inflight_ = 0;
  uint64_t next_id_ = 1;
  /// Bounded admission queue, highest priority first, FIFO within a
  /// priority (std::map iterates ascending; we drain from rbegin).
  std::map<int, std::deque<Waiter>> queue_;
  int queued_ = 0;
  std::map<std::string, ClassTrack> classes_;
  std::unique_ptr<obs::Histogram> queue_wait_hist_;
  Counters counters_;
};

}  // namespace apuama::admission

#endif  // APUAMA_APUAMA_ADMISSION_ADMISSION_H_
