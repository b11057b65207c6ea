#include "apuama/admission/admission.h"

#include <algorithm>

namespace apuama::admission {

AdmissionController::AdmissionController(Options options)
    : options_(options),
      enabled_(options.enabled),
      window_us_(options.window_base_us),
      default_slo_us_(options.default_slo_us),
      default_priority_(options.default_priority),
      ewma_us_(std::max<int64_t>(1, options.ewma_seed_us)),
      queue_wait_hist_(std::make_unique<obs::Histogram>(
          obs::Histogram::DefaultLatencyBoundsUs())) {}

void AdmissionController::SetTenantClass(const std::string& tenant,
                                         int64_t slo_us, int priority) {
  std::lock_guard<std::mutex> lock(mu_);
  ClassTrack& track = TrackLocked(tenant);
  track.slo_us = std::max<int64_t>(1, slo_us);
  track.priority = std::clamp(priority, 0, 7);
  track.has_defaults = true;
}

void AdmissionController::set_default_slo_us(int64_t v) {
  std::lock_guard<std::mutex> lock(mu_);
  default_slo_us_ = std::max<int64_t>(1, v);
}

void AdmissionController::set_default_priority(int v) {
  std::lock_guard<std::mutex> lock(mu_);
  default_priority_ = std::clamp(v, 0, 7);
}

AdmissionController::ClassTrack& AdmissionController::TrackLocked(
    const std::string& tenant) {
  auto it = classes_.find(tenant);
  if (it == classes_.end()) {
    it = classes_.emplace(tenant, ClassTrack{}).first;
    it->second.latency = std::make_unique<obs::Histogram>(
        obs::Histogram::DefaultLatencyBoundsUs());
  }
  return it->second;
}

void AdmissionController::ResolveLocked(const Request& request,
                                        int* priority, int64_t* slo_us) {
  int64_t class_slo = 0;
  int class_priority = -1;
  auto it = classes_.find(request.tenant);
  if (it != classes_.end() && it->second.has_defaults) {
    class_slo = it->second.slo_us;
    class_priority = it->second.priority;
  }
  *slo_us = request.slo_us > 0
                ? request.slo_us
                : (class_slo > 0 ? class_slo : default_slo_us_);
  *priority = request.priority >= 0
                  ? std::clamp(request.priority, 0, 7)
                  : (class_priority >= 0 ? class_priority
                                         : default_priority_);
}

double AdmissionController::OverloadLocked(const std::string& tenant,
                                           int64_t slo_us) const {
  // Queueing-delay estimate from recent service times: with
  // max_inflight service slots and `backlog` requests ahead, a new
  // arrival expects backlog/max_inflight service times of delay
  // before its own ~ewma of service.
  const int backlog = inflight_ + queued_;
  const int waits_ahead =
      backlog >= options_.max_inflight ? backlog - options_.max_inflight + 1
                                       : 0;
  const double est_delay =
      static_cast<double>(waits_ahead) * static_cast<double>(ewma_us_) /
      static_cast<double>(std::max(1, options_.max_inflight));
  const double predicted = est_delay + static_cast<double>(ewma_us_);
  double overload = predicted / static_cast<double>(std::max<int64_t>(1, slo_us));
  // Secondary signal: once a class's PR 5 histogram is warm, its
  // observed p99 joins the estimate — sustained SLO misses push the
  // ladder even when the backlog model looks healthy. It only feeds
  // the soft stages (window/degrade) via callers that use this value;
  // shedding keys off the model so a past burst cannot over-shed a
  // recovered gate. Histograms rotate by epoch (ClassP99Locked), so
  // a cold-start tail ages out instead of pinning the ladder.
  auto it = classes_.find(tenant);
  if (it != classes_.end()) {
    const int64_t p99 = ClassP99Locked(it->second);
    if (p99 > 0) {
      overload = std::max(overload,
                          static_cast<double>(p99) /
                              static_cast<double>(std::max<int64_t>(1, slo_us)));
    }
  }
  return overload;
}

int64_t AdmissionController::ClassP99Locked(const ClassTrack& track) const {
  if (track.latency->count() >= options_.p99_min_count) {
    return track.latency->Percentile(99.0);
  }
  if (track.prev_latency != nullptr &&
      track.prev_latency->count() >= options_.p99_min_count) {
    return track.prev_latency->Percentile(99.0);
  }
  return 0;
}

int64_t AdmissionController::LadderWindowLocked(double overload) {
  int64_t window = options_.window_base_us;
  if (overload > 1.0) {
    window = static_cast<int64_t>(
        static_cast<double>(options_.window_base_us) * overload);
    window = std::min(window, options_.window_max_us);
  }
  window_us_.store(window, std::memory_order_relaxed);
  return window;
}

AdmissionController::Ticket AdmissionController::MakeTicketLocked(
    const Waiter& w, Action action, int64_t now_us) {
  Ticket t;
  t.id = w.id;
  t.action = action;
  t.arrive_us = w.arrive_us;
  t.dispatch_us = now_us;
  t.slo_us = w.slo_us;
  t.priority = w.priority;
  t.window_us = window_us_.load(std::memory_order_relaxed);
  t.tenant = w.request.tenant;
  return t;
}

void AdmissionController::Submit(const Request& request, int64_t now_us,
                                 ReleaseFn on_release) {
  Ticket ticket;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.submitted;
    Waiter w;
    w.request = request;
    w.arrive_us = now_us;
    w.id = next_id_++;
    ResolveLocked(request, &w.priority, &w.slo_us);
    if (!enabled_.load(std::memory_order_relaxed)) {
      ++counters_.admitted;
      ++inflight_;
      window_us_.store(options_.window_base_us, std::memory_order_relaxed);
      ticket = MakeTicketLocked(w, Action::kAdmit, now_us);
    } else {
      // Hard queueing-model overload (stage 3 input) vs the softer
      // estimate that includes observed p99 (stages 1-2).
      const double soft = OverloadLocked(request.tenant, w.slo_us);
      LadderWindowLocked(soft);
      const int backlog = inflight_ + queued_;
      const int waits_ahead = backlog >= options_.max_inflight
                                  ? backlog - options_.max_inflight + 1
                                  : 0;
      const double model =
          (static_cast<double>(waits_ahead) *
               static_cast<double>(ewma_us_) /
               static_cast<double>(std::max(1, options_.max_inflight)) +
           static_cast<double>(ewma_us_)) /
          static_cast<double>(std::max<int64_t>(1, w.slo_us));
      const bool queue_full = queued_ >= options_.queue_limit;
      const bool hopeless =
          model > options_.shed_at * static_cast<double>(w.priority + 1);
      if (options_.allow_shed && (queue_full || hopeless)) {
        ++counters_.shed;
        ticket = MakeTicketLocked(w, Action::kShed, now_us);
      } else if (inflight_ < options_.max_inflight) {
        Action action = Action::kAdmit;
        if (options_.allow_degrade && request.degradable &&
            soft > options_.degrade_at) {
          action = Action::kDegrade;
          ++counters_.degraded;
        } else {
          ++counters_.admitted;
        }
        ++inflight_;
        ticket = MakeTicketLocked(w, action, now_us);
      } else {
        // Bounded queue: parked until a completion frees a slot.
        ++counters_.queued;
        ++queued_;
        w.on_release = std::move(on_release);
        queue_[w.priority].push_back(std::move(w));
        return;
      }
    }
  }
  on_release(ticket);
}

std::vector<std::pair<AdmissionController::Ticket,
                      AdmissionController::ReleaseFn>>
AdmissionController::DrainQueueLocked(int64_t now_us) {
  std::vector<std::pair<Ticket, ReleaseFn>> fire;
  while (queued_ > 0 && inflight_ < options_.max_inflight) {
    // Highest priority first, FIFO within a class.
    auto it = queue_.rbegin();
    while (it != queue_.rend() && it->second.empty()) ++it;
    if (it == queue_.rend()) break;  // defensive: queued_ disagreed
    Waiter w = std::move(it->second.front());
    it->second.pop_front();
    --queued_;
    const int64_t waited = now_us - w.arrive_us;
    const int64_t patience =
        w.slo_us * static_cast<int64_t>(w.priority + 1);
    if (options_.allow_shed && waited > patience) {
      // Early-exit cancellation: the queue wait already ate the SLO
      // budget — executing now wastes capacity on a guaranteed miss.
      ++counters_.cancelled;
      fire.emplace_back(MakeTicketLocked(w, Action::kShed, now_us),
                        std::move(w.on_release));
      continue;  // no inflight slot consumed
    }
    const double soft = OverloadLocked(w.request.tenant, w.slo_us);
    LadderWindowLocked(soft);
    Action action = Action::kAdmit;
    if (options_.allow_degrade && w.request.degradable &&
        soft > options_.degrade_at) {
      action = Action::kDegrade;
      ++counters_.degraded;
    } else {
      ++counters_.admitted;
    }
    ++inflight_;
    fire.emplace_back(MakeTicketLocked(w, action, now_us),
                      std::move(w.on_release));
  }
  return fire;
}

void AdmissionController::OnComplete(const Ticket& ticket, int64_t now_us,
                                     bool ok) {
  if (ticket.shed()) return;  // shed tickets never dispatched
  std::vector<std::pair<Ticket, ReleaseFn>> fire;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (inflight_ > 0) --inflight_;
    const int64_t service = std::max<int64_t>(0, now_us - ticket.dispatch_us);
    const int64_t latency = std::max<int64_t>(0, now_us - ticket.arrive_us);
    // EWMA with alpha = 1/4: stable under bursts, still tracks a
    // shifting service-time mix within a few dozen completions.
    ewma_us_ = std::max<int64_t>(1, (ewma_us_ * 3 + service) / 4);
    ClassTrack& track = TrackLocked(ticket.tenant);
    track.latency->Observe(latency);
    if (track.latency->count() >= options_.p99_epoch) {
      track.prev_latency = std::move(track.latency);
      track.latency = std::make_unique<obs::Histogram>(
          obs::Histogram::DefaultLatencyBoundsUs());
    }
    queue_wait_hist_->Observe(ticket.queue_wait_us());
    if (ok) {
      if (latency <= ticket.slo_us) {
        ++counters_.slo_met;
      } else {
        ++counters_.slo_missed;
      }
    }
    fire = DrainQueueLocked(now_us);
  }
  for (auto& [t, fn] : fire) {
    if (fn) fn(t);
  }
}

AdmissionController::Counters AdmissionController::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

int AdmissionController::inflight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return inflight_;
}

int AdmissionController::queued() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queued_;
}

int64_t AdmissionController::ewma_service_us() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ewma_us_;
}

int64_t AdmissionController::ClassP99Us(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = classes_.find(tenant);
  if (it == classes_.end()) return 0;
  const int64_t warm = ClassP99Locked(it->second);
  return warm > 0 ? warm : it->second.latency->Percentile(99.0);
}

std::vector<std::pair<std::string, uint64_t>> AdmissionController::Kv()
    const {
  Counters c = counters();
  return {{"submitted", c.submitted}, {"admitted", c.admitted},
          {"degraded", c.degraded},   {"shed", c.shed},
          {"cancelled", c.cancelled}, {"queued", c.queued},
          {"slo_met", c.slo_met},     {"slo_missed", c.slo_missed}};
}

}  // namespace apuama::admission
