#include "apuama/share/coalescing_gate.h"

#include <chrono>
#include <thread>

namespace apuama::share {

CoalescingGate::Admission CoalescingGate::Admit(
    const std::string& fingerprint) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, opened] = open_.try_emplace(fingerprint);
  if (!opened) return Admission{it->second, /*leader=*/false};
  it->second = std::make_shared<Batch>();
  it->second->fingerprint = fingerprint;
  return Admission{it->second, /*leader=*/true};
}

void CoalescingGate::WaitWindow(const Admission& admission) {
  std::this_thread::sleep_for(std::chrono::microseconds(window_us()));
  std::lock_guard<std::mutex> lock(mu_);
  open_.erase(admission.batch->fingerprint);
}

void CoalescingGate::Publish(const Admission& admission,
                             Result<engine::QueryResult> result) {
  std::lock_guard<std::mutex> lock(mu_);
  Batch* b = admission.batch.get();
  b->result = std::move(result);
  b->done = true;
  b->cv.notify_all();
}

Result<engine::QueryResult> CoalescingGate::Await(
    const Admission& admission) {
  std::unique_lock<std::mutex> lock(mu_);
  Batch* b = admission.batch.get();
  b->cv.wait(lock, [&] { return b->done; });
  return b->result;
}

}  // namespace apuama::share
