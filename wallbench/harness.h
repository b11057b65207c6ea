// Helpers of the wall-clock benchmark: summary statistics, seeded
// input generators, metric-name validation and the timing decorator
// that sits between the controller and the Apuama driver.
#ifndef WALLBENCH_HARNESS_H_
#define WALLBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cjdbc/connection.h"
#include "common/rng.h"
#include "engine/exec_stats.h"

namespace wallbench {

/// Monotonic wall clock in microseconds, with nanosecond resolution.
inline double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile (p in (0, 100]) of `values`; 0 when empty.
/// The rank is ceil(p/100 * n), so p95 of 200 samples is the 190th
/// smallest and 10 samples lie beyond it.
double Percentile(std::vector<double> values, double p);

/// Nearest-rank median.
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

/// Geometric mean of positive values; 0 when empty.
double Geomean(const std::vector<double>& values);

/// Draws ranks in [0, n) with P(rank r) proportional to 1/(r+1)^s,
/// by inverting the cumulative weights (binary search).
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s);
  size_t Next(apuama::Rng* rng) const;
  size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

/// Permutation of [0, n) drawn from `rng` (Fisher-Yates).
std::vector<int> Permutation(int n, apuama::Rng* rng);

/// True when `name` is a valid metric name: 1 to 64 characters from
/// [A-Za-z0-9_.-], starting with a letter or digit.
bool ValidMetricName(const std::string& name);

/// Backend work seen by the calling thread since its last Reset():
/// wall time inside Connection::Execute / ExecuteShared, the number
/// of such calls, and the ExecStats of every result they returned.
struct BackendTally {
  double us = 0;
  int calls = 0;
  apuama::engine::ExecStats stats;
};

/// The calling thread's tally. The controller runs backend calls on
/// the thread that submitted the request, so a client thread resets
/// its tally before Controller::Execute and reads it afterwards.
BackendTally& ThreadTally();

/// Driver decorator: wraps every connection of `inner` so backend
/// calls are timed into ThreadTally(). It forwards work_sharing() and
/// RouteWrite(); without them the controller's share gate, result
/// cache and write routing would silently switch off.
class TimedDriver : public apuama::cjdbc::Driver {
 public:
  explicit TimedDriver(std::unique_ptr<apuama::cjdbc::Driver> inner)
      : inner_(std::move(inner)) {}

  apuama::Result<std::unique_ptr<apuama::cjdbc::Connection>> Connect(
      int node_id) override;
  int num_nodes() const override { return inner_->num_nodes(); }
  apuama::share::WorkSharingHooks* work_sharing() override {
    return inner_->work_sharing();
  }
  std::optional<std::vector<int>> RouteWrite(const std::string& sql) override {
    return inner_->RouteWrite(sql);
  }

 private:
  std::unique_ptr<apuama::cjdbc::Driver> inner_;
};

}  // namespace wallbench

#endif  // WALLBENCH_HARNESS_H_
