#include "harness.h"

#include <algorithm>
#include <cctype>
#include <cmath>

namespace wallbench {

namespace {

using apuama::Result;
using apuama::engine::QueryResult;

class TimedConnection : public apuama::cjdbc::Connection {
 public:
  explicit TimedConnection(std::unique_ptr<apuama::cjdbc::Connection> inner)
      : inner_(std::move(inner)) {}

  Result<QueryResult> Execute(const std::string& sql) override {
    const double t0 = NowUs();
    Result<QueryResult> r = inner_->Execute(sql);
    BackendTally& tally = Note(t0);
    if (r.ok()) tally.stats += r->stats;
    return r;
  }

  Result<QueryResult> ExecuteRecovery(const std::string& sql,
                                      bool routed) override {
    return inner_->ExecuteRecovery(sql, routed);
  }

  std::vector<Result<QueryResult>> ExecuteShared(
      const std::vector<std::string>& sqls) override {
    const double t0 = NowUs();
    std::vector<Result<QueryResult>> rs = inner_->ExecuteShared(sqls);
    BackendTally& tally = Note(t0);
    for (const auto& r : rs) {
      if (r.ok()) tally.stats += r->stats;
    }
    return rs;
  }

  int node_id() const override { return inner_->node_id(); }

 private:
  static BackendTally& Note(double t0) {
    BackendTally& tally = ThreadTally();
    tally.us += NowUs() - t0;
    ++tally.calls;
    return tally;
  }

  std::unique_ptr<apuama::cjdbc::Connection> inner_;
};

}  // namespace

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double Geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

ZipfSampler::ZipfSampler(size_t n, double s) : cdf_(n) {
  double total = 0.0;
  for (size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
}

size_t ZipfSampler::Next(apuama::Rng* rng) const {
  const double u = rng->NextDouble();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

std::vector<int> Permutation(int n, apuama::Rng* rng) {
  std::vector<int> out(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) out[static_cast<size_t>(i)] = i;
  rng->Shuffle(&out);
  return out;
}

bool ValidMetricName(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name[0]))) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '.' || c == '-';
  });
}

BackendTally& ThreadTally() {
  thread_local BackendTally tally;
  return tally;
}

Result<std::unique_ptr<apuama::cjdbc::Connection>> TimedDriver::Connect(
    int node_id) {
  auto conn = inner_->Connect(node_id);
  if (!conn.ok()) return conn.status();
  return std::unique_ptr<apuama::cjdbc::Connection>(
      std::make_unique<TimedConnection>(std::move(conn).value()));
}

}  // namespace wallbench
