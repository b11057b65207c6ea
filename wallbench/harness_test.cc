// Tests for the benchmark's own helpers.
#include "harness.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <thread>

namespace wallbench {
namespace {

TEST(PercentileTest, NearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 200; ++i) v.push_back(i);
  EXPECT_EQ(Percentile(v, 50), 100);
  EXPECT_EQ(Percentile(v, 95), 190);  // 10 samples lie beyond it
  EXPECT_EQ(Percentile(v, 100), 200);
  EXPECT_EQ(Percentile({7, 3, 5}, 50), 5);  // input need not be sorted
  EXPECT_EQ(Percentile({4}, 95), 4);
  EXPECT_EQ(Percentile({}, 50), 0);
  EXPECT_EQ(Median({1, 2, 3, 4}), 2);  // lower middle, not interpolated
}

TEST(GeomeanTest, EqualWeights) {
  EXPECT_DOUBLE_EQ(Geomean({1, 100}), 10);
  EXPECT_DOUBLE_EQ(Geomean({2, 2, 2}), 2);
  EXPECT_DOUBLE_EQ(Geomean({}), 0);
}

TEST(ZipfSamplerTest, DeterministicAndSkewed) {
  const ZipfSampler zipf(300, 1.0);
  apuama::Rng a(42), b(42);
  std::map<size_t, int> counts;
  for (int i = 0; i < 20000; ++i) {
    const size_t r = zipf.Next(&a);
    ASSERT_EQ(r, zipf.Next(&b));
    ASSERT_LT(r, 300u);
    ++counts[r];
  }
  // P(rank 0) / P(rank 9) = 10 under exponent 1.
  EXPECT_GT(counts[0], 5 * counts[9]);
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts.size(), 200u);  // the tail is reached
}

TEST(PermutationTest, DeterministicFromSeed) {
  apuama::Rng a(7), b(7), c(8);
  const std::vector<int> pa = Permutation(8, &a);
  EXPECT_EQ(pa, Permutation(8, &b));
  EXPECT_NE(pa, Permutation(8, &c));
  std::vector<int> sorted = pa;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(MetricNameTest, MatchesAllowedCharacters) {
  EXPECT_TRUE(ValidMetricName("read_p50_ms"));
  EXPECT_TRUE(ValidMetricName("engine.subquery_us.Q21"));
  EXPECT_TRUE(ValidMetricName("apuama.barrier_wait_us.p95"));
  EXPECT_TRUE(ValidMetricName("a-b"));
  EXPECT_FALSE(ValidMetricName(""));
  EXPECT_FALSE(ValidMetricName(".leading_dot"));
  EXPECT_FALSE(ValidMetricName("has space"));
  EXPECT_FALSE(ValidMetricName("slash/name"));
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
}

// A backend that answers every statement with the same ExecStats.
class FakeConnection : public apuama::cjdbc::Connection {
 public:
  apuama::Result<apuama::engine::QueryResult> Execute(
      const std::string&) override {
    apuama::engine::QueryResult r;
    r.stats.tuples_scanned = 7;
    return r;
  }
  int node_id() const override { return 0; }
};

// A driver whose hooks are recognisable, to check the decorator
// forwards them instead of falling back to the base-class defaults.
// Only node 0 accepts connections.
class FakeDriver : public apuama::cjdbc::Driver {
 public:
  apuama::Result<std::unique_ptr<apuama::cjdbc::Connection>> Connect(
      int node_id) override {
    if (node_id != 0) return apuama::Status::Unavailable("node down");
    return std::unique_ptr<apuama::cjdbc::Connection>(
        std::make_unique<FakeConnection>());
  }
  int num_nodes() const override { return 3; }
  apuama::share::WorkSharingHooks* work_sharing() override { return hooks; }
  std::optional<std::vector<int>> RouteWrite(const std::string& sql) override {
    last_routed = sql;
    return std::vector<int>{1, 2};
  }

  apuama::share::WorkSharingHooks* hooks =
      reinterpret_cast<apuama::share::WorkSharingHooks*>(0x1000);
  std::string last_routed;
};

TEST(TimedDriverTest, ForwardsSharingAndRouting) {
  auto fake = std::make_unique<FakeDriver>();
  FakeDriver* raw = fake.get();
  TimedDriver timed(std::move(fake));
  EXPECT_EQ(timed.num_nodes(), 3);
  EXPECT_EQ(timed.work_sharing(), raw->hooks);
  const auto targets = timed.RouteWrite("insert into t values (1)");
  ASSERT_TRUE(targets.has_value());
  EXPECT_EQ(*targets, (std::vector<int>{1, 2}));
  EXPECT_EQ(raw->last_routed, "insert into t values (1)");
  EXPECT_FALSE(timed.Connect(1).ok());
}

TEST(TimedDriverTest, TalliesBackendCallsOnTheCallingThread) {
  TimedDriver timed(std::make_unique<FakeDriver>());
  auto conn = timed.Connect(0);
  ASSERT_TRUE(conn.ok());
  ThreadTally() = BackendTally{};
  EXPECT_TRUE((*conn)->Execute("select 1").ok());
  EXPECT_EQ((*conn)->ExecuteShared({"select 2", "select 3"}).size(), 2u);
  // One call per backend round trip; the batch counts once.
  EXPECT_EQ(ThreadTally().calls, 2);
  EXPECT_EQ(ThreadTally().stats.tuples_scanned, 21u);
  EXPECT_GE(ThreadTally().us, 0.0);
}

TEST(ThreadTallyTest, IsPerThread) {
  ThreadTally() = BackendTally{};
  ThreadTally().calls = 5;
  int other = -1;
  std::thread([&] { other = ThreadTally().calls; }).join();
  EXPECT_EQ(other, 0);
  EXPECT_EQ(ThreadTally().calls, 5);
}

}  // namespace
}  // namespace wallbench
