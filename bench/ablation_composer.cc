// Ablation 3 — result-composition cost (paper section 3).
//
// The paper reports that HSQLDB-based composition "took no more than
// one second even with large partial results involving several
// columns". This bench feeds synthetic partials of growing size to
// the composer and reports wall-clock composition time plus the
// virtual-time charge the cost model assigns. It checks the claim:
// exit status 1 when a composition fails or takes a second or more.
#include <algorithm>
#include <chrono>
#include <cstdio>

#include "apuama/result_composer.h"
#include "bench/bench_util.h"
#include "common/rng.h"
#include "sim/cost_model.h"

using namespace apuama;        // NOLINT
using namespace apuama::bench; // NOLINT

namespace {

engine::QueryResult MakePartial(int groups, int rows, Rng* rng) {
  engine::QueryResult qr;
  qr.column_names = {"g0", "a0", "a1", "a2s", "a2c"};
  qr.rows.reserve(static_cast<size_t>(rows));
  for (int i = 0; i < rows; ++i) {
    qr.rows.push_back({Value::Int(rng->Uniform(0, groups - 1)),
                       Value::Double(rng->UniformDouble(0, 1000)),
                       Value::Int(rng->Uniform(0, 100)),
                       Value::Double(rng->UniformDouble(0, 500)),
                       Value::Int(rng->Uniform(1, 10))});
  }
  return qr;
}

}  // namespace

int main() {
  std::printf("Ablation: result composition cost\n");
  const char* comp_sql =
      "select g0, sum(a0) as s, sum(a1) as c, "
      "case when sum(a2c) = 0 then null else sum(a2s) / sum(a2c) end as av "
      "from partials group by g0 order by s desc";

  Table t("Composition time vs partial-result size");
  t.SetHeader({"nodes", "rows/partial", "groups", "total rows",
               "wall time (ms)", "virtual charge", "output rows"});
  Rng rng(17);
  sim::CostModel cost;
  double slowest_ms = 0;
  for (int nodes : {4, 16, 32}) {
    for (int rows : {10, 1000, 20000}) {
      int groups = rows >= 1000 ? 100 : 4;
      std::vector<engine::QueryResult> partials;
      for (int i = 0; i < nodes; ++i) {
        partials.push_back(MakePartial(groups, rows, &rng));
      }
      std::vector<const engine::QueryResult*> ptrs;
      for (const auto& p : partials) ptrs.push_back(&p);

      ResultComposer composer;
      CompositionStats stats;
      auto t0 = std::chrono::steady_clock::now();
      auto r = composer.Compose(ptrs, comp_sql, &stats);
      auto t1 = std::chrono::steady_clock::now();
      if (!r.ok()) {
        std::fprintf(stderr, "%s\n", r.status().ToString().c_str());
        return 1;
      }
      double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
      slowest_ms = std::max(slowest_ms, ms);
      t.AddRow({StrFormat("%d", nodes), StrFormat("%d", rows),
                StrFormat("%d", groups),
                StrFormat("%llu",
                          static_cast<unsigned long long>(stats.partial_rows)),
                FormatDouble(ms, 2),
                Seconds(cost.CompositionTime(stats.compose_exec,
                                             stats.partial_rows)),
                StrFormat("%llu", static_cast<unsigned long long>(
                                      stats.output_rows))});
    }
  }
  t.Print();
  const bool holds = slowest_ms < 1000.0;
  std::printf("\nSlowest composition took %.2f ms: the paper's 'no more "
              "than one second' claim %s here.\n",
              slowest_ms, holds ? "holds" : "does NOT hold");
  return holds ? 0 : 1;
}
