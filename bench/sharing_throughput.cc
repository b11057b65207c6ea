// Inter-query work sharing — Fig. 3(a)-style throughput with
// IDENTICAL-template clients (the dashboard workload: every client
// runs the same query sequence), sharing off vs on, at 1/4/8/16
// concurrent clients on a fixed 4-node cluster.
//
// "Off" is the paper's configuration (every read pays full price);
// "on" enables the versioned result cache plus admission-window
// coalescing of identical reads (`SET result_cache` / `SET
// share_scans` mirrored into the simulator). Acceptance: >= 2x model
// throughput at 8 identical clients, with queries actually coalescing
// and the cache actually hitting (both counters printed).
#include <cinttypes>
#include <cstdio>

#include "bench/bench_util.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"
#include "workload/cluster_sim.h"
#include "workload/runner.h"

using namespace apuama;           // NOLINT
using namespace apuama::bench;    // NOLINT
using namespace apuama::workload; // NOLINT

namespace {

// One client's sequence: the paper's short read mix, repeated so the
// run is long enough for windows to overlap under load.
std::vector<std::string> TemplateSequence(int reps) {
  const int queries[] = {6, 12, 14, 1};
  std::vector<std::string> seq;
  for (int r = 0; r < reps; ++r) {
    for (int q : queries) seq.push_back(*tpch::QuerySql(q));
  }
  return seq;
}

struct RunPoint {
  double qpm = 0;
  uint64_t coalesced = 0;
  uint64_t cache_hits = 0;
};

RunPoint RunOnce(const tpch::TpchData& data, int clients, bool sharing,
                 int reps) {
  ClusterSimOptions opts;
  opts.num_nodes = 4;
  if (sharing) {
    opts.result_cache = true;
    opts.share_scans = true;
  }
  ClusterSim cluster(data, opts);
  std::vector<std::vector<std::string>> streams(
      static_cast<size_t>(clients), TemplateSequence(reps));
  StreamRunResult r = RunStreams(&cluster, streams);
  if (!r.status.ok()) {
    std::fprintf(stderr, "clients=%d sharing=%d failed: %s\n", clients,
                 sharing ? 1 : 0, r.status.ToString().c_str());
    std::exit(1);
  }
  return RunPoint{r.queries_per_minute, cluster.queries_coalesced(),
                  cluster.result_cache_hits()};
}

}  // namespace

int main() {
  const double sf = EnvDouble("APUAMA_BENCH_SF", 0.01);
  const int reps = EnvInt("APUAMA_BENCH_REPS", 3);
  std::printf(
      "Work sharing: identical-template clients, 4 nodes (SF=%g)\n", sf);
  tpch::TpchData data(tpch::DbgenOptions{.scale_factor = sf});

  Table t("Queries/minute: sharing off vs on (result cache + scan share)");
  t.SetHeader({"clients", "qpm off", "qpm on", "speedup", "coalesced",
               "cache hits"});
  std::vector<double> off_series, on_series;
  std::vector<std::string> xs;
  for (int clients : {1, 4, 8, 16}) {
    RunPoint off = RunOnce(data, clients, /*sharing=*/false, reps);
    RunPoint on = RunOnce(data, clients, /*sharing=*/true, reps);
    t.AddRow({StrFormat("%d", clients), Ratio(off.qpm), Ratio(on.qpm),
              Ratio(on.qpm / off.qpm), StrFormat("%" PRIu64, on.coalesced),
              StrFormat("%" PRIu64, on.cache_hits)});
    off_series.push_back(off.qpm);
    on_series.push_back(on.qpm);
    xs.push_back(StrFormat("%d", clients));
    std::printf("  measured %d-client configuration\n", clients);
  }
  t.Print();
  AsciiChart chart("Throughput vs identical clients (4 nodes)", xs);
  chart.AddSeries('O', "Sharing off", off_series);
  chart.AddSeries('S', "Sharing on", on_series);
  chart.Print(16, /*log_y=*/true);
  return 0;
}
