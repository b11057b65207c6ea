// Figure 2 — Speedup experiments: normalized isolated query execution
// times for Q1, Q3, Q4, Q5, Q6, Q12, Q14, Q21 at 1..32 nodes.
//
// Paper shape to reproduce: near-linear speedup everywhere; clearly
// super-linear once a query's virtual partition fits a node's buffer
// pool (the paper observed Q4 and Q6 going super-linear at 4 nodes);
// CPU-bound Q1 and Q21 stay near-linear (no I/O to eliminate).
//
// Values are virtual time from the cluster simulator; each point is
// the mean of (reps-1) repetitions after one warm-up run, as in the
// paper. Normalized time = T(n)/T(1); Linear column = 1/n.
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "bench/bench_util.h"
#include "obs/trace.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"
#include "workload/cluster_sim.h"

using namespace apuama;           // NOLINT
using namespace apuama::bench;    // NOLINT
using namespace apuama::workload; // NOLINT

int main() {
  const double sf = EnvDouble("APUAMA_BENCH_SF", 0.01);
  const int max_nodes = EnvInt("APUAMA_BENCH_NODES", 32);
  const int reps = EnvInt("APUAMA_BENCH_REPS", 4);
  // APUAMA_TRACE turns on virtual-time span recording in every
  // simulated configuration; the trace JSON and the protocol counters
  // summed over every configuration (fig2_metrics.json) land in the
  // working directory after the run (stdout is unaffected, so traced
  // and untraced runs stay diffable).
  const bool tracing = std::getenv("APUAMA_TRACE") != nullptr;
  std::printf("Fig 2: speedup, isolated queries (SF=%g, reps=%d)\n", sf,
              reps);
  tpch::TpchData data(tpch::DbgenOptions{.scale_factor = sf});

  auto nodes = NodeCounts(max_nodes);
  // latency[q][n]
  std::map<int, std::map<int, SimTime>> latency;
  std::map<std::string, uint64_t> counters;
  size_t pool_pages = 0;
  for (int n : nodes) {
    ClusterSimOptions opts;
    opts.num_nodes = n;
    // Intra-node morsel threads per node: figures default to the
    // paper's single-threaded executor; set APUAMA_EXEC_THREADS to
    // measure the intra-node deltas (BENCH_intranode.json).
    opts.exec_threads = EnvInt("APUAMA_EXEC_THREADS", 1);
    opts.trace = tracing;
    ClusterSim cluster(data, opts);
    pool_pages = cluster.pool_pages();
    for (int q : tpch::PaperQueryNumbers()) {
      auto t = cluster.MeasureIsolated(*tpch::QuerySql(q), reps);
      if (!t.ok()) {
        std::fprintf(stderr, "Q%d @ %d nodes failed: %s\n", q, n,
                     t.status().ToString().c_str());
        return 1;
      }
      latency[q][n] = *t;
    }
    counters["svp_queries"] += cluster.svp_queries();
    counters["passthrough_reads"] += cluster.passthrough_reads();
    counters["writes_completed"] += cluster.writes_completed();
    counters["svp_barrier_waits"] += cluster.svp_barrier_waits();
    counters["writes_blocked"] += cluster.writes_blocked();
    counters["stale_svp_queries"] += cluster.stale_svp_queries();
    counters["avp_chunks"] += cluster.avp_chunks();
    counters["avp_steals"] += cluster.avp_steals();
    counters["result_cache_hits"] += cluster.result_cache_hits();
    counters["queries_coalesced"] += cluster.queries_coalesced();
    counters["routed_writes"] += cluster.routed_writes();
    counters["exchange_bytes"] += cluster.exchange_bytes();
    counters["fragments_pruned"] += cluster.fragments_pruned();
    std::printf("  measured %d-node configuration\n", n);
  }
  std::printf("  buffer pool per node: %zu pages\n", pool_pages);

  Table abs("Fig 2 (absolute): isolated query virtual time");
  Table norm("Fig 2 (paper's plot): normalized execution time T(n)/T(1)");
  std::vector<std::string> header{"query"};
  for (int n : nodes) header.push_back(StrFormat("n=%d", n));
  abs.SetHeader(header);
  norm.SetHeader(header);
  {
    std::vector<std::string> linear{"Linear"};
    for (int n : nodes) linear.push_back(Ratio(1.0 / n));
    norm.AddRow(linear);
  }
  for (int q : tpch::PaperQueryNumbers()) {
    std::vector<std::string> arow{StrFormat("Q%d", q)};
    std::vector<std::string> nrow{StrFormat("Q%d", q)};
    double t1 = static_cast<double>(latency[q][nodes.front()]);
    for (int n : nodes) {
      arow.push_back(Seconds(latency[q][n]));
      nrow.push_back(Ratio(static_cast<double>(latency[q][n]) / t1));
    }
    abs.AddRow(arow);
    norm.AddRow(nrow);
  }
  abs.Print();
  norm.Print();

  // The paper's actual plot: normalized execution time, log scale.
  {
    std::vector<std::string> xs;
    for (int n : nodes) xs.push_back(StrFormat("%d", n));
    AsciiChart chart("Fig 2: normalized execution time vs nodes", xs);
    std::vector<double> linear;
    for (int n : nodes) linear.push_back(1.0 / n);
    chart.AddSeries('L', "Linear", linear);
    const char markers[] = {'1', '3', '4', '5', '6', '2', 'E', 'W'};
    size_t mi = 0;
    for (int q : tpch::PaperQueryNumbers()) {
      std::vector<double> ys;
      double t1 = static_cast<double>(latency[q][nodes.front()]);
      for (int n : nodes) {
        ys.push_back(static_cast<double>(latency[q][n]) / t1);
      }
      chart.AddSeries(markers[mi++ % 8], StrFormat("Q%d", q), ys);
    }
    chart.Print(18, /*log_y=*/true);
  }

  // Super-linear summary: speedup factor vs node count.
  Table sp("Fig 2 summary: speedup T(1)/T(n)  [>n means super-linear]");
  sp.SetHeader(header);
  for (int q : tpch::PaperQueryNumbers()) {
    std::vector<std::string> row{StrFormat("Q%d", q)};
    double t1 = static_cast<double>(latency[q][nodes.front()]);
    for (int n : nodes) {
      row.push_back(Ratio(t1 / static_cast<double>(latency[q][n])));
    }
    sp.AddRow(row);
  }
  sp.Print();

  if (tracing) {
    obs::Tracer& tracer = obs::Tracer::Global();
    std::string trace_path = tracer.output_path();
    if (trace_path.empty()) trace_path = "fig2_trace.json";
    Status ws = tracer.WriteChromeTrace(trace_path);
    if (!ws.ok()) {
      std::fprintf(stderr, "trace dump failed: %s\n",
                   ws.ToString().c_str());
    } else {
      std::fprintf(stderr, "wrote %s (%zu spans)\n", trace_path.c_str(),
                   tracer.num_spans());
    }
    std::string metrics = "{";
    for (const auto& [name, value] : counters) {
      if (metrics.size() > 1) metrics += ",";
      metrics += StrFormat("\"%s\":%llu", name.c_str(),
                           static_cast<unsigned long long>(value));
    }
    metrics += "}";
    const char* metrics_path = "fig2_metrics.json";
    if (std::FILE* f = std::fopen(metrics_path, "wb")) {
      std::fwrite(metrics.data(), 1, metrics.size(), f);
      std::fclose(f);
      std::fprintf(stderr, "wrote %s\n", metrics_path);
    } else {
      std::fprintf(stderr, "metrics dump failed: cannot open %s\n",
                   metrics_path);
    }
  }
  return 0;
}
