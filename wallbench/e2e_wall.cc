// Wall-clock benchmark of the threaded Apuama stack.
//
// Drives cjdbc::Controller over an in-process 4-node ReplicaSet and
// ApuamaEngine loaded with TPC-H data, from closed-loop client threads,
// and measures on the wall clock:
//
//   e2e_wall --workload <tpch_solo|tpch_mixed|dashboard_zipf>
//            --seed <n> --seconds <s> --trace <0|1> [--state <dir>]
//
// --trace 0 prints the end-to-end metrics; --trace 1 installs a timing
// decorator between the controller and the Apuama driver (and issues
// TPC-H reads as EXPLAIN ANALYZE) and prints the per-layer metrics.
// Every metric is printed as "name = value unit"; the last line of
// stdout is one JSON object {correct, attempted, failed, metrics}.
// Results are checked after the timed window; any failure or mismatch
// makes the exit code 1. With --state, the untraced run records its
// end-to-end metrics there and a later traced run prints the tracing
// overhead against them.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "apuama/apuama_engine.h"
#include "apuama/svp_rewriter.h"
#include "cjdbc/controller.h"
#include "harness.h"
#include "sim/cost_model.h"
#include "sql/parser.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"
#include "tpch/refresh.h"
#include "tpch/tpch_catalog.h"

#ifndef WALLBENCH_BUILD_TYPE
#define WALLBENCH_BUILD_TYPE "unknown"
#endif

namespace wallbench {
namespace {

using apuama::ApuamaDriver;
using apuama::ApuamaEngine;
using apuama::ApuamaOptions;
using apuama::Rng;
using apuama::Status;
using apuama::Value;
using apuama::ValueType;
using apuama::engine::ExecStats;
using apuama::engine::QueryResult;
namespace cjdbc = apuama::cjdbc;
namespace tpch = apuama::tpch;

constexpr int kNodes = 4;
// Set-ups per run; setup_s is their median and the last one is measured.
constexpr int kSetups = 5;
// Orders per refresh stream (4 statements each: insert order, insert
// lines, delete lines, delete order). Also the registered key headroom.
constexpr int64_t kRefreshOrders = 2;
// Repetitions of each isolated parse / rewrite / probe timing.
constexpr int kLayerReps = 5;
constexpr int kSubqueryReps = 3;
// Refresh streams the traced run of a read-only workload writes after
// its window, so the write path is measured on every workload.
constexpr int kWriteProbeStreams = 3;
constexpr double kZipfExponent = 1.0;

struct WorkloadSpec {
  const char* name;
  const char* why;
  double sf;
  int read_clients;
  bool writer;
  bool dashboard;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"tpch_solo",
     "1 client, seeded permutations of the paper's 8 TPC-H queries at "
     "SF 0.02, no writes: node operators do the work (paper Fig. 2)",
     0.02, 1, false, false},
    {"tpch_mixed",
     "3 TPC-H read clients beside 1 refresh-stream writer at SF 0.01: "
     "barrier, write broadcast and columnar rebuilds (paper Fig. 4a)",
     0.01, 3, true, false},
    {"dashboard_zipf",
     "4 clients, Zipf-skewed Q1/Q6/Q12/Q14 variants overflowing the plan "
     "and result caches, sharing on, SF 0.01: the share layer",
     0.01, 4, false, true},
};

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  }
  return CPU_COUNT(&set);
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// One read statement of a workload: TPC-H template number + SQL.
struct ReadStmt {
  int q;
  std::string sql;
};

std::string Must(apuama::Result<std::string> r) {
  if (!r.ok()) {
    std::fprintf(stderr, "fatal: %s\n", r.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(r).value();
}

/// Replaces every occurrence of `from` (which must occur) by `to`.
std::string Subst(std::string s, const std::string& from,
                  const std::string& to) {
  size_t pos = s.find(from);
  if (pos == std::string::npos) {
    std::fprintf(stderr, "fatal: '%s' not in query text\n", from.c_str());
    std::exit(2);
  }
  for (; pos != std::string::npos; pos = s.find(from, pos + to.size())) {
    s.replace(pos, from.size(), to);
  }
  return s;
}

std::string Fmt(const char* fmt, double a, double b = 0) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, a, b);
  return buf;
}

/// Parameterised Q1/Q6/Q12/Q14 variants, ranked for the Zipf draw:
/// each template's variants in a seeded order, templates interleaved.
std::vector<ReadStmt> DashboardStatements(uint64_t seed) {
  std::vector<std::vector<ReadStmt>> per_template(4);
  const std::string q1 = Must(tpch::QuerySql(1));
  for (int days = 60; days <= 120; ++days) {
    per_template[0].push_back(
        {1, Subst(q1, "interval '90' day", Fmt("interval '%.0f' day", days))});
  }
  const std::string q6 = Must(tpch::QuerySql(6));
  for (int year = 1993; year <= 1997; ++year) {
    for (int disc = 2; disc <= 9; ++disc) {
      for (int qty = 24; qty <= 27; ++qty) {
        std::string s = Subst(q6, "date '1994-01-01'",
                              Fmt("date '%.0f-01-01'", year));
        s = Subst(s, "between 0.05 and 0.07",
                  Fmt("between %.2f and %.2f", (disc - 1) / 100.0,
                      (disc + 1) / 100.0));
        s = Subst(s, "l_quantity < 24", Fmt("l_quantity < %.0f", qty));
        per_template[1].push_back({6, s});
      }
    }
  }
  const std::string q12 = Must(tpch::QuerySql(12));
  const char* modes[] = {"AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP",
                         "TRUCK"};
  for (int a = 0; a < 7; ++a) {
    for (int b = a + 1; b < 7; ++b) {
      const std::string s = Subst(q12, "('MAIL', 'SHIP')",
                                  std::string("('") + modes[a] + "', '" +
                                      modes[b] + "')");
      for (int year = 1993; year <= 1997; ++year) {
        for (int month = 1; month <= 10; month += 3) {
          per_template[2].push_back(
              {12, Subst(s, "date '1994-01-01'",
                         Fmt("date '%.0f-%02.0f-01'", year, month))});
        }
      }
    }
  }
  const std::string q14 = Must(tpch::QuerySql(14));
  for (int year = 1993; year <= 1997; ++year) {
    for (int month = 1; month <= 12; ++month) {
      per_template[3].push_back(
          {14, Subst(q14, "date '1995-09-01'",
                     Fmt("date '%.0f-%02.0f-01'", year, month))});
    }
  }
  Rng rng(seed ^ 0xda5b0a4dULL);
  for (auto& v : per_template) rng.Shuffle(&v);
  std::vector<ReadStmt> ranked;
  for (size_t i = 0;; ++i) {
    bool any = false;
    for (const auto& v : per_template) {
      if (i < v.size()) {
        ranked.push_back(v[i]);
        any = true;
      }
    }
    if (!any) break;
  }
  return ranked;
}

std::vector<ReadStmt> PaperStatements() {
  std::vector<ReadStmt> out;
  for (int q : tpch::PaperQueryNumbers()) {
    out.push_back({q, Must(tpch::QuerySql(q))});
  }
  return out;
}

/// The in-process cluster. Members are destroyed in reverse order:
/// controller, engine, replicas, data.
struct Stack {
  std::unique_ptr<tpch::TpchData> data;
  std::unique_ptr<cjdbc::ReplicaSet> replicas;
  std::unique_ptr<ApuamaEngine> engine;
  std::unique_ptr<cjdbc::Controller> controller;

  void Reset() {
    controller.reset();
    engine.reset();
    replicas.reset();
    data.reset();
  }
};

struct SetupTimes {
  double gen_s = 0, load_s = 0, build_s = 0, warm_s = 0, total_s = 0;
};

double Seconds(double t0, double t1) {
  return (t1 - t0) / 1e6;
}

Status BuildStack(const WorkloadSpec& w, bool trace,
                  const std::vector<std::string>& warm_sqls, Stack* st,
                  SetupTimes* t) {
  const double t0 = NowUs();
  st->data = std::make_unique<tpch::TpchData>(
      tpch::DbgenOptions{.scale_factor = w.sf});
  const double t1 = NowUs();
  st->replicas = std::make_unique<cjdbc::ReplicaSet>(
      kNodes, cjdbc::ReplicaSet::NodeOptions{});
  APUAMA_RETURN_NOT_OK(st->data->LoadIntoReplicas(st->replicas.get()));
  const double t2 = NowUs();
  ApuamaOptions options;
  options.exec_thread_budget = Nproc();
  st->engine = std::make_unique<ApuamaEngine>(
      st->replicas.get(), tpch::MakeTpchCatalog(*st->data, kRefreshOrders),
      options);
  std::unique_ptr<cjdbc::Driver> driver =
      std::make_unique<ApuamaDriver>(st->engine.get());
  if (trace) driver = std::make_unique<TimedDriver>(std::move(driver));
  st->controller = std::make_unique<cjdbc::Controller>(std::move(driver));
  if (w.dashboard) {
    for (const char* knob : {"SET result_cache = on", "SET share_scans = on"}) {
      APUAMA_RETURN_NOT_OK(st->controller->Execute(knob).status());
    }
  }
  const double t3 = NowUs();
  for (const auto& sql : warm_sqls) {
    APUAMA_RETURN_NOT_OK(st->controller->Execute(sql).status());
  }
  const double t4 = NowUs();
  *t = SetupTimes{Seconds(t0, t1), Seconds(t1, t2), Seconds(t2, t3),
                  Seconds(t3, t4), Seconds(t0, t4)};
  return Status::OK();
}

/// One statement run through the controller: its result, when it
/// started, its wall time, and the backend work the decorator saw on
/// this thread (nothing without the decorator).
struct TimedCall {
  apuama::Result<QueryResult> result;
  double start_us;
  double us;
  BackendTally backend;
};

TimedCall TimedExecute(cjdbc::Controller* controller, const std::string& sql) {
  ThreadTally() = BackendTally{};
  const double t0 = NowUs();
  apuama::Result<QueryResult> r = controller->Execute(sql);
  const double t1 = NowUs();
  return TimedCall{std::move(r), t0, t1 - t0, ThreadTally()};
}

// Relative tolerance for doubles when a cluster result is compared with
// one replica's: partial sums over key intervals add in another order,
// so the last bits may differ. Everything else must match exactly.
constexpr double kDoubleTolerance = 1e-9;

/// Same columns, same rows in the same order, same value types;
/// doubles within kDoubleTolerance relative to max(1, |x|, |y|).
/// `max_rel_diff` (optional) receives the largest double difference.
bool SameResult(const QueryResult& a, const QueryResult& b,
                double* max_rel_diff = nullptr) {
  if (a.column_names != b.column_names || a.rows.size() != b.rows.size()) {
    return false;
  }
  for (size_t r = 0; r < a.rows.size(); ++r) {
    if (a.rows[r].size() != b.rows[r].size()) return false;
    for (size_t c = 0; c < a.rows[r].size(); ++c) {
      const Value& x = a.rows[r][c];
      const Value& y = b.rows[r][c];
      if (x.type() != y.type()) return false;
      if (x.type() == ValueType::kDouble) {
        const double dx = x.double_val();
        const double dy = y.double_val();
        const double rel = std::fabs(dx - dy) /
                           std::max({1.0, std::fabs(dx), std::fabs(dy)});
        if (max_rel_diff != nullptr) {
          *max_rel_diff = std::max(*max_rel_diff, rel);
        }
        if (!(rel <= kDoubleTolerance)) return false;
      } else if (x.Compare(y) != 0) {
        return false;
      }
    }
  }
  return true;
}

/// The (level, metric) -> value rows of an EXPLAIN ANALYZE result.
std::map<std::string, double> AnalyzeRows(const QueryResult& r) {
  std::map<std::string, double> out;
  for (const auto& row : r.rows) {
    if (row.size() != 3 || row[0].type() != ValueType::kString ||
        row[1].type() != ValueType::kString) {
      continue;
    }
    auto v = row[2].AsDouble();
    if (v.ok()) out[row[0].str_val() + "/" + row[1].str_val()] = *v;
  }
  return out;
}

struct ReadSample {
  int q = 0;
  double us = 0;
  // Traced run only:
  int backend_calls = 0;
  double backend_us = 0;
  std::map<std::string, double> analyze;
};

struct WriteSample {
  double us = 0;
  double backend_us = 0;
};

/// Per-thread output of the timed window.
struct ClientLog {
  std::vector<ReadSample> reads;
  std::vector<WriteSample> writes;
  ExecStats read_stats;  // traced: summed backend ExecStats of reads
  uint64_t failed = 0;
  uint64_t attempted = 0;
  double last_done_us = 0;
  std::vector<std::string> errors;
  // First plain result of each distinct SQL text (checked afterwards).
  std::map<std::string, QueryResult> first_results;
};

struct Metric {
  Metric(std::string name, double value, std::string unit,
         std::string note = "")
      : name(std::move(name)),
        value(value),
        unit(std::move(unit)),
        note(std::move(note)) {}

  std::string name;
  double value;
  std::string unit;
  std::string note;  // printed after the unit, kept out of the JSON
};

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string Count(size_t n) {
  return "(n=" + std::to_string(n) + ")";
}

/// Write throughput and latency of `writes`, made in `seconds`.
void AddWriteMetrics(const std::vector<WriteSample>& writes, double seconds,
                     std::vector<Metric>* out) {
  std::vector<double> ms;
  for (const auto& w : writes) ms.push_back(w.us / 1000.0);
  const double sps = seconds > 0 ? static_cast<double>(ms.size()) / seconds
                                 : 0.0;
  out->emplace_back("write_sps", sps, "1/s", Count(ms.size()));
  out->emplace_back("write_p50_ms", Percentile(ms, 50), "ms", Count(ms.size()));
  out->emplace_back("write_p95_ms", Percentile(ms, 95), "ms", Count(ms.size()));
}

class Bench {
 public:
  Bench(const WorkloadSpec& w, uint64_t seed, double seconds, bool trace,
        std::string state_dir)
      : w_(w),
        seed_(seed),
        seconds_(seconds),
        trace_(trace),
        state_dir_(std::move(state_dir)) {}

  int Run();

 private:
  void PrintHeader() const;
  bool Setup();
  void TimedWindow();
  void ReadClient(int client, double deadline, ClientLog* log);
  void WriteClient(double deadline, ClientLog* log);
  void CheckResults();
  std::vector<Metric> EndToEnd() const;
  std::vector<WriteSample> WindowWrites() const;
  void PerLayer(std::vector<Metric>* out);
  // The traced run issues TPC-H reads as EXPLAIN ANALYZE; dashboard
  // reads stay plain, since EXPLAIN text would miss the result cache.
  bool Explains() const { return trace_ && !w_.dashboard; }
  std::string Issued(const std::string& sql) const {
    return Explains() ? "EXPLAIN ANALYZE " + sql : sql;
  }
  void NoteError(const std::string& what) {
    ++failed_;
    if (errors_.size() < 10) errors_.push_back(what);
  }

  const WorkloadSpec& w_;
  const uint64_t seed_;
  const double seconds_;
  const bool trace_;
  const std::string state_dir_;

  std::vector<ReadStmt> reads_;  // distinct read statements
  std::vector<tpch::RefreshStatement> stream_;
  Stack stack_;
  std::vector<SetupTimes> setups_;
  std::map<std::string, QueryResult> pre_run_;  // tpch_mixed end-state check

  // Timed window results.
  std::vector<ClientLog> logs_;
  double window_s_ = 0;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> errors_;
  // Counter deltas over the window.
  uint64_t d_reads_ = 0, d_writes_ = 0, d_broadcast_ = 0, d_cache_hits_ = 0,
           d_coalesced_ = 0, d_plan_hits_ = 0, d_plan_misses_ = 0,
           d_svp_waits_ = 0, d_writes_blocked_ = 0, d_rebuilds_ = 0;
  double buffer_hit_ratio_ = 0;
};

void Bench::PrintHeader() const {
  std::printf("# workload=%s seed=%llu seconds=%s trace=%d\n", w_.name,
              static_cast<unsigned long long>(seed_), Num(seconds_).c_str(),
              trace_ ? 1 : 0);
  std::printf("# why: %s\n", w_.why);
  std::printf(
      "# clock=wall nproc=%d build=%s compiler=\"%s\" sf=%s nodes=%d "
      "exec_thread_budget=%d read_clients=%d writer_clients=%d\n",
      Nproc(), WALLBENCH_BUILD_TYPE, __VERSION__, Num(w_.sf).c_str(), kNodes,
      Nproc(), w_.read_clients, w_.writer ? 1 : 0);
  if (std::strcmp(WALLBENCH_BUILD_TYPE, "Release") != 0) {
    std::printf("# WARNING: build type is %s, not Release\n",
                WALLBENCH_BUILD_TYPE);
  }
  const ApuamaOptions defaults;
  std::printf(
      "# caches: plan_cache_entries=%zu result_cache_entries=%zu "
      "buffer_pool_pages=%zu (accounting model) columnar_chunks=unbounded "
      "distinct_read_texts=%zu\n",
      defaults.plan_cache_entries, defaults.result_cache_entries,
      cjdbc::ReplicaSet::NodeOptions{}.buffer_pool_pages, reads_.size());
}

bool Bench::Setup() {
  // One pass over every template, in the form the clients issue it.
  std::vector<std::string> warm;
  for (int q : w_.dashboard ? std::vector<int>{1, 6, 12, 14}
                            : tpch::PaperQueryNumbers()) {
    warm.push_back(Issued(Must(tpch::QuerySql(q))));
  }
  for (int i = 0; i < kSetups; ++i) {
    stack_.Reset();  // tear the previous stack down before the next
    SetupTimes t;
    Status s = BuildStack(w_, trace_, warm, &stack_, &t);
    if (!s.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", s.ToString().c_str());
      return false;
    }
    setups_.push_back(t);
  }
  stream_ = tpch::MakeRefreshStream(stack_.data->max_orderkey() + 1,
                                    kRefreshOrders, seed_);
  if (w_.writer) {
    for (const auto& r : reads_) {
      auto res = stack_.controller->Execute(r.sql);
      if (!res.ok()) {
        NoteError("pre-run " + r.sql.substr(0, 40) + ": " +
                  res.status().ToString());
        continue;
      }
      pre_run_[r.sql] = std::move(res).value();
    }
  }
  return true;
}

void Bench::ReadClient(int client, double deadline, ClientLog* log) {
  Rng rng(seed_ * 1000003ULL + static_cast<uint64_t>(client) + 1);
  const ZipfSampler zipf(reads_.size(), kZipfExponent);
  const bool explain = Explains();
  std::vector<int> order;
  size_t pos = 0;
  while (NowUs() < deadline) {
    const ReadStmt* stmt;
    if (w_.dashboard) {
      stmt = &reads_[zipf.Next(&rng)];
    } else {
      if (pos == order.size()) {
        order = Permutation(static_cast<int>(reads_.size()), &rng);
        pos = 0;
      }
      stmt = &reads_[static_cast<size_t>(order[pos++])];
    }
    TimedCall call = TimedExecute(stack_.controller.get(), Issued(stmt->sql));
    ++log->attempted;
    log->last_done_us = call.start_us + call.us;
    if (!call.result.ok()) {
      ++log->failed;
      if (log->errors.size() < 5) {
        log->errors.push_back("read Q" + std::to_string(stmt->q) + ": " +
                              call.result.status().ToString());
      }
      continue;
    }
    ReadSample s;
    s.q = stmt->q;
    s.us = call.us;
    if (trace_) {
      s.backend_calls = call.backend.calls;
      s.backend_us = call.backend.us;
      log->read_stats += call.backend.stats;
      if (explain) s.analyze = AnalyzeRows(*call.result);
    }
    log->reads.push_back(std::move(s));
    if (!explain && !w_.writer && !log->first_results.count(stmt->sql)) {
      log->first_results.emplace(stmt->sql, std::move(call.result).value());
    }
  }
}

void Bench::WriteClient(double deadline, ClientLog* log) {
  // The stream inserts then deletes the same orders, so the writer
  // stops only at a stream boundary and leaves the data as loaded.
  while (NowUs() < deadline) {
    for (const auto& stmt : stream_) {
      TimedCall call = TimedExecute(stack_.controller.get(), stmt.sql);
      ++log->attempted;
      if (!call.result.ok()) {
        ++log->failed;
        if (log->errors.size() < 5) {
          log->errors.push_back("write: " + call.result.status().ToString());
        }
        continue;
      }
      if (call.start_us < deadline) {
        log->writes.push_back({call.us, call.backend.us});
      }
    }
  }
}

void Bench::TimedWindow() {
  ApuamaEngine& eng = *stack_.engine;
  const cjdbc::ControllerStats& cs = stack_.controller->stats();
  for (int i = 0; i < kNodes; ++i) {
    stack_.replicas->node(i)->buffer_pool()->ResetStats();
  }
  const uint64_t reads0 = cs.reads, writes0 = cs.writes,
                 bcast0 = cs.broadcast_statements,
                 hits0 = cs.result_cache_hits, coal0 = cs.queries_coalesced,
                 ph0 = eng.plan_cache().hits(),
                 pm0 = eng.plan_cache().misses(),
                 waits0 = eng.consistency()->svp_waits(),
                 blocked0 = eng.consistency()->writes_blocked(),
                 rebuilds0 = eng.stats().columnar_rebuilds;

  const int clients = w_.read_clients + (w_.writer ? 1 : 0);
  logs_.assign(static_cast<size_t>(clients), ClientLog{});
  const double start = NowUs();
  const double deadline = start + seconds_ * 1e6;
  std::vector<std::thread> threads;
  for (int c = 0; c < w_.read_clients; ++c) {
    threads.emplace_back([this, c, deadline] {
      ReadClient(c, deadline, &logs_[static_cast<size_t>(c)]);
    });
  }
  if (w_.writer) {
    threads.emplace_back([this, deadline] {
      WriteClient(deadline, &logs_.back());
    });
  }
  for (auto& t : threads) t.join();

  double last_read = start;
  for (const auto& log : logs_) {
    attempted_ += log.attempted;
    failed_ += log.failed;
    for (const auto& e : log.errors) {
      if (errors_.size() < 10) errors_.push_back(e);
    }
    if (!log.reads.empty()) last_read = std::max(last_read, log.last_done_us);
  }
  window_s_ = Seconds(start, std::max(last_read, deadline));

  d_reads_ = cs.reads - reads0;
  d_writes_ = cs.writes - writes0;
  d_broadcast_ = cs.broadcast_statements - bcast0;
  d_cache_hits_ = cs.result_cache_hits - hits0;
  d_coalesced_ = cs.queries_coalesced - coal0;
  d_plan_hits_ = eng.plan_cache().hits() - ph0;
  d_plan_misses_ = eng.plan_cache().misses() - pm0;
  d_svp_waits_ = eng.consistency()->svp_waits() - waits0;
  d_writes_blocked_ = eng.consistency()->writes_blocked() - blocked0;
  d_rebuilds_ = eng.stats().columnar_rebuilds - rebuilds0;
  uint64_t hits = 0, accesses = 0;
  for (int i = 0; i < kNodes; ++i) {
    const auto& bs = stack_.replicas->node(i)->buffer_pool()->stats();
    hits += bs.hits;
    accesses += bs.accesses();
  }
  buffer_hit_ratio_ =
      accesses == 0 ? 0.0 : static_cast<double>(hits) / accesses;
}

void Bench::CheckResults() {
  cjdbc::ReplicaSet& replicas = *stack_.replicas;
  if (w_.writer) {
    if (!stack_.engine->ReplicasConsistent()) {
      NoteError("replica transaction counters differ");
    }
    for (const char* table : {"lineitem", "orders"}) {
      const auto expected =
          static_cast<int64_t>(stack_.data->table(table).size());
      for (int i = 0; i < kNodes; ++i) {
        auto r = replicas.ExecuteOn(i, std::string("select count(*) from ") +
                                           table);
        if (!r.ok() || r->rows.size() != 1 ||
            r->rows[0][0].AsInt().value_or(-1) != expected) {
          NoteError(std::string(table) + " row count not restored on node " +
                    std::to_string(i));
        }
      }
    }
    for (const auto& [sql, before] : pre_run_) {
      ++attempted_;
      auto r = stack_.controller->Execute(sql);
      if (!r.ok() || !SameResult(*r, before)) {
        NoteError("end-state result differs: " + sql.substr(0, 40));
      }
    }
    return;
  }
  // Compare each distinct SQL text's first result with the same SQL
  // run on one replica. A traced TPC-H run read EXPLAIN output, so its
  // texts are run once more through the controller here.
  std::map<std::string, std::vector<const QueryResult*>> seen;
  std::map<std::string, QueryResult> rerun;
  for (const auto& log : logs_) {
    for (const auto& [sql, res] : log.first_results) {
      seen[sql].push_back(&res);
    }
  }
  if (Explains()) {
    for (const auto& r : reads_) {
      ++attempted_;
      auto res = stack_.controller->Execute(r.sql);
      if (!res.ok()) {
        NoteError("re-run " + r.sql.substr(0, 40) + ": " +
                  res.status().ToString());
        continue;
      }
      auto [it, inserted] = rerun.emplace(r.sql, std::move(res).value());
      seen[r.sql].push_back(&it->second);
    }
  }
  // The reference runs are spread over the replicas, one thread each.
  std::vector<const decltype(seen)::value_type*> work;
  for (const auto& entry : seen) work.push_back(&entry);
  std::vector<std::vector<std::string>> mismatches(kNodes);
  std::vector<double> max_diffs(kNodes, 0.0);
  std::vector<std::thread> checkers;
  for (int node = 0; node < kNodes; ++node) {
    checkers.emplace_back([&, node] {
      for (size_t i = static_cast<size_t>(node); i < work.size();
           i += kNodes) {
        const auto& [sql, results] = *work[i];
        auto ref = replicas.ExecuteOn(node, sql);
        if (!ref.ok()) {
          mismatches[node].push_back("reference run failed: " +
                                     ref.status().ToString());
          continue;
        }
        for (const QueryResult* res : results) {
          if (!SameResult(*res, *ref, &max_diffs[node])) {
            mismatches[node].push_back(
                "cluster result differs from one replica: " +
                sql.substr(0, 60));
          }
        }
      }
    });
  }
  for (auto& t : checkers) t.join();
  for (const auto& node_errors : mismatches) {
    for (const auto& e : node_errors) NoteError(e);
  }
  const double max_rel_diff =
      *std::max_element(max_diffs.begin(), max_diffs.end());
  if (seen.empty()) NoteError("no read results to check");
  std::printf("# checked %zu distinct texts against one replica; largest "
              "relative double difference %s\n",
              seen.size(), Num(max_rel_diff).c_str());
}

std::vector<Metric> Bench::EndToEnd() const {
  std::vector<double> lat_ms;
  std::map<int, std::vector<double>> by_q;
  for (const auto& log : logs_) {
    for (const auto& s : log.reads) {
      lat_ms.push_back(s.us / 1000.0);
      by_q[s.q].push_back(s.us / 1000.0);
    }
  }
  std::vector<double> template_medians;
  for (const auto& [q, v] : by_q) {
    template_medians.push_back(Median(v));
    std::printf("# Q%d reads=%zu p25_ms=%s p50_ms=%s p75_ms=%s\n", q,
                v.size(), Num(Percentile(v, 25)).c_str(),
                Num(template_medians.back()).c_str(),
                Num(Percentile(v, 75)).c_str());
  }
  std::vector<double> setup_s;
  for (const auto& t : setups_) setup_s.push_back(t.total_s);
  return {
      {"setup_s", Median(setup_s), "s",
       "(median of " + std::to_string(setup_s.size()) + " set-ups)"},
      {"read_qps", static_cast<double>(lat_ms.size()) / window_s_, "1/s",
       "(window " + Num(window_s_) + " s)"},
      {"read_p50_ms", Percentile(lat_ms, 50), "ms", Count(lat_ms.size())},
      {"read_p95_ms", Percentile(lat_ms, 95), "ms", Count(lat_ms.size())},
      {"query_geomean_ms", Geomean(template_medians), "ms",
       "(" + std::to_string(template_medians.size()) + " templates)"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

std::vector<WriteSample> Bench::WindowWrites() const {
  std::vector<WriteSample> out;
  for (const auto& log : logs_) {
    out.insert(out.end(), log.writes.begin(), log.writes.end());
  }
  return out;
}

/// Per-layer metrics of the traced run. Also times parse, rewrite and
/// isolated sub-queries on the workload's distinct statements, and
/// probes the layers the window bypassed on this workload.
void Bench::PerLayer(std::vector<Metric>* out) {
  auto ratio = [](double a, double b) { return b == 0 ? 0.0 : a / b; };
  std::vector<double> read_self, hit_lat, backend_read, barrier, sub_max,
      skew, compose, partial_rows, dispatch;
  auto add_analyze = [&](const std::map<std::string, double>& rows) {
    auto a = [&rows](const char* k) {
      auto it = rows.find(k);
      return it == rows.end() ? 0.0 : it->second;
    };
    barrier.push_back(a("engine/barrier_wait_us"));
    sub_max.push_back(a("engine/subquery_max_us"));
    skew.push_back(a("engine/subquery_skew_us"));
    compose.push_back(a("compose/compose_us"));
    partial_rows.push_back(a("compose/partial_rows"));
    dispatch.push_back(a("query/elapsed_us") - a("engine/barrier_wait_us") -
                       a("engine/subquery_max_us") - a("compose/compose_us"));
  };
  ExecStats rs;
  size_t reads = 0;
  for (const auto& log : logs_) {
    rs += log.read_stats;
    for (const auto& s : log.reads) {
      ++reads;
      read_self.push_back(s.us - s.backend_us);
      if (s.backend_calls == 0) {
        hit_lat.push_back(s.us);
      } else {
        backend_read.push_back(s.backend_us);
      }
      if (!s.analyze.empty()) add_analyze(s.analyze);
    }
  }
  const double nreads = static_cast<double>(reads);
  const double nwrites = static_cast<double>(d_writes_);
  cjdbc::Controller& controller = *stack_.controller;
  std::string probes;

  // Dashboard reads stay plain in the window; their EXPLAIN ANALYZE
  // rows come from each template's most popular text afterwards (the
  // ranks interleave the four templates, so the first four are one each).
  if (w_.dashboard) {
    probes += " explain_analyze";
    for (size_t i = 0; i < 4; ++i) {
      for (int rep = 0; rep < kLayerReps; ++rep) {
        ++attempted_;
        auto r = controller.Execute("EXPLAIN ANALYZE " + reads_[i].sql);
        if (!r.ok()) {
          NoteError("probe explain: " + r.status().ToString());
          continue;
        }
        add_analyze(AnalyzeRows(*r));
      }
    }
  }

  // Isolated timings on the distinct statements.
  std::set<std::string> distinct;
  for (const auto& r : reads_) distinct.insert(r.sql);
  if (w_.writer) {
    for (const auto& s : stream_) distinct.insert(s.sql);
  }
  std::vector<double> parse_us;
  for (const auto& sql : distinct) {
    std::vector<double> v;
    for (int i = 0; i < kLayerReps; ++i) {
      const double t0 = NowUs();
      auto parsed = apuama::sql::Parse(sql);
      v.push_back(NowUs() - t0);
      if (!parsed.ok()) NoteError("parse failed: " + sql.substr(0, 40));
    }
    parse_us.push_back(Median(v));
  }
  const apuama::SvpRewriter rewriter(stack_.engine->data_catalog());
  std::vector<double> rewrite_us;
  for (const auto& r : reads_) {
    auto select = apuama::sql::ParseSelect(r.sql);
    if (!select.ok()) continue;
    std::vector<double> v;
    for (int i = 0; i < kLayerReps; ++i) {
      const double t0 = NowUs();
      auto plan = rewriter.Rewrite(**select);
      v.push_back(NowUs() - t0);
      if (!plan.ok()) NoteError("rewrite failed: " + r.sql.substr(0, 40));
    }
    rewrite_us.push_back(Median(v));
  }

  // Each paper template's sub-queries, run alone on their nodes, and
  // the cost model's virtual time for the same ExecStats.
  std::vector<Metric> per_template;
  const apuama::sim::CostModel model;
  for (const auto& r : PaperStatements()) {
    std::vector<double> wall, err, abs_err;
    auto select = apuama::sql::ParseSelect(r.sql);
    auto plan = select.ok() ? rewriter.Rewrite(**select)
                            : apuama::Result<apuama::SvpPlan>(select.status());
    if (!plan.ok()) {
      NoteError("no SVP plan for Q" + std::to_string(r.q));
    } else {
      const auto intervals = plan->MakeIntervals(kNodes);
      for (size_t i = 0; i < intervals.size(); ++i) {
        const std::string sub =
            plan->SubquerySql(intervals[i].first, intervals[i].second);
        for (int rep = 0; rep < kSubqueryReps; ++rep) {
          const double t0 = NowUs();
          auto res = stack_.engine->processor(static_cast<int>(i))
                         ->ExecuteSubquery(sub);
          const double us = NowUs() - t0;
          if (!res.ok()) {
            NoteError("sub-query failed: " + res.status().ToString());
            continue;
          }
          wall.push_back(us);
          const double modeled =
              static_cast<double>(model.StatementTime(res->stats));
          err.push_back((modeled - us) / us);
          abs_err.push_back(std::fabs(err.back()));
        }
      }
    }
    const std::string q = "Q" + std::to_string(r.q);
    per_template.emplace_back("engine.subquery_us." + q, Median(wall), "us",
                              Count(wall.size()));
    per_template.emplace_back("sim.model_error." + q, Median(abs_err),
                              "ratio",
                              "(|model - wall| / wall; signed median " +
                                  Num(Median(err)) + ")");
  }

  // The TPC-H workloads run with the result cache off, so their window
  // has no hits: time each template's hits with the cache on instead.
  if (!w_.dashboard) {
    probes += " result_cache_hits";
    auto set = [&](const char* knob) {
      auto r = controller.Execute(knob);
      if (!r.ok()) NoteError(std::string(knob) + ": " + r.status().ToString());
    };
    set("SET result_cache = on");
    for (const auto& r : reads_) {
      ++attempted_;
      if (auto fill = controller.Execute(r.sql); !fill.ok()) {
        NoteError("probe fill: " + fill.status().ToString());
        continue;
      }
      for (int rep = 0; rep < kLayerReps; ++rep) {
        TimedCall call = TimedExecute(&controller, r.sql);
        if (call.result.ok() && call.backend.calls == 0) {
          hit_lat.push_back(call.us);
        }
      }
    }
    set("SET result_cache = off");
  }

  // The read-only workloads write nothing in the window: time refresh
  // streams with no reader running instead. Last, since the writes
  // invalidate columnar chunks.
  std::vector<WriteSample> writes = WindowWrites();
  double write_s = window_s_;
  double fanout = ratio(static_cast<double>(d_broadcast_), nwrites);
  if (!w_.writer) {
    probes += " refresh_writes";
    const cjdbc::ControllerStats& cs = controller.stats();
    const uint64_t writes0 = cs.writes, bcast0 = cs.broadcast_statements;
    const double t0 = NowUs();
    for (int i = 0; i < kWriteProbeStreams; ++i) {
      for (const auto& stmt : stream_) {
        ++attempted_;
        TimedCall call = TimedExecute(&controller, stmt.sql);
        if (!call.result.ok()) {
          NoteError("probe write: " + call.result.status().ToString());
          continue;
        }
        writes.push_back({call.us, call.backend.us});
      }
    }
    write_s = Seconds(t0, NowUs());
    fanout = ratio(static_cast<double>(cs.broadcast_statements - bcast0),
                   static_cast<double>(cs.writes - writes0));
  }
  std::vector<double> write_self;
  for (const auto& w : writes) write_self.push_back(w.us - w.backend_us);
  std::printf("# probes after the window:%s\n", probes.c_str());

  out->emplace_back("cjdbc.read_self_us", Median(read_self), "us",
                    Count(read_self.size()));
  out->emplace_back("cjdbc.write_self_us", Median(write_self), "us",
                    Count(write_self.size()));
  out->emplace_back("cjdbc.write_fanout", fanout, "nodes/write");
  out->emplace_back("share.result_cache_hit_ratio",
                    ratio(d_cache_hits_, d_reads_), "ratio");
  out->emplace_back("share.coalesced_ratio", ratio(d_coalesced_, d_reads_),
                    "ratio");
  out->emplace_back("share.hit_p50_us", Median(hit_lat), "us",
                    Count(hit_lat.size()));
  out->emplace_back("sql.parse_us", Median(parse_us), "us",
                    Count(parse_us.size()));
  out->emplace_back("apuama.plan_cache_hit_ratio",
                    ratio(d_plan_hits_, d_plan_hits_ + d_plan_misses_),
                    "ratio");
  out->emplace_back("apuama.rewrite_us", Median(rewrite_us), "us",
                    Count(rewrite_us.size()));
  out->emplace_back("apuama.backend_read_us", Median(backend_read), "us",
                    Count(backend_read.size()));
  out->emplace_back("apuama.barrier_wait_us", Median(barrier), "us",
                    Count(barrier.size()));
  out->emplace_back("apuama.barrier_wait_us.p95", Percentile(barrier, 95),
                    "us", Count(barrier.size()));
  out->emplace_back("apuama.subquery_max_us", Median(sub_max), "us");
  out->emplace_back("apuama.subquery_skew_us", Median(skew), "us");
  out->emplace_back("apuama.compose_us", Median(compose), "us");
  out->emplace_back("apuama.partial_rows_per_read", Median(partial_rows),
                    "rows");
  out->emplace_back("apuama.dispatch_us", Median(dispatch), "us");
  out->emplace_back("apuama.svp_waits_per_read",
                    ratio(d_svp_waits_, nreads), "ratio");
  out->emplace_back("apuama.writes_blocked_per_write",
                    ratio(d_writes_blocked_, nwrites), "ratio");
  out->insert(out->end(), per_template.begin(), per_template.end());
  out->emplace_back("engine.vectorized_frac",
                    ratio(rs.vectorized_rows, rs.tuples_scanned), "ratio");
  out->emplace_back("engine.tuples_scanned_per_read",
                    ratio(rs.tuples_scanned, nreads), "tuples/read");
  out->emplace_back("engine.filter_skip_ratio",
                    ratio(rs.filter_skipped_rows,
                          rs.filter_skipped_rows + rs.join_probe_rows),
                    "ratio");
  out->emplace_back("storage.columnar_rebuilds",
                    static_cast<double>(d_rebuilds_), "count");
  out->emplace_back("storage.columnar_rebuilds_per_write",
                    ratio(d_rebuilds_, nwrites), "ratio");
  out->emplace_back("storage.buffer_hit_ratio", buffer_hit_ratio_, "ratio");
  auto median_of = [this](double SetupTimes::*field) {
    std::vector<double> v;
    for (const auto& t : setups_) v.push_back(t.*field);
    return Median(v);
  };
  out->emplace_back("tpch.gen_s", median_of(&SetupTimes::gen_s), "s");
  out->emplace_back("tpch.load_s", median_of(&SetupTimes::load_s), "s");
  out->emplace_back("setup.warm_s", median_of(&SetupTimes::warm_s), "s");
  AddWriteMetrics(writes, write_s, out);
}

int Bench::Run() {
  reads_ = w_.dashboard ? DashboardStatements(seed_) : PaperStatements();
  PrintHeader();
  if (!Setup()) return 1;
  TimedWindow();
  const std::vector<Metric> e2e = EndToEnd();
  CheckResults();
  // The write metrics are end-to-end figures of tpch_mixed, but the
  // read-only workloads' windows have no writes, so the JSON carries
  // them with the per-layer ones; the untraced tpch_mixed run prints them.
  std::vector<Metric> layers;
  if (trace_) {
    PerLayer(&layers);
  } else if (w_.writer) {
    AddWriteMetrics(WindowWrites(), window_s_, &layers);
  }

  const std::string state_file = state_dir_ + "/" + w_.name + ".e2e";
  std::map<std::string, double> untraced;
  if (!state_dir_.empty() && trace_) {
    std::ifstream in(state_file);
    std::string name;
    double value;
    while (in >> name >> value) untraced[name] = value;
  }
  auto print = [](const char* prefix, const Metric& m) {
    std::printf("%s%s = %s %s%s%s\n", prefix, m.name.c_str(),
                Num(m.value).c_str(), m.unit.c_str(),
                m.note.empty() ? "" : " ", m.note.c_str());
  };
  for (const auto& m : e2e) {
    print(trace_ ? "traced." : "", m);
    if (auto it = untraced.find(m.name); it != untraced.end()) {
      print("trace_overhead.", Metric(m.name, m.value - it->second, m.unit));
    }
  }
  if (!state_dir_.empty() && !trace_) {
    std::ofstream outf(state_file);
    for (const auto& m : e2e) outf << m.name << ' ' << Num(m.value) << '\n';
  }
  for (const auto& m : layers) print("", m);
  const double error_frac =
      attempted_ == 0 ? 1.0 : static_cast<double>(failed_) / attempted_;
  std::printf("error_frac = %s ratio (failed=%llu attempted=%llu)\n",
              Num(error_frac).c_str(),
              static_cast<unsigned long long>(failed_),
              static_cast<unsigned long long>(attempted_));
  for (const auto& e : errors_) std::printf("# error: %s\n", e.c_str());

  std::string json = "{\"correct\": ";
  json += failed_ == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<uint64_t>(1, attempted_));
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& m : trace_ ? layers : e2e) {
    if (!ValidMetricName(m.name)) {
      std::fprintf(stderr, "invalid metric name %s\n", m.name.c_str());
      return 2;
    }
    json += first ? "" : ", ";
    first = false;
    json += "\"" + m.name + "\": {\"value\": " + Num(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return failed_ == 0 ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: e2e_wall --workload <tpch_solo|tpch_mixed|"
               "dashboard_zipf> --seed <n> --seconds <s> --trace <0|1> "
               "[--state <dir>]\n");
  return 2;
}

}  // namespace
}  // namespace wallbench

int main(int argc, char** argv) {
  using namespace wallbench;  // NOLINT
  std::string workload, state;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      workload = val;
    } else if (key == "--seed") {
      seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      seconds = std::strtod(val, nullptr);
    } else if (key == "--trace") {
      trace = std::strcmp(val, "1") == 0;
    } else if (key == "--state") {
      state = val;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || seconds <= 0) return Usage();
  for (const auto& w : kWorkloads) {
    if (workload == w.name) {
      return Bench(w, seed, seconds, trace, state).Run();
    }
  }
  return Usage();
}
