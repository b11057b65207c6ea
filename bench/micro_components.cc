// Micro-benchmarks (google-benchmark) for the hot components: SQL
// parsing, SVP rewriting, single-node execution, composition,
// buffer-pool bookkeeping, LIKE matching.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "apuama/admission/admission.h"
#include "apuama/apuama_engine.h"
#include "apuama/exchange/exchange.h"
#include "apuama/plan_cache.h"
#include "apuama/result_composer.h"
#include "apuama/svp_rewriter.h"
#include "cjdbc/controller.h"
#include "common/rng.h"
#include "engine/database.h"
#include "engine/eval.h"
#include "sql/parser.h"
#include "sql/unparse.h"
#include "storage/buffer_pool.h"
#include "storage/column_store.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"
#include "tpch/tpch_catalog.h"

namespace apuama {
namespace {

const tpch::TpchData& BenchData() {
  static const tpch::TpchData* d =
      new tpch::TpchData(tpch::DbgenOptions{.scale_factor = 0.002});
  return *d;
}

void BM_ParseQ1(benchmark::State& state) {
  std::string sql = *tpch::QuerySql(1);
  for (auto _ : state) {
    auto r = sql::ParseSelect(sql);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_ParseQ1);

void BM_ParseUnparseRoundTrip(benchmark::State& state) {
  std::string sql = *tpch::QuerySql(21);
  for (auto _ : state) {
    auto r = sql::ParseSelect(sql);
    std::string text = sql::UnparseSelect(**r);
    benchmark::DoNotOptimize(text);
  }
}
BENCHMARK(BM_ParseUnparseRoundTrip);

void BM_SvpRewrite(benchmark::State& state) {
  DataCatalog catalog = tpch::MakeTpchCatalog(BenchData());
  SvpRewriter rewriter(&catalog);
  auto parsed = sql::ParseSelect(*tpch::QuerySql(1));
  for (auto _ : state) {
    auto plan = rewriter.Rewrite(**parsed);
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_SvpRewrite);

void BM_SubquerySqlRender(benchmark::State& state) {
  DataCatalog catalog = tpch::MakeTpchCatalog(BenchData());
  SvpRewriter rewriter(&catalog);
  auto parsed = sql::ParseSelect(*tpch::QuerySql(1));
  auto plan = rewriter.Rewrite(**parsed);
  int64_t lo = 1;
  for (auto _ : state) {
    std::string sub = plan->SubquerySql(lo, lo + 100);
    benchmark::DoNotOptimize(sub);
    ++lo;
  }
}
BENCHMARK(BM_SubquerySqlRender);

void BM_ExecuteQ6SingleNode(benchmark::State& state) {
  engine::Database db(engine::DatabaseOptions{.buffer_pool_pages = 0});
  if (!BenchData().LoadInto(&db).ok()) {
    state.SkipWithError("load failed");
    return;
  }
  std::string sql = *tpch::QuerySql(6);
  for (auto _ : state) {
    auto r = db.Execute(sql);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_ExecuteQ6SingleNode);

void BM_ExecuteQ1SingleNode(benchmark::State& state) {
  engine::Database db(engine::DatabaseOptions{.buffer_pool_pages = 0});
  if (!BenchData().LoadInto(&db).ok()) {
    state.SkipWithError("load failed");
    return;
  }
  std::string sql = *tpch::QuerySql(1);
  for (auto _ : state) {
    auto r = db.Execute(sql);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_ExecuteQ1SingleNode);

// Six-way morsel join. Its build-chain order decides how many lineitem
// rows reach a hash table (probe_rows) and how many the semi-join
// filters drop first (filter_skipped).
void BM_ExecuteQ5SingleNode(benchmark::State& state) {
  engine::Database db(engine::DatabaseOptions{.buffer_pool_pages = 0});
  if (!BenchData().LoadInto(&db).ok()) {
    state.SkipWithError("load failed");
    return;
  }
  std::string sql = *tpch::QuerySql(5);
  engine::ExecStats stats;
  for (auto _ : state) {
    auto r = db.Execute(sql);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    stats = r->stats;
    benchmark::DoNotOptimize(r);
  }
  state.counters["probe_rows"] = static_cast<double>(stats.join_probe_rows);
  state.counters["filter_skipped"] =
      static_cast<double>(stats.filter_skipped_rows);
}
BENCHMARK(BM_ExecuteQ5SingleNode);

// The paper's two subquery templates. Q4's EXISTS runs as a semi step
// of the single-table morsel aggregate, Q21's EXISTS / NOT EXISTS as
// semi and anti steps after the last stage of the morsel join; each
// step finds its candidates by clustered-key lookups into lineitem.
// `tuples_scanned` includes the steps' inner scans.
void ExecuteSubqueryTemplate(benchmark::State& state, int q) {
  engine::Database db(engine::DatabaseOptions{.buffer_pool_pages = 0});
  if (!BenchData().LoadInto(&db).ok()) {
    state.SkipWithError("load failed");
    return;
  }
  std::string sql = *tpch::QuerySql(q);
  engine::ExecStats stats;
  for (auto _ : state) {
    auto r = db.Execute(sql);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    stats = r->stats;
    benchmark::DoNotOptimize(r);
  }
  state.counters["morsels"] = static_cast<double>(stats.morsels);
  state.counters["tuples_scanned"] =
      static_cast<double>(stats.tuples_scanned);
}
void BM_ExecuteQ4SingleNode(benchmark::State& state) {
  ExecuteSubqueryTemplate(state, 4);
}
BENCHMARK(BM_ExecuteQ4SingleNode);
void BM_ExecuteQ21SingleNode(benchmark::State& state) {
  ExecuteSubqueryTemplate(state, 21);
}
BENCHMARK(BM_ExecuteQ21SingleNode);

// One column image build of lineitem at the bench scale factor: the
// cost a bulk load, a recluster or the splice work bound puts on the
// next columnar read. Its five string columns are dictionary-encoded.
void BM_ColumnarChunkBuild(benchmark::State& state) {
  engine::Database db(engine::DatabaseOptions{.buffer_pool_pages = 0});
  if (!BenchData().LoadInto(&db).ok()) {
    state.SkipWithError("load failed");
    return;
  }
  auto lineitem = db.catalog()->GetTable("lineitem");
  if (!lineitem.ok()) {
    state.SkipWithError(lineitem.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(storage::ColumnarTable::Build(
        (*lineitem)->schema(), (*lineitem)->rows()));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>((*lineitem)->num_rows()));
}
BENCHMARK(BM_ColumnarChunkBuild);

// What a refresh write costs the same image instead: per iteration,
// one lineitem insert past the last key with a new l_comment, then its
// delete, both spliced into the built image (heap work included). The
// `rebuilt` counter reads 1 if the splice work bound dropped the image.
void BM_ColumnarChunkSplice(benchmark::State& state) {
  engine::Database db(engine::DatabaseOptions{.buffer_pool_pages = 0});
  if (!BenchData().LoadInto(&db).ok()) {
    state.SkipWithError("load failed");
    return;
  }
  auto lineitem = db.catalog()->GetTable("lineitem");
  if (!lineitem.ok()) {
    state.SkipWithError(lineitem.status().ToString().c_str());
    return;
  }
  storage::Table* t = *lineitem;
  t->Columnar();
  Row row = t->row(t->num_rows() - 1);
  row[0] = Value::Int(row[0].int_val() + 1);
  row[15] = Value::Str("refresh line");
  for (auto _ : state) {
    auto pos = t->Insert(row);
    if (!pos.ok()) {
      state.SkipWithError(pos.status().ToString().c_str());
      return;
    }
    t->DeleteAt({*pos});
  }
  state.counters["rebuilt"] = t->Columnar().rebuilt ? 1 : 0;
}
BENCHMARK(BM_ColumnarChunkSplice);

std::vector<engine::QueryResult> MakeComposePartials(int rows) {
  Rng rng(3);
  std::vector<engine::QueryResult> partials(8);
  for (auto& p : partials) {
    p.column_names = {"g0", "a0"};
    for (int i = 0; i < rows; ++i) {
      p.rows.push_back({Value::Int(rng.Uniform(0, 50)),
                        Value::Double(rng.UniformDouble(0, 100))});
    }
  }
  return partials;
}

constexpr char kComposeSql[] =
    "select g0, sum(a0) as s from partials group by g0";

// Composition of 8 partials on the sequential executor: parse and
// fold the composition SQL, gather the partial rows into one
// relation, re-aggregate.
void BM_Compose(benchmark::State& state) {
  auto partials = MakeComposePartials(static_cast<int>(state.range(0)));
  std::vector<const engine::QueryResult*> ptrs;
  for (const auto& p : partials) ptrs.push_back(&p);
  ResultComposer composer;
  for (auto _ : state) {
    CompositionStats stats;
    auto r = composer.Compose(ptrs, kComposeSql, &stats);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 8);
}
BENCHMARK(BM_Compose)->Arg(100)->Arg(2000);

// Morsel-parallel partitioned hash join: a selective dimension build
// side probed by a 200k-row fact side.
// Args: {build rows, exec_threads} — 1k build rows keep ~99% of probes
// missing (the semi-join filter's best case); 100k build rows make
// most probes hit, so the filter is pure overhead there.
// Counters: the cost model's view as in BM_ColumnarAggregate below,
// plus `model_speedup` = cpu_ops / charged and `filter_skipped`, so
// the pushdown's pruning is visible directly.
void BM_HashJoin(benchmark::State& state) {
  const int build_rows = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  engine::Database db(engine::DatabaseOptions{.buffer_pool_pages = 0});
  if (!db.Execute("create table dim (k int, tag int)").ok() ||
      !db.Execute("create table fact (fk int, v double)").ok()) {
    state.SkipWithError("create failed");
    return;
  }
  constexpr int kFactRows = 200000;
  constexpr int kKeySpace = 100000;  // fact keys cover [0, 100k)
  std::vector<Row> dim;
  dim.reserve(static_cast<size_t>(build_rows));
  for (int i = 0; i < build_rows; ++i) {
    // Spread build keys over the whole key space so selectivity is
    // build_rows / kKeySpace, not a dense prefix.
    dim.push_back({Value::Int((i * (kKeySpace / build_rows)) % kKeySpace),
                   Value::Int(i % 7)});
  }
  std::vector<Row> fact;
  fact.reserve(kFactRows);
  for (int i = 0; i < kFactRows; ++i) {
    fact.push_back(
        {Value::Int(i % kKeySpace), Value::Double((i % 89) * 0.25)});
  }
  auto dim_t = db.catalog()->GetTable("dim");
  auto fact_t = db.catalog()->GetTable("fact");
  if (!dim_t.ok() || !(*dim_t)->BulkLoad(std::move(dim)).ok() ||
      !fact_t.ok() || !(*fact_t)->BulkLoad(std::move(fact)).ok()) {
    state.SkipWithError("load failed");
    return;
  }
  if (!db.Execute("set exec_threads = " + std::to_string(threads)).ok()) {
    state.SkipWithError("set failed");
    return;
  }
  const std::string sql =
      "select tag, count(*), sum(v) from fact, dim"
      " where fk = k group by tag";
  engine::ExecStats stats;
  for (auto _ : state) {
    auto r = db.Execute(sql);
    if (!r.ok()) {
      state.SkipWithError("query failed");
      return;
    }
    stats = r->stats;
    benchmark::DoNotOptimize(r);
  }
  const uint64_t par = std::min(stats.cpu_ops_parallel, stats.cpu_ops);
  const uint64_t width = static_cast<uint64_t>(threads);
  const uint64_t charged =
      (stats.cpu_ops - par) + (par + width - 1) / width;
  state.counters["build_rows"] =
      static_cast<double>(stats.join_build_rows);
  state.counters["probe_rows"] =
      static_cast<double>(stats.join_probe_rows);
  state.counters["filter_skipped"] =
      static_cast<double>(stats.filter_skipped_rows);
  state.counters["cpu_ops"] = static_cast<double>(stats.cpu_ops);
  state.counters["charged"] = static_cast<double>(charged);
  state.counters["model_speedup"] =
      static_cast<double>(stats.cpu_ops) / static_cast<double>(charged);
  state.SetItemsProcessed(state.iterations() * kFactRows);
}
BENCHMARK(BM_HashJoin)
    ->ArgsProduct({{1000, 100000}, {1, 2, 4, 8}})
    ->Unit(benchmark::kMillisecond);

// Columnar vectorized aggregation: morsel-private group tables, then
// the bucket-by-bucket merge in morsel order.
// Args: {exec_threads, group cardinality}. 50 groups keeps the merge
// trivial and isolates scan fan-out; the table scales with the group
// count so 500k groups is a real high-cardinality merge, not a capped
// one. Wall time only shows a speedup when the host has cores to
// spare, so the counters also report the cost model's critical-path
// view: `charged` = sequential ops + ceil(parallel ops / threads) out
// of `cpu_ops`. `vec_rows` counts rows through vectorized kernels.
void BM_ColumnarAggregate(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const int groups = static_cast<int>(state.range(1));
  const int rows_n = std::max(200000, groups);
  engine::Database db(engine::DatabaseOptions{.buffer_pool_pages = 0});
  if (!db.Execute("create table c (g int, v double)").ok()) {
    state.SkipWithError("create failed");
    return;
  }
  std::vector<Row> rows;
  rows.reserve(static_cast<size_t>(rows_n));
  for (int i = 0; i < rows_n; ++i) {
    rows.push_back(
        {Value::Int(i % groups), Value::Double((i % 97) * 0.5)});
  }
  auto table = db.catalog()->GetTable("c");
  if (!table.ok() || !(*table)->BulkLoad(std::move(rows)).ok()) {
    state.SkipWithError("load failed");
    return;
  }
  const std::string sql =
      "select g, count(*), sum(v), avg(v), min(v), max(v) from c "
      "group by g";
  if (!db.Execute("set exec_threads = " + std::to_string(threads)).ok()) {
    state.SkipWithError("set failed");
    return;
  }
  engine::ExecStats stats;
  for (auto _ : state) {
    auto r = db.Execute(sql);
    if (!r.ok()) {
      state.SkipWithError("query failed");
      return;
    }
    stats = r->stats;
    benchmark::DoNotOptimize(r);
  }
  const uint64_t par = std::min(stats.cpu_ops_parallel, stats.cpu_ops);
  const uint64_t width = static_cast<uint64_t>(threads);
  const uint64_t charged =
      (stats.cpu_ops - par) + (par + width - 1) / width;
  state.counters["cpu_ops"] = static_cast<double>(stats.cpu_ops);
  state.counters["charged"] = static_cast<double>(charged);
  state.counters["vec_rows"] =
      static_cast<double>(stats.vectorized_rows);
  state.SetItemsProcessed(state.iterations() * rows_n);
}
BENCHMARK(BM_ColumnarAggregate)
    ->ArgsProduct({{1, 2, 4, 8}, {50, 5000, 50000, 500000}})
    ->Unit(benchmark::kMillisecond);

// Dictionary-encoded string predicates vs row-wise string compares.
// Args: {exec_threads, predicate kind} — 0 equality, 1 IN-list,
// 2 BETWEEN (all three compile to dict-code kernels), 3 LIKE (stays
// on the row-wise per-conjunct fallback, the honesty check). Counters
// follow BM_ColumnarAggregate's convention plus `dict_hits`.
void BM_DictPredicate(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const int kind = static_cast<int>(state.range(1));
  engine::Database db(engine::DatabaseOptions{.buffer_pool_pages = 0});
  if (!db.Execute("create table strtab (v varchar(8), x double)").ok()) {
    state.SkipWithError("create failed");
    return;
  }
  constexpr int kRows = 200000;
  std::vector<Row> rows;
  rows.reserve(kRows);
  for (int i = 0; i < kRows; ++i) {
    // 100 distinct tags; predicates select a few percent of rows.
    rows.push_back({Value::Str("tag" + std::to_string(i % 100)),
                    Value::Double((i % 89) * 0.25)});
  }
  auto table = db.catalog()->GetTable("strtab");
  if (!table.ok() || !(*table)->BulkLoad(std::move(rows)).ok()) {
    state.SkipWithError("load failed");
    return;
  }
  static const char* kPreds[] = {
      "v = 'tag42'",
      "v in ('tag7', 'tag42', 'tag93')",
      "v between 'tag40' and 'tag49'",
      "v like 'tag4%'",
  };
  const std::string sql = std::string("select count(*), sum(x) from "
                                      "strtab where ") +
                          kPreds[kind];
  if (!db.Execute("set exec_threads = " + std::to_string(threads)).ok()) {
    state.SkipWithError("set failed");
    return;
  }
  engine::ExecStats stats;
  for (auto _ : state) {
    auto r = db.Execute(sql);
    if (!r.ok()) {
      state.SkipWithError("query failed");
      return;
    }
    stats = r->stats;
    benchmark::DoNotOptimize(r);
  }
  const uint64_t par = std::min(stats.cpu_ops_parallel, stats.cpu_ops);
  const uint64_t width = static_cast<uint64_t>(threads);
  const uint64_t charged =
      (stats.cpu_ops - par) + (par + width - 1) / width;
  state.counters["cpu_ops"] = static_cast<double>(stats.cpu_ops);
  state.counters["charged"] = static_cast<double>(charged);
  state.counters["dict_hits"] = static_cast<double>(stats.dict_hits);
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_DictPredicate)
    ->ArgsProduct({{1, 2, 4, 8}, {0, 1, 2, 3}})
    ->Unit(benchmark::kMillisecond);

// Vectorized probe side of the morsel partitioned hash join. Same
// fact/dim shape as BM_HashJoin (1k-row build side, ~99% of probes
// pruned by the semi-join filter — the slice filter kernel's best
// case). Args: {exec_threads}. Counters follow BM_ColumnarAggregate's
// convention plus `probe_vec` and `filter_skipped`.
void BM_VectorizedProbe(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  engine::Database db(engine::DatabaseOptions{.buffer_pool_pages = 0});
  if (!db.Execute("create table dim (k int, tag int)").ok() ||
      !db.Execute("create table fact (fk int, v double)").ok()) {
    state.SkipWithError("create failed");
    return;
  }
  constexpr int kFactRows = 200000;
  constexpr int kKeySpace = 100000;
  constexpr int kBuildRows = 1000;
  std::vector<Row> dim;
  dim.reserve(kBuildRows);
  for (int i = 0; i < kBuildRows; ++i) {
    dim.push_back({Value::Int((i * (kKeySpace / kBuildRows)) % kKeySpace),
                   Value::Int(i % 7)});
  }
  std::vector<Row> fact;
  fact.reserve(kFactRows);
  for (int i = 0; i < kFactRows; ++i) {
    fact.push_back(
        {Value::Int(i % kKeySpace), Value::Double((i % 89) * 0.25)});
  }
  auto dim_t = db.catalog()->GetTable("dim");
  auto fact_t = db.catalog()->GetTable("fact");
  if (!dim_t.ok() || !(*dim_t)->BulkLoad(std::move(dim)).ok() ||
      !fact_t.ok() || !(*fact_t)->BulkLoad(std::move(fact)).ok()) {
    state.SkipWithError("load failed");
    return;
  }
  const std::string sql =
      "select tag, count(*), sum(v) from fact, dim"
      " where fk = k group by tag";
  if (!db.Execute("set exec_threads = " + std::to_string(threads)).ok()) {
    state.SkipWithError("set failed");
    return;
  }
  engine::ExecStats stats;
  for (auto _ : state) {
    auto r = db.Execute(sql);
    if (!r.ok()) {
      state.SkipWithError("query failed");
      return;
    }
    stats = r->stats;
    benchmark::DoNotOptimize(r);
  }
  const uint64_t par = std::min(stats.cpu_ops_parallel, stats.cpu_ops);
  const uint64_t width = static_cast<uint64_t>(threads);
  const uint64_t charged =
      (stats.cpu_ops - par) + (par + width - 1) / width;
  state.counters["cpu_ops"] = static_cast<double>(stats.cpu_ops);
  state.counters["charged"] = static_cast<double>(charged);
  state.counters["probe_vec"] =
      static_cast<double>(stats.probe_vectorized_rows);
  state.counters["filter_skipped"] =
      static_cast<double>(stats.filter_skipped_rows);
  state.SetItemsProcessed(state.iterations() * kFactRows);
}
BENCHMARK(BM_VectorizedProbe)
    ->ArgsProduct({{1, 2, 4, 8}})
    ->Unit(benchmark::kMillisecond);

void BM_PlanCacheLookup(benchmark::State& state) {
  DataCatalog catalog = tpch::MakeTpchCatalog(BenchData());
  SvpRewriter rewriter(&catalog);
  std::string sql = *tpch::QuerySql(1);
  auto parsed = sql::ParseSelect(sql);
  auto plan = rewriter.Rewrite(**parsed);
  PlanCache cache(16);
  auto entry = std::make_shared<PlanCache::Entry>();
  entry->kind = PlanCache::Kind::kSvp;
  entry->plan = plan->Clone();
  std::string key = PlanCache::NormalizeSql(sql);
  (void)cache.Lookup(key, 1);  // advance cache to catalog version 1
  cache.Insert(key, 1, std::move(entry));
  for (auto _ : state) {
    auto hit = cache.Lookup(PlanCache::NormalizeSql(sql), 1);
    benchmark::DoNotOptimize(hit);
  }
}
BENCHMARK(BM_PlanCacheLookup);

void BM_BufferPoolTouch(benchmark::State& state) {
  storage::BufferPool pool(1024);
  uint32_t page = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pool.Touch({1, page % 2048}));
    ++page;
  }
}
BENCHMARK(BM_BufferPoolTouch);

// Exchange operator: plan + materialize the data movement for one
// 4-interval SVP dispatch over a 4-node cluster.
// Arg: fragment count — 4 is the co-partitioned preset (every interval
// lands on the node hosting its fragment, zero bytes move) and 3 is
// the misaligned case (interval boundaries straddle fragments, so
// slices are shuffled to the compute node and temp tables are built
// and dropped every iteration). Counters report the bytes one
// dispatch ships and which strategies fired, so the aligned fast
// path's zero-copy claim is checked by the same binary that measures
// the shuffle cost.
void BM_Exchange(benchmark::State& state) {
  const int fragments = static_cast<int>(state.range(0));
  constexpr int kNodes = 4;
  const auto& data = BenchData();
  cjdbc::ReplicaSet replicas(
      kNodes, cjdbc::ReplicaSet::NodeOptions{.buffer_pool_pages = 0});
  if (!data.LoadIntoReplicas(&replicas).ok()) {
    state.SkipWithError("load failed");
    return;
  }
  DataCatalog catalog = tpch::MakeTpchCatalog(data);
  if (!tpch::ApplyTpchFragmentationPreset(&catalog, kNodes, 1, fragments)
           .ok()) {
    state.SkipWithError("preset failed");
    return;
  }
  const std::vector<const FragmentationSpec*> specs = {
      catalog.FragmentationFor("lineitem"),
      catalog.FragmentationFor("orders")};
  const auto intervals =
      KeyIntervals(data.min_orderkey(), data.max_orderkey(), kNodes);
  const std::vector<int> alive = {0, 1, 2, 3};
  const std::vector<int> preferred = alive;
  uint64_t seq = 0;
  uint64_t bytes = 0;
  uint64_t shuffles = 0;
  uint64_t broadcasts = 0;
  for (auto _ : state) {
    exchange::ExchangeOperator ex(&replicas, ++seq);
    auto assignments = ex.Prepare(intervals, specs, alive, preferred);
    if (!assignments.ok()) {
      state.SkipWithError("exchange prepare failed");
      return;
    }
    bytes = ex.bytes_shipped();
    shuffles = ex.shuffles();
    broadcasts = ex.broadcasts();
    ex.Cleanup();
    benchmark::DoNotOptimize(assignments);
  }
  state.counters["bytes_shipped"] = static_cast<double>(bytes);
  state.counters["shuffles"] = static_cast<double>(shuffles);
  state.counters["broadcasts"] = static_cast<double>(broadcasts);
}
BENCHMARK(BM_Exchange)->Arg(4)->Arg(3)->Unit(benchmark::kMillisecond);

// Fragment-routed writes through the full controller + engine stack.
// Args: {nodes, replica_factor} — replica_factor 0 keeps the tables
// fully replicated, so every UPDATE broadcasts to all `nodes` (the
// C-JDBC baseline); 1 and 2 install the co-partitioned preset with
// that replica factor, so each UPDATE lands only on the owning
// fragment's replica set. The headline counter is `write_fanout`
// (nodes touched per logical write): n for the baseline, exactly the
// replica factor when routing is on — the per-write delta
// BENCH_fragmentation.json's write-throughput section reports.
void BM_FragmentedWrite(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  const int replica = static_cast<int>(state.range(1));
  const auto& data = BenchData();
  cjdbc::ReplicaSet replicas(
      nodes, cjdbc::ReplicaSet::NodeOptions{.buffer_pool_pages = 0});
  if (!data.LoadIntoReplicas(&replicas).ok()) {
    state.SkipWithError("load failed");
    return;
  }
  ApuamaEngine engine(&replicas, tpch::MakeTpchCatalog(data),
                      ApuamaOptions{});
  cjdbc::Controller controller(std::make_unique<ApuamaDriver>(&engine));
  if (replica > 0) {
    for (const char* t : {"lineitem", "orders"}) {
      const std::string key = t[0] == 'l' ? "l_orderkey" : "o_orderkey";
      auto r = controller.Execute(
          "alter table " + std::string(t) + " fragment by hash(" + key +
          ") into " + std::to_string(nodes) + " replica " +
          std::to_string(replica));
      if (!r.ok()) {
        state.SkipWithError("fragmentation ddl failed");
        return;
      }
    }
  }
  const int64_t lo = data.min_orderkey();
  const int64_t hi = data.max_orderkey();
  int64_t k = lo;
  for (auto _ : state) {
    auto r = controller.Execute(
        "update orders set o_shippriority = 0 where o_orderkey = " +
        std::to_string(k));
    if (!r.ok()) {
      state.SkipWithError("write failed");
      return;
    }
    k = k + 37 > hi ? lo : k + 37;  // walk the key domain: vary routes
    benchmark::DoNotOptimize(r);
  }
  const auto& st = engine.stats();
  const uint64_t writes = std::max<uint64_t>(st.writes.load(), 1);
  state.counters["write_fanout"] =
      static_cast<double>(st.write_fanout_total.load()) /
      static_cast<double>(writes);
  state.counters["routed_frac"] =
      static_cast<double>(st.routed_writes.load()) /
      static_cast<double>(writes);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FragmentedWrite)
    ->ArgsProduct({{4, 8}, {0, 1, 2}})
    ->Unit(benchmark::kMicrosecond);

// Approximate aggregation through the full controller + engine stack.
// Args: {sampling ratio in permille, exec_threads}. Each iteration
// answers APPROX Q1 from the pre-built scramble; the counters report
// how much of the exact plan's scan the sampled plan actually paid
// (`tuples_scanned` per iteration) and the worst relative CI
// half-width, so BENCH_approx.json carries both the cost cut and the
// error bar it bought.
void BM_ApproxAggregate(benchmark::State& state) {
  const double ratio = static_cast<double>(state.range(0)) / 1000.0;
  const int threads = static_cast<int>(state.range(1));
  constexpr int kNodes = 4;
  const auto& data = BenchData();
  cjdbc::ReplicaSet replicas(
      kNodes, cjdbc::ReplicaSet::NodeOptions{.buffer_pool_pages = 0});
  if (!data.LoadIntoReplicas(&replicas).ok()) {
    state.SkipWithError("load failed");
    return;
  }
  ApuamaEngine engine(&replicas, tpch::MakeTpchCatalog(data),
                      ApuamaOptions{});
  cjdbc::Controller controller(std::make_unique<ApuamaDriver>(&engine));
  char ddl[64];
  std::snprintf(ddl, sizeof(ddl), "create sample lineitem ratio %g", ratio);
  if (!controller.Execute("set exec_threads = " + std::to_string(threads))
           .ok() ||
      !controller.Execute(ddl).ok()) {
    state.SkipWithError("setup failed");
    return;
  }
  const std::string q = "APPROX " + *tpch::QuerySql(1);
  double worst_hw = 0.0;
  for (auto _ : state) {
    auto r = controller.Execute(q);
    if (!r.ok() || !r->approx.is_approx) {
      state.SkipWithError("approx query failed");
      return;
    }
    worst_hw = std::max(worst_hw, r->approx.max_rel_half_width);
    benchmark::DoNotOptimize(r);
  }
  // One untimed EXPLAIN ANALYZE probe: per-query scanned tuples, for
  // the scan-cut column of BENCH_approx.json.
  auto probe = controller.Execute("explain analyze " + q);
  if (probe.ok()) {
    for (const auto& row : probe->rows) {
      if (row[0].str_val() == "node" &&
          row[1].str_val() == "tuples_scanned") {
        auto v = row[2].AsInt();
        if (v.ok()) {
          state.counters["tuples_scanned"] = static_cast<double>(*v);
        }
      }
    }
  }
  state.counters["rel_half_width"] = worst_hw;
  state.counters["sample_ratio"] = ratio;
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ApproxAggregate)
    ->ArgsProduct({{10, 100}, {1, 4, 8}})
    ->Unit(benchmark::kMicrosecond);

// Pure admission-gate overhead: Submit + OnComplete round trips on a
// virtual clock, no query execution behind them. Arg 0 is the offered
// load as a percent of the gate's capacity (max_inflight / service
// time); arg 1 the request priority. At 400% the ladder is active —
// the counters show the degrade/shed split the gate settles into.
void BM_AdmissionGate(benchmark::State& state) {
  const int64_t load_pct = state.range(0);
  const int priority = static_cast<int>(state.range(1));
  using Gate = admission::AdmissionController;
  Gate::Options opt;
  opt.enabled = true;
  opt.max_inflight = 8;
  opt.default_slo_us = 10'000;
  admission::AdmissionController gate(opt);
  constexpr int64_t kServiceUs = 1'000;
  // capacity = max_inflight / service; gap for the requested load.
  const int64_t gap_us =
      std::max<int64_t>(1, 100 * kServiceUs / (8 * load_pct));
  int64_t now = 0;
  std::deque<Gate::Ticket> inflight;
  for (auto _ : state) {
    now += gap_us;
    while (!inflight.empty() &&
           inflight.front().dispatch_us + kServiceUs <= now) {
      gate.OnComplete(inflight.front(),
                      inflight.front().dispatch_us + kServiceUs, true);
      inflight.pop_front();
    }
    Gate::Request req;
    req.priority = priority;
    req.degradable = true;
    gate.Submit(req, now, [&](const Gate::Ticket& t) {
      if (!t.shed()) inflight.push_back(t);
    });
  }
  while (!inflight.empty()) {
    gate.OnComplete(inflight.front(),
                    inflight.front().dispatch_us + kServiceUs, true);
    inflight.pop_front();
  }
  const auto c = gate.counters();
  state.counters["shed_pct"] =
      100.0 * static_cast<double>(c.shed + c.cancelled) /
      static_cast<double>(std::max<uint64_t>(1, c.submitted));
  state.counters["degraded_pct"] =
      100.0 * static_cast<double>(c.degraded) /
      static_cast<double>(std::max<uint64_t>(1, c.submitted));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AdmissionGate)
    ->ArgsProduct({{50, 100, 400}, {0, 4, 7}})
    ->Unit(benchmark::kNanosecond);

void BM_LikeMatch(benchmark::State& state) {
  std::string text = "PROMO BURNISHED COPPER";
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine::LikeMatch(text, "PROMO%"));
    benchmark::DoNotOptimize(engine::LikeMatch(text, "%COPPER"));
    benchmark::DoNotOptimize(engine::LikeMatch(text, "%URNI%"));
  }
}
BENCHMARK(BM_LikeMatch);

}  // namespace
}  // namespace apuama

BENCHMARK_MAIN();
