// Per-statement execution statistics.
//
// These are the engine's "EXPLAIN ANALYZE buffers" numbers: the
// discrete-event simulator converts them into virtual service time,
// tests assert on them (e.g. SVP touches 1/n of the fact table), and
// ablation benches report them directly.
#ifndef APUAMA_ENGINE_EXEC_STATS_H_
#define APUAMA_ENGINE_EXEC_STATS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace apuama::engine {

struct ExecStats {
  /// Logical pages faulted from "disk" (buffer-pool misses).
  uint64_t pages_disk = 0;
  /// Logical pages served from the buffer pool (hits).
  uint64_t pages_cache = 0;
  /// Tuples read by scan operators (before filtering).
  uint64_t tuples_scanned = 0;
  /// Tuples produced by the final operator.
  uint64_t tuples_output = 0;
  /// Abstract CPU work units: expression evaluations, hash
  /// build/probe steps, sort comparisons, aggregate updates.
  uint64_t cpu_ops = 0;
  /// Rows inserted/deleted/updated by DML.
  uint64_t rows_affected = 0;
  /// Morsels executed by the intra-node parallel pipeline (0 when the
  /// statement ran the sequential pipeline).
  uint64_t morsels = 0;
  /// Subset of cpu_ops incurred inside morsel workers — work the cost
  /// model may divide by `exec_threads` (everything else is critical-
  /// path sequential work: planning, merge, finalization).
  uint64_t cpu_ops_parallel = 0;
  /// Intra-node threads the morsel region ran with (1 = inline).
  uint32_t exec_threads = 1;
  /// Rows inserted into join build-side hash tables (morsel join
  /// pipeline; 0 when joins ran the legacy sequential chain).
  uint64_t join_build_rows = 0;
  /// Hash-table probes issued by the morsel join pipeline (join keys
  /// evaluated, non-null, and past the semi-join filter).
  uint64_t join_probe_rows = 0;
  /// Probe-side tuples dropped by a pushed-down build-side semi-join
  /// filter before ever touching a join hash table.
  uint64_t filter_skipped_rows = 0;
  /// True when the plan used at least one full (sequential) scan.
  bool used_seq_scan = false;
  /// True when the plan used at least one index path.
  bool used_index_scan = false;
  /// Row-slots processed by vectorized kernels (columnar path; each
  /// kernel pass over n selected rows counts n).
  uint64_t vectorized_rows = 0;
  /// Table column images materialized for the first time.
  uint64_t columnar_chunks_built = 0;
  /// Column images built again because a bulk load, a recluster or
  /// the splice work bound dropped the table's image (inserts and
  /// deletes splice it in place; storage::Table::Columnar).
  uint64_t columnar_chunk_rebuilds = 0;
  /// Row-slots filtered through dictionary-code kernels (string
  /// predicates compiled to code-space compares; each kernel pass
  /// over n selected rows counts n).
  uint64_t dict_hits = 0;
  /// Driver rows whose join keys were hashed and filter-checked by
  /// the vectorized probe kernel (morsel join pipeline).
  uint64_t probe_vectorized_rows = 0;

  ExecStats& operator+=(const ExecStats& o) {
    pages_disk += o.pages_disk;
    pages_cache += o.pages_cache;
    tuples_scanned += o.tuples_scanned;
    tuples_output += o.tuples_output;
    cpu_ops += o.cpu_ops;
    rows_affected += o.rows_affected;
    morsels += o.morsels;
    cpu_ops_parallel += o.cpu_ops_parallel;
    if (o.exec_threads > exec_threads) exec_threads = o.exec_threads;
    join_build_rows += o.join_build_rows;
    join_probe_rows += o.join_probe_rows;
    filter_skipped_rows += o.filter_skipped_rows;
    used_seq_scan = used_seq_scan || o.used_seq_scan;
    used_index_scan = used_index_scan || o.used_index_scan;
    vectorized_rows += o.vectorized_rows;
    columnar_chunks_built += o.columnar_chunks_built;
    columnar_chunk_rebuilds += o.columnar_chunk_rebuilds;
    dict_hits += o.dict_hits;
    probe_vectorized_rows += o.probe_vectorized_rows;
    return *this;
  }

  /// The counters as ordered key/value pairs; ToString() (the classic
  /// "k=v" line, byte-identical to its historical format) and
  /// ToJson() both render from this single list.
  std::vector<std::pair<std::string, uint64_t>> Kv() const;
  std::string ToString() const;
  std::string ToJson() const;
};

}  // namespace apuama::engine

#endif  // APUAMA_ENGINE_EXEC_STATS_H_
