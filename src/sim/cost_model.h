// Cost model: ExecStats -> virtual service time.
//
// Calibrated to 2005-era commodity nodes (the paper's 2.2 GHz
// Opterons with local IDE disks): a random 8 KiB page read costs
// milliseconds, a cached page microseconds, and interpreted tuple
// work microseconds. Only the *ratios* matter for curve shapes.
#ifndef APUAMA_SIM_COST_MODEL_H_
#define APUAMA_SIM_COST_MODEL_H_

#include "common/sim_time.h"
#include "engine/exec_stats.h"

namespace apuama::sim {

/// Rolling cardinality feedback: what executed statements actually
/// observed, folded back into planning. The executor reports through
/// ExecStats how many row-slots moved through vectorized kernels
/// (scan predicates, dictionary-code compares, the vectorized join
/// probe) and how many driver rows survived the semi-join partition
/// filter; the cluster planner reads the derived rates to charge
/// slice-granular ops for columnar-eligible plans instead of assuming
/// every tuple costs a full row-wise op.
struct CardinalityFeedback {
  uint64_t tuples = 0;         ///< tuples scanned by observed statements
  uint64_t vec_slots = 0;      ///< row-slots through vectorized kernels
  uint64_t probe_candidates = 0;  ///< driver rows reaching the join filter
  uint64_t probe_survivors = 0;   ///< rows that went on to probe a chain

  void Observe(const engine::ExecStats& s) {
    tuples += s.tuples_scanned;
    vec_slots += s.vectorized_rows + s.dict_hits + s.probe_vectorized_rows;
    probe_candidates += s.join_probe_rows + s.filter_skipped_rows;
    probe_survivors += s.join_probe_rows;
  }

  bool HasSamples() const { return tuples > 0; }

  /// Fraction of scanned tuples whose work ran in vectorized kernels,
  /// clamped to [0, 1] (a tuple can pass through several kernels).
  double VectorizedFraction() const {
    if (tuples == 0) return 0.0;
    const double f = static_cast<double>(vec_slots) /
                     static_cast<double>(tuples);
    return f > 1.0 ? 1.0 : f;
  }

  /// Fraction of probe candidates that survived the semi-join filter
  /// (1.0 before any join has been observed: assume no filtering).
  double FilterSurvival() const {
    if (probe_candidates == 0) return 1.0;
    return static_cast<double>(probe_survivors) /
           static_cast<double>(probe_candidates);
  }
};

struct CostModel {
  /// Reading a page from disk (buffer-pool miss).
  SimTime disk_page_us = 800;
  /// Reading a page already resident in the buffer pool.
  SimTime cache_page_us = 15;
  /// One abstract CPU operation (expression eval, hash probe, ...).
  SimTime cpu_op_us = 2;
  /// Fixed per-request network + protocol cost (client->controller->
  /// node and back). Applied once per statement sent to a node.
  SimTime message_us = 300;
  /// Extra middleware cost per row shipped back to the controller
  /// (result serialization — matters for large partials, e.g. Q3).
  SimTime row_transfer_us = 2;
  /// Controller-side scheduler overhead for a write: total-order
  /// enforcement grows with the number of replicas notified.
  SimTime write_sync_per_node_us = 2000;
  /// Exchange link throughput between two nodes, in bytes per virtual
  /// microsecond (100 ≈ 100 MB/s, 2005-era switched Ethernet). The
  /// exchange operator's per-byte network charge divides by this.
  SimTime network_bytes_per_us = 100;

  /// Service time of one statement executed at a node. CPU work done
  /// inside the morsel-parallel region shrinks by the intra-node
  /// thread count (critical-path charging); planning and the
  /// sequential part of finalization are charged in full, while the
  /// morsel pipelines' bucket merge counts as parallel. Join build
  /// and probe work (join_build_rows / join_probe_rows) is counted
  /// into cpu_ops_parallel by the morsel join pipeline, so ClusterSim
  /// figures reflect intra-node join speedup — and semi-join filter
  /// pushdown shows up as fewer probe ops, not just fewer tuples.
  /// Vectorized kernels charge one op per 8-row slice into BOTH
  /// cpu_ops and cpu_ops_parallel (they run inside morsel workers),
  /// so the columnar path's saving lands on this same critical path:
  /// fewer ops per row AND divided by the thread width.
  SimTime StatementTime(const engine::ExecStats& s) const {
    const uint64_t par =
        s.cpu_ops_parallel < s.cpu_ops ? s.cpu_ops_parallel : s.cpu_ops;
    const uint64_t seq = s.cpu_ops - par;
    const uint64_t width = s.exec_threads == 0 ? 1 : s.exec_threads;
    const uint64_t charged_cpu = seq + (par + width - 1) / width;
    return message_us +
           static_cast<SimTime>(s.pages_disk) * disk_page_us +
           static_cast<SimTime>(s.pages_cache) * cache_page_us +
           static_cast<SimTime>(charged_cpu) * cpu_op_us +
           static_cast<SimTime>(s.tuples_output) * row_transfer_us;
  }

  /// Controller-side cost of composing partial results: loading
  /// `partial_rows` into the in-memory DB plus the composition query.
  SimTime CompositionTime(const engine::ExecStats& compose_stats,
                          uint64_t partial_rows) const {
    return static_cast<SimTime>(partial_rows) * row_transfer_us +
           static_cast<SimTime>(compose_stats.cpu_ops) * cpu_op_us;
  }

  /// Scheduler overhead of broadcasting one write to `nodes` replicas.
  SimTime WriteBroadcastOverhead(int nodes) const {
    return static_cast<SimTime>(nodes) * write_sync_per_node_us;
  }

  /// Time to ship `bytes` of tuples between two nodes through the
  /// exchange operator: one message round plus the per-byte transfer
  /// cost. Zero bytes means no exchange happened and costs nothing.
  SimTime ExchangeTransferTime(uint64_t bytes) const {
    if (bytes == 0) return 0;
    const SimTime bw = network_bytes_per_us <= 0 ? 1 : network_bytes_per_us;
    return message_us + static_cast<SimTime>(bytes) / bw;
  }

  /// Rows one vectorized cpu op covers (engine::kVecLane; mirrored
  /// here so the sim does not pull in the executor headers).
  static constexpr double kSliceRows = 8.0;

  /// Relative per-tuple cpu cost under the observed mix, in
  /// [1/kSliceRows, 1]. 1.0 = fully row-wise; 1/kSliceRows = fully
  /// vectorized.
  double PerTupleOpScale(const CardinalityFeedback& fb) const {
    const double frac = fb.VectorizedFraction();
    return (1.0 - frac) + frac / kSliceRows;
  }

  /// AVP initial-divisor adaptation: the scheduler's first chunks are
  /// sized domain/(nodes*divisor). When feedback shows the pipeline
  /// runs vectorized (cheap per key) and the semi-join filter passes
  /// few probe candidates, per-chunk work shrinks, so larger initial
  /// chunks (a smaller divisor) reach steady state with less per-chunk
  /// message overhead. Deterministic: pure arithmetic on the observed
  /// counters, floor 2 so adaptivity never degenerates to one chunk.
  int AdaptedAvpDivisor(int base_divisor,
                        const CardinalityFeedback& fb) const {
    if (!fb.HasSamples()) return base_divisor;
    const double scale = PerTupleOpScale(fb) * FilterScale(fb);
    const int adapted =
        static_cast<int>(static_cast<double>(base_divisor) * scale + 0.5);
    return adapted < 2 ? 2 : adapted;
  }

 private:
  /// Survival folded gently: even a very selective filter leaves the
  /// scan cost of a chunk intact, so weight it half.
  static double FilterScale(const CardinalityFeedback& fb) {
    return 0.5 + 0.5 * fb.FilterSurvival();
  }
};

}  // namespace apuama::sim

#endif  // APUAMA_SIM_COST_MODEL_H_
