#include "apuama/exchange/exchange.h"

#include <algorithm>
#include <limits>
#include <mutex>

#include "engine/database.h"
#include "storage/catalog.h"
#include "storage/table.h"
#include "types/schema.h"

namespace apuama::exchange {

namespace {

constexpr int64_t kMinKey = std::numeric_limits<int64_t>::min();
constexpr int64_t kMaxKey = std::numeric_limits<int64_t>::max();

bool Contains(const std::vector<int>& v, int x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

/// Fragments of `spec` that can hold keys of the inclusive [lo, hi].
std::vector<int> NeededFragments(const FragmentationSpec& spec, int64_t lo,
                                 int64_t hi) {
  std::vector<int> out;
  for (int f = 0; f < spec.fragments; ++f) {
    if (spec.Intersects(f, lo, hi)) out.push_back(f);
  }
  return out;
}

/// True when `node` hosts every listed fragment of `spec`.
bool NodeHostsAll(const FragmentationSpec& spec,
                  const std::vector<int>& fragments, int node) {
  for (int f : fragments) {
    if (!Contains(spec.HostsOf(f), node)) return false;
  }
  return true;
}

}  // namespace

ExchangeOperator::ExchangeOperator(cjdbc::ReplicaSet* replicas, uint64_t seq)
    : replicas_(replicas), seq_(seq) {}

ExchangeOperator::~ExchangeOperator() { Cleanup(); }

Result<std::vector<Row>> ExchangeOperator::FetchSlice(
    const FragmentationSpec& spec, int64_t lo, int64_t hi,
    const std::vector<int>& alive, int compute_node) {
  std::vector<Row> out;
  if (lo >= hi) return out;
  for (int f = 0; f < spec.fragments; ++f) {
    if (!spec.Intersects(f, lo, hi - 1)) continue;
    int host = -1;
    for (int h : spec.HostsOf(f)) {
      if (Contains(alive, h)) {
        host = h;
        break;
      }
    }
    if (host < 0) {
      return Status::Unavailable("no available host for fragment of " +
                                 spec.table);
    }
    // Clamp to the fragment's interior bounds; the edge fragments are
    // open-ended (see FragmentationSpec::bounds).
    int64_t f_lo = lo;
    int64_t f_hi = hi;
    if (f > 0) f_lo = std::max(f_lo, spec.bounds[static_cast<size_t>(f)]);
    if (f < spec.fragments - 1) {
      f_hi = std::min(f_hi, spec.bounds[static_cast<size_t>(f) + 1]);
    }
    if (f_lo >= f_hi) continue;
    std::lock_guard<std::mutex> lock(*replicas_->node_mutex(host));
    auto table = replicas_->node(host)->catalog()->GetTable(spec.table);
    if (!table.ok()) return table.status();
    const Value lov = Value::Int(f_lo);
    const Value hiv = Value::Int(f_hi);
    auto [begin, end] = (*table)->ClusteredRange(&lov, true, &hiv, false);
    uint64_t slice_bytes = 0;
    out.reserve(out.size() + (end - begin));
    for (size_t i = begin; i < end; ++i) {
      const Row& r = (*table)->row(i);
      slice_bytes += RowByteSize(r);
      out.push_back(r);
    }
    if (host != compute_node) bytes_shipped_ += slice_bytes;
  }
  return out;
}

Status ExchangeOperator::Materialize(int node,
                                     const std::string& source_table,
                                     const std::string& temp_name,
                                     std::vector<Row> rows) {
  std::lock_guard<std::mutex> lock(*replicas_->node_mutex(node));
  engine::Database* db = replicas_->node(node);
  auto src = db->catalog()->GetTable(source_table);
  if (!src.ok()) return src.status();
  auto created = db->catalog()->CreateTable(temp_name, (*src)->schema());
  if (!created.ok()) return created.status();
  storage::Table* t = *created;
  temps_.emplace_back(node, temp_name);
  // Clustered key first, then BulkLoad: the stable sort leaves the
  // already-heap-ordered rows untouched (bit-identity with a scan of
  // the replicated original).
  std::vector<int> key = (*src)->clustered_key();
  APUAMA_RETURN_NOT_OK(t->SetClusteredKey(std::move(key)));
  APUAMA_RETURN_NOT_OK(t->BulkLoad(std::move(rows)));
  // Mirror secondary indexes so the node planner has the same access
  // paths available under forced-index execution.
  for (const auto& idx : (*src)->indexes()) {
    const std::string& col =
        (*src)->schema().column(static_cast<size_t>(idx->column_idx())).name;
    APUAMA_RETURN_NOT_OK(t->CreateIndex(temp_name + "_" + idx->name(), col));
  }
  return Status::OK();
}

void ExchangeOperator::Cleanup() {
  for (const auto& [node, name] : temps_) {
    std::lock_guard<std::mutex> lock(*replicas_->node_mutex(node));
    Status dropped = replicas_->node(node)->catalog()->DropTable(name);
    (void)dropped;  // a vanished temp is already what we want
  }
  temps_.clear();
}

Result<std::vector<Assignment>> ExchangeOperator::Prepare(
    const std::vector<std::pair<int64_t, int64_t>>& intervals,
    const std::vector<const FragmentationSpec*>& specs,
    const std::vector<int>& alive, const std::vector<int>& preferred) {
  std::vector<Assignment> out(intervals.size());
  if (specs.empty()) {
    for (size_t i = 0; i < intervals.size(); ++i) {
      out[i].node = preferred[i];
      out[i].alternates = alive;
    }
    return out;
  }

  // Size proxy for the broadcast-small decision: the table's row
  // count on the first alive node (full replicas were loaded before
  // fragmentation, so relative sizes are representative).
  size_t largest = 0;
  {
    size_t best_rows = 0;
    for (size_t s = 0; s < specs.size(); ++s) {
      size_t rows = 0;
      if (!alive.empty()) {
        std::lock_guard<std::mutex> lock(*replicas_->node_mutex(alive[0]));
        auto t = replicas_->node(alive[0])->catalog()->GetTable(
            specs[s]->table);
        if (t.ok()) rows = (*t)->num_rows();
      }
      if (rows >= best_rows) {
        best_rows = rows;
        largest = s;
      }
    }
  }

  // Whole-table broadcast temps already built, per (node, spec idx).
  std::vector<std::pair<std::pair<int, size_t>, std::string>> bcast_temps;
  auto broadcast_temp = [&](int node, size_t s) -> Result<std::string> {
    for (const auto& [key, name] : bcast_temps) {
      if (key.first == node && key.second == s) return name;
    }
    const std::string name = "__exg_" + std::to_string(seq_) + "_b" +
                             std::to_string(node) + "_" + specs[s]->table;
    APUAMA_ASSIGN_OR_RETURN(
        std::vector<Row> rows,
        FetchSlice(*specs[s], kMinKey, kMaxKey, alive, node));
    APUAMA_RETURN_NOT_OK(
        Materialize(node, specs[s]->table, name, std::move(rows)));
    bcast_temps.push_back({{node, s}, name});
    ++broadcasts_;
    return name;
  };

  for (size_t i = 0; i < intervals.size(); ++i) {
    const auto [lo, hi] = intervals[i];
    std::vector<std::vector<int>> needed(specs.size());
    bool empty_interval = lo >= hi;
    if (!empty_interval) {
      for (size_t s = 0; s < specs.size(); ++s) {
        needed[s] = NeededFragments(*specs[s], lo, hi - 1);
      }
    }

    // 1. Local: a node hosting every needed fragment of every table
    // runs the interval with zero movement. The co-partitioned
    // preset always resolves here, to the baseline node.
    std::vector<int> candidates;
    for (int c : alive) {
      bool covers = true;
      for (size_t s = 0; s < specs.size() && covers; ++s) {
        covers = NodeHostsAll(*specs[s], needed[s], c);
      }
      if (covers) candidates.push_back(c);
    }
    if (!candidates.empty()) {
      out[i].node = Contains(candidates, preferred[i]) ? preferred[i]
                                                       : candidates[0];
      out[i].alternates = candidates;
      continue;
    }

    // 2. Broadcast-small-build: run where the largest table's needed
    // fragments live and ship the smaller tables there whole (reused
    // across this query's intervals on the same node).
    if (specs.size() > 1) {
      std::vector<int> l_candidates;
      for (int c : alive) {
        if (NodeHostsAll(*specs[largest], needed[largest], c)) {
          l_candidates.push_back(c);
        }
      }
      if (!l_candidates.empty()) {
        const int node = Contains(l_candidates, preferred[i])
                             ? preferred[i]
                             : l_candidates[0];
        Assignment a;
        a.node = node;
        for (size_t s = 0; s < specs.size(); ++s) {
          if (s == largest) continue;
          auto name = broadcast_temp(node, s);
          if (!name.ok()) return name.status();
          a.table_map.emplace_back(specs[s]->table, std::move(name).value());
        }
        out[i] = std::move(a);
        continue;
      }
    }

    // 3. Shuffle: ship every fragmented table's slice of this
    // interval to the baseline node.
    const int node = preferred[i];
    Assignment a;
    a.node = node;
    for (size_t s = 0; s < specs.size(); ++s) {
      const std::string name = "__exg_" + std::to_string(seq_) + "_i" +
                               std::to_string(i) + "_" + specs[s]->table;
      APUAMA_ASSIGN_OR_RETURN(std::vector<Row> rows,
                              FetchSlice(*specs[s], lo, hi, alive, node));
      APUAMA_RETURN_NOT_OK(
          Materialize(node, specs[s]->table, name, std::move(rows)));
      a.table_map.emplace_back(specs[s]->table, name);
    }
    ++shuffles_;
    out[i] = std::move(a);
  }
  return out;
}

Result<Assignment> ExchangeOperator::PrepareWholeTables(
    const std::vector<const FragmentationSpec*>& specs,
    const std::vector<int>& alive, int fallback_node) {
  // A node hosting every fragment of every table serves the query
  // directly (replica factor >= fragments/nodes makes this common).
  std::vector<int> ordered;
  if (Contains(alive, fallback_node)) ordered.push_back(fallback_node);
  for (int c : alive) {
    if (c != fallback_node) ordered.push_back(c);
  }
  for (int c : ordered) {
    bool covers = true;
    for (const auto* spec : specs) {
      std::vector<int> all(static_cast<size_t>(spec->fragments));
      for (int f = 0; f < spec->fragments; ++f) all[static_cast<size_t>(f)] = f;
      if (!NodeHostsAll(*spec, all, c)) {
        covers = false;
        break;
      }
    }
    if (covers) {
      Assignment a;
      a.node = c;
      a.alternates = ordered;
      return a;
    }
  }
  if (ordered.empty()) return Status::Unavailable("no node available");
  Assignment a;
  a.node = ordered[0];
  for (const auto* spec : specs) {
    const std::string name =
        "__exg_" + std::to_string(seq_) + "_w_" + spec->table;
    APUAMA_ASSIGN_OR_RETURN(
        std::vector<Row> rows,
        FetchSlice(*spec, kMinKey, kMaxKey, alive, a.node));
    APUAMA_RETURN_NOT_OK(
        Materialize(a.node, spec->table, name, std::move(rows)));
    a.table_map.emplace_back(spec->table, name);
  }
  ++shuffles_;
  return a;
}

}  // namespace apuama::exchange
