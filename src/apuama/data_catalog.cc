#include "apuama/data_catalog.h"

#include <algorithm>

#include "common/string_util.h"
#include "sql/analyzer.h"
#include "sql/parser.h"

namespace apuama {

namespace {

/// The int64 key a top-level equality conjunct pins `key_column` to,
/// if any (`col = lit` or `lit = col`).
std::optional<int64_t> EqualityKey(const sql::Expr* where,
                                   const std::string& key_column) {
  for (const sql::Expr* c : sql::SplitConjuncts(where)) {
    if (c == nullptr || c->kind != sql::ExprKind::kBinary ||
        c->binary_op != sql::BinaryOp::kEq) {
      continue;
    }
    const sql::Expr* lhs = c->children[0].get();
    const sql::Expr* rhs = c->children[1].get();
    if (lhs->kind == sql::ExprKind::kLiteral) std::swap(lhs, rhs);
    if (lhs->kind != sql::ExprKind::kColumnRef ||
        rhs->kind != sql::ExprKind::kLiteral ||
        rhs->literal.type() != ValueType::kInt64) {
      continue;
    }
    if (ToLower(lhs->column_name) == key_column) {
      return rhs->literal.int_val();
    }
  }
  return std::nullopt;
}

}  // namespace

std::vector<std::pair<int64_t, int64_t>> KeyIntervals(int64_t min_value,
                                                      int64_t max_value,
                                                      int parts) {
  std::vector<std::pair<int64_t, int64_t>> out;
  if (parts < 1) parts = 1;
  // Domain is [min, max]; intervals are half-open [lo, hi).
  const int64_t span = max_value - min_value + 1;
  const int64_t base = span / parts;
  const int64_t extra = span % parts;  // first `extra` intervals +1
  int64_t lo = min_value;
  for (int i = 0; i < parts; ++i) {
    const int64_t hi = lo + base + (i < extra ? 1 : 0);
    out.emplace_back(lo, hi);
    lo = hi;
  }
  return out;
}

int FragmentationSpec::FragmentOf(int64_t key) const {
  // Edge fragments are open-ended: interior bounds decide ownership.
  const int k = fragments;
  for (int f = 1; f < k; ++f) {
    if (key < bounds[static_cast<size_t>(f)]) return f - 1;
  }
  return k - 1;
}

bool FragmentationSpec::Intersects(int fragment, int64_t lo,
                                   int64_t hi) const {
  if (lo > hi) return false;
  const size_t f = static_cast<size_t>(fragment);
  if (fragment > 0 && hi < bounds[f]) return false;
  if (fragment < fragments - 1 && lo >= bounds[f + 1]) return false;
  return true;
}

std::vector<int> FragmentationSpec::HostsOf(
    const std::vector<int>& fragments) const {
  std::vector<int> hosts;
  for (int f : fragments) {
    for (int h : HostsOf(f)) {
      if (std::find(hosts.begin(), hosts.end(), h) == hosts.end()) {
        hosts.push_back(h);
      }
    }
  }
  std::sort(hosts.begin(), hosts.end());
  return hosts;
}

std::optional<std::vector<int>> FragmentationSpec::WrittenFragments(
    const std::string& sql, const Schema& schema) const {
  auto parsed = sql::Parse(sql);
  if (!parsed.ok()) return std::nullopt;
  std::vector<int64_t> written_keys;
  switch ((*parsed)->kind()) {
    case sql::StmtKind::kInsert: {
      const auto& ins = static_cast<const sql::InsertStmt&>(**parsed);
      int pos = -1;
      if (ins.columns.empty()) {
        pos = schema.FindColumn(key_column);
      } else {
        for (size_t i = 0; i < ins.columns.size(); ++i) {
          if (ToLower(ins.columns[i]) == key_column) {
            pos = static_cast<int>(i);
            break;
          }
        }
      }
      if (pos < 0) return std::nullopt;
      for (const auto& row : ins.rows) {
        if (static_cast<size_t>(pos) >= row.size()) return std::nullopt;
        const sql::Expr* e = row[static_cast<size_t>(pos)].get();
        if (e->kind != sql::ExprKind::kLiteral ||
            e->literal.type() != ValueType::kInt64) {
          return std::nullopt;
        }
        written_keys.push_back(e->literal.int_val());
      }
      break;
    }
    case sql::StmtKind::kDelete: {
      const auto& del = static_cast<const sql::DeleteStmt&>(**parsed);
      auto key = EqualityKey(del.where.get(), key_column);
      if (!key.has_value()) return std::nullopt;
      written_keys.push_back(*key);
      break;
    }
    case sql::StmtKind::kUpdate: {
      const auto& upd = static_cast<const sql::UpdateStmt&>(**parsed);
      for (const auto& [col, expr] : upd.assignments) {
        // Rewriting the key could move the row to another fragment.
        if (ToLower(col) == key_column) return std::nullopt;
      }
      auto key = EqualityKey(upd.where.get(), key_column);
      if (!key.has_value()) return std::nullopt;
      written_keys.push_back(*key);
      break;
    }
    default:
      return std::nullopt;
  }
  if (written_keys.empty()) return std::nullopt;
  std::vector<int> fragments;
  for (int64_t k : written_keys) fragments.push_back(FragmentOf(k));
  std::sort(fragments.begin(), fragments.end());
  fragments.erase(std::unique(fragments.begin(), fragments.end()),
                  fragments.end());
  return fragments;
}

const VirtualPartitionSpace::Member* VirtualPartitionSpace::FindMember(
    const std::string& table) const {
  for (const auto& m : members) {
    if (EqualsIgnoreCase(m.table, table)) return &m;
  }
  return nullptr;
}

bool VirtualPartitionSpace::IsMemberColumn(const std::string& column) const {
  for (const auto& m : members) {
    if (EqualsIgnoreCase(m.column, column)) return true;
  }
  return false;
}

Status DataCatalog::RegisterSpace(VirtualPartitionSpace space) {
  if (space.members.empty()) {
    return Status::InvalidArgument("partition space needs members");
  }
  if (space.min_value > space.max_value) {
    return Status::InvalidArgument("empty key domain");
  }
  for (const auto& m : space.members) {
    if (SpaceForTable(m.table) != nullptr) {
      return Status::AlreadyExists("table " + m.table +
                                   " already in a partition space");
    }
  }
  spaces_.push_back(std::move(space));
  version_.fetch_add(1, std::memory_order_acq_rel);
  return Status::OK();
}

const VirtualPartitionSpace* DataCatalog::SpaceForTable(
    const std::string& table) const {
  for (const auto& s : spaces_) {
    if (s.FindMember(table) != nullptr) return &s;
  }
  return nullptr;
}

Status DataCatalog::UpdateDomain(const std::string& space_name,
                                 int64_t min_value, int64_t max_value) {
  for (auto& s : spaces_) {
    if (EqualsIgnoreCase(s.name, space_name)) {
      if (min_value > max_value) {
        return Status::InvalidArgument("empty key domain");
      }
      s.min_value = min_value;
      s.max_value = max_value;
      version_.fetch_add(1, std::memory_order_acq_rel);
      return Status::OK();
    }
  }
  return Status::NotFound("no partition space " + space_name);
}

Status DataCatalog::RemoveSpace(const std::string& space_name) {
  for (auto it = spaces_.begin(); it != spaces_.end(); ++it) {
    if (EqualsIgnoreCase(it->name, space_name)) {
      for (const auto& m : it->members) {
        if (FragmentationFor(m.table) != nullptr) {
          return Status::InvalidArgument(
              "table " + m.table + " is fragmented; unfragment first");
        }
      }
      spaces_.erase(it);
      version_.fetch_add(1, std::memory_order_acq_rel);
      return Status::OK();
    }
  }
  return Status::NotFound("no partition space " + space_name);
}

Status DataCatalog::SetFragmentation(FragmentationSpec spec,
                                     int cluster_nodes) {
  const VirtualPartitionSpace* space = SpaceForTable(spec.table);
  if (space == nullptr) {
    return Status::InvalidArgument(
        "table " + spec.table +
        " is not in a partition space; fragment it on its VPA after "
        "registering one");
  }
  const auto* member = space->FindMember(spec.table);
  if (!EqualsIgnoreCase(spec.key_column, member->column)) {
    return Status::InvalidArgument(
        "fragmentation key " + spec.key_column + " is not the VPA of " +
        spec.table + " (" + member->column + ")");
  }
  if (spec.fragments < 1) {
    return Status::InvalidArgument("fragment count must be >= 1");
  }
  if (spec.replica_factor < 1) {
    return Status::InvalidArgument("replica factor must be >= 1");
  }
  if (spec.bounds.empty()) {
    spec.bounds.push_back(space->min_value);
    for (const auto& [lo, hi] :
         KeyIntervals(space->min_value, space->max_value, spec.fragments)) {
      (void)lo;
      spec.bounds.push_back(hi);
    }
  }
  if (spec.bounds.size() != static_cast<size_t>(spec.fragments) + 1) {
    return Status::InvalidArgument("fragment bounds/count mismatch");
  }
  if (spec.placement.empty()) {
    if (cluster_nodes < 1) {
      return Status::InvalidArgument("placement needs a cluster size");
    }
    if (spec.replica_factor > cluster_nodes) {
      spec.replica_factor = cluster_nodes;
    }
    for (int f = 0; f < spec.fragments; ++f) {
      std::vector<int> hosts;
      for (int r = 0; r < spec.replica_factor; ++r) {
        hosts.push_back((f + r) % cluster_nodes);
      }
      spec.placement.push_back(std::move(hosts));
    }
  }
  if (spec.placement.size() != static_cast<size_t>(spec.fragments)) {
    return Status::InvalidArgument("placement/fragment count mismatch");
  }
  for (const auto& hosts : spec.placement) {
    if (hosts.empty()) {
      return Status::InvalidArgument("fragment with no host node");
    }
  }
  ClearFragmentation(spec.table);
  fragmentation_.push_back(std::move(spec));
  version_.fetch_add(1, std::memory_order_acq_rel);
  return Status::OK();
}

Status DataCatalog::ClearFragmentation(const std::string& table) {
  for (auto it = fragmentation_.begin(); it != fragmentation_.end(); ++it) {
    if (EqualsIgnoreCase(it->table, table)) {
      fragmentation_.erase(it);
      version_.fetch_add(1, std::memory_order_acq_rel);
      return Status::OK();
    }
  }
  return Status::OK();
}

const FragmentationSpec* DataCatalog::FragmentationFor(
    const std::string& table) const {
  for (const auto& s : fragmentation_) {
    if (EqualsIgnoreCase(s.table, table)) return &s;
  }
  return nullptr;
}

}  // namespace apuama
