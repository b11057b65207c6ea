#include "engine/executor.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <map>
#include <set>
#include <unordered_map>

#include "common/string_util.h"
#include "common/thread_pool.h"
#include "engine/database.h"
#include "engine/vectorized.h"
#include "obs/trace.h"
#include "storage/table.h"

namespace apuama::engine {

using sql::BinaryOp;
using sql::Expr;
using sql::ExprKind;
using sql::SelectStmt;

const char* AccessPathName(AccessPath p) {
  switch (p) {
    case AccessPath::kSeqScan:
      return "SeqScan";
    case AccessPath::kClusteredRange:
      return "ClusteredRange";
    case AccessPath::kSecondaryIndex:
      return "SecondaryIndex";
  }
  return "?";
}

struct Executor::FromBinding {
  std::string binding;           // alias or table name, lower-cased
  const storage::Table* table = nullptr;
};

// One WHERE conjunct as ClassifyWhere sees it.
struct Executor::ConjunctInfo {
  const Expr* expr = nullptr;
  std::set<std::string> bindings;  // FROM bindings referenced
  bool uses_outer = false;         // references an enclosing scope
  bool is_subquery_pred = false;   // EXISTS / IN-subquery node
  // Equi-join sides: set when the conjunct is `lhs = rhs`, it reads
  // no enclosing scope, and each side reads one FROM binding, the two
  // distinct (`lb`, `rb`).
  const Expr* lhs = nullptr;
  const Expr* rhs = nullptr;
  std::string lb, rb;
  bool applied = false;  // ExecuteFromWhere's bookkeeping
};

namespace {

// Hash a key tuple for join hash tables.
struct RowHash {
  size_t operator()(const Row& r) const {
    size_t h = 0x9e3779b9;
    for (const Value& v : r) h = h * 1315423911u + v.Hash();
    return h;
  }
};
struct RowEq {
  bool operator()(const Row& a, const Row& b) const {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i].Compare(b[i]) != 0) return false;
    }
    return true;
  }
};

// A subquery's own FROM tables, masking column refs that belong to
// the inner scope during binding collection.
struct MaskEntry {
  std::string binding;                   // alias or table name
  const storage::Table* table = nullptr; // null if unknown
};

bool ResolvesInMask(const Expr& e, const std::vector<MaskEntry>& mask) {
  for (const auto& m : mask) {
    if (!e.table_qualifier.empty()) {
      if (EqualsIgnoreCase(m.binding, e.table_qualifier)) return true;
    } else if (m.table != nullptr &&
               m.table->schema().FindColumn(e.column_name) >= 0) {
      return true;
    }
  }
  return false;
}

// Which FROM bindings does an expression reference? Descends into
// subqueries (EXISTS / IN / scalar) with the subquery's own tables
// masked, so correlated references back to our FROM are attributed
// correctly. Column refs that resolve nowhere are assumed to come
// from an enclosing scope (correlated subquery) and set *uses_outer.
void CollectBindings(const Expr& e, const storage::Catalog* catalog,
                     const std::function<int(const Expr&)>& attribute,
                     std::set<std::string>* out, bool* uses_outer,
                     const std::vector<std::string>& binding_names,
                     std::vector<MaskEntry>* mask) {
  if (e.kind == ExprKind::kColumnRef) {
    if (ResolvesInMask(e, *mask)) return;  // inner-scope reference
    int idx = attribute(e);
    if (idx >= 0) {
      out->insert(binding_names[static_cast<size_t>(idx)]);
    } else {
      *uses_outer = true;
    }
    return;
  }
  for (const auto& c : e.children) {
    CollectBindings(*c, catalog, attribute, out, uses_outer, binding_names,
                    mask);
  }
  if (e.case_else) {
    CollectBindings(*e.case_else, catalog, attribute, out, uses_outer,
                    binding_names, mask);
  }
  if (e.subquery) {
    size_t mask_base = mask->size();
    for (const auto& ref : e.subquery->from) {
      MaskEntry entry;
      entry.binding = ToLower(ref.binding());
      auto t = catalog->GetTable(ref.table);
      entry.table = t.ok() ? *t : nullptr;
      mask->push_back(std::move(entry));
    }
    auto walk_sub = [&](const sql::ExprPtr& p) {
      if (p) {
        CollectBindings(*p, catalog, attribute, out, uses_outer,
                        binding_names, mask);
      }
    };
    for (const auto& item : e.subquery->items) walk_sub(item.expr);
    walk_sub(e.subquery->where);
    for (const auto& g : e.subquery->group_by) walk_sub(g);
    walk_sub(e.subquery->having);
    for (const auto& o : e.subquery->order_by) walk_sub(o.expr);
    mask->resize(mask_base);
  }
}

void CollectBindings(const Expr& e, const storage::Catalog* catalog,
                     const std::function<int(const Expr&)>& attribute,
                     std::set<std::string>* out, bool* uses_outer,
                     const std::vector<std::string>& binding_names) {
  std::vector<MaskEntry> mask;
  CollectBindings(e, catalog, attribute, out, uses_outer, binding_names,
                  &mask);
}

// Planner page-cost factor for index-driven paths relative to a
// sequential scan (PostgreSQL's random_page_cost=4 vs
// seq_page_cost=1). This is why an optimizer may prefer a full scan
// over the virtual partition's index range — the behaviour Apuama
// suppresses with `SET enable_seqscan = off` (paper section 3).
constexpr double kIndexPageCostFactor = 4.0;

// Evaluates an expression that must not depend on the current table
// (literal or outer-scope reference). Returns error if unresolvable.
Result<Value> EvalOuterOnly(const Expr& e, const EvalScope* outer,
                            uint64_t* cpu) {
  EvalContext ctx;
  ctx.scope = outer;
  ctx.cpu_ops = cpu;
  return Eval(e, ctx);
}

struct Bound {
  bool present = false;
  Value value;
  bool inclusive = true;
};

// Wrapping add via unsigned arithmetic: the two's-complement bits an
// int64 SUM has always produced, with defined behavior when a SUM
// overflows. Every int accumulator (row, vectorized, merge) adds
// through it.
int64_t WrapAdd(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) +
                              static_cast<uint64_t>(b));
}

// Aggregate accumulator.
struct AggAcc {
  double dsum = 0;
  int64_t isum = 0;
  bool any_double = false;
  uint64_t count = 0;        // non-null inputs (or all rows for count(*))
  bool has_value = false;
  Value min_v, max_v;
  std::set<Value> distinct;  // only for DISTINCT aggregates
};

// The MIN/MAX rule of every fold (row, vectorized lane, merge): does
// `v` replace the running extreme `cur`? A NaN compares equal to every
// value, so it is ranked apart: it stands only until any other value
// arrives, and it never replaces one. So a NaN is the MIN/MAX only
// when every non-NULL input is NaN, whatever the fold order. Ties
// (-0.0 and 0.0 among them) keep the earlier value.
bool ReplacesExtreme(const Value& v, const Value& cur, bool is_min) {
  if (cur.is_null()) return true;
  auto is_nan = [](const Value& x) {
    return x.type() == ValueType::kDouble && std::isnan(x.double_val());
  };
  const bool v_nan = is_nan(v);
  const bool cur_nan = is_nan(cur);
  if (v_nan || cur_nan) return cur_nan && !v_nan;
  const int c = v.Compare(cur);
  return is_min ? c < 0 : c > 0;
}

void AggUpdate(AggAcc* acc, const Expr& agg, const Value& v) {
  if (agg.star_arg) {
    ++acc->count;
    return;
  }
  if (v.is_null()) return;
  if (agg.distinct) {
    acc->distinct.insert(v);
    return;
  }
  ++acc->count;
  acc->has_value = true;
  if (agg.func_name == "min") {
    if (ReplacesExtreme(v, acc->min_v, /*is_min=*/true)) acc->min_v = v;
    return;
  }
  if (agg.func_name == "max") {
    if (ReplacesExtreme(v, acc->max_v, /*is_min=*/false)) acc->max_v = v;
    return;
  }
  if (agg.func_name == "sum" || agg.func_name == "avg") {
    if (v.type() == ValueType::kInt64 && !acc->any_double) {
      acc->isum = WrapAdd(acc->isum, v.int_val());
    } else {
      if (!acc->any_double) {
        acc->dsum = static_cast<double>(acc->isum);
        acc->any_double = true;
      }
      auto d = v.AsDouble();
      acc->dsum += d.ok() ? *d : 0;
    }
  }
}

Value AggFinalize(const AggAcc& acc, const Expr& agg) {
  const std::string& f = agg.func_name;
  if (f == "count") {
    if (agg.distinct) return Value::Int(static_cast<int64_t>(acc.distinct.size()));
    return Value::Int(static_cast<int64_t>(acc.count));
  }
  if (agg.distinct) {
    // sum/avg/min/max over DISTINCT values.
    if (acc.distinct.empty()) return Value::Null();
    if (f == "min") return *acc.distinct.begin();
    if (f == "max") return *acc.distinct.rbegin();
    double s = 0;
    for (const Value& v : acc.distinct) {
      auto d = v.AsDouble();
      s += d.ok() ? *d : 0;
    }
    if (f == "sum") return Value::Double(s);
    return Value::Double(s / static_cast<double>(acc.distinct.size()));
  }
  if (!acc.has_value) return Value::Null();
  if (f == "min") return acc.min_v;
  if (f == "max") return acc.max_v;
  if (f == "sum") {
    return acc.any_double ? Value::Double(acc.dsum) : Value::Int(acc.isum);
  }
  if (f == "avg") {
    double s = acc.any_double ? acc.dsum : static_cast<double>(acc.isum);
    return Value::Double(s / static_cast<double>(acc.count));
  }
  return Value::Null();
}

// Folds `src` into `dst` with the same promotion and tie rules
// AggUpdate applies row-by-row: int sums stay int until either side
// saw a double, min/max go through ReplacesExtreme (the earlier value
// wins a tie), DISTINCT sets union. Merging per-morsel partials in
// morsel order therefore yields the same bits regardless of which
// thread produced which partial.
void AggMerge(AggAcc* dst, const AggAcc& src, const Expr& agg) {
  if (agg.star_arg) {
    dst->count += src.count;
    return;
  }
  if (agg.distinct) {
    dst->distinct.insert(src.distinct.begin(), src.distinct.end());
    return;
  }
  dst->count += src.count;
  if (!src.has_value) return;
  dst->has_value = true;
  if (agg.func_name == "min") {
    if (!src.min_v.is_null() &&
        ReplacesExtreme(src.min_v, dst->min_v, /*is_min=*/true)) {
      dst->min_v = src.min_v;
    }
    return;
  }
  if (agg.func_name == "max") {
    if (!src.max_v.is_null() &&
        ReplacesExtreme(src.max_v, dst->max_v, /*is_min=*/false)) {
      dst->max_v = src.max_v;
    }
    return;
  }
  if (agg.func_name == "sum" || agg.func_name == "avg") {
    if (!src.any_double && !dst->any_double) {
      dst->isum = WrapAdd(dst->isum, src.isum);
    } else {
      if (!dst->any_double) {
        dst->dsum = static_cast<double>(dst->isum);
        dst->any_double = true;
      }
      dst->dsum += src.any_double ? src.dsum : static_cast<double>(src.isum);
    }
  }
}

// One group's accumulated state: a copy of the group's first input
// row (for evaluating non-aggregate expressions) + one accumulator
// per aggregate node.
struct AggGroup {
  Row repr;
  std::vector<AggAcc> accs;
};
// Groups ordered by key so finalization order is deterministic.
using GroupMap = std::map<Row, AggGroup, storage::KeyLess>;

// Folds the row under ctx's scope into `grp`: every aggregate argument
// is evaluated row-wise and applied through AggUpdate, one op each.
Status FoldRow(const std::vector<const Expr*>& agg_nodes,
               const EvalContext& ctx, AggGroup* grp) {
  for (size_t ai = 0; ai < agg_nodes.size(); ++ai) {
    const Expr& agg = *agg_nodes[ai];
    ++*ctx.cpu_ops;
    if (agg.star_arg) {
      AggUpdate(&grp->accs[ai], agg, Value::Null());
    } else {
      APUAMA_ASSIGN_OR_RETURN(Value v, Eval(*agg.children[0], ctx));
      AggUpdate(&grp->accs[ai], agg, v);
    }
  }
  return Status::OK();
}

// The NULL-key rule of every equi-join: evaluates each of `exprs`
// into *key (all of them, so the charge does not depend on where a
// NULL sits) and returns false when the key holds a NULL, which never
// matches.
Result<bool> EvalJoinKey(const std::vector<const Expr*>& exprs,
                         const EvalContext& ctx, Row* key) {
  key->clear();
  key->reserve(exprs.size());
  bool matchable = true;
  for (const Expr* e : exprs) {
    APUAMA_ASSIGN_OR_RETURN(Value v, Eval(*e, ctx));
    if (v.is_null()) matchable = false;
    key->push_back(std::move(v));
  }
  return matchable;
}

bool ExprHasSubquery(const Expr& e) {
  if (e.subquery != nullptr) return true;
  for (const auto& c : e.children) {
    if (ExprHasSubquery(*c)) return true;
  }
  return e.case_else != nullptr && ExprHasSubquery(*e.case_else);
}

// True when a clause other than WHERE holds a subquery.
bool ClausesHaveSubquery(const SelectStmt& s) {
  for (const auto& item : s.items) {
    if (item.expr && ExprHasSubquery(*item.expr)) return true;
  }
  for (const auto& g : s.group_by) {
    if (ExprHasSubquery(*g)) return true;
  }
  if (s.having && ExprHasSubquery(*s.having)) return true;
  for (const auto& o : s.order_by) {
    if (ExprHasSubquery(*o.expr)) return true;
  }
  return false;
}

bool StmtHasSubquery(const SelectStmt& s) {
  return ClausesHaveSubquery(s) || (s.where && ExprHasSubquery(*s.where));
}

// True when the statement groups or aggregates: such statements go
// through aggregation, and only they may take a morsel pipeline.
bool StmtHasAggregation(const SelectStmt& stmt) {
  if (!stmt.group_by.empty()) return true;
  for (const auto& it : stmt.items) {
    if (it.expr && sql::ContainsAggregate(*it.expr)) return true;
  }
  if (stmt.having && sql::ContainsAggregate(*stmt.having)) return true;
  for (const auto& o : stmt.order_by) {
    if (sql::ContainsAggregate(*o.expr)) return true;
  }
  return false;
}

// Rows per intra-node scan morsel. The decomposition is page-aligned
// (Table::Morsels) and depends only on table contents, never on the
// thread count.
constexpr size_t kMorselRows = 1024;

// Width of a morsel region: exec_threads, capped by the morsel count.
size_t MorselWidth(int exec_threads, size_t morsels) {
  if (morsels == 0) return 1;
  return std::min<size_t>(static_cast<size_t>(std::max(exec_threads, 1)),
                          morsels);
}

// Hash partitions of a morsel join's build side (its rows, hash table
// and semi-join filter). Fixed (never thread-dependent) so the
// decomposition and all accounting are identical at every thread
// count.
constexpr size_t kMergePartitions = 16;

// Collects aggregate call nodes reachable without crossing a subquery.
void CollectAggNodes(const Expr& e, std::vector<const Expr*>* out) {
  if (e.kind == ExprKind::kFuncCall && sql::IsAggregateFunction(e.func_name)) {
    out->push_back(&e);
    return;  // nested aggregates are invalid; do not descend
  }
  for (const auto& c : e.children) CollectAggNodes(*c, out);
  if (e.case_else) CollectAggNodes(*e.case_else, out);
}

// Aggregate-node inventory across all output clauses, in the fixed
// clause order every aggregation path shares (items, HAVING, ORDER
// BY) so accumulator indices line up between build and finalize.
std::vector<const Expr*> CollectAggInventory(const SelectStmt& stmt) {
  std::vector<const Expr*> agg_nodes;
  for (const auto& it : stmt.items) {
    if (it.expr) CollectAggNodes(*it.expr, &agg_nodes);
  }
  if (stmt.having) CollectAggNodes(*stmt.having, &agg_nodes);
  for (const auto& o : stmt.order_by) CollectAggNodes(*o.expr, &agg_nodes);
  return agg_nodes;
}

// Hard ceiling for up-front join-output reservations (satellite of the
// morsel-join work): a pathological cross join must not turn a size
// hint into a multi-gigabyte allocation before producing a single row.
constexpr size_t kMaxJoinReserveRows = size_t{1} << 20;

// Build-side semi-join filter pushed into the probe scan: a fixed
// 2^16-bit bitmap per hash partition testing two independent bit
// positions derived from the join-key hash. One partition is built by
// exactly one merge task, so construction needs no synchronization,
// and probes consult it read-only. False positives only cost a probe;
// false negatives are impossible, so skipping on a miss is exact.
class KeyFilter {
 public:
  void Add(size_t h) {
    Set(Bit1(h));
    Set(Bit2(h));
  }
  bool MayContain(size_t h) const { return Test(Bit1(h)) && Test(Bit2(h)); }

 private:
  static constexpr size_t kBits = size_t{1} << 16;
  // Skip the low bits: they pick the partition, so within one
  // partition they carry no information.
  static size_t Bit1(size_t h) { return (h >> 4) & (kBits - 1); }
  static size_t Bit2(size_t h) { return (h >> 24) & (kBits - 1); }
  void Set(size_t b) { words_[b >> 6] |= uint64_t{1} << (b & 63); }
  bool Test(size_t b) const { return (words_[b >> 6] >> (b & 63)) & 1; }

  std::array<uint64_t, kBits / 64> words_{};
};

}  // namespace

size_t JoinReserveHint(size_t left, size_t right) {
  if (left == 0 || right == 0) return 0;
  // left * right would overflow or exceed the cap.
  if (left > kMaxJoinReserveRows / right) return kMaxJoinReserveRows;
  return left * right;
}

// ---------------------------------------------------------------------------
// FROM/WHERE pipeline
// ---------------------------------------------------------------------------

Status Executor::ClassifyWhere(const SelectStmt& stmt,
                               std::vector<FromBinding>* from,
                               std::vector<ConjunctInfo>* conjuncts) const {
  std::vector<std::string> binding_names;
  for (const auto& ref : stmt.from) {
    APUAMA_ASSIGN_OR_RETURN(const storage::Table* t,
                            static_cast<const storage::Catalog*>(
                                db_->catalog())
                                ->GetTable(ref.table));
    from->push_back(FromBinding{ToLower(ref.binding()), t});
    binding_names.push_back(from->back().binding);
  }

  // Attribute a column ref to a FROM binding (or -1 = outer/unknown).
  auto attribute = [&](const Expr& e) -> int {
    if (!e.table_qualifier.empty()) {
      for (size_t i = 0; i < from->size(); ++i) {
        if (EqualsIgnoreCase((*from)[i].binding, e.table_qualifier)) {
          return static_cast<int>(i);
        }
      }
      return -1;
    }
    int found = -1;
    for (size_t i = 0; i < from->size(); ++i) {
      if ((*from)[i].table->schema().FindColumn(e.column_name) >= 0) {
        if (found >= 0) return found;  // ambiguous: first wins for
                                       // placement; eval will error
        found = static_cast<int>(i);
      }
    }
    return found;
  };
  auto collect = [&](const Expr& e, std::set<std::string>* out,
                     bool* uses_outer) {
    CollectBindings(e, db_->catalog(), attribute, out, uses_outer,
                    binding_names);
  };

  for (const Expr* c : sql::SplitConjuncts(stmt.where.get())) {
    ConjunctInfo info;
    info.expr = c;
    info.is_subquery_pred =
        c->kind == ExprKind::kExists || c->kind == ExprKind::kInSubquery;
    if (!info.is_subquery_pred) {
      collect(*c, &info.bindings, &info.uses_outer);
    } else if (c->kind == ExprKind::kInSubquery) {
      collect(*c->children[0], &info.bindings, &info.uses_outer);
    }
    if (!info.is_subquery_pred && !info.uses_outer &&
        info.bindings.size() == 2 && c->kind == ExprKind::kBinary &&
        c->binary_op == BinaryOp::kEq) {
      std::set<std::string> lb, rb;
      bool outer_ref = false;  // cannot be set: the whole reads no outer
      collect(*c->children[0], &lb, &outer_ref);
      collect(*c->children[1], &rb, &outer_ref);
      if (lb.size() == 1 && rb.size() == 1 && *lb.begin() != *rb.begin()) {
        info.lhs = c->children[0].get();
        info.rhs = c->children[1].get();
        info.lb = *lb.begin();
        info.rb = *rb.begin();
      }
    }
    conjuncts->push_back(std::move(info));
  }
  return Status::OK();
}

Result<Relation> Executor::ExecuteFromWhere(const SelectStmt& stmt,
                                            const EvalScope* outer) {
  if (stmt.from.empty()) {
    // One empty row (e.g. SELECT 1), kept only when every WHERE
    // conjunct is true on it, the outer scope included.
    Relation rel;
    rel.rows.push_back(Row{});
    ColumnResolver resolver(&rel);
    EvalScope scope{&resolver, &rel.rows[0], outer};
    EvalContext ctx;
    ctx.scope = &scope;
    ctx.executor = this;
    ctx.cpu_ops = &stats_->cpu_ops;
    for (const Expr* c : sql::SplitConjuncts(stmt.where.get())) {
      APUAMA_ASSIGN_OR_RETURN(Value v, Eval(*c, ctx));
      if (Truthiness(v) != 1) {
        rel.rows.clear();
        break;
      }
    }
    return rel;
  }
  std::vector<FromBinding> from;
  std::vector<ConjunctInfo> conjuncts;
  APUAMA_RETURN_NOT_OK(ClassifyWhere(stmt, &from, &conjuncts));

  // Scan each table with its single-table predicates.
  std::vector<Relation> rels(from.size());
  std::vector<std::set<std::string>> rel_bindings(from.size());
  for (size_t i = 0; i < from.size(); ++i) {
    std::vector<const Expr*> preds;
    for (auto& c : conjuncts) {
      if (c.is_subquery_pred || c.applied) continue;
      if (c.bindings.size() == 1 && *c.bindings.begin() == from[i].binding) {
        preds.push_back(c.expr);
        c.applied = true;
      }
    }
    APUAMA_ASSIGN_OR_RETURN(rels[i], ScanTable(from[i], preds, outer));
    rel_bindings[i] = {from[i].binding};
  }

  // Equality join predicates between two bindings; each is applied
  // by the join that covers its second binding.
  std::vector<ConjunctInfo*> join_preds;
  for (auto& c : conjuncts) {
    if (c.lhs != nullptr) join_preds.push_back(&c);
  }

  // Greedy join order: start with the smallest relation; repeatedly
  // join the smallest relation connected by an equality predicate
  // (falling back to the smallest remaining = cross join).
  std::vector<bool> merged(from.size(), false);
  size_t cur = 0;
  for (size_t i = 1; i < from.size(); ++i) {
    if (rels[i].rows.size() < rels[cur].rows.size()) cur = i;
  }
  Relation current = std::move(rels[cur]);
  std::set<std::string> cur_bindings = rel_bindings[cur];
  merged[cur] = true;
  size_t remaining = from.size() - 1;

  auto apply_residuals = [&](Relation* rel) -> Status {
    for (auto& c : conjuncts) {
      if (c.applied || c.is_subquery_pred || c.lhs != nullptr) continue;
      bool covered = true;
      for (const auto& b : c.bindings) {
        if (!cur_bindings.count(b)) {
          covered = false;
          break;
        }
      }
      if (!covered) continue;
      c.applied = true;
      ColumnResolver resolver(rel);
      EvalScope scope{&resolver, nullptr, outer};
      EvalContext ctx;
      ctx.scope = &scope;
      ctx.executor = this;
      ctx.cpu_ops = &stats_->cpu_ops;
      std::vector<Row> kept;
      kept.reserve(rel->rows.size());
      for (Row& r : rel->rows) {
        scope.row = &r;
        APUAMA_ASSIGN_OR_RETURN(Value v, Eval(*c.expr, ctx));
        if (Truthiness(v) == 1) kept.push_back(std::move(r));
      }
      rel->rows = std::move(kept);
    }
    return Status::OK();
  };
  APUAMA_RETURN_NOT_OK(apply_residuals(&current));

  while (remaining > 0) {
    // Candidate: connected by at least one join pred.
    int best = -1;
    bool best_connected = false;
    for (size_t i = 0; i < from.size(); ++i) {
      if (merged[i]) continue;
      bool connected = false;
      for (const ConjunctInfo* jp : join_preds) {
        if (jp->applied) continue;
        bool l_in = cur_bindings.count(jp->lb) > 0;
        bool r_in = cur_bindings.count(jp->rb) > 0;
        const std::string& b = from[i].binding;
        if ((l_in && jp->rb == b) || (r_in && jp->lb == b)) {
          connected = true;
          break;
        }
      }
      if (best < 0 ||
          (connected && !best_connected) ||
          (connected == best_connected &&
           rels[i].rows.size() < rels[static_cast<size_t>(best)].rows.size())) {
        best = static_cast<int>(i);
        best_connected = connected;
      }
    }
    size_t next = static_cast<size_t>(best);

    // Gather the equality keys connecting current <-> next.
    std::vector<const Expr*> cur_keys, next_keys;
    for (ConjunctInfo* jp : join_preds) {
      if (jp->applied) continue;
      const std::string& b = from[next].binding;
      if (cur_bindings.count(jp->lb) && jp->rb == b) {
        cur_keys.push_back(jp->lhs);
        next_keys.push_back(jp->rhs);
        jp->applied = true;
      } else if (cur_bindings.count(jp->rb) && jp->lb == b) {
        cur_keys.push_back(jp->rhs);
        next_keys.push_back(jp->lhs);
        jp->applied = true;
      }
    }

    Relation& right = rels[next];
    Relation joined;
    joined.columns = current.columns;
    joined.columns.insert(joined.columns.end(), right.columns.begin(),
                          right.columns.end());

    if (!cur_keys.empty()) {
      // Hash join: build on the smaller input.
      const bool build_right = right.rows.size() <= current.rows.size();
      Relation& build = build_right ? right : current;
      Relation& probe = build_right ? current : right;
      const std::vector<const Expr*>& build_keys =
          build_right ? next_keys : cur_keys;
      const std::vector<const Expr*>& probe_keys =
          build_right ? cur_keys : next_keys;

      ColumnResolver bres(&build);
      EvalScope bscope{&bres, nullptr, outer};
      EvalContext bctx;
      bctx.scope = &bscope;
      bctx.cpu_ops = &stats_->cpu_ops;
      std::unordered_multimap<Row, size_t, RowHash, RowEq> ht;
      ht.reserve(build.rows.size());
      for (size_t i = 0; i < build.rows.size(); ++i) {
        bscope.row = &build.rows[i];
        Row key;
        APUAMA_ASSIGN_OR_RETURN(bool matchable,
                                EvalJoinKey(build_keys, bctx, &key));
        if (matchable) ht.emplace(std::move(key), i);
      }
      ColumnResolver pres(&probe);
      EvalScope pscope{&pres, nullptr, outer};
      EvalContext pctx;
      pctx.scope = &pscope;
      pctx.cpu_ops = &stats_->cpu_ops;
      Row key;
      for (const Row& prow : probe.rows) {
        pscope.row = &prow;
        APUAMA_ASSIGN_OR_RETURN(bool matchable,
                                EvalJoinKey(probe_keys, pctx, &key));
        if (!matchable) continue;
        auto [lo, hi] = ht.equal_range(key);
        for (auto it = lo; it != hi; ++it) {
          ++stats_->cpu_ops;
          const Row& brow = build.rows[it->second];
          Row out;
          out.reserve(joined.columns.size());
          const Row& cur_row = build_right ? prow : brow;
          const Row& right_row = build_right ? brow : prow;
          out.insert(out.end(), cur_row.begin(), cur_row.end());
          out.insert(out.end(), right_row.begin(), right_row.end());
          joined.rows.push_back(std::move(out));
        }
      }
    } else {
      // Cross join.
      joined.rows.reserve(
          JoinReserveHint(current.rows.size(), right.rows.size()));
      for (const Row& a : current.rows) {
        for (const Row& b : right.rows) {
          ++stats_->cpu_ops;
          Row out;
          out.reserve(a.size() + b.size());
          out.insert(out.end(), a.begin(), a.end());
          out.insert(out.end(), b.begin(), b.end());
          joined.rows.push_back(std::move(out));
        }
      }
    }
    current = std::move(joined);
    cur_bindings.insert(from[next].binding);
    merged[next] = true;
    --remaining;
    APUAMA_RETURN_NOT_OK(apply_residuals(&current));
  }

  // Subquery predicates (EXISTS / IN) last, over the full join result.
  for (auto& c : conjuncts) {
    if (!c.is_subquery_pred) continue;
    APUAMA_ASSIGN_OR_RETURN(
        current, ApplySubqueryPredicate(std::move(current), *c.expr, outer));
  }
  // Any non-subquery conjunct left unapplied references unknown names.
  for (auto& c : conjuncts) {
    if (!c.applied && !c.is_subquery_pred && !c.uses_outer) {
      return Status::BindError("predicate references unknown tables");
    }
    if (!c.applied && !c.is_subquery_pred && c.uses_outer) {
      // Outer-correlated residual: evaluate with the outer scope.
      ColumnResolver resolver(&current);
      EvalScope scope{&resolver, nullptr, outer};
      EvalContext ctx;
      ctx.scope = &scope;
      ctx.executor = this;
      ctx.cpu_ops = &stats_->cpu_ops;
      std::vector<Row> kept;
      for (Row& r : current.rows) {
        scope.row = &r;
        APUAMA_ASSIGN_OR_RETURN(Value v, Eval(*c.expr, ctx));
        if (Truthiness(v) == 1) kept.push_back(std::move(r));
      }
      current.rows = std::move(kept);
      c.applied = true;
    }
  }
  return current;
}

// ---------------------------------------------------------------------------
// Table scans with access-path choice
// ---------------------------------------------------------------------------

Result<Executor::ScanPlan> Executor::PlanScan(
    const FromBinding& fb, const std::vector<const Expr*>& preds,
    const EvalScope* outer) {
  const storage::Table& t = *fb.table;

  // Extract sargable bounds per column: conjuncts of shape
  // <col> op <outer-evaluable expr>, or BETWEEN.
  struct ColBounds {
    Bound lo, hi;
    bool eq = false;
  };
  std::map<int, ColBounds> bounds;  // column index -> bounds
  auto column_of = [&](const Expr& e) -> int {
    if (e.kind != ExprKind::kColumnRef) return -1;
    if (!e.table_qualifier.empty() &&
        !EqualsIgnoreCase(e.table_qualifier, fb.binding)) {
      return -1;
    }
    return t.schema().FindColumn(e.column_name);
  };
  for (const Expr* p : preds) {
    if (p->kind == ExprKind::kBetween) {
      int col = column_of(*p->children[0]);
      if (col < 0 || p->negated) continue;
      auto lo = EvalOuterOnly(*p->children[1], outer, &stats_->cpu_ops);
      auto hi = EvalOuterOnly(*p->children[2], outer, &stats_->cpu_ops);
      if (!lo.ok() || !hi.ok()) continue;
      ColBounds& cb = bounds[col];
      if (!cb.lo.present || lo->Compare(cb.lo.value) > 0) {
        cb.lo = Bound{true, *lo, true};
      }
      if (!cb.hi.present || hi->Compare(cb.hi.value) < 0) {
        cb.hi = Bound{true, *hi, true};
      }
      continue;
    }
    if (p->kind != ExprKind::kBinary || !sql::IsComparison(p->binary_op)) {
      continue;
    }
    int col = column_of(*p->children[0]);
    const Expr* other = p->children[1].get();
    BinaryOp op = p->binary_op;
    if (col < 0) {
      // literal op col — mirror the operator.
      col = column_of(*p->children[1]);
      other = p->children[0].get();
      switch (op) {
        case BinaryOp::kLt:
          op = BinaryOp::kGt;
          break;
        case BinaryOp::kLtEq:
          op = BinaryOp::kGtEq;
          break;
        case BinaryOp::kGt:
          op = BinaryOp::kLt;
          break;
        case BinaryOp::kGtEq:
          op = BinaryOp::kLtEq;
          break;
        default:
          break;
      }
    }
    if (col < 0) continue;
    auto v = EvalOuterOnly(*other, outer, &stats_->cpu_ops);
    if (!v.ok() || v->is_null()) continue;
    ColBounds& cb = bounds[col];
    switch (op) {
      case BinaryOp::kEq:
        cb.eq = true;
        cb.lo = Bound{true, *v, true};
        cb.hi = Bound{true, *v, true};
        break;
      case BinaryOp::kLt:
        if (!cb.hi.present || v->Compare(cb.hi.value) < 0) {
          cb.hi = Bound{true, *v, false};
        }
        break;
      case BinaryOp::kLtEq:
        if (!cb.hi.present || v->Compare(cb.hi.value) < 0) {
          cb.hi = Bound{true, *v, true};
        }
        break;
      case BinaryOp::kGt:
        if (!cb.lo.present || v->Compare(cb.lo.value) > 0) {
          cb.lo = Bound{true, *v, false};
        }
        break;
      case BinaryOp::kGtEq:
        if (!cb.lo.present || v->Compare(cb.lo.value) > 0) {
          cb.lo = Bound{true, *v, true};
        }
        break;
      default:
        break;
    }
  }

  // Candidate paths. Costs are in page units; index-driven paths are
  // charged kIndexPageCostFactor per page, like a real optimizer
  // penalizing non-sequential I/O.
  const size_t seq_pages = t.num_pages();
  ScanPlan plan;
  plan.range_end = t.num_rows();
  AccessPath& path = plan.path;
  size_t& range_begin = plan.range_begin;
  size_t& range_end = plan.range_end;
  std::vector<size_t>& index_positions = plan.index_positions;
  double best_cost = seq_pages == 0 ? 1.0 : static_cast<double>(seq_pages);
  bool have_alt = false;

  // Clustered range on the first clustered-key column.
  if (!t.clustered_key().empty()) {
    auto it = bounds.find(t.clustered_key()[0]);
    if (it != bounds.end() &&
        (it->second.lo.present || it->second.hi.present)) {
      auto [b, e] = t.ClusteredRange(
          it->second.lo.present ? &it->second.lo.value : nullptr,
          it->second.lo.inclusive,
          it->second.hi.present ? &it->second.hi.value : nullptr,
          it->second.hi.inclusive);
      size_t rpp = t.rows_per_page();
      size_t pages = b >= e ? 0 : (e - 1) / rpp - b / rpp + 1;
      double cost = (pages == 0 ? 1.0 : static_cast<double>(pages)) *
                    kIndexPageCostFactor;
      have_alt = true;
      if (cost < best_cost || !db_->settings()->enable_seqscan) {
        best_cost = cost;
        path = AccessPath::kClusteredRange;
        range_begin = b;
        range_end = e;
      }
    }
  }

  // Secondary index on any bounded column.
  if (path != AccessPath::kClusteredRange) {
    for (const auto& [col, cb] : bounds) {
      const storage::Index* idx = t.FindIndexOnColumn(col);
      if (idx == nullptr) continue;
      if (!cb.lo.present && !cb.hi.present) continue;
      std::vector<const Row*> pks = idx->LookupRange(
          cb.lo.present ? &cb.lo.value : nullptr, cb.lo.inclusive,
          cb.hi.present ? &cb.hi.value : nullptr, cb.hi.inclusive);
      stats_->cpu_ops += pks.size();
      // Index entries name rows by clustered-key tuple, which is empty
      // without a clustered key and need not be unique: resolve each
      // distinct tuple to every row sharing it whose indexed column is
      // within the bounds. Distinct tuples own disjoint heap ranges, so
      // the positions come out duplicate-free.
      const storage::KeyLess key_less;
      std::sort(pks.begin(), pks.end(),
                [&](const Row* a, const Row* b) { return key_less(*a, *b); });
      pks.erase(std::unique(pks.begin(), pks.end(),
                            [&](const Row* a, const Row* b) {
                              return !key_less(*a, *b) && !key_less(*b, *a);
                            }),
                pks.end());
      auto in_bounds = [&b = cb](const Value& v) {
        if (b.lo.present) {
          const int c = v.Compare(b.lo.value);
          if (c < 0 || (c == 0 && !b.lo.inclusive)) return false;
        }
        if (b.hi.present) {
          const int c = v.Compare(b.hi.value);
          if (c > 0 || (c == 0 && !b.hi.inclusive)) return false;
        }
        return true;
      };
      std::vector<size_t> positions;
      positions.reserve(pks.size());
      for (const Row* pk : pks) {
        const auto [begin, end] = t.KeyRange(*pk);
        for (size_t pos = begin; pos < end; ++pos) {
          if (in_bounds(t.row(pos)[static_cast<size_t>(col)])) {
            positions.push_back(pos);
          }
        }
      }
      // Cost: one (possibly random) page per matching row, deduped
      // after sorting positions — a bitmap heap scan.
      std::sort(positions.begin(), positions.end());
      size_t rpp = t.rows_per_page();
      size_t pages = 0;
      size_t last_page = SIZE_MAX;
      for (size_t pos : positions) {
        size_t pg = pos / rpp;
        if (pg != last_page) {
          ++pages;
          last_page = pg;
        }
      }
      double cost = (pages == 0 ? 1.0 : static_cast<double>(pages)) *
                    kIndexPageCostFactor;
      have_alt = true;
      if (cost < best_cost ||
          (!db_->settings()->enable_seqscan &&
           path == AccessPath::kSeqScan)) {
        best_cost = cost;
        path = AccessPath::kSecondaryIndex;
        index_positions = std::move(positions);
      }
    }
  }
  (void)have_alt;

  scan_paths_.emplace_back(fb.binding, path);
  if (path == AccessPath::kSeqScan) {
    stats_->used_seq_scan = true;
  } else {
    stats_->used_index_scan = true;
  }
  return plan;
}

template <typename Visit>
Status Executor::WalkScan(const storage::Table& t, const ScanPlan& plan,
                          Visit&& visit) {
  const bool indexed = plan.path == AccessPath::kSecondaryIndex;
  const size_t n = indexed ? plan.index_positions.size()
                           : plan.range_end - plan.range_begin;
  const size_t rpp = t.rows_per_page();
  size_t page_end = 0;  // first position past the page the walk is on
  for (size_t j = 0; j < n; ++j) {
    const size_t pos = indexed ? plan.index_positions[j] : plan.range_begin + j;
    if (pos >= page_end) {
      // Positions ascend in every plan, so the walk enters a page here.
      page_end = (pos / rpp + 1) * rpp;
      const bool hit = db_->buffer_pool()->Touch(t.PageOfPosition(pos));
      ++(hit ? stats_->pages_cache : stats_->pages_disk);
    }
    APUAMA_RETURN_NOT_OK(visit(pos));
  }
  return Status::OK();
}

namespace {

// The row layout of a scan of `fb`: its table's columns under its
// binding.
Relation ScanHeader(const Executor::FromBinding& fb) {
  Relation rel;
  rel.columns.reserve(fb.table->schema().num_columns());
  for (const auto& col : fb.table->schema().columns()) {
    rel.columns.push_back(ColumnBinding{fb.binding, col.name});
  }
  return rel;
}

}  // namespace

template <typename Keep>
Status Executor::FilterScan(const FromBinding& fb,
                            const std::vector<const Expr*>& preds,
                            const EvalScope* outer, Keep&& keep) {
  APUAMA_ASSIGN_OR_RETURN(ScanPlan plan, PlanScan(fb, preds, outer));
  // The path is an optimization, not a filter replacement: every
  // predicate is still checked on every row the walk touches.
  const Relation header = ScanHeader(fb);
  ColumnResolver resolver(&header);
  EvalScope scope{&resolver, nullptr, outer};
  EvalContext ctx;
  ctx.scope = &scope;
  ctx.executor = this;
  ctx.cpu_ops = &stats_->cpu_ops;
  return WalkScan(*fb.table, plan, [&](size_t pos) -> Status {
    ++stats_->tuples_scanned;
    scope.row = &fb.table->row(pos);
    for (const Expr* p : preds) {
      APUAMA_ASSIGN_OR_RETURN(Value v, Eval(*p, ctx));
      if (Truthiness(v) != 1) return Status::OK();
    }
    keep(pos);
    return Status::OK();
  });
}

Result<Relation> Executor::ScanTable(const FromBinding& fb,
                                     const std::vector<const Expr*>& preds,
                                     const EvalScope* outer) {
  Relation rel = ScanHeader(fb);
  APUAMA_RETURN_NOT_OK(FilterScan(fb, preds, outer, [&](size_t pos) {
    rel.rows.push_back(fb.table->row(pos));
  }));
  return rel;
}

Result<std::vector<size_t>> Executor::MatchWrite(const storage::Table& table,
                                                 const Expr* where) {
  const FromBinding fb{ToLower(table.name()), &table};
  std::vector<size_t> positions;
  APUAMA_RETURN_NOT_OK(
      FilterScan(fb, sql::SplitConjuncts(where), nullptr,
                 [&](size_t pos) { positions.push_back(pos); }));
  return positions;
}

// ---------------------------------------------------------------------------
// EXISTS / IN subquery predicates
// ---------------------------------------------------------------------------

namespace {

// True when a subquery's result depends on more than its FROM+WHERE
// (grouping, aggregates, DISTINCT, LIMIT): such subqueries must run
// through full SELECT semantics, not the decorrelated fast path.
bool SubqueryAggregates(const SelectStmt& sub) {
  if (!sub.group_by.empty() || sub.having != nullptr || sub.distinct ||
      sub.limit >= 0) {
    return true;
  }
  for (const auto& item : sub.items) {
    if (item.expr && sql::ContainsAggregate(*item.expr)) return true;
  }
  return false;
}

// The WHERE of a non-aggregating EXISTS / IN subquery `e`, split
// against `outer`, the layout of the rows its predicate filters:
// conjuncts that read only the subquery's tables (`sub_tables`, in
// FROM order), correlated equalities between a pure-outer and a
// pure-inner side (`outer_keys[i] = inner_keys[i]`, in WHERE order,
// then an IN's own pair) and every other correlated conjunct.
// `decorrelatable` is false when a conjunct names a column neither
// side resolves or nests a subquery.
struct SubqueryWhere {
  bool decorrelatable = true;
  std::vector<const Expr*> inner_only;
  std::vector<const Expr*> outer_keys, inner_keys;
  std::vector<const Expr*> residual;
};

SubqueryWhere SplitSubqueryWhere(
    const Expr& e, const std::vector<const storage::Table*>& sub_tables,
    const Relation& outer) {
  const SelectStmt& sub = *e.subquery;
  std::vector<std::string> sub_bindings;
  for (const auto& r : sub.from) sub_bindings.push_back(ToLower(r.binding()));
  // Attribute columns either to the subquery's FROM bindings or to
  // the outer relation.
  auto side_of = [&](const Expr& x, bool* inner, bool* outer_side,
                     bool* unknown) {
    std::function<void(const Expr&)> walk = [&](const Expr& n) {
      if (n.kind == ExprKind::kColumnRef) {
        // Inner?
        if (!n.table_qualifier.empty()) {
          for (const auto& b : sub_bindings) {
            if (EqualsIgnoreCase(b, n.table_qualifier)) {
              *inner = true;
              return;
            }
          }
        } else {
          for (const auto* t : sub_tables) {
            if (t->schema().FindColumn(n.column_name) >= 0) {
              *inner = true;
              return;
            }
          }
        }
        // Outer relation?
        int slot = outer.FindSlot(n.table_qualifier, n.column_name);
        if (slot >= 0) {
          *outer_side = true;
          return;
        }
        *unknown = true;
        return;
      }
      for (const auto& c : n.children) walk(*c);
      if (n.case_else) walk(*n.case_else);
      if (n.subquery) *unknown = true;  // nested subquery: fallback
    };
    walk(x);
  };

  // Correlated equalities pair an outer-side key with an inner-side
  // key.
  SubqueryWhere sw;
  for (const Expr* c : sql::SplitConjuncts(sub.where.get())) {
    bool inner = false, outer_side = false, unknown = false;
    side_of(*c, &inner, &outer_side, &unknown);
    if (unknown) {
      sw.decorrelatable = false;
      return sw;
    }
    if (!outer_side) {
      sw.inner_only.push_back(c);
      continue;
    }
    // Correlated. Equality between a pure-inner side and a
    // pure-outer side becomes a hash key; anything else is residual.
    if (c->kind == ExprKind::kBinary && c->binary_op == BinaryOp::kEq) {
      bool li = false, lo_ = false, lu = false;
      bool ri = false, ro = false, ru = false;
      side_of(*c->children[0], &li, &lo_, &lu);
      side_of(*c->children[1], &ri, &ro, &ru);
      if (!lu && !ru) {
        if (li && !lo_ && ro && !ri) {
          sw.outer_keys.push_back(c->children[1].get());
          sw.inner_keys.push_back(c->children[0].get());
          continue;
        }
        if (ri && !ro && lo_ && !li) {
          sw.outer_keys.push_back(c->children[0].get());
          sw.inner_keys.push_back(c->children[1].get());
          continue;
        }
      }
    }
    sw.residual.push_back(c);
  }
  if (e.kind == ExprKind::kInSubquery) {
    // The IN pair: lhs must equal the single inner select item.
    sw.outer_keys.push_back(e.children[0].get());
    sw.inner_keys.push_back(sub.items[0].expr.get());
  }
  return sw;
}

}  // namespace

Result<Relation> Executor::ApplySubqueryPredicate(Relation rel,
                                                  const Expr& e,
                                                  const EvalScope* outer) {
  const SelectStmt& sub = *e.subquery;
  const bool negated = e.negated;
  bool aggregating = SubqueryAggregates(sub);

  // Aggregating subqueries (e.g. TPC-H Q18's IN over a grouped
  // HAVING) cannot be decorrelated into a semi-join over raw rows.
  // When such a subquery is *uncorrelated*, evaluate it once with
  // full SELECT semantics and filter by set membership; correlated
  // ones fall back to per-row evaluation.
  if (aggregating && e.kind == ExprKind::kInSubquery &&
      sub.items.size() == 1 && !sub.items[0].star) {
    auto once = ExecuteSelect(sub, /*outer=*/nullptr);
    if (once.ok()) {
      std::set<Value> members;
      bool contains_null = false;
      for (const Row& r : once->rows) {
        if (r[0].is_null()) {
          contains_null = true;
        } else {
          members.insert(r[0]);
        }
      }
      ColumnResolver resolver(&rel);
      EvalScope scope{&resolver, nullptr, outer};
      EvalContext ctx;
      ctx.scope = &scope;
      ctx.executor = this;
      ctx.cpu_ops = &stats_->cpu_ops;
      std::vector<Row> kept;
      kept.reserve(rel.rows.size());
      for (Row& r : rel.rows) {
        scope.row = &r;
        APUAMA_ASSIGN_OR_RETURN(Value v, Eval(*e.children[0], ctx));
        ++stats_->cpu_ops;
        bool keep;
        if (v.is_null()) {
          keep = false;  // NULL IN (...) is never true/false-kept
        } else if (members.count(v) > 0) {
          keep = !negated;
        } else if (contains_null) {
          keep = false;  // unknown under three-valued logic
        } else {
          keep = negated;
        }
        if (keep) kept.push_back(std::move(r));
      }
      rel.rows = std::move(kept);
      return rel;
    }
    // BindError etc.: correlated — handled per row below.
  }
  if (aggregating) goto per_row_fallback;

  // IN-subquery with extra semantics: lhs must equal the single inner
  // select item. NOT IN falls back to per-row evaluation for correct
  // NULL semantics.
  if (e.kind == ExprKind::kInSubquery &&
      (negated || sub.items.size() != 1 || sub.items[0].star)) {
    goto per_row_fallback;
  }

  {
    std::vector<const storage::Table*> sub_tables;
    for (const auto& r : sub.from) {
      auto t = db_->catalog()->GetTable(r.table);
      if (!t.ok()) return t.status();
      sub_tables.push_back(*t);
    }
    const SubqueryWhere sw = SplitSubqueryWhere(e, sub_tables, rel);
    if (!sw.decorrelatable || sw.outer_keys.empty()) goto per_row_fallback;

    // Execute the subquery's FROM + inner-only WHERE once.
    SelectStmt inner_stmt;
    inner_stmt.from = sub.from;
    sql::ExprPtr inner_where;
    for (const Expr* c : sw.inner_only) {
      inner_where = sql::AndCombine(std::move(inner_where), c->Clone());
    }
    inner_stmt.where = std::move(inner_where);
    APUAMA_ASSIGN_OR_RETURN(Relation inner_rel,
                            ExecuteFromWhere(inner_stmt, nullptr));

    // Build hash table on inner rows keyed by the inner sides.
    ColumnResolver ires(&inner_rel);
    EvalScope iscope{&ires, nullptr, nullptr};
    EvalContext ictx;
    ictx.scope = &iscope;
    ictx.cpu_ops = &stats_->cpu_ops;
    std::unordered_multimap<Row, size_t, RowHash, RowEq> ht;
    ht.reserve(inner_rel.rows.size());
    for (size_t i = 0; i < inner_rel.rows.size(); ++i) {
      iscope.row = &inner_rel.rows[i];
      Row key;
      APUAMA_ASSIGN_OR_RETURN(bool matchable,
                              EvalJoinKey(sw.inner_keys, ictx, &key));
      if (matchable) ht.emplace(std::move(key), i);
    }

    // Probe with outer rows; residual predicates see both scopes
    // (inner row scope chained to the outer row scope).
    ColumnResolver ores(&rel);
    EvalScope oscope{&ores, nullptr, outer};
    EvalContext octx;
    octx.scope = &oscope;
    octx.cpu_ops = &stats_->cpu_ops;

    std::vector<Row> kept;
    kept.reserve(rel.rows.size());
    Row key;
    for (Row& r : rel.rows) {
      oscope.row = &r;
      APUAMA_ASSIGN_OR_RETURN(bool matchable,
                              EvalJoinKey(sw.outer_keys, octx, &key));
      bool found = false;
      if (matchable) {
        auto [lo, hi] = ht.equal_range(key);
        for (auto it = lo; it != hi && !found; ++it) {
          ++stats_->cpu_ops;
          if (sw.residual.empty()) {
            found = true;
            break;
          }
          // Evaluate residual with inner row innermost, outer row next.
          EvalScope rscope{&ires, &inner_rel.rows[it->second], &oscope};
          EvalContext rctx;
          rctx.scope = &rscope;
          rctx.cpu_ops = &stats_->cpu_ops;
          bool all = true;
          for (const Expr* res : sw.residual) {
            APUAMA_ASSIGN_OR_RETURN(Value v, Eval(*res, rctx));
            if (Truthiness(v) != 1) {
              all = false;
              break;
            }
          }
          found = all;
        }
      }
      if (found != negated) kept.push_back(std::move(r));
    }
    rel.rows = std::move(kept);
    return rel;
  }

per_row_fallback : {
  ColumnResolver resolver(&rel);
  EvalScope scope{&resolver, nullptr, outer};
  EvalContext ctx;
  ctx.scope = &scope;
  ctx.executor = this;
  ctx.cpu_ops = &stats_->cpu_ops;
  std::vector<Row> kept;
  kept.reserve(rel.rows.size());
  for (Row& r : rel.rows) {
    scope.row = &r;
    APUAMA_ASSIGN_OR_RETURN(Value v, Eval(e, ctx));
    if (Truthiness(v) == 1) kept.push_back(std::move(r));
  }
  rel.rows = std::move(kept);
  return rel;
}
}

Result<Value> Executor::ScalarSubqueryValue(const SelectStmt& sub,
                                            const EvalScope* outer) {
  APUAMA_ASSIGN_OR_RETURN(QueryResult qr, ExecuteSelect(sub, outer));
  if (qr.num_columns() != 1) {
    return Status::InvalidArgument(
        "scalar subquery must return exactly one column");
  }
  if (qr.rows.empty()) return Value::Null();
  if (qr.rows.size() > 1) {
    return Status::InvalidArgument(
        "scalar subquery returned more than one row");
  }
  return qr.rows[0][0];
}

Result<bool> Executor::SubqueryExists(const SelectStmt& sub,
                                      const EvalScope* outer) {
  if (SubqueryAggregates(sub)) {
    // Grouped/aggregating EXISTS: a group must survive HAVING (and a
    // global aggregate always yields one row).
    APUAMA_ASSIGN_OR_RETURN(QueryResult qr, ExecuteSelect(sub, outer));
    return !qr.rows.empty();
  }
  APUAMA_ASSIGN_OR_RETURN(Relation rel, ExecuteFromWhere(sub, outer));
  return !rel.rows.empty();
}

Result<bool> Executor::SubqueryContains(const SelectStmt& sub,
                                        const Value& needle,
                                        const EvalScope* outer) {
  if (sub.items.size() != 1 || sub.items[0].star) {
    return Status::Unsupported("IN subquery must select a single column");
  }
  if (SubqueryAggregates(sub)) {
    // Full SELECT semantics: grouping / HAVING / DISTINCT / LIMIT all
    // shape the membership set (TPC-H Q18's inner query).
    APUAMA_ASSIGN_OR_RETURN(QueryResult qr, ExecuteSelect(sub, outer));
    for (const Row& r : qr.rows) {
      if (!r[0].is_null() && r[0].Compare(needle) == 0) return true;
    }
    return false;
  }
  APUAMA_ASSIGN_OR_RETURN(Relation rel, ExecuteFromWhere(sub, outer));
  ColumnResolver resolver(&rel);
  EvalScope scope{&resolver, nullptr, outer};
  EvalContext ctx;
  ctx.scope = &scope;
  ctx.cpu_ops = &stats_->cpu_ops;
  for (const Row& r : rel.rows) {
    scope.row = &r;
    APUAMA_ASSIGN_OR_RETURN(Value v, Eval(*sub.items[0].expr, ctx));
    if (!v.is_null() && v.Compare(needle) == 0) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Aggregation / projection / ordering
// ---------------------------------------------------------------------------

Result<QueryResult> Executor::ExecuteSelect(const SelectStmt& stmt,
                                            const EvalScope* outer) {
  const bool has_agg = StmtHasAggregation(stmt);
  Result<QueryResult> result = QueryResult{};
  bool done = false;
  if (MorselEligible(stmt, outer)) {
    if (stmt.from.size() == 1) {
      // Fused scan + filter + partitioned pre-aggregation. Taken even
      // at exec_threads = 1 so the result never depends on the knob.
      result = ExecuteMorselAggregate(stmt);
      done = true;
    } else {
      // Morsel-parallel partitioned hash joins. Planning may discover
      // a shape the pipeline cannot run (cross join, outer references)
      // and return nullopt; the sequential chain below then takes
      // over.
      APUAMA_ASSIGN_OR_RETURN(std::optional<QueryResult> qr,
                              ExecuteMorselJoin(stmt));
      if (qr.has_value()) {
        result = std::move(*qr);
        done = true;
      }
    }
  }
  if (!done) {
    APUAMA_ASSIGN_OR_RETURN(Relation rel, ExecuteFromWhere(stmt, outer));
    result = has_agg ? AggregateAndProject(stmt, std::move(rel), outer)
                     : ProjectOnly(stmt, std::move(rel), outer);
  }
  if (result.ok()) {
    result->stats = *stats_;
    result->stats.tuples_output = result->rows.size();
    stats_->tuples_output = result->rows.size();
  }
  return result;
}

Result<QueryResult> Executor::ExecuteOverRelation(const SelectStmt& stmt,
                                                  Relation rel,
                                                  ExecStats* stats) {
  if (stmt.from.size() != 1 || stmt.where != nullptr ||
      StmtHasSubquery(stmt)) {
    return Status::InvalidArgument(
        "a statement over a relation needs one FROM entry, no WHERE and "
        "no subqueries");
  }
  Executor exec(/*db=*/nullptr, stats, /*sequential_only=*/true);
  Result<QueryResult> result =
      StmtHasAggregation(stmt)
          ? exec.AggregateAndProject(stmt, std::move(rel), nullptr)
          : exec.ProjectOnly(stmt, std::move(rel), nullptr);
  if (result.ok()) {
    stats->tuples_output = result->rows.size();
    result->stats = *stats;
  }
  return result;
}

namespace {

// Sorts (sort_key, payload) pairs by keys with per-key direction.
void SortRows(std::vector<std::pair<Row, Row>>* keyed,
              const std::vector<bool>& desc, uint64_t* cpu) {
  std::stable_sort(keyed->begin(), keyed->end(),
                   [&desc, cpu](const auto& a, const auto& b) {
                     ++*cpu;
                     for (size_t i = 0; i < a.first.size(); ++i) {
                       int c = a.first[i].Compare(b.first[i]);
                       if (c != 0) return desc[i] ? c > 0 : c < 0;
                     }
                     return false;
                   });
}

// Ordinal / alias resolution for ORDER BY: returns output-slot index
// or -1 when the key needs full evaluation.
int OrderOutputSlot(const sql::OrderItem& oi,
                    const std::vector<std::string>& out_names) {
  const Expr& e = *oi.expr;
  if (e.kind == ExprKind::kLiteral && e.literal.type() == ValueType::kInt64) {
    int64_t ord = e.literal.int_val();
    if (ord >= 1 && static_cast<size_t>(ord) <= out_names.size()) {
      return static_cast<int>(ord - 1);
    }
  }
  if (e.kind == ExprKind::kColumnRef && e.table_qualifier.empty()) {
    for (size_t i = 0; i < out_names.size(); ++i) {
      if (EqualsIgnoreCase(out_names[i], e.column_name)) {
        return static_cast<int>(i);
      }
    }
  }
  return -1;
}

// OFFSET skips rows after ordering; LIMIT caps what remains.
void ApplyOffsetLimit(const SelectStmt& stmt, std::vector<Row>* rows) {
  if (stmt.offset > 0) {
    size_t skip = std::min(rows->size(), static_cast<size_t>(stmt.offset));
    rows->erase(rows->begin(), rows->begin() + static_cast<ptrdiff_t>(skip));
  }
  if (stmt.limit >= 0 && rows->size() > static_cast<size_t>(stmt.limit)) {
    rows->resize(static_cast<size_t>(stmt.limit));
  }
}

void DedupePreservingOrder(std::vector<Row>* rows) {
  std::set<Row, storage::KeyLess> seen;
  std::vector<Row> out;
  out.reserve(rows->size());
  for (Row& r : *rows) {
    if (seen.insert(r).second) out.push_back(std::move(r));
  }
  *rows = std::move(out);
}

// Shared tail of both aggregation paths (sequential and morsel):
// finalize accumulators, apply HAVING, project, order, dedupe, and
// offset/limit. `header` must have the column layout the group
// representatives were drawn from.
Result<QueryResult> FinalizeGroups(Executor* exec, ExecStats* stats,
                                   const SelectStmt& stmt,
                                   const Relation& header, GroupMap* groups,
                                   const std::vector<const Expr*>& agg_nodes,
                                   const EvalScope* outer) {
  QueryResult qr;
  for (const auto& it : stmt.items) {
    qr.column_names.push_back(sql::OutputName(it, qr.column_names.size()));
  }
  std::vector<bool> desc;
  for (const auto& o : stmt.order_by) desc.push_back(o.desc);

  ColumnResolver resolver(&header);
  EvalScope scope{&resolver, nullptr, outer};
  EvalContext ctx;
  ctx.scope = &scope;
  ctx.executor = exec;
  ctx.cpu_ops = &stats->cpu_ops;

  std::vector<std::pair<Row, Row>> keyed;
  keyed.reserve(groups->size());
  for (auto& [key, grp] : *groups) {
    std::unordered_map<const Expr*, Value> agg_values;
    for (size_t ai = 0; ai < agg_nodes.size(); ++ai) {
      agg_values[agg_nodes[ai]] = AggFinalize(grp.accs[ai], *agg_nodes[ai]);
    }
    scope.row = &grp.repr;
    EvalContext gctx = ctx;
    gctx.agg_values = &agg_values;

    if (stmt.having) {
      APUAMA_ASSIGN_OR_RETURN(Value hv, Eval(*stmt.having, gctx));
      if (Truthiness(hv) != 1) continue;
    }
    Row out;
    out.reserve(stmt.items.size());
    for (const auto& it2 : stmt.items) {
      APUAMA_ASSIGN_OR_RETURN(Value v, Eval(*it2.expr, gctx));
      out.push_back(std::move(v));
    }
    Row skey;
    for (const auto& o : stmt.order_by) {
      int slot = OrderOutputSlot(o, qr.column_names);
      if (slot >= 0) {
        skey.push_back(out[static_cast<size_t>(slot)]);
      } else {
        APUAMA_ASSIGN_OR_RETURN(Value v, Eval(*o.expr, gctx));
        skey.push_back(std::move(v));
      }
    }
    keyed.emplace_back(std::move(skey), std::move(out));
  }

  if (!stmt.order_by.empty()) {
    SortRows(&keyed, desc, &stats->cpu_ops);
  }
  qr.rows.reserve(keyed.size());
  for (auto& [k, out] : keyed) qr.rows.push_back(std::move(out));
  if (stmt.distinct) DedupePreservingOrder(&qr.rows);
  ApplyOffsetLimit(stmt, &qr.rows);
  return qr;
}

}  // namespace

// ---------------------------------------------------------------------------
// Columnar vectorized aggregation
// ---------------------------------------------------------------------------
namespace {

// Buckets of a morsel's group table: a key's hash picks its bucket,
// and the merge folds each bucket as one task. Fixed (never
// thread-dependent) so the decomposition is identical at every
// exec_threads.
constexpr size_t kGroupBuckets = 64;

// Aggregate function, resolved once at compile time instead of
// string-comparing per row.
enum class AggFunc { kCount, kSum, kAvg, kMin, kMax, kOther };

AggFunc AggFuncOf(const Expr& e) {
  if (e.func_name == "count") return AggFunc::kCount;
  if (e.func_name == "sum") return AggFunc::kSum;
  if (e.func_name == "avg") return AggFunc::kAvg;
  if (e.func_name == "min") return AggFunc::kMin;
  if (e.func_name == "max") return AggFunc::kMax;
  return AggFunc::kOther;
}

// One aggregate in the columnar plan. `arg` is the vectorized
// argument kernel; null means the argument did not compile and the
// morsel loop falls back to row-wise Eval + AggUpdate for this one
// aggregate (everything else stays vectorized).
struct ColAggSpec {
  const Expr* agg = nullptr;
  AggFunc func = AggFunc::kOther;
  bool star = false;
  bool distinct = false;
  std::unique_ptr<VecExpr> arg;
};

// One GROUP BY key: a direct slot gather when the key is a resolvable
// bare column ref, otherwise a row-wise Eval fallback.
struct ColKeySpec {
  int slot = -1;
  const Expr* expr = nullptr;
};

// The morsel filter of every morsel scan: one step per WHERE
// conjunct, in WHERE order, compiled once on the coordinator. A step
// is a vectorized kernel over the columnar chunk when one compiles,
// else the conjunct's row-wise Expr. Each step narrows the selection
// to the survivors of the steps before it, so every conjunct sees
// exactly the rows (and raises exactly the errors) it would under the
// row path's short-circuit. Without a chunk every step is row-wise.
class MorselFilter {
 public:
  MorselFilter(const std::vector<const Expr*>& preds, const Relation& header,
               const storage::ColumnarTable* chunk)
      : chunk_(chunk) {
    for (const Expr* p : preds) {
      Step step;
      if (chunk != nullptr) step.vec = CompileVecPredicate(*p, header, *chunk);
      if (step.vec == nullptr) step.row = p;
      steps_.push_back(std::move(step));
    }
  }

  // Narrows `sel`, heap positions of `t` in scan order. Kernels charge
  // ctx.cpu_ops, *vec_rows and *dict_hits (both unused without a
  // chunk); row-wise steps evaluate in `ctx`, whose scope is `scope`.
  Status Apply(const storage::Table& t, EvalScope* scope,
               const EvalContext& ctx, std::vector<uint32_t>* sel,
               uint64_t* vec_rows, uint64_t* dict_hits) const {
    for (const Step& step : steps_) {
      if (sel->empty()) break;
      if (step.vec != nullptr) {
        APUAMA_RETURN_NOT_OK(FilterVec(*step.vec, *chunk_, sel, ctx.cpu_ops,
                                       vec_rows, dict_hits));
        continue;
      }
      size_t n = 0;
      for (const uint32_t pos : *sel) {
        scope->row = &t.row(pos);
        APUAMA_ASSIGN_OR_RETURN(Value v, Eval(*step.row, ctx));
        if (Truthiness(v) == 1) (*sel)[n++] = pos;
      }
      sel->resize(n);
    }
    return Status::OK();
  }

 private:
  struct Step {
    std::unique_ptr<VecPredicate> vec;
    const Expr* row = nullptr;
  };
  const storage::ColumnarTable* chunk_;
  std::vector<Step> steps_;
};

struct ColumnarPlan {
  const storage::ColumnarTable* chunk = nullptr;
  MorselFilter filter;
  std::vector<ColKeySpec> keys;
  std::vector<ColAggSpec> aggs;
};

ColumnarPlan CompileColumnar(const SelectStmt& stmt, const Relation& header,
                             const storage::ColumnarTable& chunk,
                             const std::vector<const Expr*>& preds,
                             const std::vector<const Expr*>& agg_nodes) {
  ColumnarPlan cp{&chunk, MorselFilter(preds, header, &chunk), {}, {}};
  for (const auto& g : stmt.group_by) {
    ColKeySpec ks;
    if (g->kind == ExprKind::kColumnRef) {
      int slot = header.FindSlot(g->table_qualifier, g->column_name);
      if (slot >= 0) ks.slot = slot;
    }
    if (ks.slot < 0) ks.expr = g.get();
    cp.keys.push_back(std::move(ks));
  }
  for (const Expr* a : agg_nodes) {
    ColAggSpec spec;
    spec.agg = a;
    spec.func = AggFuncOf(*a);
    spec.star = a->star_arg;
    spec.distinct = a->distinct;
    if (!spec.star && !a->children.empty()) {
      spec.arg = CompileVecExpr(*a->children[0], header, chunk);
    }
    cp.aggs.push_back(std::move(spec));
  }
  return cp;
}

}  // namespace

// ---------------------------------------------------------------------------
// Semi and anti steps of the morsel pipelines
// ---------------------------------------------------------------------------

// A top-level WHERE conjunct `[NOT] EXISTS (sub)` or `x IN (sub)` runs
// as a step of a morsel pipeline when `sub` reads one clustered table,
// does not aggregate and nests no subquery, and its correlated
// equalities (plus the IN pair) bind the table's leading clustered-key
// column(s) as bare columns. The coordinator filters the inner scan
// once (PrepareSemiSteps); a worker then finds a tuple's candidates
// with one Table::KeyRange lookup. There is no inner hash build: a
// build costs in proportion to the whole inner range, the lookups in
// proportion to the few tuples that reach a step.
struct SemiStep {
  bool anti = false;  // NOT EXISTS
  Executor::FromBinding inner;
  Relation header;  // the inner scan's row layout
  SubqueryWhere where;
  std::vector<size_t> key_slots;  // inner column of each inner key
  // Per leading clustered-key column bound: the index of its key pair.
  std::vector<size_t> prefix;
  // kept[pos - base] is 1 where the planned inner scan keeps heap
  // position pos of the inner table.
  size_t base = 0;
  std::vector<uint8_t> kept;
};

namespace {

// The shape of WHERE conjunct `c` as a semi/anti step over tuples laid
// out as `outer`, or nullopt when it cannot run as one (the statement
// then stays on the row executor). Side-effect free.
std::optional<SemiStep> SemiStepShape(const Expr& c, const Relation& outer,
                                      const storage::Catalog& catalog) {
  const bool in = c.kind == ExprKind::kInSubquery;
  if (c.kind != ExprKind::kExists && !(in && !c.negated)) return std::nullopt;
  const SelectStmt& sub = *c.subquery;
  if (sub.from.size() != 1 || SubqueryAggregates(sub) ||
      StmtHasSubquery(sub)) {
    return std::nullopt;
  }
  if (in && (sub.items.size() != 1 || sub.items[0].star ||
             ExprHasSubquery(*c.children[0]))) {
    return std::nullopt;
  }
  auto t = catalog.GetTable(sub.from[0].table);
  if (!t.ok() || (*t)->clustered_key().empty()) return std::nullopt;
  SemiStep st;
  st.anti = c.negated;
  st.inner = Executor::FromBinding{ToLower(sub.from[0].binding()), *t};
  st.header = ScanHeader(st.inner);
  st.where = SplitSubqueryWhere(c, {*t}, outer);
  if (!st.where.decorrelatable || st.where.outer_keys.empty()) {
    return std::nullopt;
  }
  for (const Expr* k : st.where.inner_keys) {
    const int slot = k->kind == ExprKind::kColumnRef
                         ? st.header.FindSlot(k->table_qualifier,
                                              k->column_name)
                         : -1;
    if (slot < 0) return std::nullopt;
    st.key_slots.push_back(static_cast<size_t>(slot));
  }
  for (const int kc : (*t)->clustered_key()) {
    auto it = std::find(st.key_slots.begin(), st.key_slots.end(),
                        static_cast<size_t>(kc));
    if (it == st.key_slots.end()) break;
    st.prefix.push_back(static_cast<size_t>(it - st.key_slots.begin()));
  }
  if (st.prefix.empty()) return std::nullopt;
  return st;
}

// True when `e` reads a column (else it is a constant conjunct).
bool ReadsColumn(const Expr& e) {
  if (e.kind == ExprKind::kColumnRef) return true;
  for (const auto& c : e.children) {
    if (ReadsColumn(*c)) return true;
  }
  return e.case_else != nullptr && ReadsColumn(*e.case_else);
}

// The worker side of a pipeline's semi/anti steps. Each worker owns
// one, because column resolvers memoize.
class SemiProbe {
 public:
  explicit SemiProbe(const std::vector<SemiStep>& steps) : steps_(steps) {
    resolvers_.reserve(steps.size());
    for (const SemiStep& st : steps) resolvers_.emplace_back(&st.header);
  }

  // True when the tuple in `octx`'s scope passes every step, in WHERE
  // order: a semi step keeps it on the first match, an anti step when
  // nothing matches.
  Result<bool> Keeps(const EvalContext& octx) {
    for (size_t s = 0; s < steps_.size(); ++s) {
      APUAMA_ASSIGN_OR_RETURN(bool found, Matches(s, octx));
      if (found == steps_[s].anti) return false;
    }
    return true;
  }

 private:
  // The outer key goes through EvalJoinKey, so a NULL never matches.
  // The candidates are the rows of its clustered-key range the inner
  // scan kept; each must equal the key on every pair the way the row
  // executor's hash lookup does (Compare and Hash agree, so a NaN
  // matches only a NaN) and pass the residuals, evaluated with the
  // inner row as the innermost scope.
  Result<bool> Matches(size_t s, const EvalContext& octx) {
    const SemiStep& st = steps_[s];
    APUAMA_ASSIGN_OR_RETURN(bool matchable,
                            EvalJoinKey(st.where.outer_keys, octx, &key_));
    if (!matchable) return false;
    key_hash_.clear();
    for (const Value& v : key_) key_hash_.push_back(v.Hash());
    prefix_.clear();
    for (const size_t i : st.prefix) prefix_.push_back(key_[i]);
    const storage::Table& t = *st.inner.table;
    auto [begin, end] = t.KeyRange(prefix_);
    begin = std::max(begin, st.base);
    end = std::min(end, st.base + st.kept.size());
    EvalScope iscope{&resolvers_[s], nullptr, octx.scope};
    EvalContext ictx;
    ictx.scope = &iscope;
    ictx.cpu_ops = octx.cpu_ops;
    for (size_t pos = begin; pos < end; ++pos) {
      if (st.kept[pos - st.base] == 0) continue;
      ++*octx.cpu_ops;
      const Row& r = t.row(pos);
      bool match = true;
      for (size_t i = 0; i < key_.size() && match; ++i) {
        const Value& v = r[st.key_slots[i]];
        match = !v.is_null() && v.Compare(key_[i]) == 0 &&
                v.Hash() == key_hash_[i];
      }
      iscope.row = &r;
      for (size_t i = 0; i < st.where.residual.size() && match; ++i) {
        APUAMA_ASSIGN_OR_RETURN(Value v, Eval(*st.where.residual[i], ictx));
        match = Truthiness(v) == 1;
      }
      if (match) return true;
    }
    return false;
  }

  const std::vector<SemiStep>& steps_;
  std::vector<ColumnResolver> resolvers_;
  Row key_;
  std::vector<size_t> key_hash_;
  Row prefix_;
};

}  // namespace

// Morsel-private partial state of every morsel pipeline (aggregate
// and join probe): the morsel's group table plus its counters, so
// workers share no mutable state. A GROUP BY-less statement keeps its
// one group under the empty key.
struct MorselPartial {
  std::array<std::unordered_map<Row, AggGroup, RowHash, RowEq>, kGroupBuckets>
      buckets;
  uint64_t cpu = 0;
  uint64_t scanned = 0;
  uint64_t vec_rows = 0;
  uint64_t dict_hits = 0;
  uint64_t probed = 0;          // join: hash-table probes issued
  uint64_t filter_skipped = 0;  // join: rows the semi-join filter dropped
  uint64_t probe_vec = 0;       // join: rows through the vectorized probe

  // The group for `key`; a new group copies `repr` as its
  // representative row and starts `naggs` empty accumulators.
  AggGroup& Group(Row key, const Row& repr, size_t naggs) {
    const size_t b = RowHash{}(key) % kGroupBuckets;
    auto [it, inserted] = buckets[b].try_emplace(std::move(key));
    if (inserted) {
      it->second.repr = repr;
      it->second.accs.resize(naggs);
    }
    return it->second;
  }
};

namespace {

// AggUpdate specialized on a vectorized argument lane: identical
// state transitions (count/has_value/promotion/tie rules), minus the
// Value boxing for the numeric cases.
void UpdateAccFromVec(const ColAggSpec& spec, const VecData& vd, size_t k,
                      AggAcc* acc) {
  if (spec.star) {
    ++acc->count;
    return;
  }
  if (vd.IsNull(k)) return;
  if (spec.distinct) {
    acc->distinct.insert(vd.ValueAt(k));
    return;
  }
  ++acc->count;
  acc->has_value = true;
  switch (spec.func) {
    case AggFunc::kMin: {
      Value v = vd.ValueAt(k);
      if (ReplacesExtreme(v, acc->min_v, /*is_min=*/true)) {
        acc->min_v = std::move(v);
      }
      return;
    }
    case AggFunc::kMax: {
      Value v = vd.ValueAt(k);
      if (ReplacesExtreme(v, acc->max_v, /*is_min=*/false)) {
        acc->max_v = std::move(v);
      }
      return;
    }
    case AggFunc::kSum:
    case AggFunc::kAvg:
      if (vd.type == ValueType::kInt64 && !acc->any_double) {
        acc->isum = WrapAdd(acc->isum, vd.i64[k]);
      } else {
        if (!acc->any_double) {
          acc->dsum = static_cast<double>(acc->isum);
          acc->any_double = true;
        }
        acc->dsum += vd.DoubleAt(k);
      }
      return;
    default:
      return;  // count(x) and unknowns only track count/has_value
  }
}

using MergedBuckets = std::array<GroupMap, kGroupBuckets>;

// Merges the morsels' group tables one bucket per ParallelFor task
// (inline when `pool` is null). Within a bucket, partials fold in
// morsel-index order: the first morsel to hold a key contributes its
// group wholesale, later ones fold in through AggMerge. A key hashes
// to the same bucket in every morsel, so its fold sequence depends
// neither on the bucket count nor on which thread ran what, and the
// bits are identical at every exec_threads. Charged as parallel work.
Status MergeGroupBuckets(ThreadPool* pool, std::vector<MorselPartial>* partials,
                         const std::vector<const Expr*>& agg_nodes,
                         MergedBuckets* merged, ExecStats* stats) {
  std::array<uint64_t, kGroupBuckets> cpu{};
  APUAMA_RETURN_NOT_OK(
      ParallelFor(pool, 0, kGroupBuckets, [&](size_t b) -> Status {
        GroupMap& gm = (*merged)[b];
        for (MorselPartial& part : *partials) {
          for (auto& [key, lg] : part.buckets[b]) {
            ++cpu[b];
            auto [it, inserted] = gm.try_emplace(key);
            if (inserted) {
              it->second = std::move(lg);
              continue;
            }
            for (size_t ai = 0; ai < agg_nodes.size(); ++ai) {
              ++cpu[b];
              AggMerge(&it->second.accs[ai], lg.accs[ai], *agg_nodes[ai]);
            }
          }
        }
        // Ordered-map residency charge.
        cpu[b] += gm.size();
        return Status::OK();
      }));
  for (uint64_t c : cpu) {
    stats->cpu_ops += c;
    stats->cpu_ops_parallel += c;
  }
  return Status::OK();
}

// Runs one morsel of a columnar aggregate. `sel` holds the morsel's
// heap positions in scan order; the morsel filter and then the
// semi/anti steps narrow it, then each vectorized aggregate argument
// is evaluated once over the survivors and every row folds into its
// group of the morsel's private partial. `header` is the scan's row
// layout.
Status RunColumnarMorsel(const storage::Table& t, const Relation& header,
                         const ColumnarPlan& cp,
                         const std::vector<SemiStep>& steps,
                         std::vector<uint32_t> sel, MorselPartial* partial) {
  MorselPartial& part = *partial;
  part.scanned += sel.size();

  // Row-wise fallback machinery, used only by non-vectorizable
  // predicates / arguments / key expressions.
  ColumnResolver resolver(&header);
  EvalScope scope{&resolver, nullptr, nullptr};
  EvalContext ctx;
  ctx.scope = &scope;
  ctx.executor = nullptr;  // subqueries run only as semi/anti steps
  ctx.cpu_ops = &part.cpu;

  APUAMA_RETURN_NOT_OK(cp.filter.Apply(t, &scope, ctx, &sel, &part.vec_rows,
                                       &part.dict_hits));
  if (!steps.empty() && !sel.empty()) {
    SemiProbe semi(steps);
    size_t kept = 0;
    for (const uint32_t pos : sel) {
      scope.row = &t.row(pos);
      APUAMA_ASSIGN_OR_RETURN(bool keep, semi.Keeps(ctx));
      if (keep) sel[kept++] = pos;
    }
    sel.resize(kept);
  }
  if (sel.empty()) return Status::OK();
  const size_t n = sel.size();

  // One kernel pass per vectorized aggregate argument over the final
  // selection — computed once, shared by every group.
  std::vector<VecData> argv(cp.aggs.size());
  for (size_t ai = 0; ai < cp.aggs.size(); ++ai) {
    if (cp.aggs[ai].arg != nullptr) {
      APUAMA_RETURN_NOT_OK(EvalVec(*cp.aggs[ai].arg, *cp.chunk, sel,
                                   &argv[ai], &part.cpu, &part.vec_rows));
    }
  }

  // Gather each row's key (slot copy or Eval fallback), find its
  // group, and fold each aggregate from its argument vector. A GROUP
  // BY-less statement looks its one group up once and charges no
  // per-row key op.
  AggGroup* const global =
      cp.keys.empty() ? &part.Group(Row{}, t.row(sel[0]), cp.aggs.size())
                      : nullptr;
  for (size_t k = 0; k < n; ++k) {
    const Row& r = t.row(sel[k]);
    AggGroup* grp = global;
    if (grp == nullptr) {
      Row key;
      key.reserve(cp.keys.size());
      for (const ColKeySpec& ks : cp.keys) {
        if (ks.slot >= 0) {
          key.push_back(r[static_cast<size_t>(ks.slot)]);
        } else {
          scope.row = &r;
          APUAMA_ASSIGN_OR_RETURN(Value v, Eval(*ks.expr, ctx));
          key.push_back(std::move(v));
        }
      }
      // Key gather + hash + group lookup: one op per row.
      ++part.cpu;
      grp = &part.Group(std::move(key), r, cp.aggs.size());
    }
    for (size_t ai = 0; ai < cp.aggs.size(); ++ai) {
      const ColAggSpec& spec = cp.aggs[ai];
      if (spec.star || spec.arg != nullptr) {
        UpdateAccFromVec(spec, argv[ai], k, &grp->accs[ai]);
      } else {
        scope.row = &r;
        ++part.cpu;
        APUAMA_ASSIGN_OR_RETURN(Value v, Eval(*spec.agg->children[0], ctx));
        AggUpdate(&grp->accs[ai], *spec.agg, v);
      }
    }
  }
  // Vectorized accumulator updates charge at the slice rate, one pass
  // per vectorized aggregate.
  for (const ColAggSpec& spec : cp.aggs) {
    if (spec.star || spec.arg != nullptr) {
      part.cpu += VecOps(n);
      part.vec_rows += spec.star ? n : 0;
    }
  }
  return Status::OK();
}

}  // namespace

Result<QueryResult> Executor::FinishMorselAggregate(
    ThreadPool* pool, size_t threads, const SelectStmt& stmt,
    const Relation& header, const std::vector<const Expr*>& agg_nodes,
    std::vector<MorselPartial>* partials) {
  stats_->morsels += partials->size();
  if (static_cast<uint32_t>(threads) > stats_->exec_threads) {
    stats_->exec_threads = static_cast<uint32_t>(threads);
  }
  for (const MorselPartial& part : *partials) {
    stats_->tuples_scanned += part.scanned;
    stats_->cpu_ops += part.cpu;
    stats_->cpu_ops_parallel += part.cpu;
    stats_->vectorized_rows += part.vec_rows;
    stats_->dict_hits += part.dict_hits;
    stats_->join_probe_rows += part.probed;
    stats_->filter_skipped_rows += part.filter_skipped;
    stats_->probe_vectorized_rows += part.probe_vec;
  }

  obs::Span merge_span =
      obs::Tracer::Global().StartSpan("morsel.merge", "morsel");
  auto merged = std::make_unique<MergedBuckets>();
  APUAMA_RETURN_NOT_OK(
      MergeGroupBuckets(pool, partials, agg_nodes, merged.get(), stats_));
  merge_span.End();

  // Fold the buckets into the ordered map FinalizeGroups reads
  // (bucket order is irrelevant: the map sorts), one op per group.
  GroupMap groups;
  for (GroupMap& gm : *merged) groups.merge(gm);
  if (groups.empty() && stmt.group_by.empty()) {
    // Global aggregate over empty input still yields one group.
    AggGroup& g = groups[Row{}];
    g.repr = Row(header.columns.size(), Value::Null());
    g.accs.resize(agg_nodes.size());
  }
  stats_->cpu_ops += groups.size();
  return FinalizeGroups(this, stats_, stmt, header, &groups, agg_nodes,
                        nullptr);
}

Result<QueryResult> Executor::ProjectOnly(const SelectStmt& stmt,
                                          Relation rel,
                                          const EvalScope* outer) {
  QueryResult qr;
  // Output naming.
  std::vector<const Expr*> item_exprs;
  for (const auto& it : stmt.items) {
    if (it.star) {
      for (const auto& cb : rel.columns) qr.column_names.push_back(cb.name);
    } else {
      qr.column_names.push_back(sql::OutputName(it, qr.column_names.size()));
    }
  }

  ColumnResolver resolver(&rel);
  EvalScope scope{&resolver, nullptr, outer};
  EvalContext ctx;
  ctx.scope = &scope;
  ctx.executor = this;
  ctx.cpu_ops = &stats_->cpu_ops;

  std::vector<bool> desc;
  for (const auto& o : stmt.order_by) desc.push_back(o.desc);

  std::vector<std::pair<Row, Row>> keyed;  // (sort key, output row)
  keyed.reserve(rel.rows.size());
  for (const Row& r : rel.rows) {
    scope.row = &r;
    Row out;
    for (const auto& it : stmt.items) {
      if (it.star) {
        out.insert(out.end(), r.begin(), r.end());
      } else {
        APUAMA_ASSIGN_OR_RETURN(Value v, Eval(*it.expr, ctx));
        out.push_back(std::move(v));
      }
    }
    Row key;
    for (const auto& o : stmt.order_by) {
      int slot = OrderOutputSlot(o, qr.column_names);
      if (slot >= 0) {
        key.push_back(out[static_cast<size_t>(slot)]);
      } else {
        APUAMA_ASSIGN_OR_RETURN(Value v, Eval(*o.expr, ctx));
        key.push_back(std::move(v));
      }
    }
    keyed.emplace_back(std::move(key), std::move(out));
  }

  if (!stmt.order_by.empty()) {
    SortRows(&keyed, desc, &stats_->cpu_ops);
  }
  qr.rows.reserve(keyed.size());
  for (auto& [k, out] : keyed) qr.rows.push_back(std::move(out));
  if (stmt.distinct) DedupePreservingOrder(&qr.rows);
  ApplyOffsetLimit(stmt, &qr.rows);
  return qr;
}

Result<QueryResult> Executor::AggregateAndProject(const SelectStmt& stmt,
                                                  Relation rel,
                                                  const EvalScope* outer) {
  std::vector<const Expr*> agg_nodes = CollectAggInventory(stmt);
  for (const auto& it : stmt.items) {
    if (it.star) {
      return Status::Unsupported("SELECT * with aggregation");
    }
  }

  ColumnResolver resolver(&rel);
  EvalScope scope{&resolver, nullptr, outer};
  EvalContext ctx;
  ctx.scope = &scope;
  ctx.executor = this;
  ctx.cpu_ops = &stats_->cpu_ops;

  GroupMap groups;
  for (const Row& r : rel.rows) {
    scope.row = &r;
    Row key;
    key.reserve(stmt.group_by.size());
    for (const auto& g : stmt.group_by) {
      APUAMA_ASSIGN_OR_RETURN(Value v, Eval(*g, ctx));
      key.push_back(std::move(v));
    }
    auto [it, inserted] = groups.try_emplace(std::move(key));
    AggGroup& grp = it->second;
    if (inserted) {
      grp.repr = r;
      grp.accs.resize(agg_nodes.size());
    }
    APUAMA_RETURN_NOT_OK(FoldRow(agg_nodes, ctx, &grp));
  }

  // Global aggregate over empty input still yields one group.
  if (groups.empty() && stmt.group_by.empty()) {
    AggGroup g;
    g.repr = Row(rel.columns.size(), Value::Null());
    g.accs.resize(agg_nodes.size());
    groups.emplace(Row{}, std::move(g));
  }

  return FinalizeGroups(this, stats_, stmt, rel, &groups, agg_nodes, outer);
}

// ---------------------------------------------------------------------------
// Morsel-driven intra-node parallel aggregation
// ---------------------------------------------------------------------------

bool Executor::MorselEligible(const SelectStmt& stmt,
                              const EvalScope* outer) const {
  if (outer != nullptr || sequential_only_ || stmt.from.empty() ||
      !StmtHasAggregation(stmt) || ClausesHaveSubquery(stmt)) {
    return false;
  }
  for (const auto& item : stmt.items) {
    if (item.star) return false;
  }
  // Every subquery must run as a step over the tuples of the whole
  // FROM list.
  const storage::Catalog& catalog = *db_->catalog();
  Relation layout;
  for (const Expr* c : sql::SplitConjuncts(stmt.where.get())) {
    if (!ExprHasSubquery(*c)) continue;
    if (layout.columns.empty()) {
      for (const auto& ref : stmt.from) {
        auto t = catalog.GetTable(ref.table);
        if (!t.ok()) return false;
        const Relation own =
            ScanHeader(FromBinding{ToLower(ref.binding()), *t});
        layout.columns.insert(layout.columns.end(), own.columns.begin(),
                              own.columns.end());
      }
    }
    if (!SemiStepShape(*c, layout, catalog).has_value()) return false;
  }
  return true;
}

Result<std::vector<SemiStep>> Executor::PrepareSemiSteps(
    const SelectStmt& stmt, const Relation& outer) {
  std::vector<SemiStep> steps;
  for (const Expr* c : sql::SplitConjuncts(stmt.where.get())) {
    if (!ExprHasSubquery(*c)) continue;
    std::optional<SemiStep> shape = SemiStepShape(*c, outer, *db_->catalog());
    if (!shape.has_value()) {
      return Status::Internal("MorselEligible admitted a subquery that is "
                              "not a semi/anti step");
    }
    SemiStep& st = steps.emplace_back(std::move(*shape));

    // The inner-only conjuncts in the row path's order: the scan
    // predicates (those reading a column), then the constants.
    std::vector<const Expr*> preds;
    std::vector<const Expr*> constants;
    for (const Expr* p : st.where.inner_only) {
      (ReadsColumn(*p) ? preds : constants).push_back(p);
    }
    APUAMA_ASSIGN_OR_RETURN(
        FilteredScan fs, FilterSideScan(st.inner, preds, constants,
                                        &ColumnarImage(*st.inner.table)));
    // Positions ascend within and across morsels, so the kept ones lie
    // in [first kept, last kept].
    size_t end = 0;
    for (const std::vector<uint32_t>& sel : fs.positions) {
      if (sel.empty()) continue;
      if (end == 0) st.base = sel.front();
      end = sel.back() + size_t{1};
    }
    st.kept.assign(end - st.base, 0);
    for (const std::vector<uint32_t>& sel : fs.positions) {
      for (const uint32_t pos : sel) st.kept[pos - st.base] = 1;
    }
  }
  return steps;
}

Result<Executor::FilteredScan> Executor::FilterSideScan(
    const FromBinding& fb, const std::vector<const Expr*>& preds,
    const std::vector<const Expr*>& constants,
    const storage::ColumnarTable* chunk) {
  const storage::Table& t = *fb.table;
  APUAMA_ASSIGN_OR_RETURN(ScanPlan plan, PlanScan(fb, preds, nullptr));
  APUAMA_ASSIGN_OR_RETURN(ScanMorsels sm, TouchAndMorselize(t, plan));
  const int want = db_->settings()->exec_threads;
  const size_t threads = MorselWidth(want, sm.morsels.size());
  if (threads > stats_->exec_threads) {
    stats_->exec_threads = static_cast<uint32_t>(threads);
  }
  stats_->morsels += sm.morsels.size();

  std::vector<const Expr*> conjuncts = preds;
  conjuncts.insert(conjuncts.end(), constants.begin(), constants.end());
  const Relation header = ScanHeader(fb);
  const MorselFilter filter(conjuncts, header, chunk);
  FilteredScan fs;
  fs.path = plan.path;
  fs.positions.resize(sm.morsels.size());
  struct Charge {
    uint64_t cpu = 0;
    uint64_t vec_rows = 0;
    uint64_t dict_hits = 0;
  };
  std::vector<Charge> charge(sm.morsels.size());
  APUAMA_RETURN_NOT_OK(ParallelFor(
      want > 1 ? db_->exec_pool() : nullptr, 0, sm.morsels.size(),
      [&](size_t mi) -> Status {
        ColumnResolver resolver(&header);
        EvalScope scope{&resolver, nullptr, nullptr};
        EvalContext ctx;
        ctx.scope = &scope;
        ctx.executor = nullptr;  // subqueries run only as semi/anti steps
        ctx.cpu_ops = &charge[mi].cpu;
        fs.positions[mi] = sm.Selection(mi);
        return filter.Apply(t, &scope, ctx, &fs.positions[mi],
                            &charge[mi].vec_rows, &charge[mi].dict_hits);
      }));
  for (size_t mi = 0; mi < sm.morsels.size(); ++mi) {
    stats_->tuples_scanned += sm.morsels[mi].end - sm.morsels[mi].begin;
    stats_->cpu_ops += charge[mi].cpu;
    stats_->cpu_ops_parallel += charge[mi].cpu;
    stats_->vectorized_rows += charge[mi].vec_rows;
    stats_->dict_hits += charge[mi].dict_hits;
    fs.rows += fs.positions[mi].size();
  }
  return fs;
}

Result<QueryResult> Executor::ExecuteMorselAggregate(const SelectStmt& stmt) {
  // Resolve the single FROM table.
  APUAMA_ASSIGN_OR_RETURN(
      const storage::Table* tp,
      static_cast<const storage::Catalog*>(db_->catalog())
          ->GetTable(stmt.from[0].table));
  const storage::Table& t = *tp;
  const FromBinding fb{ToLower(stmt.from[0].binding()), tp};

  // With one table every WHERE conjunct is a scan predicate, except
  // the subquery conjuncts, which run as semi/anti steps after it.
  std::vector<const Expr*> preds;
  for (const Expr* c : sql::SplitConjuncts(stmt.where.get())) {
    if (!ExprHasSubquery(*c)) preds.push_back(c);
  }

  APUAMA_ASSIGN_OR_RETURN(ScanPlan plan, PlanScan(fb, preds, nullptr));

  // Aggregate inventory, same as the sequential pipeline.
  std::vector<const Expr*> agg_nodes = CollectAggInventory(stmt);

  const Relation header = ScanHeader(fb);

  const ColumnarPlan cp =
      CompileColumnar(stmt, header, ColumnarImage(t), preds, agg_nodes);

  // Coordinator-only spans: per-morsel worker spans would make trace
  // shape depend on thread timing, so only the pipeline phases are
  // traced (identical at any exec_threads).
  obs::Span agg_span =
      obs::Tracer::Global().StartSpan("morsel.aggregate", "morsel");
  APUAMA_ASSIGN_OR_RETURN(ScanMorsels sm, TouchAndMorselize(t, plan));
  if (agg_span.active()) {
    agg_span.AddAttr("morsels", static_cast<int64_t>(sm.morsels.size()));
  }
  APUAMA_ASSIGN_OR_RETURN(std::vector<SemiStep> steps,
                          PrepareSemiSteps(stmt, header));
  std::vector<MorselPartial> partials(sm.morsels.size());

  const size_t threads =
      MorselWidth(db_->settings()->exec_threads, sm.morsels.size());
  ThreadPool* pool = threads > 1 ? db_->exec_pool() : nullptr;
  {
    obs::Span scan_span =
        obs::Tracer::Global().StartSpan("morsel.scan", "morsel");
    APUAMA_RETURN_NOT_OK(
        ParallelFor(pool, 0, sm.morsels.size(), [&](size_t mi) -> Status {
          return RunColumnarMorsel(t, header, cp, steps, sm.Selection(mi),
                                   &partials[mi]);
        }));
  }
  return FinishMorselAggregate(pool, threads, stmt, header, agg_nodes,
                               &partials);
}

std::vector<uint32_t> Executor::ScanMorsels::Selection(size_t mi) const {
  std::vector<uint32_t> sel;
  sel.reserve(morsels[mi].end - morsels[mi].begin);
  for (size_t j = morsels[mi].begin; j < morsels[mi].end; ++j) {
    sel.push_back(static_cast<uint32_t>(Position(j)));
  }
  return sel;
}

Result<Executor::ScanMorsels> Executor::TouchAndMorselize(
    const storage::Table& t, const ScanPlan& plan) {
  // All buffer-pool traffic happens here on the coordinator, through
  // the walk every scan shares: the pool is not thread-safe, and LRU
  // state must not depend on worker timing.
  APUAMA_RETURN_NOT_OK(
      WalkScan(t, plan, [](size_t) { return Status::OK(); }));
  ScanMorsels sm;
  if (plan.path != AccessPath::kSecondaryIndex) {
    sm.morsels = t.Morsels(plan.range_begin, plan.range_end, kMorselRows);
    return sm;
  }
  // Morselize the sorted position list itself.
  for (size_t i = 0; i < plan.index_positions.size(); i += kMorselRows) {
    sm.morsels.push_back(storage::Table::Morsel{
        i, std::min(i + kMorselRows, plan.index_positions.size())});
  }
  sm.positions = &plan.index_positions;
  return sm;
}

const storage::ColumnarTable& Executor::ColumnarImage(
    const storage::Table& t) {
  const storage::Table::ColumnarRef ref = t.Columnar();
  if (ref.built) ++stats_->columnar_chunks_built;
  if (ref.rebuilt) ++stats_->columnar_chunk_rebuilds;
  return *ref.image;
}

// ---------------------------------------------------------------------------
// Morsel-parallel partitioned hash joins
// ---------------------------------------------------------------------------

Result<std::optional<QueryResult>> Executor::ExecuteMorselJoin(
    const SelectStmt& stmt) {
  // ---- Plan, side-effect free. Every decision below depends only on
  // table contents and the statement text — never on the thread count
  // or the FROM order — and any shape the pipeline cannot run returns
  // nullopt before stats or scan_paths are touched, so the legacy
  // fallback starts from a clean slate.
  std::vector<FromBinding> from;
  std::vector<ConjunctInfo> conjuncts;
  APUAMA_RETURN_NOT_OK(ClassifyWhere(stmt, &from, &conjuncts));
  auto binding_index = [&](const std::string& b) -> size_t {
    for (size_t i = 0; i < from.size(); ++i) {
      if (from[i].binding == b) return i;
    }
    return 0;  // unreachable: CollectBindings only emits FROM names
  };

  // Single-binding conjuncts become scan predicates, equi-joins join
  // predicates, subquery conjuncts semi/anti steps after the last
  // stage, and everything else is a residual applied at the earliest
  // probe stage that covers all its bindings. Conjunct order is WHERE
  // order throughout, so composite keys and filter order are
  // identical under permuted FROM lists.
  std::vector<std::vector<const Expr*>> scan_preds(from.size());
  std::vector<const ConjunctInfo*> join_preds;
  std::vector<const ConjunctInfo*> residual_conjs;
  for (const ConjunctInfo& c : conjuncts) {
    if (c.uses_outer) return std::optional<QueryResult>();
    if (c.is_subquery_pred) continue;  // PrepareSemiSteps
    if (c.bindings.size() == 1) {
      scan_preds[binding_index(*c.bindings.begin())].push_back(c.expr);
    } else if (c.lhs != nullptr) {
      join_preds.push_back(&c);
    } else {
      residual_conjs.push_back(&c);
    }
  }

  // Driver = probe side of the whole chain: the largest raw table
  // (ties broken by binding name), so the biggest scan is the one that
  // streams through morsels instead of being materialized into hash
  // tables.
  size_t driver = 0;
  for (size_t i = 1; i < from.size(); ++i) {
    const size_t a = from[i].table->num_rows();
    const size_t b = from[driver].table->num_rows();
    if (a > b || (a == b && from[i].binding < from[driver].binding)) {
      driver = i;
    }
  }

  // The join graph must be connected through equality predicates: a
  // table no chain of them reaches means a cross join, which stays on
  // the legacy path. Checked before anything touches stats or pages.
  std::vector<bool> reached(from.size(), false);
  reached[driver] = true;
  for (bool grew = true; grew;) {
    grew = false;
    for (const ConjunctInfo* jp : join_preds) {
      const size_t l = binding_index(jp->lb);
      const size_t r = binding_index(jp->rb);
      if (reached[l] != reached[r]) {
        reached[l] = reached[r] = true;
        grew = true;
      }
    }
  }
  if (std::find(reached.begin(), reached.end(), false) != reached.end()) {
    return std::optional<QueryResult>();  // cross join: legacy path
  }

  std::vector<const Expr*> agg_nodes = CollectAggInventory(stmt);

  // ---- Plan topology committed; stats mutations start here. Spans
  // cover the pipeline phases only (coordinator thread) so trace shape
  // does not depend on worker scheduling.
  obs::Span join_span =
      obs::Tracer::Global().StartSpan("morsel.join", "morsel");
  if (join_span.active()) {
    join_span.AddAttr("stages", static_cast<int64_t>(from.size() - 1));
  }
  const int want = db_->settings()->exec_threads;
  ThreadPool* pool = want > 1 ? db_->exec_pool() : nullptr;
  obs::Span build_span =
      obs::Tracer::Global().StartSpan("morsel.build", "morsel");

  // ---- Filter every build side once, in binding-name order (so page
  // touches do not depend on the FROM list), before the chain is
  // ordered: the order below uses how many rows each side keeps. Each
  // morsel keeps its surviving heap positions; read in morsel-index
  // order they are the build's insertion order at every thread count.
  std::vector<FilteredScan> kept(from.size());
  std::vector<size_t> build_sides;
  for (size_t i = 0; i < from.size(); ++i) {
    if (i != driver) build_sides.push_back(i);
  }
  std::sort(build_sides.begin(), build_sides.end(), [&](size_t a, size_t b) {
    return from[a].binding < from[b].binding;
  });
  const size_t first_path = scan_paths_.size();
  for (const size_t i : build_sides) {
    // Build sides filter row-wise: no columnar chunk is built for them.
    APUAMA_ASSIGN_OR_RETURN(
        kept[i], FilterSideScan(from[i], scan_preds[i], {}, nullptr));
  }

  // ---- Chain order: repeatedly add the best table connected to the
  // covered set by an equality predicate. Key lookups come first: the
  // applicable equalities bind every clustered-key column of the table
  // as a bare column, so each probe row should find about one match
  // (the key is not enforced unique, so this guides cost only). Then
  // the lowest measured survival (kept rows / raw rows), so selective
  // builds prune the probe stream early through their semi-join
  // filters; then fewer raw rows; then binding name. Every input is a
  // function of table contents and the statement text.
  struct BuildStage {
    size_t from_idx = 0;
    std::vector<const Expr*> probe_keys;  // over already-covered bindings
    std::vector<const Expr*> build_keys;  // over the stage's own binding
    std::vector<const Expr*> residuals;   // conjuncts first covered here
  };
  std::vector<BuildStage> stages;
  std::set<std::string> covered = {from[driver].binding};
  // The build-side expression of `jp` when it joins the uncovered
  // binding `b` to the covered set, else nullptr. A predicate is
  // consumed by the stage that covers its second binding.
  auto build_side = [&](const ConjunctInfo* jp,
                        const std::string& b) -> const Expr* {
    if (covered.count(jp->lb) && jp->rb == b) return jp->rhs;
    if (covered.count(jp->rb) && jp->lb == b) return jp->lhs;
    return nullptr;
  };
  auto key_lookup = [&](size_t i) {
    const storage::Table& t = *from[i].table;
    if (t.clustered_key().empty()) return false;
    for (const int kc : t.clustered_key()) {
      bool bound = false;
      for (const ConjunctInfo* jp : join_preds) {
        const Expr* e = build_side(jp, from[i].binding);
        if (e != nullptr && e->kind == ExprKind::kColumnRef &&
            t.schema().FindColumn(e->column_name) == kc) {
          bound = true;
          break;
        }
      }
      if (!bound) return false;
    }
    return true;
  };
  auto goes_before = [&](size_t a, size_t b) {
    const bool la = key_lookup(a);
    if (la != key_lookup(b)) return la;
    // Survival compared exactly: kept_a / rows_a < kept_b / rows_b.
    const uint64_t ra = from[a].table->num_rows();
    const uint64_t rb = from[b].table->num_rows();
    const uint64_t sa = kept[a].rows * std::max<uint64_t>(rb, 1);
    const uint64_t sb = kept[b].rows * std::max<uint64_t>(ra, 1);
    if (sa != sb) return sa < sb;
    if (ra != rb) return ra < rb;
    return from[a].binding < from[b].binding;
  };
  // Coverage step per FROM index: 0 = driver, k + 1 = after stage k.
  std::vector<size_t> coverage_order(from.size(), 0);
  while (stages.size() + 1 < from.size()) {
    size_t best = from.size();
    for (size_t i = 0; i < from.size(); ++i) {
      if (covered.count(from[i].binding)) continue;
      const bool connected =
          std::any_of(join_preds.begin(), join_preds.end(),
                      [&](const ConjunctInfo* jp) {
                        return build_side(jp, from[i].binding) != nullptr;
                      });
      if (connected && (best == from.size() || goes_before(i, best))) {
        best = i;
      }
    }
    // The connectivity check above guarantees a candidate.
    BuildStage st;
    st.from_idx = best;
    for (const ConjunctInfo* jp : join_preds) {
      const Expr* e = build_side(jp, from[best].binding);
      if (e == nullptr) continue;
      st.probe_keys.push_back(e == jp->rhs ? jp->lhs : jp->rhs);
      st.build_keys.push_back(e);
    }
    covered.insert(from[best].binding);
    coverage_order[best] = stages.size() + 1;
    stages.push_back(std::move(st));
  }
  for (const ConjunctInfo* rc : residual_conjs) {
    size_t latest = 0;
    for (const auto& rb : rc->bindings) {
      latest = std::max(latest, coverage_order[binding_index(rb)]);
    }
    if (latest == 0) {
      // Constant (or driver-only shaped): evaluate per driver row.
      scan_preds[driver].push_back(rc->expr);
    } else {
      stages[latest - 1].residuals.push_back(rc->expr);
    }
  }
  // EXPLAIN lists scans in plan order: build stages in chain order,
  // then the driver, whose PlanScan below records it last.
  scan_paths_.resize(first_path);
  for (const BuildStage& st : stages) {
    scan_paths_.emplace_back(from[st.from_idx].binding,
                             kept[st.from_idx].path);
  }

  // Output layouts after each probe stage: driver columns, then each
  // build table's columns in chain order. Stage k's probe keys
  // evaluate against layouts[k]; its residuals see layouts[k + 1].
  std::vector<Relation> layouts(stages.size() + 1);
  layouts[0] = ScanHeader(from[driver]);
  for (size_t k = 0; k < stages.size(); ++k) {
    layouts[k + 1].columns = layouts[k].columns;
    const Relation own = ScanHeader(from[stages[k].from_idx]);
    layouts[k + 1].columns.insert(layouts[k + 1].columns.end(),
                                  own.columns.begin(), own.columns.end());
  }

  // ---- Parallel partitioned builds, one stage at a time, from the
  // kept positions: key evaluation fans out over the build's morsels,
  // then the hash partitions are assembled concurrently — each in
  // morsel-index order, so hash-table iteration order, and therefore
  // every downstream value, is identical at every thread count.
  struct BuiltStage {
    std::array<std::vector<Row>, kMergePartitions> rows;
    std::array<std::unordered_multimap<Row, size_t, RowHash, RowEq>,
               kMergePartitions>
        ht;
    std::array<KeyFilter, kMergePartitions> filters;
  };
  std::vector<BuiltStage> built(stages.size());
  for (size_t s = 0; s < stages.size(); ++s) {
    const FromBinding& fb = from[stages[s].from_idx];
    const storage::Table& t = *fb.table;
    const std::vector<std::vector<uint32_t>>& positions =
        kept[stages[s].from_idx].positions;
    const Relation bheader = ScanHeader(fb);

    // The key hash is computed once per build row and reused for the
    // partition choice, the semi-join filter bits, and the insert.
    struct Keyed {
      size_t hash = 0;
      Row key;
      Row row;
    };
    struct BuildChunk {
      std::array<std::vector<Keyed>, kMergePartitions> keyed;
      uint64_t cpu = 0;
    };
    std::vector<BuildChunk> chunks(positions.size());
    const std::vector<const Expr*>& build_keys = stages[s].build_keys;
    auto key_morsel = [&](size_t mi) -> Status {
      BuildChunk& ch = chunks[mi];
      ColumnResolver resolver(&bheader);
      EvalScope scope{&resolver, nullptr, nullptr};
      EvalContext ctx;
      ctx.scope = &scope;
      ctx.executor = nullptr;  // subqueries run only as semi/anti steps
      ctx.cpu_ops = &ch.cpu;
      for (const uint32_t pos : positions[mi]) {
        const Row& r = t.row(pos);
        scope.row = &r;
        Row key;
        APUAMA_ASSIGN_OR_RETURN(bool matchable,
                                EvalJoinKey(build_keys, ctx, &key));
        if (!matchable) continue;
        Keyed kd;
        kd.hash = RowHash{}(key);
        kd.key = std::move(key);
        kd.row = r;
        ch.keyed[kd.hash % kMergePartitions].push_back(std::move(kd));
      }
      return Status::OK();
    };
    APUAMA_RETURN_NOT_OK(ParallelFor(pool, 0, positions.size(), key_morsel));

    BuiltStage& bs = built[s];
    std::array<uint64_t, kMergePartitions> part_cpu{};
    auto build_partition = [&](size_t p) -> Status {
      size_t n = 0;
      for (const BuildChunk& ch : chunks) n += ch.keyed[p].size();
      bs.rows[p].reserve(n);
      bs.ht[p].reserve(n);
      for (BuildChunk& ch : chunks) {
        for (Keyed& kd : ch.keyed[p]) {
          ++part_cpu[p];
          bs.filters[p].Add(kd.hash);
          bs.rows[p].push_back(std::move(kd.row));
          bs.ht[p].emplace(std::move(kd.key), bs.rows[p].size() - 1);
        }
      }
      return Status::OK();
    };
    APUAMA_RETURN_NOT_OK(
        ParallelFor(pool, 0, kMergePartitions, build_partition));

    for (const BuildChunk& ch : chunks) {
      stats_->cpu_ops += ch.cpu;
      stats_->cpu_ops_parallel += ch.cpu;
    }
    for (size_t p = 0; p < kMergePartitions; ++p) {
      stats_->cpu_ops += part_cpu[p];
      stats_->cpu_ops_parallel += part_cpu[p];
      stats_->join_build_rows += bs.rows[p].size();
    }
  }
  build_span.End();

  // ---- Morsel-driven probe: driver morsels stream through the full
  // probe chain (filter -> probe -> residuals -> next stage -> partial
  // aggregate) without materializing intermediate relations.
  const FromBinding& dfb = from[driver];
  const storage::Table& dt = *dfb.table;
  const std::vector<const Expr*>& dpreds = scan_preds[driver];
  APUAMA_ASSIGN_OR_RETURN(ScanPlan dplan, PlanScan(dfb, dpreds, nullptr));
  APUAMA_ASSIGN_OR_RETURN(ScanMorsels dsm, TouchAndMorselize(dt, dplan));
  APUAMA_ASSIGN_OR_RETURN(std::vector<SemiStep> steps,
                          PrepareSemiSteps(stmt, layouts.back()));

  // ---- Driver compile (vectorized probe). The image fetch and all
  // compilation happen here on the coordinator — a table is not
  // thread-safe — before morsels fan out. Per-conjunct: a scan
  // predicate that does not compile keeps its row-wise form over the
  // selection vector. The stage-0 keys vectorize only as a set; if
  // any of them does not compile, surviving rows evaluate the keys
  // row-wise instead.
  const storage::ColumnarTable& dchunk = ColumnarImage(dt);
  const MorselFilter dfilter(dpreds, layouts[0], &dchunk);
  // One stage-0 probe-key lane: a compiled numeric kernel, or a
  // dictionary-coded string column hashed through per-code string
  // hashes (precomputed once per dictionary entry). Eligibility
  // guarantees two tables, so stage 0 exists.
  struct KeyLane {
    std::unique_ptr<VecExpr> vec;
    const storage::ColumnVector* dict_col = nullptr;
    std::vector<size_t> code_hash;
  };
  std::vector<KeyLane> key_lanes;
  bool keys_vec = true;
  for (const Expr* e : stages[0].probe_keys) {
    KeyLane lane;
    lane.vec = CompileVecExpr(*e, layouts[0], dchunk);
    if (lane.vec == nullptr && e->kind == ExprKind::kColumnRef) {
      const int slot = layouts[0].FindSlot(e->table_qualifier, e->column_name);
      if (slot >= 0 && static_cast<size_t>(slot) < dchunk.cols.size() &&
          dchunk.cols[static_cast<size_t>(slot)].dict_encoded) {
        lane.dict_col = &dchunk.cols[static_cast<size_t>(slot)];
        lane.code_hash.reserve(lane.dict_col->dict.size());
        for (const std::string& str : lane.dict_col->dict) {
          // Value::Hash of the kString the row path would box.
          lane.code_hash.push_back(std::hash<std::string>()(str));
        }
      }
    }
    if (lane.vec == nullptr && lane.dict_col == nullptr) {
      keys_vec = false;
      key_lanes.clear();
      break;
    }
    key_lanes.push_back(std::move(lane));
  }

  std::vector<MorselPartial> partials(dsm.morsels.size());
  auto probe_morsel = [&](size_t mi) -> Status {
    MorselPartial& part = partials[mi];
    SemiProbe semi(steps);
    // The scratch row holds the chain's current tuple; its address is
    // stable, so every per-layout scope can point at it up front.
    Row scratch;
    std::vector<ColumnResolver> resolvers;
    resolvers.reserve(layouts.size());
    for (const Relation& l : layouts) resolvers.emplace_back(&l);
    std::vector<EvalScope> scopes(layouts.size());
    std::vector<EvalContext> ctxs(layouts.size());
    for (size_t k = 0; k < layouts.size(); ++k) {
      scopes[k].resolver = &resolvers[k];
      scopes[k].row = &scratch;
      ctxs[k].scope = &scopes[k];
      ctxs[k].executor = nullptr;  // subqueries run only as semi/anti steps
      ctxs[k].cpu_ops = &part.cpu;
    }

    // The chain is split in two so the vectorized keys can enter it
    // past the per-row key/hash/filter work they already did in
    // slices: `descend(k)` evaluates stage k's probe key row-wise,
    // hashes it and consults the partition filter; `probe_chain(k,
    // key, h)` walks the hash chain, applies residuals and recurses.
    // Later stages (and stage 0 when its keys did not compile) go
    // through descend; both meet at probe_chain, so match processing
    // is one code path.
    std::function<Status(size_t)> descend;
    auto probe_chain = [&](size_t k, const Row& key, size_t h) -> Status {
      const BuildStage& st = stages[k];
      const BuiltStage& bs = built[k];
      const size_t p = h % kMergePartitions;
      const size_t base = scratch.size();
      auto [lo, hi] = bs.ht[p].equal_range(key);
      for (auto it = lo; it != hi; ++it) {
        ++part.cpu;
        const Row& brow = bs.rows[p][it->second];
        scratch.insert(scratch.end(), brow.begin(), brow.end());
        bool pass = true;
        for (const Expr* res : st.residuals) {
          APUAMA_ASSIGN_OR_RETURN(Value v, Eval(*res, ctxs[k + 1]));
          if (Truthiness(v) != 1) {
            pass = false;
            break;
          }
        }
        Status status = pass ? descend(k + 1) : Status::OK();
        scratch.resize(base);
        APUAMA_RETURN_NOT_OK(status);
      }
      return Status::OK();
    };
    descend = [&](size_t k) -> Status {
      if (k == stages.size()) {
        // Past the chain's last stage: the semi/anti steps, then fold
        // the joined row into its group.
        APUAMA_ASSIGN_OR_RETURN(bool keep, semi.Keeps(ctxs[k]));
        if (!keep) return Status::OK();
        Row key;
        key.reserve(stmt.group_by.size());
        for (const auto& g : stmt.group_by) {
          APUAMA_ASSIGN_OR_RETURN(Value v, Eval(*g, ctxs[k]));
          key.push_back(std::move(v));
        }
        return FoldRow(agg_nodes, ctxs[k],
                       &part.Group(std::move(key), scratch, agg_nodes.size()));
      }
      const BuiltStage& bs = built[k];
      Row key;
      APUAMA_ASSIGN_OR_RETURN(bool matchable,
                              EvalJoinKey(stages[k].probe_keys, ctxs[k], &key));
      if (!matchable) return Status::OK();
      const size_t h = RowHash{}(key);
      const size_t p = h % kMergePartitions;
      if (!bs.filters[p].MayContain(h)) {
        ++part.filter_skipped;
        return Status::OK();
      }
      ++part.probed;
      return probe_chain(k, key, h);
    };

    // The morsel's heap positions (a dense range, or its slice of an
    // index plan's position list) go through per-conjunct filtering:
    // compiled kernels shrink the selection in slices, uncompiled
    // conjuncts run row-wise over whatever survives. Then the stage-0
    // keys load column-major, hash in slices and pass the partition
    // filter as a kernel. Only the survivors materialize the scratch
    // row and probe the chain.
    std::vector<uint32_t> sel = dsm.Selection(mi);
    part.scanned += sel.size();
    // Row-wise steps read the heap row in place (layout 0 is the
    // driver's schema).
    APUAMA_RETURN_NOT_OK(dfilter.Apply(dt, &scopes[0], ctxs[0], &sel,
                                       &part.vec_rows, &part.dict_hits));
    scopes[0].row = &scratch;  // probe chain reads the scratch row
    if (sel.empty()) return Status::OK();
    if (!keys_vec) {
      for (const uint32_t pos : sel) {
        const Row& r = dt.row(pos);
        scratch.assign(r.begin(), r.end());
        APUAMA_RETURN_NOT_OK(descend(0));
      }
      return Status::OK();
    }
    const size_t n = sel.size();
    std::vector<VecData> lanes(key_lanes.size());
    for (size_t i = 0; i < key_lanes.size(); ++i) {
      if (key_lanes[i].vec != nullptr) {
        APUAMA_RETURN_NOT_OK(EvalVec(*key_lanes[i].vec, dchunk, sel,
                                     &lanes[i], &part.cpu, &part.vec_rows));
      }
    }
    // Hash pass: seed, then one combine per key lane — the exact fold
    // RowHash applies to the boxed key row (Value::Hash of an int/date
    // lane is std::hash<int64_t>, a double lane hashes its integral
    // twin when it has one, a dictionary code looks up the precomputed
    // string hash), so partition choice and filter membership are
    // bit-identical to descend's. A NULL in any key lane can never
    // match an inner join: mark and skip.
    std::vector<size_t> hashes(n, size_t{0x9e3779b9});
    std::vector<uint8_t> null_key(n, 0);
    for (size_t i = 0; i < key_lanes.size(); ++i) {
      part.cpu += VecOps(n);
      const KeyLane& kl = key_lanes[i];
      if (kl.dict_col != nullptr) {
        part.dict_hits += n;
        for (size_t k = 0; k < n; ++k) {
          const uint32_t pos = sel[k];
          if (kl.dict_col->IsNull(pos)) {
            null_key[k] = 1;
            continue;
          }
          hashes[k] =
              hashes[k] * 1315423911u +
              kl.code_hash[static_cast<size_t>(kl.dict_col->codes[pos])];
        }
      } else {
        const VecData& vd = lanes[i];
        for (size_t k = 0; k < n; ++k) {
          if (vd.IsNull(k)) {
            null_key[k] = 1;
            continue;
          }
          size_t vh;
          if (vd.type == ValueType::kDouble) {
            const double d = vd.f64[k];
            vh = d == static_cast<double>(static_cast<int64_t>(d))
                     ? std::hash<int64_t>()(static_cast<int64_t>(d))
                     : std::hash<double>()(d);
          } else {
            vh = std::hash<int64_t>()(vd.i64[k]);
          }
          hashes[k] = hashes[k] * 1315423911u + vh;
        }
      }
    }
    // Filter slice kernel: partition + semi-join filter membership
    // decide which rows materialize at all.
    part.cpu += VecOps(n);
    part.probe_vec += n;
    const BuiltStage& bs0 = built[0];
    for (size_t k = 0; k < n; ++k) {
      if (null_key[k]) continue;  // inner join semantics
      const size_t h = hashes[k];
      if (!bs0.filters[h % kMergePartitions].MayContain(h)) {
        ++part.filter_skipped;
        continue;
      }
      ++part.probed;
      const uint32_t pos = sel[k];
      const Row& r = dt.row(pos);
      scratch.assign(r.begin(), r.end());
      // Box the key back into the row value model only for rows that
      // actually reach a hash chain.
      Row key;
      key.reserve(key_lanes.size());
      for (size_t i = 0; i < key_lanes.size(); ++i) {
        const KeyLane& kl = key_lanes[i];
        key.push_back(kl.dict_col != nullptr
                          ? Value::Str(kl.dict_col->dict[static_cast<size_t>(
                                kl.dict_col->codes[pos])])
                          : lanes[i].ValueAt(k));
      }
      APUAMA_RETURN_NOT_OK(probe_chain(0, key, h));
    }
    return Status::OK();
  };
  {
    obs::Span probe_span =
        obs::Tracer::Global().StartSpan("morsel.probe", "morsel");
    APUAMA_RETURN_NOT_OK(
        ParallelFor(pool, 0, dsm.morsels.size(), probe_morsel));
  }

  APUAMA_ASSIGN_OR_RETURN(
      QueryResult qr,
      FinishMorselAggregate(pool, MorselWidth(want, dsm.morsels.size()),
                            stmt, layouts.back(), agg_nodes, &partials));
  return std::optional<QueryResult>(std::move(qr));
}

}  // namespace apuama::engine
