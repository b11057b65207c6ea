#include "apuama/svp_rewriter.h"

#include <functional>
#include <set>
#include <unordered_map>

#include "common/string_util.h"
#include "sql/analyzer.h"
#include "sql/unparse.h"

namespace apuama {

using sql::BinaryOp;
using sql::Expr;
using sql::ExprKind;
using sql::ExprPtr;
using sql::SelectStmt;

std::vector<std::pair<int64_t, int64_t>> SvpPlan::MakeIntervals(
    int nodes) const {
  // Delegates to the catalog's interval math so SVP carving and
  // physical fragment boundaries agree key-for-key.
  return KeyIntervals(domain_min_, domain_max_, nodes);
}

std::string SvpPlan::SubquerySql(int64_t lo, int64_t hi) {
  for (const Patch& p : patches_) {
    p.literal->literal = Value::Int(p.is_lo ? lo : hi);
  }
  return sql::UnparseSelect(*template_);
}

void RemapSelectTables(
    SelectStmt* stmt,
    const std::vector<std::pair<std::string, std::string>>& table_map) {
  for (auto& ref : stmt->from) {
    for (const auto& [from, to] : table_map) {
      if (EqualsIgnoreCase(ref.table, from)) {
        if (ref.alias.empty()) ref.alias = ref.table;
        ref.table = to;
        break;
      }
    }
  }
  std::function<void(Expr*)> walk = [&](Expr* e) {
    if (e == nullptr) return;
    if (e->subquery) RemapSelectTables(e->subquery.get(), table_map);
    for (auto& c : e->children) walk(c.get());
    walk(e->case_else.get());
  };
  for (auto& it : stmt->items) walk(it.expr.get());
  walk(stmt->where.get());
  walk(stmt->having.get());
}

std::string SvpPlan::SubquerySqlMapped(
    int64_t lo, int64_t hi,
    const std::vector<std::pair<std::string, std::string>>& table_map) {
  for (const Patch& p : patches_) {
    p.literal->literal = Value::Int(p.is_lo ? lo : hi);
  }
  std::unique_ptr<SelectStmt> mapped = template_->Clone();
  RemapSelectTables(mapped.get(), table_map);
  return sql::UnparseSelect(*mapped);
}

namespace {

// Preorder expression collection over a statement. Expr::Clone and
// SelectStmt::Clone preserve structure, so running this over an
// original and its clone yields positionally parallel node lists —
// the basis for remapping patch pointers in SvpPlan::Clone.
void CollectStmtExprs(const SelectStmt* s, std::vector<const Expr*>* out);

void CollectExprTree(const Expr* e, std::vector<const Expr*>* out) {
  if (e == nullptr) return;
  out->push_back(e);
  for (const auto& c : e->children) CollectExprTree(c.get(), out);
  CollectExprTree(e->case_else.get(), out);
  if (e->subquery) CollectStmtExprs(e->subquery.get(), out);
}

void CollectStmtExprs(const SelectStmt* s, std::vector<const Expr*>* out) {
  if (s == nullptr) return;
  for (const auto& it : s->items) CollectExprTree(it.expr.get(), out);
  CollectExprTree(s->where.get(), out);
  for (const auto& g : s->group_by) CollectExprTree(g.get(), out);
  CollectExprTree(s->having.get(), out);
  for (const auto& o : s->order_by) CollectExprTree(o.expr.get(), out);
}

}  // namespace

SvpPlan SvpPlan::Clone() const {
  SvpPlan out;
  out.composition_sql_ = composition_sql_;
  out.composition_ = composition_;
  out.domain_min_ = domain_min_;
  out.domain_max_ = domain_max_;
  out.pred_min_ = pred_min_;
  out.pred_max_ = pred_max_;
  out.fact_tables_ = fact_tables_;
  out.all_tables_ = all_tables_;
  out.template_ = template_->Clone();

  std::vector<const Expr*> orig_nodes;
  std::vector<const Expr*> copy_nodes;
  CollectStmtExprs(template_.get(), &orig_nodes);
  CollectStmtExprs(out.template_.get(), &copy_nodes);
  std::unordered_map<const Expr*, size_t> index;
  index.reserve(orig_nodes.size());
  for (size_t i = 0; i < orig_nodes.size(); ++i) index[orig_nodes[i]] = i;
  out.patches_.reserve(patches_.size());
  for (const Patch& p : patches_) {
    auto it = index.find(p.literal);
    if (it == index.end()) continue;  // unreachable by construction
    out.patches_.push_back(
        Patch{const_cast<Expr*>(copy_nodes[it->second]), p.is_lo});
  }
  return out;
}

namespace {

// ---------------------------------------------------------------------------
// Range-predicate injection
// ---------------------------------------------------------------------------

// Appends `qualifier.column >= 0 AND qualifier.column < 0` to the
// statement's WHERE and records the two literal nodes for patching.
void AddRangePredicate(SelectStmt* stmt, const std::string& qualifier,
                       const std::string& column,
                       std::vector<SvpPlan::Patch>* patches) {
  ExprPtr lo_lit = sql::MakeLiteral(Value::Int(0));
  ExprPtr hi_lit = sql::MakeLiteral(Value::Int(0));
  Expr* lo_raw = lo_lit.get();
  Expr* hi_raw = hi_lit.get();
  ExprPtr ge = sql::MakeBinary(BinaryOp::kGtEq,
                               sql::MakeColumnRef(qualifier, column),
                               std::move(lo_lit));
  ExprPtr lt = sql::MakeBinary(BinaryOp::kLt,
                               sql::MakeColumnRef(qualifier, column),
                               std::move(hi_lit));
  stmt->where = sql::AndCombine(std::move(stmt->where), std::move(ge));
  stmt->where = sql::AndCombine(std::move(stmt->where), std::move(lt));
  patches->push_back(SvpPlan::Patch{lo_raw, true});
  patches->push_back(SvpPlan::Patch{hi_raw, false});
}

// A fact reference constrained at some scope: binding name + VPA.
struct ConstrainedRef {
  std::string binding;
  std::string column;
};

// Does `sub` contain an equality conjunct between `inner_binding`'s
// VPA column and the VPA of some constrained outer reference?
bool CorrelatedOnKey(const SelectStmt& sub, const std::string& inner_binding,
                     const std::string& inner_column,
                     const std::vector<ConstrainedRef>& outer_refs) {
  auto is_inner_vpa = [&](const Expr& e) {
    return e.kind == ExprKind::kColumnRef &&
           EqualsIgnoreCase(e.column_name, inner_column) &&
           (e.table_qualifier.empty() ||
            EqualsIgnoreCase(e.table_qualifier, inner_binding));
  };
  auto is_outer_vpa = [&](const Expr& e) {
    if (e.kind != ExprKind::kColumnRef) return false;
    for (const auto& ref : outer_refs) {
      if (EqualsIgnoreCase(e.column_name, ref.column) &&
          (e.table_qualifier.empty() ||
           EqualsIgnoreCase(e.table_qualifier, ref.binding))) {
        return true;
      }
    }
    return false;
  };
  for (const Expr* c : sql::SplitConjuncts(sub.where.get())) {
    if (c->kind != ExprKind::kBinary || c->binary_op != BinaryOp::kEq) {
      continue;
    }
    const Expr& l = *c->children[0];
    const Expr& r = *c->children[1];
    if ((is_inner_vpa(l) && is_outer_vpa(r)) ||
        (is_inner_vpa(r) && is_outer_vpa(l))) {
      return true;
    }
  }
  return false;
}

// Recursively constrains fact references in `stmt` and all its
// subqueries. `outer_refs` are constrained refs visible from
// enclosing scopes (for correlation checks).
Status ConstrainStatement(SelectStmt* stmt, const DataCatalog& catalog,
                          const VirtualPartitionSpace* space,
                          std::vector<ConstrainedRef> outer_refs,
                          std::vector<SvpPlan::Patch>* patches,
                          bool is_subquery) {
  std::vector<ConstrainedRef> local_refs;
  for (const auto& ref : stmt->from) {
    const VirtualPartitionSpace* s = catalog.SpaceForTable(ref.table);
    if (s == nullptr) continue;
    if (s != space) {
      return Status::Unsupported(
          "query spans multiple partition spaces");
    }
    const auto* member = s->FindMember(ref.table);
    if (is_subquery &&
        !CorrelatedOnKey(*stmt, ref.binding(), member->column, outer_refs)) {
      return Status::Unsupported(
          "subquery references fact table " + ref.table +
          " without an equality correlation on the partition key");
    }
    local_refs.push_back(ConstrainedRef{ref.binding(), member->column});
    AddRangePredicate(stmt, ref.binding(), member->column, patches);
  }
  if (!is_subquery && local_refs.empty()) {
    return Status::Unsupported("query references no partitionable table");
  }

  // Recurse into EXISTS / IN subqueries in the WHERE clause.
  std::vector<ConstrainedRef> visible = outer_refs;
  visible.insert(visible.end(), local_refs.begin(), local_refs.end());
  Status status = Status::OK();
  std::function<void(Expr*)> walk = [&](Expr* e) {
    if (!status.ok()) return;
    if (e->subquery) {
      Status s = ConstrainStatement(e->subquery.get(), catalog, space,
                                    visible, patches, /*is_subquery=*/true);
      if (!s.ok()) status = s;
      return;  // inner subqueries handled by recursion above
    }
    for (auto& c : e->children) walk(c.get());
    if (e->case_else) walk(e->case_else.get());
  };
  if (stmt->where) walk(stmt->where.get());
  if (stmt->having && status.ok()) walk(stmt->having.get());
  return status;
}

// ---------------------------------------------------------------------------
// Aggregate decomposition
// ---------------------------------------------------------------------------

struct AggPartial {
  const Expr* node = nullptr;   // aggregate node in the *work* tree
  ExprPtr merge_expr;           // composition-side replacement
  // Sub-query select items this aggregate contributes (1 or 2).
  std::vector<sql::SelectItem> sub_items;
};

// colref helper
ExprPtr Col(const std::string& name) { return sql::MakeColumnRef("", name); }

ExprPtr SumOf(const std::string& name) {
  std::vector<ExprPtr> args;
  args.push_back(Col(name));
  return sql::MakeFuncCall("sum", std::move(args));
}

// Builds the partial columns + merge expression for one aggregate.
Result<AggPartial> DecomposeAggregate(const Expr& agg, size_t index) {
  AggPartial out;
  out.node = &agg;
  const std::string base = StrFormat("a%zu", index);
  const std::string& f = agg.func_name;
  if (agg.distinct) {
    return Status::Unsupported(f + "(DISTINCT) is not decomposable for SVP");
  }
  auto make_item = [&](ExprPtr e, const std::string& alias) {
    sql::SelectItem item;
    item.expr = std::move(e);
    item.alias = alias;
    return item;
  };
  if (f == "sum" || f == "count" || f == "min" || f == "max") {
    // Partial column: the same aggregate evaluated per node.
    sql::SelectItem item;
    item.expr = agg.Clone();
    item.alias = base;
    out.sub_items.push_back(std::move(item));
    if (f == "sum" || f == "count") {
      out.merge_expr = SumOf(base);
    } else {
      std::vector<ExprPtr> args;
      args.push_back(Col(base));
      out.merge_expr = sql::MakeFuncCall(f, std::move(args));
    }
    return out;
  }
  if (f == "avg") {
    // avg(e) -> sum(e) AS a<k>s, count(e) AS a<k>c (paper section 2),
    // merged as a NULL-guarded quotient.
    ExprPtr sum_clone = agg.Clone();
    sum_clone->func_name = "sum";
    ExprPtr cnt_clone = agg.Clone();
    cnt_clone->func_name = "count";
    out.sub_items.push_back(make_item(std::move(sum_clone), base + "s"));
    out.sub_items.push_back(make_item(std::move(cnt_clone), base + "c"));

    // CASE WHEN sum(a<k>c) = 0 THEN NULL
    //      ELSE sum(a<k>s) / sum(a<k>c) END
    auto guard = std::make_unique<Expr>();
    guard->kind = ExprKind::kCase;
    guard->children.push_back(sql::MakeBinary(
        BinaryOp::kEq, SumOf(base + "c"), sql::MakeLiteral(Value::Int(0))));
    guard->children.push_back(sql::MakeLiteral(Value::Null()));
    guard->case_else = sql::MakeBinary(BinaryOp::kDiv, SumOf(base + "s"),
                                       SumOf(base + "c"));
    out.merge_expr = std::move(guard);
    return out;
  }
  return Status::Unsupported("aggregate " + f + " is not decomposable");
}

// Substitutes a work-tree expression for the composition query:
// aggregate nodes -> merge expressions; subtrees equal to a GROUP BY
// expression -> g<j> column refs. Any remaining column reference means
// the expression is not computable from partials -> Unsupported.
Result<ExprPtr> SubstituteForComposition(
    const Expr& e,
    const std::unordered_map<const Expr*, const AggPartial*>& agg_map,
    const std::vector<ExprPtr>& group_exprs) {
  auto it = agg_map.find(&e);
  if (it != agg_map.end()) return it->second->merge_expr->Clone();
  for (size_t j = 0; j < group_exprs.size(); ++j) {
    if (sql::ExprEquals(e, *group_exprs[j])) {
      return Col(StrFormat("g%zu", j));
    }
  }
  switch (e.kind) {
    case ExprKind::kColumnRef:
      return Status::Unsupported(
          "output expression references non-grouped column " +
          e.column_name);
    case ExprKind::kExists:
    case ExprKind::kInSubquery:
    case ExprKind::kScalarSubquery:
      return Status::Unsupported("subquery in output expression");
    default:
      break;
  }
  ExprPtr clone = e.Clone();
  // Recurse by rebuilding children from the original (clone shares
  // structure; rebuild each child through substitution).
  for (size_t i = 0; i < e.children.size(); ++i) {
    APUAMA_ASSIGN_OR_RETURN(
        clone->children[i],
        SubstituteForComposition(*e.children[i], agg_map, group_exprs));
  }
  if (e.case_else) {
    APUAMA_ASSIGN_OR_RETURN(
        clone->case_else,
        SubstituteForComposition(*e.case_else, agg_map, group_exprs));
  }
  return clone;
}

}  // namespace

bool SvpRewriter::TouchesFactTable(const SelectStmt& query) const {
  for (const auto& t : sql::AllReferencedTables(query)) {
    if (catalog_->IsPartitionable(t)) return true;
  }
  return false;
}

Result<SvpPlan> SvpRewriter::Rewrite(const SelectStmt& query) const {
  // Work on a folded clone.
  std::unique_ptr<SelectStmt> work = query.Clone();
  sql::FoldConstants(work.get());

  // Locate the partition space in play.
  const VirtualPartitionSpace* space = nullptr;
  for (const auto& t : sql::AllReferencedTables(*work)) {
    const auto* s = catalog_->SpaceForTable(t);
    if (s != nullptr) {
      if (space != nullptr && s != space) {
        return Status::Unsupported("query spans multiple partition spaces");
      }
      space = s;
    }
  }
  if (space == nullptr) {
    return Status::Unsupported("query references no partitionable table");
  }

  // OLTP-style point access on the partition key: a single node can
  // answer through its own index; fanning out to every node would
  // only add overhead (the paper uses Apuama "only for OLAP query
  // processing" — this is the Cluster Administrator's check).
  for (const Expr* c : sql::SplitConjuncts(work->where.get())) {
    if (c->kind != ExprKind::kBinary || c->binary_op != BinaryOp::kEq) {
      continue;
    }
    const Expr& l = *c->children[0];
    const Expr& r = *c->children[1];
    const Expr* col = l.kind == ExprKind::kColumnRef ? &l : &r;
    const Expr* lit = col == &l ? &r : &l;
    if (col->kind == ExprKind::kColumnRef &&
        lit->kind == ExprKind::kLiteral &&
        space->IsMemberColumn(col->column_name)) {
      return Status::Unsupported(
          "point access on the partition key; inter-query routing is "
          "optimal");
    }
  }

  SvpPlan plan;
  plan.domain_min_ = space->min_value;
  plan.domain_max_ = space->max_value;
  plan.pred_min_ = space->min_value;
  plan.pred_max_ = space->max_value;
  for (const auto& t : sql::AllReferencedTables(*work)) {
    const std::string lowered = ToLower(t);
    bool seen_any = false;
    for (const auto& known : plan.all_tables_) {
      if (known == lowered) seen_any = true;
    }
    if (!seen_any) plan.all_tables_.push_back(lowered);
    const auto* member = space->FindMember(t);
    if (member == nullptr) continue;
    bool seen = false;
    for (const auto& known : plan.fact_tables_) {
      if (EqualsIgnoreCase(known, member->table)) seen = true;
    }
    if (!seen) plan.fact_tables_.push_back(member->table);
  }

  // Conservative predicate bounds on the partition key, read off the
  // query's own top-level conjuncts before range injection mutates
  // the WHERE clause. Only plain `vpa <op> int-literal` conjuncts
  // tighten the bounds — anything else leaves the whole domain, which
  // is always safe (pruning must never drop a non-empty partial).
  for (const Expr* c : sql::SplitConjuncts(work->where.get())) {
    if (c->kind != ExprKind::kBinary) continue;
    const Expr& l = *c->children[0];
    const Expr& r = *c->children[1];
    const Expr* col = nullptr;
    const Expr* lit = nullptr;
    bool col_on_left = false;
    if (l.kind == ExprKind::kColumnRef && r.kind == ExprKind::kLiteral) {
      col = &l;
      lit = &r;
      col_on_left = true;
    } else if (r.kind == ExprKind::kColumnRef &&
               l.kind == ExprKind::kLiteral) {
      col = &r;
      lit = &l;
    } else {
      continue;
    }
    if (!space->IsMemberColumn(col->column_name)) continue;
    if (lit->literal.type() != ValueType::kInt64) continue;
    const int64_t v = lit->literal.int_val();
    BinaryOp op = c->binary_op;
    if (!col_on_left) {
      // Normalize `lit op col` to `col op' lit`.
      switch (op) {
        case BinaryOp::kLt: op = BinaryOp::kGt; break;
        case BinaryOp::kLtEq: op = BinaryOp::kGtEq; break;
        case BinaryOp::kGt: op = BinaryOp::kLt; break;
        case BinaryOp::kGtEq: op = BinaryOp::kLtEq; break;
        default: break;
      }
    }
    switch (op) {
      case BinaryOp::kGtEq:
        if (v > plan.pred_min_) plan.pred_min_ = v;
        break;
      case BinaryOp::kGt:
        if (v + 1 > plan.pred_min_) plan.pred_min_ = v + 1;
        break;
      case BinaryOp::kLtEq:
        if (v < plan.pred_max_) plan.pred_max_ = v;
        break;
      case BinaryOp::kLt:
        if (v - 1 < plan.pred_max_) plan.pred_max_ = v - 1;
        break;
      default:
        break;
    }
  }

  // Inject range predicates (main scope + correlated subqueries).
  APUAMA_RETURN_NOT_OK(ConstrainStatement(work.get(), *catalog_, space, {},
                                          &plan.patches_,
                                          /*is_subquery=*/false));

  // Decide aggregate vs plain composition.
  bool has_agg = !work->group_by.empty();
  for (const auto& it : work->items) {
    if (it.star) {
      if (has_agg) return Status::Unsupported("SELECT * with aggregation");
      continue;
    }
    if (sql::ContainsAggregate(*it.expr)) has_agg = true;
  }
  if (work->having && !has_agg) {
    return Status::Unsupported("HAVING without aggregation");
  }

  auto comp = std::make_unique<SelectStmt>();
  comp->from.push_back(sql::TableRef{kPartialsTable, ""});

  if (has_agg) {
    if (work->distinct) {
      return Status::Unsupported("SELECT DISTINCT with aggregation");
    }
    // Aggregate inventory across output clauses.
    std::vector<const Expr*> agg_nodes;
    std::function<void(const Expr&)> collect = [&](const Expr& e) {
      if (e.kind == ExprKind::kFuncCall &&
          sql::IsAggregateFunction(e.func_name)) {
        agg_nodes.push_back(&e);
        return;
      }
      for (const auto& c : e.children) collect(*c);
      if (e.case_else) collect(*e.case_else);
    };
    for (const auto& it : work->items) collect(*it.expr);
    if (work->having) collect(*work->having);
    for (const auto& o : work->order_by) collect(*o.expr);

    std::vector<AggPartial> partials;
    partials.reserve(agg_nodes.size());
    std::unordered_map<const Expr*, const AggPartial*> agg_map;
    for (size_t i = 0; i < agg_nodes.size(); ++i) {
      APUAMA_ASSIGN_OR_RETURN(AggPartial p,
                              DecomposeAggregate(*agg_nodes[i], i));
      partials.push_back(std::move(p));
    }
    for (const auto& p : partials) agg_map[p.node] = &p;

    // Composition SELECT items: original outputs, substituted, with
    // original output names pinned as aliases.
    for (size_t i = 0; i < work->items.size(); ++i) {
      sql::SelectItem item;
      APUAMA_ASSIGN_OR_RETURN(
          item.expr, SubstituteForComposition(*work->items[i].expr, agg_map,
                                              work->group_by));
      item.alias = sql::OutputName(work->items[i], i);
      comp->items.push_back(std::move(item));
    }
    // Composition GROUP BY over partial group columns.
    for (size_t j = 0; j < work->group_by.size(); ++j) {
      comp->group_by.push_back(Col(StrFormat("g%zu", j)));
    }
    if (work->having) {
      APUAMA_ASSIGN_OR_RETURN(
          comp->having,
          SubstituteForComposition(*work->having, agg_map, work->group_by));
    }
    // ORDER BY: ordinals and output-alias references pass through;
    // other expressions are substituted.
    for (const auto& o : work->order_by) {
      sql::OrderItem oi;
      oi.desc = o.desc;
      bool passthrough = false;
      if (o.expr->kind == ExprKind::kLiteral &&
          o.expr->literal.type() == ValueType::kInt64) {
        passthrough = true;  // ordinal
      } else if (o.expr->kind == ExprKind::kColumnRef &&
                 o.expr->table_qualifier.empty()) {
        for (const auto& item : comp->items) {
          if (EqualsIgnoreCase(item.alias, o.expr->column_name)) {
            passthrough = true;
            break;
          }
        }
      }
      if (passthrough) {
        oi.expr = o.expr->Clone();
      } else {
        APUAMA_ASSIGN_OR_RETURN(
            oi.expr,
            SubstituteForComposition(*o.expr, agg_map, work->group_by));
      }
      comp->order_by.push_back(std::move(oi));
    }
    comp->limit = work->limit;
    comp->offset = work->offset;

    // Sub-query select list: g<j> group columns then partial columns.
    std::vector<sql::SelectItem> sub_items;
    for (size_t j = 0; j < work->group_by.size(); ++j) {
      sql::SelectItem item;
      item.expr = work->group_by[j]->Clone();
      item.alias = StrFormat("g%zu", j);
      sub_items.push_back(std::move(item));
    }
    for (auto& p : partials) {
      for (auto& item : p.sub_items) sub_items.push_back(std::move(item));
    }
    work->items = std::move(sub_items);
    work->having = nullptr;   // applied at composition
    work->order_by.clear();   // global order happens at composition
    work->limit = -1;         // cannot cut partial groups early
    work->offset = 0;
  } else {
    // Plain (non-aggregate) query: partials are row subsets.
    // ORDER BY must be computable from the output columns.
    for (size_t i = 0; i < work->items.size(); ++i) {
      if (work->items[i].star) {
        return Status::Unsupported(
            "SELECT * is not SVP-composable (name outputs explicitly)");
      }
    }
    std::vector<std::string> out_names;
    for (size_t i = 0; i < work->items.size(); ++i) {
      out_names.push_back(sql::OutputName(work->items[i], i));
    }
    comp->distinct = work->distinct;
    for (size_t i = 0; i < work->items.size(); ++i) {
      sql::SelectItem item;
      item.expr = Col(StrFormat("p%zu", i));
      item.alias = out_names[i];
      comp->items.push_back(std::move(item));
    }
    for (const auto& o : work->order_by) {
      sql::OrderItem oi;
      oi.desc = o.desc;
      if (o.expr->kind == ExprKind::kLiteral &&
          o.expr->literal.type() == ValueType::kInt64) {
        oi.expr = o.expr->Clone();
      } else {
        // Map to an output column: by alias or by structural equality
        // with a select item.
        int slot = -1;
        if (o.expr->kind == ExprKind::kColumnRef &&
            o.expr->table_qualifier.empty()) {
          for (size_t i = 0; i < out_names.size(); ++i) {
            if (EqualsIgnoreCase(out_names[i], o.expr->column_name)) {
              slot = static_cast<int>(i);
              break;
            }
          }
        }
        if (slot < 0) {
          for (size_t i = 0; i < work->items.size(); ++i) {
            if (sql::ExprEquals(*o.expr, *work->items[i].expr)) {
              slot = static_cast<int>(i);
              break;
            }
          }
        }
        if (slot < 0) {
          return Status::Unsupported(
              "ORDER BY expression is not among the output columns");
        }
        oi.expr = Col(StrFormat("p%d", slot));
      }
      comp->order_by.push_back(std::move(oi));
    }
    comp->limit = work->limit;
    comp->offset = work->offset;

    // Sub-queries: alias outputs p<i>; keep DISTINCT; keep ORDER BY
    // and LIMIT only when a LIMIT exists (top-k pushdown: each node
    // must return limit+offset rows — the skip happens globally).
    // The pushed-down ORDER BY must reference the renamed p<i>
    // outputs, which is exactly what the composition's order keys do.
    for (size_t i = 0; i < work->items.size(); ++i) {
      work->items[i].alias = StrFormat("p%zu", i);
    }
    if (work->limit < 0) {
      work->order_by.clear();
    } else {
      work->order_by.clear();
      for (const auto& o : comp->order_by) {
        sql::OrderItem oi;
        oi.desc = o.desc;
        oi.expr = o.expr->Clone();
        work->order_by.push_back(std::move(oi));
      }
      work->limit += work->offset;
    }
    work->offset = 0;
  }

  plan.composition_sql_ = sql::UnparseSelect(*comp);
  sql::FoldConstants(comp.get());
  plan.composition_ = std::move(comp);
  plan.template_ = std::move(work);
  return plan;
}

}  // namespace apuama
