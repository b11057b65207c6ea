#include "apuama/approx/approx_rewriter.h"

#include <cctype>
#include <memory>
#include <utility>

#include "apuama/svp_rewriter.h"
#include "common/string_util.h"
#include "sql/unparse.h"

namespace apuama::approx {

namespace {

bool HasSubquery(const sql::Expr& e) {
  if (e.subquery != nullptr) return true;
  if (e.case_else != nullptr && HasSubquery(*e.case_else)) return true;
  for (const auto& c : e.children) {
    if (c != nullptr && HasSubquery(*c)) return true;
  }
  return false;
}

// Classifies one select item as a supported aggregate; nullopt when
// it is not an aggregate call at all; Unsupported when it is an
// aggregate the tier cannot estimate.
Result<std::optional<AggKind>> ClassifyAggregate(const sql::Expr& e) {
  if (e.kind != sql::ExprKind::kFuncCall) return std::optional<AggKind>();
  const std::string name = ToLower(e.func_name);
  if (name != "sum" && name != "count" && name != "avg") {
    if (name == "min" || name == "max") {
      return Status::Unsupported("approx: " + name +
                                 " has no sampling estimator");
    }
    return std::optional<AggKind>();  // scalar function, handled below
  }
  if (e.distinct) {
    return Status::Unsupported("approx: DISTINCT aggregates");
  }
  if (name == "count") {
    if (!e.star_arg) {
      return Status::Unsupported(
          "approx: count(expr) (only count(*) is estimable)");
    }
    return std::optional<AggKind>(AggKind::kCount);
  }
  if (e.children.size() != 1 || e.children[0] == nullptr) {
    return Status::Unsupported("approx: malformed aggregate argument");
  }
  return std::optional<AggKind>(name == "sum" ? AggKind::kSum
                                              : AggKind::kAvg);
}

sql::SelectItem MakeItem(sql::ExprPtr expr, std::string alias) {
  sql::SelectItem item;
  item.expr = std::move(expr);
  item.alias = std::move(alias);
  return item;
}

}  // namespace

bool StartsWithApproxVerb(const std::string& sql) {
  size_t i = 0;
  while (i < sql.size() &&
         std::isspace(static_cast<unsigned char>(sql[i]))) {
    ++i;
  }
  static constexpr char kVerb[] = "approx";
  for (size_t k = 0; k < 6; ++k, ++i) {
    if (i >= sql.size() ||
        std::tolower(static_cast<unsigned char>(sql[i])) != kVerb[k]) {
      return false;
    }
  }
  // Must be a whole word ("approximate_x" is an identifier).
  return i >= sql.size() ||
         std::isspace(static_cast<unsigned char>(sql[i]));
}

Result<ApproxQuerySpec> BuildApproxQuery(const sql::SelectStmt& query,
                                         const std::string& base_table,
                                         const std::string& sample_table) {
  if (query.distinct) return Status::Unsupported("approx: SELECT DISTINCT");
  if (query.having != nullptr) return Status::Unsupported("approx: HAVING");
  if (query.from.size() != 1) {
    return Status::Unsupported("approx: joins (single-table queries only)");
  }
  if (query.where != nullptr && HasSubquery(*query.where)) {
    return Status::Unsupported("approx: subqueries in WHERE");
  }

  ApproxQuerySpec spec;
  spec.base_table = ToLower(base_table);
  spec.sample_table = ToLower(sample_table);
  spec.num_group_cols = query.group_by.size();
  spec.limit = query.limit;
  spec.offset = query.offset;

  // Textual keys of the GROUP BY expressions, used to recognize group
  // columns in the select list (the dialect requires non-aggregate
  // select items to appear in GROUP BY, so unparse equality is exact).
  std::vector<std::string> group_keys;
  group_keys.reserve(query.group_by.size());
  for (const auto& g : query.group_by) {
    if (g == nullptr || HasSubquery(*g)) {
      return Status::Unsupported("approx: unsupported GROUP BY expression");
    }
    group_keys.push_back(sql::UnparseExpr(*g));
  }

  // Classify every select item.
  for (size_t i = 0; i < query.items.size(); ++i) {
    const auto& item = query.items[i];
    if (item.star || item.expr == nullptr) {
      return Status::Unsupported("approx: SELECT * (aggregates only)");
    }
    APUAMA_ASSIGN_OR_RETURN(std::optional<AggKind> agg,
                            ClassifyAggregate(*item.expr));
    spec.column_names.push_back(sql::OutputName(item, i));
    if (agg.has_value()) {
      if (*agg != AggKind::kCount &&
          HasSubquery(*item.expr->children[0])) {
        return Status::Unsupported("approx: subquery aggregate argument");
      }
      ApproxAggSpec a;
      a.kind = *agg;
      a.item_index = i;
      spec.aggs.push_back(a);
      spec.item_to_group.push_back(-1);
      continue;
    }
    const std::string key = sql::UnparseExpr(*item.expr);
    int group_idx = -1;
    for (size_t g = 0; g < group_keys.size(); ++g) {
      if (group_keys[g] == key) {
        group_idx = static_cast<int>(g);
        break;
      }
    }
    if (group_idx < 0) {
      return Status::Unsupported(
          "approx: select item is neither a supported aggregate nor a "
          "GROUP BY column: " + key);
    }
    spec.item_to_group.push_back(group_idx);
  }
  if (spec.aggs.empty()) {
    return Status::Unsupported("approx: no aggregate to estimate");
  }

  // Map ORDER BY onto output slots (1-based ordinal, alias, group
  // expression, or aggregate expression).
  for (const auto& o : query.order_by) {
    if (o.expr == nullptr) return Status::Unsupported("approx: ORDER BY");
    int slot = -1;
    if (o.expr->kind == sql::ExprKind::kLiteral &&
        o.expr->literal.type() == ValueType::kInt64) {
      const int64_t ordinal = o.expr->literal.int_val();
      if (ordinal < 1 ||
          ordinal > static_cast<int64_t>(query.items.size())) {
        return Status::Unsupported("approx: ORDER BY ordinal out of range");
      }
      slot = static_cast<int>(ordinal - 1);
    } else {
      const std::string key = sql::UnparseExpr(*o.expr);
      for (size_t i = 0; i < query.items.size(); ++i) {
        const bool alias_match =
            o.expr->kind == sql::ExprKind::kColumnRef &&
            o.expr->table_qualifier.empty() &&
            EqualsIgnoreCase(o.expr->column_name, query.items[i].alias);
        if (alias_match ||
            (query.items[i].expr != nullptr &&
             sql::UnparseExpr(*query.items[i].expr) == key)) {
          slot = static_cast<int>(i);
          break;
        }
      }
    }
    if (slot < 0) {
      return Status::Unsupported(
          "approx: ORDER BY must address an output column");
    }
    spec.order_by.emplace_back(slot, o.desc);
  }

  // Assemble the stats query: group keys, per-aggregate moments, and
  // one shared count(*).
  auto stats = std::make_unique<sql::SelectStmt>();
  for (const auto& ref : query.from) stats->from.push_back(ref);
  if (query.where != nullptr) stats->where = query.where->Clone();
  int col = 0;
  for (size_t g = 0; g < query.group_by.size(); ++g) {
    stats->group_by.push_back(query.group_by[g]->Clone());
    stats->items.push_back(MakeItem(query.group_by[g]->Clone(),
                                    StrFormat("__g%zu", g)));
    ++col;
  }
  for (auto& a : spec.aggs) {
    if (a.kind == AggKind::kCount) continue;
    const sql::Expr& arg = *query.items[a.item_index].expr->children[0];
    std::vector<sql::ExprPtr> sum_args;
    sum_args.push_back(arg.Clone());
    stats->items.push_back(
        MakeItem(sql::MakeFuncCall("sum", std::move(sum_args)),
                 StrFormat("__s%zu", a.item_index)));
    a.sum_col = col++;
    std::vector<sql::ExprPtr> sq_args;
    sq_args.push_back(sql::MakeBinary(sql::BinaryOp::kMul, arg.Clone(),
                                      arg.Clone()));
    stats->items.push_back(
        MakeItem(sql::MakeFuncCall("sum", std::move(sq_args)),
                 StrFormat("__q%zu", a.item_index)));
    a.sumsq_col = col++;
  }
  stats->items.push_back(MakeItem(sql::MakeCountStar(), "__c"));
  spec.count_col = col;

  RemapSelectTables(stats.get(), {{spec.base_table, spec.sample_table}});
  spec.stats_sql = sql::UnparseSelect(*stats);
  return spec;
}

}  // namespace apuama::approx
