#include "sql/ast.h"

#include "common/string_util.h"

namespace apuama::sql {

bool IsComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNotEq:
    case BinaryOp::kLt:
    case BinaryOp::kLtEq:
    case BinaryOp::kGt:
    case BinaryOp::kGtEq:
      return true;
    default:
      return false;
  }
}

const char* BinaryOpName(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd:
      return "+";
    case BinaryOp::kSub:
      return "-";
    case BinaryOp::kMul:
      return "*";
    case BinaryOp::kDiv:
      return "/";
    case BinaryOp::kEq:
      return "=";
    case BinaryOp::kNotEq:
      return "<>";
    case BinaryOp::kLt:
      return "<";
    case BinaryOp::kLtEq:
      return "<=";
    case BinaryOp::kGt:
      return ">";
    case BinaryOp::kGtEq:
      return ">=";
    case BinaryOp::kAnd:
      return "AND";
    case BinaryOp::kOr:
      return "OR";
  }
  return "?";
}

ExprPtr Expr::Clone() const {
  auto out = std::make_unique<Expr>();
  out->kind = kind;
  out->literal = literal;
  out->table_qualifier = table_qualifier;
  out->column_name = column_name;
  out->unary_op = unary_op;
  out->binary_op = binary_op;
  out->func_name = func_name;
  out->star_arg = star_arg;
  out->distinct = distinct;
  out->interval_count = interval_count;
  out->interval_unit = interval_unit;
  out->like_pattern = like_pattern;
  out->negated = negated;
  if (case_else) out->case_else = case_else->Clone();
  out->children.reserve(children.size());
  for (const auto& c : children) out->children.push_back(c->Clone());
  if (subquery) out->subquery = subquery->Clone();
  return out;
}

std::unique_ptr<SelectStmt> SelectStmt::Clone() const {
  auto out = std::make_unique<SelectStmt>();
  out->approx = approx;
  out->distinct = distinct;
  out->items.reserve(items.size());
  for (const auto& it : items) {
    SelectItem si;
    si.star = it.star;
    si.alias = it.alias;
    if (it.expr) si.expr = it.expr->Clone();
    out->items.push_back(std::move(si));
  }
  out->from = from;
  if (where) out->where = where->Clone();
  for (const auto& g : group_by) out->group_by.push_back(g->Clone());
  if (having) out->having = having->Clone();
  for (const auto& o : order_by) {
    OrderItem oi;
    oi.desc = o.desc;
    oi.expr = o.expr->Clone();
    out->order_by.push_back(std::move(oi));
  }
  out->limit = limit;
  out->offset = offset;
  return out;
}

ExprPtr MakeLiteral(Value v) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kLiteral;
  e->literal = std::move(v);
  return e;
}

ExprPtr MakeColumnRef(std::string qualifier, std::string column) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kColumnRef;
  e->table_qualifier = std::move(qualifier);
  e->column_name = std::move(column);
  return e;
}

ExprPtr MakeUnary(UnaryOp op, ExprPtr operand) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kUnary;
  e->unary_op = op;
  e->children.push_back(std::move(operand));
  return e;
}

ExprPtr MakeBinary(BinaryOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kBinary;
  e->binary_op = op;
  e->children.push_back(std::move(lhs));
  e->children.push_back(std::move(rhs));
  return e;
}

ExprPtr MakeBetween(ExprPtr x, ExprPtr lo, ExprPtr hi, bool negated) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kBetween;
  e->negated = negated;
  e->children.push_back(std::move(x));
  e->children.push_back(std::move(lo));
  e->children.push_back(std::move(hi));
  return e;
}

ExprPtr MakeFuncCall(std::string name, std::vector<ExprPtr> args) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kFuncCall;
  e->func_name = std::move(name);
  e->children = std::move(args);
  return e;
}

ExprPtr MakeCountStar() {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kFuncCall;
  e->func_name = "count";
  e->star_arg = true;
  return e;
}

ExprPtr MakeStar() {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kStar;
  return e;
}

ExprPtr MakeExists(std::unique_ptr<SelectStmt> sub, bool negated) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kExists;
  e->negated = negated;
  e->subquery = std::move(sub);
  return e;
}

ExprPtr AndCombine(ExprPtr a, ExprPtr b) {
  if (!a) return b;
  if (!b) return a;
  return MakeBinary(BinaryOp::kAnd, std::move(a), std::move(b));
}

std::string OutputName(const SelectItem& item, size_t ordinal) {
  if (!item.alias.empty()) return item.alias;
  if (item.expr && item.expr->kind == ExprKind::kColumnRef) {
    return item.expr->column_name;
  }
  if (item.expr && item.expr->kind == ExprKind::kFuncCall) {
    return item.expr->func_name;
  }
  return StrFormat("column%zu", ordinal + 1);
}

}  // namespace apuama::sql
