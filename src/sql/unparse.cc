#include "sql/unparse.h"

#include <cassert>

#include "common/string_util.h"

namespace apuama::sql {

namespace {

// Parenthesization is conservative: any non-leaf operand of a binary
// operator is wrapped. The output is for machine consumption (backend
// DBMSs), not pretty-printing.
bool IsLeaf(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kLiteral:
    case ExprKind::kColumnRef:
    case ExprKind::kFuncCall:
    case ExprKind::kStar:
    case ExprKind::kInterval:
    case ExprKind::kScalarSubquery:  // renders its own parentheses
      return true;
    default:
      return false;
  }
}

// `head` followed by `tail`. Appending to the head, instead of writing
// `"lit" + std::string&&` (which inserts at the temporary's front),
// keeps GCC 12's -Wrestrict false positive out of optimized builds.
std::string Prefix(const char* head, const std::string& tail) {
  std::string out = head;
  out += tail;
  return out;
}

std::string Wrap(const Expr& e) {
  std::string s = UnparseExpr(e);
  if (IsLeaf(e)) return s;
  return "(" + s + ")";
}

}  // namespace

std::string UnparseExpr(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kLiteral:
      return e.literal.ToSqlLiteral();
    case ExprKind::kColumnRef:
      if (e.table_qualifier.empty()) return e.column_name;
      return e.table_qualifier + "." + e.column_name;
    case ExprKind::kUnary:
      if (e.unary_op == UnaryOp::kNegate) {
        return Prefix("-", Wrap(*e.children[0]));
      }
      return Prefix("NOT ", Wrap(*e.children[0]));
    case ExprKind::kBinary:
      return Wrap(*e.children[0]) + " " + BinaryOpName(e.binary_op) + " " +
             Wrap(*e.children[1]);
    case ExprKind::kBetween:
      return Wrap(*e.children[0]) + (e.negated ? " NOT" : "") + " BETWEEN " +
             Wrap(*e.children[1]) + " AND " + Wrap(*e.children[2]);
    case ExprKind::kInList: {
      std::vector<std::string> items;
      for (size_t i = 1; i < e.children.size(); ++i) {
        items.push_back(UnparseExpr(*e.children[i]));
      }
      return Wrap(*e.children[0]) + (e.negated ? " NOT" : "") + " IN (" +
             Join(items, ", ") + ")";
    }
    case ExprKind::kInSubquery:
      return Wrap(*e.children[0]) + (e.negated ? " NOT" : "") + " IN (" +
             UnparseSelect(*e.subquery) + ")";
    case ExprKind::kExists:
      return std::string(e.negated ? "NOT " : "") + "EXISTS (" +
             UnparseSelect(*e.subquery) + ")";
    case ExprKind::kLike: {
      // Re-escape quotes in the pattern.
      std::string pat = Value::Str(e.like_pattern).ToSqlLiteral();
      return Wrap(*e.children[0]) + (e.negated ? " NOT" : "") + " LIKE " +
             pat;
    }
    case ExprKind::kIsNull:
      return Wrap(*e.children[0]) + " IS " + (e.negated ? "NOT " : "") +
             "NULL";
    case ExprKind::kCase: {
      std::string out = "CASE";
      for (size_t i = 0; i + 1 < e.children.size(); i += 2) {
        out += Prefix(" WHEN ", UnparseExpr(*e.children[i])) + " THEN " +
               UnparseExpr(*e.children[i + 1]);
      }
      if (e.case_else) out += Prefix(" ELSE ", UnparseExpr(*e.case_else));
      out += " END";
      return out;
    }
    case ExprKind::kFuncCall: {
      if (e.star_arg) return e.func_name + "(*)";
      std::vector<std::string> args;
      for (const auto& c : e.children) args.push_back(UnparseExpr(*c));
      return e.func_name + "(" + std::string(e.distinct ? "DISTINCT " : "") +
             Join(args, ", ") + ")";
    }
    case ExprKind::kStar:
      return "*";
    case ExprKind::kScalarSubquery:
      return Prefix("(", UnparseSelect(*e.subquery)) + ")";
    case ExprKind::kInterval: {
      const char* unit = e.interval_unit == Expr::IntervalUnit::kDay ? "DAY"
                         : e.interval_unit == Expr::IntervalUnit::kMonth
                             ? "MONTH"
                             : "YEAR";
      return StrFormat("INTERVAL '%lld' %s",
                       static_cast<long long>(e.interval_count), unit);
    }
  }
  return "?";
}

std::string UnparseSelect(const SelectStmt& s) {
  std::string out = s.approx ? "APPROX SELECT " : "SELECT ";
  if (s.distinct) out += "DISTINCT ";
  std::vector<std::string> items;
  for (const auto& it : s.items) {
    if (it.star) {
      items.push_back("*");
      continue;
    }
    std::string t = UnparseExpr(*it.expr);
    if (!it.alias.empty()) t += " AS " + it.alias;
    items.push_back(std::move(t));
  }
  out += Join(items, ", ");
  if (!s.from.empty()) {
    out += " FROM ";
    std::vector<std::string> refs;
    for (const auto& r : s.from) {
      std::string t = r.table;
      if (!r.alias.empty()) t += " " + r.alias;
      refs.push_back(std::move(t));
    }
    out += Join(refs, ", ");
  }
  if (s.where) out += Prefix(" WHERE ", UnparseExpr(*s.where));
  if (!s.group_by.empty()) {
    std::vector<std::string> gs;
    for (const auto& g : s.group_by) gs.push_back(UnparseExpr(*g));
    out += Prefix(" GROUP BY ", Join(gs, ", "));
  }
  if (s.having) out += Prefix(" HAVING ", UnparseExpr(*s.having));
  if (!s.order_by.empty()) {
    std::vector<std::string> os;
    for (const auto& o : s.order_by) {
      std::string t = UnparseExpr(*o.expr);
      if (o.desc) t += " DESC";
      os.push_back(std::move(t));
    }
    out += Prefix(" ORDER BY ", Join(os, ", "));
  }
  if (s.limit >= 0) {
    out += StrFormat(" LIMIT %lld", static_cast<long long>(s.limit));
  }
  if (s.offset > 0) {
    out += StrFormat(" OFFSET %lld", static_cast<long long>(s.offset));
  }
  return out;
}

std::string UnparseStmt(const Stmt& s) {
  switch (s.kind()) {
    case StmtKind::kSelect:
      return UnparseSelect(static_cast<const SelectStmt&>(s));
    case StmtKind::kInsert: {
      const auto& st = static_cast<const InsertStmt&>(s);
      std::string out = "INSERT INTO " + st.table;
      if (!st.columns.empty()) {
        out += Prefix(" (", Join(st.columns, ", ")) + ")";
      }
      out += " VALUES ";
      std::vector<std::string> rows;
      for (const auto& row : st.rows) {
        std::vector<std::string> vals;
        for (const auto& v : row) vals.push_back(UnparseExpr(*v));
        rows.push_back(Prefix("(", Join(vals, ", ")) + ")");
      }
      out += Join(rows, ", ");
      return out;
    }
    case StmtKind::kDelete: {
      const auto& st = static_cast<const DeleteStmt&>(s);
      std::string out = "DELETE FROM " + st.table;
      if (st.where) out += Prefix(" WHERE ", UnparseExpr(*st.where));
      return out;
    }
    case StmtKind::kUpdate: {
      const auto& st = static_cast<const UpdateStmt&>(s);
      std::string out = "UPDATE " + st.table + " SET ";
      std::vector<std::string> sets;
      for (const auto& [col, val] : st.assignments) {
        sets.push_back(col + " = " + UnparseExpr(*val));
      }
      out += Join(sets, ", ");
      if (st.where) out += Prefix(" WHERE ", UnparseExpr(*st.where));
      return out;
    }
    case StmtKind::kCreateTable: {
      const auto& st = static_cast<const CreateTableStmt&>(s);
      std::vector<std::string> cols;
      for (const auto& c : st.columns) {
        std::string t = c.name;
        switch (c.type) {
          case ValueType::kInt64:
            t += " BIGINT";
            break;
          case ValueType::kDouble:
            t += " DOUBLE";
            break;
          case ValueType::kString:
            t += " TEXT";
            break;
          case ValueType::kDate:
            t += " DATE";
            break;
          default:
            t += " TEXT";
        }
        if (c.not_null && !c.primary_key) t += " NOT NULL";
        cols.push_back(std::move(t));
      }
      if (!st.primary_key.empty()) {
        cols.push_back(Prefix("PRIMARY KEY (", Join(st.primary_key, ", ")) +
                       ")");
      }
      return "CREATE TABLE " + st.table + " (" + Join(cols, ", ") + ")";
    }
    case StmtKind::kCreateIndex: {
      const auto& st = static_cast<const CreateIndexStmt&>(s);
      return std::string("CREATE ") + (st.clustered ? "CLUSTERED " : "") +
             "INDEX " + st.index_name + " ON " + st.table + " (" +
             Join(st.columns, ", ") + ")";
    }
    case StmtKind::kDropTable:
      return "DROP TABLE " + static_cast<const DropTableStmt&>(s).table;
    case StmtKind::kAlterFragment: {
      const auto& st = static_cast<const AlterFragmentStmt&>(s);
      std::string out = "ALTER TABLE " + st.table;
      if (st.unfragment) return out + " UNFRAGMENT";
      out += std::string(" FRAGMENT BY ") + (st.by_hash ? "HASH" : "RANGE") +
             " (" + st.column + ")" +
             StrFormat(" INTO %lld", static_cast<long long>(st.fragments));
      if (st.replica_factor != 1) {
        out += StrFormat(" REPLICA %lld",
                         static_cast<long long>(st.replica_factor));
      }
      return out;
    }
    case StmtKind::kCreateSample: {
      const auto& st = static_cast<const CreateSampleStmt&>(s);
      std::string out = "CREATE SAMPLE ";
      if (!st.sample_name.empty()) out += st.sample_name + " ON ";
      return out + st.table + StrFormat(" RATIO %g", st.ratio);
    }
    case StmtKind::kDropSample: {
      const auto& st = static_cast<const DropSampleStmt&>(s);
      std::string out = "DROP SAMPLE ";
      if (!st.sample_name.empty()) out += st.sample_name + " ON ";
      return out + st.table;
    }
    case StmtKind::kSet: {
      const auto& st = static_cast<const SetStmt&>(s);
      return "SET " + st.name + " = " + st.value;
    }
    case StmtKind::kExplain: {
      const auto& st = static_cast<const ExplainStmt&>(s);
      return std::string("EXPLAIN ") + (st.analyze ? "ANALYZE " : "") +
             UnparseSelect(*st.query);
    }
    case StmtKind::kBegin:
      return "BEGIN";
    case StmtKind::kCommit:
      return "COMMIT";
    case StmtKind::kRollback:
      return "ROLLBACK";
  }
  return "?";
}

}  // namespace apuama::sql
