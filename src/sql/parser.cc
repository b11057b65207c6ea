#include "sql/parser.h"

#include <cassert>

#include "common/string_util.h"
#include "sql/token.h"

namespace apuama::sql {

namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : toks_(std::move(tokens)) {}

  Result<StmtPtr> ParseStatement() {
    APUAMA_ASSIGN_OR_RETURN(StmtPtr stmt, ParseStatementInner());
    // optional trailing ';'
    if (Cur().type == TokenType::kSemicolon) Advance();
    if (Cur().type != TokenType::kEOF) {
      return Err("unexpected trailing input");
    }
    return stmt;
  }

  Result<std::vector<StmtPtr>> ParseAll() {
    std::vector<StmtPtr> out;
    while (Cur().type != TokenType::kEOF) {
      APUAMA_ASSIGN_OR_RETURN(StmtPtr stmt, ParseStatementInner());
      out.push_back(std::move(stmt));
      if (Cur().type == TokenType::kSemicolon) {
        Advance();
      } else if (Cur().type != TokenType::kEOF) {
        return Err("expected ';' between statements");
      }
    }
    return out;
  }

 private:
  const Token& Cur() const { return toks_[pos_]; }
  const Token& Peek(size_t k = 1) const {
    size_t i = pos_ + k;
    return i < toks_.size() ? toks_[i] : toks_.back();
  }
  void Advance() {
    if (pos_ + 1 < toks_.size()) ++pos_;
  }

  Status Err(const std::string& msg) const {
    return Status::ParseError(
        StrFormat("%s (near offset %zu, token '%s')", msg.c_str(), Cur().pos,
                  Cur().text.c_str()));
  }

  bool AcceptKeyword(const char* kw) {
    if (Cur().IsKeyword(kw)) {
      Advance();
      return true;
    }
    return false;
  }

  Status ExpectKeyword(const char* kw) {
    if (!AcceptKeyword(kw)) return Err(std::string("expected ") + kw);
    return Status::OK();
  }

  bool Accept(TokenType t) {
    if (Cur().type == t) {
      Advance();
      return true;
    }
    return false;
  }

  Status Expect(TokenType t, const char* what) {
    if (!Accept(t)) return Err(std::string("expected ") + what);
    return Status::OK();
  }

  Result<std::string> ExpectIdentifier(const char* what) {
    if (Cur().type != TokenType::kIdentifier) {
      return Err(std::string("expected ") + what);
    }
    std::string name = Cur().text;
    Advance();
    return name;
  }

  Result<StmtPtr> ParseStatementInner() {
    const Token& t = Cur();
    if (t.type != TokenType::kKeyword) return Err("expected a statement");
    if (t.text == "SELECT") {
      APUAMA_ASSIGN_OR_RETURN(auto sel, ParseSelectStmt());
      return StmtPtr(std::move(sel));
    }
    if (t.text == "APPROX") {
      Advance();
      APUAMA_ASSIGN_OR_RETURN(auto sel, ParseSelectStmt());
      sel->approx = true;
      return StmtPtr(std::move(sel));
    }
    if (t.text == "EXPLAIN") {
      Advance();
      auto stmt = std::make_unique<ExplainStmt>();
      stmt->analyze = AcceptKeyword("ANALYZE");
      const bool approx = AcceptKeyword("APPROX");
      APUAMA_ASSIGN_OR_RETURN(stmt->query, ParseSelectStmt());
      stmt->query->approx = approx;
      return StmtPtr(std::move(stmt));
    }
    if (t.text == "INSERT") return ParseInsert();
    if (t.text == "DELETE") return ParseDelete();
    if (t.text == "UPDATE") return ParseUpdate();
    if (t.text == "CREATE") return ParseCreate();
    if (t.text == "ALTER") return ParseAlter();
    if (t.text == "DROP") return ParseDrop();
    if (t.text == "SET") return ParseSet();
    if (t.text == "BEGIN") {
      Advance();
      return StmtPtr(std::make_unique<BeginStmt>());
    }
    if (t.text == "COMMIT") {
      Advance();
      return StmtPtr(std::make_unique<CommitStmt>());
    }
    if (t.text == "ROLLBACK") {
      Advance();
      return StmtPtr(std::make_unique<RollbackStmt>());
    }
    return Err("unsupported statement: " + t.text);
  }

  // ---- SELECT -------------------------------------------------------------

  Result<std::unique_ptr<SelectStmt>> ParseSelectStmt() {
    APUAMA_RETURN_NOT_OK(ExpectKeyword("SELECT"));
    auto stmt = std::make_unique<SelectStmt>();
    stmt->distinct = AcceptKeyword("DISTINCT");

    // Select list.
    while (true) {
      SelectItem item;
      if (Cur().type == TokenType::kStar) {
        Advance();
        item.star = true;
      } else {
        APUAMA_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (AcceptKeyword("AS")) {
          APUAMA_ASSIGN_OR_RETURN(item.alias, ExpectIdentifier("alias"));
        } else if (Cur().type == TokenType::kIdentifier) {
          item.alias = Cur().text;  // bare alias
          Advance();
        }
      }
      stmt->items.push_back(std::move(item));
      if (!Accept(TokenType::kComma)) break;
    }

    if (AcceptKeyword("FROM")) {
      APUAMA_RETURN_NOT_OK(ParseFromClause(stmt.get()));
    }
    if (AcceptKeyword("WHERE")) {
      APUAMA_ASSIGN_OR_RETURN(ExprPtr w, ParseExpr());
      stmt->where = AndCombine(std::move(stmt->where), std::move(w));
    }
    if (AcceptKeyword("GROUP")) {
      APUAMA_RETURN_NOT_OK(ExpectKeyword("BY"));
      while (true) {
        APUAMA_ASSIGN_OR_RETURN(ExprPtr g, ParseExpr());
        stmt->group_by.push_back(std::move(g));
        if (!Accept(TokenType::kComma)) break;
      }
    }
    if (AcceptKeyword("HAVING")) {
      APUAMA_ASSIGN_OR_RETURN(stmt->having, ParseExpr());
    }
    if (AcceptKeyword("ORDER")) {
      APUAMA_RETURN_NOT_OK(ExpectKeyword("BY"));
      while (true) {
        OrderItem oi;
        APUAMA_ASSIGN_OR_RETURN(oi.expr, ParseExpr());
        if (AcceptKeyword("DESC")) {
          oi.desc = true;
        } else {
          AcceptKeyword("ASC");
        }
        stmt->order_by.push_back(std::move(oi));
        if (!Accept(TokenType::kComma)) break;
      }
    }
    if (AcceptKeyword("LIMIT")) {
      if (Cur().type != TokenType::kIntLiteral) {
        return Err("expected integer after LIMIT");
      }
      stmt->limit = Cur().int_val;
      Advance();
    }
    if (AcceptKeyword("OFFSET")) {
      if (Cur().type != TokenType::kIntLiteral) {
        return Err("expected integer after OFFSET");
      }
      stmt->offset = Cur().int_val;
      Advance();
    }
    return stmt;
  }

  // FROM t1 [a1], t2 [a2] [INNER] JOIN t3 [a3] ON cond ...
  // JOIN ... ON folds its condition into the WHERE conjunction so the
  // planner sees one uniform representation.
  Status ParseFromClause(SelectStmt* stmt) {
    APUAMA_RETURN_NOT_OK(ParseTableRef(stmt));
    while (true) {
      if (Accept(TokenType::kComma)) {
        APUAMA_RETURN_NOT_OK(ParseTableRef(stmt));
        continue;
      }
      bool is_join = false;
      if (Cur().IsKeyword("JOIN")) {
        is_join = true;
        Advance();
      } else if (Cur().IsKeyword("INNER") && Peek().IsKeyword("JOIN")) {
        is_join = true;
        Advance();
        Advance();
      } else if (Cur().IsKeyword("CROSS") && Peek().IsKeyword("JOIN")) {
        Advance();
        Advance();
        APUAMA_RETURN_NOT_OK(ParseTableRef(stmt));
        continue;
      }
      if (!is_join) break;
      APUAMA_RETURN_NOT_OK(ParseTableRef(stmt));
      APUAMA_RETURN_NOT_OK(ExpectKeyword("ON"));
      auto cond = ParseExpr();
      if (!cond.ok()) return cond.status();
      stmt->where =
          AndCombine(std::move(stmt->where), std::move(cond).value());
    }
    return Status::OK();
  }

  Status ParseTableRef(SelectStmt* stmt) {
    auto name = ExpectIdentifier("table name");
    if (!name.ok()) return name.status();
    TableRef ref;
    ref.table = std::move(name).value();
    if (AcceptKeyword("AS")) {
      auto alias = ExpectIdentifier("table alias");
      if (!alias.ok()) return alias.status();
      ref.alias = std::move(alias).value();
    } else if (Cur().type == TokenType::kIdentifier) {
      ref.alias = Cur().text;
      Advance();
    }
    stmt->from.push_back(std::move(ref));
    return Status::OK();
  }

  // ---- Expressions ----------------------------------------------------------
  // Precedence: OR < AND < NOT < predicate < additive < multiplicative < unary.

  Result<ExprPtr> ParseExpr() { return ParseOr(); }

  Result<ExprPtr> ParseOr() {
    APUAMA_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAnd());
    while (AcceptKeyword("OR")) {
      APUAMA_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAnd());
      lhs = MakeBinary(BinaryOp::kOr, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseAnd() {
    APUAMA_ASSIGN_OR_RETURN(ExprPtr lhs, ParseNot());
    while (Cur().IsKeyword("AND")) {
      Advance();
      APUAMA_ASSIGN_OR_RETURN(ExprPtr rhs, ParseNot());
      lhs = MakeBinary(BinaryOp::kAnd, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseNot() {
    if (AcceptKeyword("NOT")) {
      // NOT EXISTS gets a dedicated negated-exists node; everything
      // else becomes a NOT unary.
      if (Cur().IsKeyword("EXISTS")) {
        return ParseExists(/*negated=*/true);
      }
      APUAMA_ASSIGN_OR_RETURN(ExprPtr inner, ParseNot());
      return MakeUnary(UnaryOp::kNot, std::move(inner));
    }
    return ParsePredicate();
  }

  Result<ExprPtr> ParseExists(bool negated) {
    APUAMA_RETURN_NOT_OK(ExpectKeyword("EXISTS"));
    APUAMA_RETURN_NOT_OK(Expect(TokenType::kLParen, "'('"));
    APUAMA_ASSIGN_OR_RETURN(auto sub, ParseSelectStmt());
    APUAMA_RETURN_NOT_OK(Expect(TokenType::kRParen, "')'"));
    return MakeExists(std::move(sub), negated);
  }

  Result<ExprPtr> ParsePredicate() {
    if (Cur().IsKeyword("EXISTS")) return ParseExists(false);
    APUAMA_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAdditive());

    // Comparison operators.
    BinaryOp cmp;
    bool has_cmp = true;
    switch (Cur().type) {
      case TokenType::kEq:
        cmp = BinaryOp::kEq;
        break;
      case TokenType::kNotEq:
        cmp = BinaryOp::kNotEq;
        break;
      case TokenType::kLt:
        cmp = BinaryOp::kLt;
        break;
      case TokenType::kLtEq:
        cmp = BinaryOp::kLtEq;
        break;
      case TokenType::kGt:
        cmp = BinaryOp::kGt;
        break;
      case TokenType::kGtEq:
        cmp = BinaryOp::kGtEq;
        break;
      default:
        has_cmp = false;
        cmp = BinaryOp::kEq;
        break;
    }
    if (has_cmp) {
      Advance();
      APUAMA_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAdditive());
      return MakeBinary(cmp, std::move(lhs), std::move(rhs));
    }

    bool negated = false;
    if (Cur().IsKeyword("NOT") &&
        (Peek().IsKeyword("BETWEEN") || Peek().IsKeyword("IN") ||
         Peek().IsKeyword("LIKE"))) {
      negated = true;
      Advance();
    }

    if (AcceptKeyword("BETWEEN")) {
      APUAMA_ASSIGN_OR_RETURN(ExprPtr lo, ParseAdditive());
      APUAMA_RETURN_NOT_OK(ExpectKeyword("AND"));
      APUAMA_ASSIGN_OR_RETURN(ExprPtr hi, ParseAdditive());
      return MakeBetween(std::move(lhs), std::move(lo), std::move(hi),
                         negated);
    }
    if (AcceptKeyword("IN")) {
      APUAMA_RETURN_NOT_OK(Expect(TokenType::kLParen, "'('"));
      auto e = std::make_unique<Expr>();
      e->negated = negated;
      if (Cur().IsKeyword("SELECT")) {
        e->kind = ExprKind::kInSubquery;
        e->children.push_back(std::move(lhs));
        APUAMA_ASSIGN_OR_RETURN(e->subquery, ParseSelectStmt());
      } else {
        e->kind = ExprKind::kInList;
        e->children.push_back(std::move(lhs));
        while (true) {
          APUAMA_ASSIGN_OR_RETURN(ExprPtr item, ParseAdditive());
          e->children.push_back(std::move(item));
          if (!Accept(TokenType::kComma)) break;
        }
      }
      APUAMA_RETURN_NOT_OK(Expect(TokenType::kRParen, "')'"));
      return ExprPtr(std::move(e));
    }
    if (AcceptKeyword("LIKE")) {
      if (Cur().type != TokenType::kStringLiteral) {
        return Err("LIKE pattern must be a string literal");
      }
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kLike;
      e->negated = negated;
      e->like_pattern = Cur().text;
      Advance();
      e->children.push_back(std::move(lhs));
      return ExprPtr(std::move(e));
    }
    if (AcceptKeyword("IS")) {
      bool is_not = AcceptKeyword("NOT");
      APUAMA_RETURN_NOT_OK(ExpectKeyword("NULL"));
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kIsNull;
      e->negated = is_not;
      e->children.push_back(std::move(lhs));
      return ExprPtr(std::move(e));
    }
    return lhs;
  }

  Result<ExprPtr> ParseAdditive() {
    APUAMA_ASSIGN_OR_RETURN(ExprPtr lhs, ParseMultiplicative());
    while (Cur().type == TokenType::kPlus || Cur().type == TokenType::kMinus) {
      BinaryOp op = Cur().type == TokenType::kPlus ? BinaryOp::kAdd
                                                   : BinaryOp::kSub;
      Advance();
      APUAMA_ASSIGN_OR_RETURN(ExprPtr rhs, ParseMultiplicative());
      lhs = MakeBinary(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseMultiplicative() {
    APUAMA_ASSIGN_OR_RETURN(ExprPtr lhs, ParseUnary());
    while (Cur().type == TokenType::kStar ||
           Cur().type == TokenType::kSlash) {
      BinaryOp op =
          Cur().type == TokenType::kStar ? BinaryOp::kMul : BinaryOp::kDiv;
      Advance();
      APUAMA_ASSIGN_OR_RETURN(ExprPtr rhs, ParseUnary());
      lhs = MakeBinary(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseUnary() {
    if (Accept(TokenType::kMinus)) {
      APUAMA_ASSIGN_OR_RETURN(ExprPtr inner, ParseUnary());
      return MakeUnary(UnaryOp::kNegate, std::move(inner));
    }
    if (Accept(TokenType::kPlus)) return ParseUnary();
    return ParsePrimary();
  }

  Result<ExprPtr> ParsePrimary() {
    const Token& t = Cur();
    switch (t.type) {
      case TokenType::kIntLiteral: {
        ExprPtr e = MakeLiteral(Value::Int(t.int_val));
        Advance();
        return e;
      }
      case TokenType::kDoubleLiteral: {
        ExprPtr e = MakeLiteral(Value::Double(t.double_val));
        Advance();
        return e;
      }
      case TokenType::kStringLiteral: {
        ExprPtr e = MakeLiteral(Value::Str(t.text));
        Advance();
        return e;
      }
      case TokenType::kLParen: {
        Advance();
        if (Cur().IsKeyword("SELECT")) {
          // Scalar subquery used as a value.
          auto e = std::make_unique<Expr>();
          e->kind = ExprKind::kScalarSubquery;
          APUAMA_ASSIGN_OR_RETURN(e->subquery, ParseSelectStmt());
          APUAMA_RETURN_NOT_OK(Expect(TokenType::kRParen, "')'"));
          return ExprPtr(std::move(e));
        }
        APUAMA_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        APUAMA_RETURN_NOT_OK(Expect(TokenType::kRParen, "')'"));
        return e;
      }
      case TokenType::kKeyword: {
        if (t.text == "NULL") {
          Advance();
          return MakeLiteral(Value::Null());
        }
        if (t.text == "TRUE") {
          Advance();
          return MakeLiteral(Value::Int(1));
        }
        if (t.text == "FALSE") {
          Advance();
          return MakeLiteral(Value::Int(0));
        }
        if (t.text == "DATE") {
          Advance();
          if (Cur().type != TokenType::kStringLiteral) {
            return Err("expected date string after DATE");
          }
          APUAMA_ASSIGN_OR_RETURN(Value v,
                                  Value::DateFromString(Cur().text));
          Advance();
          return MakeLiteral(std::move(v));
        }
        if (t.text == "INTERVAL") {
          Advance();
          int64_t count = 0;
          if (Cur().type == TokenType::kStringLiteral) {
            count = std::strtoll(Cur().text.c_str(), nullptr, 10);
          } else if (Cur().type == TokenType::kIntLiteral) {
            count = Cur().int_val;
          } else {
            return Err("expected interval count");
          }
          Advance();
          auto e = std::make_unique<Expr>();
          e->kind = ExprKind::kInterval;
          e->interval_count = count;
          if (AcceptKeyword("DAY")) {
            e->interval_unit = Expr::IntervalUnit::kDay;
          } else if (AcceptKeyword("MONTH")) {
            e->interval_unit = Expr::IntervalUnit::kMonth;
          } else if (AcceptKeyword("YEAR")) {
            e->interval_unit = Expr::IntervalUnit::kYear;
          } else {
            return Err("expected DAY/MONTH/YEAR");
          }
          return ExprPtr(std::move(e));
        }
        if (t.text == "CASE") return ParseCase();
        if (t.text == "EXISTS") return ParseExists(false);
        return Err("unexpected keyword " + t.text);
      }
      case TokenType::kIdentifier: {
        std::string first = t.text;
        Advance();
        if (Accept(TokenType::kDot)) {
          if (Cur().type == TokenType::kIdentifier) {
            std::string col = Cur().text;
            Advance();
            return MakeColumnRef(first, col);
          }
          return Err("expected column after '.'");
        }
        if (Cur().type == TokenType::kLParen) {
          return ParseFuncCallArgs(first);
        }
        return MakeColumnRef("", first);
      }
      default:
        return Err("unexpected token in expression");
    }
  }

  Result<ExprPtr> ParseFuncCallArgs(const std::string& name) {
    APUAMA_RETURN_NOT_OK(Expect(TokenType::kLParen, "'('"));
    auto e = std::make_unique<Expr>();
    e->kind = ExprKind::kFuncCall;
    e->func_name = ToLower(name);
    if (Cur().type == TokenType::kStar) {
      Advance();
      e->star_arg = true;
    } else if (Cur().type != TokenType::kRParen) {
      e->distinct = AcceptKeyword("DISTINCT");
      while (true) {
        APUAMA_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
        e->children.push_back(std::move(arg));
        if (!Accept(TokenType::kComma)) break;
      }
    }
    APUAMA_RETURN_NOT_OK(Expect(TokenType::kRParen, "')'"));
    return ExprPtr(std::move(e));
  }

  Result<ExprPtr> ParseCase() {
    APUAMA_RETURN_NOT_OK(ExpectKeyword("CASE"));
    auto e = std::make_unique<Expr>();
    e->kind = ExprKind::kCase;
    while (AcceptKeyword("WHEN")) {
      APUAMA_ASSIGN_OR_RETURN(ExprPtr when, ParseExpr());
      APUAMA_RETURN_NOT_OK(ExpectKeyword("THEN"));
      APUAMA_ASSIGN_OR_RETURN(ExprPtr then, ParseExpr());
      e->children.push_back(std::move(when));
      e->children.push_back(std::move(then));
    }
    if (e->children.empty()) return Err("CASE requires at least one WHEN");
    if (AcceptKeyword("ELSE")) {
      APUAMA_ASSIGN_OR_RETURN(e->case_else, ParseExpr());
    }
    APUAMA_RETURN_NOT_OK(ExpectKeyword("END"));
    return ExprPtr(std::move(e));
  }

  // ---- DML / DDL ------------------------------------------------------------

  Result<StmtPtr> ParseInsert() {
    APUAMA_RETURN_NOT_OK(ExpectKeyword("INSERT"));
    APUAMA_RETURN_NOT_OK(ExpectKeyword("INTO"));
    auto stmt = std::make_unique<InsertStmt>();
    APUAMA_ASSIGN_OR_RETURN(stmt->table, ExpectIdentifier("table name"));
    if (Cur().type == TokenType::kLParen) {
      Advance();
      while (true) {
        APUAMA_ASSIGN_OR_RETURN(std::string col,
                                ExpectIdentifier("column name"));
        stmt->columns.push_back(std::move(col));
        if (!Accept(TokenType::kComma)) break;
      }
      APUAMA_RETURN_NOT_OK(Expect(TokenType::kRParen, "')'"));
    }
    APUAMA_RETURN_NOT_OK(ExpectKeyword("VALUES"));
    while (true) {
      APUAMA_RETURN_NOT_OK(Expect(TokenType::kLParen, "'('"));
      std::vector<ExprPtr> row;
      while (true) {
        APUAMA_ASSIGN_OR_RETURN(ExprPtr v, ParseExpr());
        row.push_back(std::move(v));
        if (!Accept(TokenType::kComma)) break;
      }
      APUAMA_RETURN_NOT_OK(Expect(TokenType::kRParen, "')'"));
      stmt->rows.push_back(std::move(row));
      if (!Accept(TokenType::kComma)) break;
    }
    return StmtPtr(std::move(stmt));
  }

  Result<StmtPtr> ParseDelete() {
    APUAMA_RETURN_NOT_OK(ExpectKeyword("DELETE"));
    APUAMA_RETURN_NOT_OK(ExpectKeyword("FROM"));
    auto stmt = std::make_unique<DeleteStmt>();
    APUAMA_ASSIGN_OR_RETURN(stmt->table, ExpectIdentifier("table name"));
    if (AcceptKeyword("WHERE")) {
      APUAMA_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
    }
    return StmtPtr(std::move(stmt));
  }

  Result<StmtPtr> ParseUpdate() {
    APUAMA_RETURN_NOT_OK(ExpectKeyword("UPDATE"));
    auto stmt = std::make_unique<UpdateStmt>();
    APUAMA_ASSIGN_OR_RETURN(stmt->table, ExpectIdentifier("table name"));
    APUAMA_RETURN_NOT_OK(ExpectKeyword("SET"));
    while (true) {
      APUAMA_ASSIGN_OR_RETURN(std::string col,
                              ExpectIdentifier("column name"));
      APUAMA_RETURN_NOT_OK(Expect(TokenType::kEq, "'='"));
      APUAMA_ASSIGN_OR_RETURN(ExprPtr v, ParseExpr());
      stmt->assignments.emplace_back(std::move(col), std::move(v));
      if (!Accept(TokenType::kComma)) break;
    }
    if (AcceptKeyword("WHERE")) {
      APUAMA_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
    }
    return StmtPtr(std::move(stmt));
  }

  Result<ValueType> ParseColumnType() {
    const Token& t = Cur();
    if (t.type != TokenType::kKeyword) {
      return Err("expected a column type");
    }
    std::string name = t.text;
    Advance();
    // Optional (n) / (p, s) suffix.
    if (Cur().type == TokenType::kLParen) {
      Advance();
      while (Cur().type == TokenType::kIntLiteral ||
             Cur().type == TokenType::kComma) {
        Advance();
      }
      APUAMA_RETURN_NOT_OK(Expect(TokenType::kRParen, "')'"));
    }
    if (name == "INT" || name == "INTEGER" || name == "BIGINT") {
      return ValueType::kInt64;
    }
    if (name == "DOUBLE" || name == "DECIMAL") return ValueType::kDouble;
    if (name == "VARCHAR" || name == "CHAR" || name == "TEXT") {
      return ValueType::kString;
    }
    if (name == "DATE") return ValueType::kDate;
    return Err("unsupported column type " + name);
  }

  Result<StmtPtr> ParseCreate() {
    APUAMA_RETURN_NOT_OK(ExpectKeyword("CREATE"));
    if (AcceptKeyword("TABLE")) {
      auto stmt = std::make_unique<CreateTableStmt>();
      APUAMA_ASSIGN_OR_RETURN(stmt->table, ExpectIdentifier("table name"));
      APUAMA_RETURN_NOT_OK(Expect(TokenType::kLParen, "'('"));
      while (true) {
        if (Cur().IsKeyword("PRIMARY")) {
          Advance();
          APUAMA_RETURN_NOT_OK(ExpectKeyword("KEY"));
          APUAMA_RETURN_NOT_OK(Expect(TokenType::kLParen, "'('"));
          while (true) {
            APUAMA_ASSIGN_OR_RETURN(std::string col,
                                    ExpectIdentifier("column name"));
            stmt->primary_key.push_back(std::move(col));
            if (!Accept(TokenType::kComma)) break;
          }
          APUAMA_RETURN_NOT_OK(Expect(TokenType::kRParen, "')'"));
        } else {
          ColumnDef def;
          APUAMA_ASSIGN_OR_RETURN(def.name, ExpectIdentifier("column name"));
          APUAMA_ASSIGN_OR_RETURN(def.type, ParseColumnType());
          while (true) {
            if (Cur().IsKeyword("NOT") && Peek().IsKeyword("NULL")) {
              Advance();
              Advance();
              def.not_null = true;
              continue;
            }
            if (Cur().IsKeyword("PRIMARY") && Peek().IsKeyword("KEY")) {
              Advance();
              Advance();
              def.primary_key = true;
              def.not_null = true;
              continue;
            }
            break;
          }
          stmt->columns.push_back(std::move(def));
        }
        if (!Accept(TokenType::kComma)) break;
      }
      APUAMA_RETURN_NOT_OK(Expect(TokenType::kRParen, "')'"));
      // Fold inline PRIMARY KEY markers into the composite list.
      if (stmt->primary_key.empty()) {
        for (const auto& c : stmt->columns) {
          if (c.primary_key) stmt->primary_key.push_back(c.name);
        }
      }
      return StmtPtr(std::move(stmt));
    }
    bool clustered = AcceptKeyword("CLUSTERED");
    if (AcceptKeyword("INDEX")) {
      auto stmt = std::make_unique<CreateIndexStmt>();
      stmt->clustered = clustered;
      APUAMA_ASSIGN_OR_RETURN(stmt->index_name,
                              ExpectIdentifier("index name"));
      APUAMA_RETURN_NOT_OK(ExpectKeyword("ON"));
      APUAMA_ASSIGN_OR_RETURN(stmt->table, ExpectIdentifier("table name"));
      APUAMA_RETURN_NOT_OK(Expect(TokenType::kLParen, "'('"));
      while (true) {
        APUAMA_ASSIGN_OR_RETURN(std::string col,
                                ExpectIdentifier("column name"));
        stmt->columns.push_back(std::move(col));
        if (!Accept(TokenType::kComma)) break;
      }
      APUAMA_RETURN_NOT_OK(Expect(TokenType::kRParen, "')'"));
      return StmtPtr(std::move(stmt));
    }
    if (AcceptKeyword("SAMPLE")) {
      // CREATE SAMPLE [name ON] table RATIO p
      auto stmt = std::make_unique<CreateSampleStmt>();
      APUAMA_ASSIGN_OR_RETURN(std::string first,
                              ExpectIdentifier("table or sample name"));
      if (AcceptKeyword("ON")) {
        stmt->sample_name = std::move(first);
        APUAMA_ASSIGN_OR_RETURN(stmt->table, ExpectIdentifier("table name"));
      } else {
        stmt->table = std::move(first);
      }
      APUAMA_RETURN_NOT_OK(ExpectKeyword("RATIO"));
      const Token& r = Cur();
      if (r.type == TokenType::kDoubleLiteral) {
        stmt->ratio = r.double_val;
      } else if (r.type == TokenType::kIntLiteral) {
        stmt->ratio = static_cast<double>(r.int_val);
      } else {
        return Err("expected sampling ratio after RATIO");
      }
      Advance();
      if (!(stmt->ratio > 0.0 && stmt->ratio <= 1.0)) {
        return Err("sampling ratio must be in (0, 1]");
      }
      return StmtPtr(std::move(stmt));
    }
    return Err("expected TABLE, INDEX, or SAMPLE after CREATE");
  }

  // ALTER TABLE t FRAGMENT BY HASH|RANGE (col) INTO k [REPLICA r]
  // ALTER TABLE t UNFRAGMENT
  Result<StmtPtr> ParseAlter() {
    APUAMA_RETURN_NOT_OK(ExpectKeyword("ALTER"));
    APUAMA_RETURN_NOT_OK(ExpectKeyword("TABLE"));
    auto stmt = std::make_unique<AlterFragmentStmt>();
    APUAMA_ASSIGN_OR_RETURN(stmt->table, ExpectIdentifier("table name"));
    if (Cur().IsKeyword("UNFRAGMENT")) {
      Advance();
      stmt->unfragment = true;
      return StmtPtr(std::move(stmt));
    }
    APUAMA_RETURN_NOT_OK(ExpectKeyword("FRAGMENT"));
    APUAMA_RETURN_NOT_OK(ExpectKeyword("BY"));
    if (Cur().IsKeyword("HASH")) {
      stmt->by_hash = true;
    } else if (Cur().IsKeyword("RANGE")) {
      stmt->by_hash = false;
    } else {
      return Err("expected HASH or RANGE after FRAGMENT BY");
    }
    Advance();
    APUAMA_RETURN_NOT_OK(Expect(TokenType::kLParen, "'('"));
    APUAMA_ASSIGN_OR_RETURN(stmt->column, ExpectIdentifier("column name"));
    APUAMA_RETURN_NOT_OK(Expect(TokenType::kRParen, "')'"));
    APUAMA_RETURN_NOT_OK(ExpectKeyword("INTO"));
    if (Cur().type != TokenType::kIntLiteral) {
      return Err("expected fragment count after INTO");
    }
    stmt->fragments = Cur().int_val;
    Advance();
    if (Cur().IsKeyword("REPLICA")) {
      Advance();
      if (Cur().type != TokenType::kIntLiteral) {
        return Err("expected replica factor after REPLICA");
      }
      stmt->replica_factor = Cur().int_val;
      Advance();
    }
    if (stmt->fragments < 1) return Err("fragment count must be >= 1");
    if (stmt->replica_factor < 1) return Err("replica factor must be >= 1");
    return StmtPtr(std::move(stmt));
  }

  Result<StmtPtr> ParseDrop() {
    APUAMA_RETURN_NOT_OK(ExpectKeyword("DROP"));
    if (AcceptKeyword("SAMPLE")) {
      // DROP SAMPLE [name ON] table
      auto stmt = std::make_unique<DropSampleStmt>();
      APUAMA_ASSIGN_OR_RETURN(std::string first,
                              ExpectIdentifier("table or sample name"));
      if (AcceptKeyword("ON")) {
        stmt->sample_name = std::move(first);
        APUAMA_ASSIGN_OR_RETURN(stmt->table, ExpectIdentifier("table name"));
      } else {
        stmt->table = std::move(first);
      }
      return StmtPtr(std::move(stmt));
    }
    APUAMA_RETURN_NOT_OK(ExpectKeyword("TABLE"));
    auto stmt = std::make_unique<DropTableStmt>();
    APUAMA_ASSIGN_OR_RETURN(stmt->table, ExpectIdentifier("table name"));
    return StmtPtr(std::move(stmt));
  }

  Result<StmtPtr> ParseSet() {
    APUAMA_RETURN_NOT_OK(ExpectKeyword("SET"));
    auto stmt = std::make_unique<SetStmt>();
    // Accept a keyword as the name too, so `SET approx = on` (a
    // deleted knob that is now the APPROX verb) reaches ParseSetting
    // and gets "unknown setting" rather than a parse error.
    if (Cur().type == TokenType::kKeyword) {
      stmt->name = ToLower(Cur().text);
      Advance();
    } else {
      APUAMA_ASSIGN_OR_RETURN(stmt->name, ExpectIdentifier("setting name"));
    }
    APUAMA_RETURN_NOT_OK(Expect(TokenType::kEq, "'='"));
    // Value: identifier, keyword, string, or (possibly negative)
    // number — sample_seed takes any signed 63-bit value.
    std::string sign;
    if (Cur().type == TokenType::kMinus) {
      sign = "-";
      Advance();
    }
    const Token& t = Cur();
    switch (t.type) {
      case TokenType::kIdentifier:
      case TokenType::kStringLiteral:
        if (!sign.empty()) return Err("expected numeric setting value");
        stmt->value = t.text;
        break;
      case TokenType::kKeyword:
        if (!sign.empty()) return Err("expected numeric setting value");
        stmt->value = ToLower(t.text);
        break;
      case TokenType::kIntLiteral:
      case TokenType::kDoubleLiteral:
        stmt->value = sign + t.text;
        break;
      default:
        return Err("expected setting value");
    }
    Advance();
    return StmtPtr(std::move(stmt));
  }

  std::vector<Token> toks_;
  size_t pos_ = 0;
};

}  // namespace

Result<StmtPtr> Parse(const std::string& sql) {
  APUAMA_ASSIGN_OR_RETURN(std::vector<Token> toks, Lex(sql));
  Parser p(std::move(toks));
  return p.ParseStatement();
}

Result<std::unique_ptr<SelectStmt>> ParseSelect(const std::string& sql) {
  APUAMA_ASSIGN_OR_RETURN(StmtPtr stmt, Parse(sql));
  if (stmt->kind() != StmtKind::kSelect) {
    return Status::InvalidArgument("not a SELECT statement");
  }
  return std::unique_ptr<SelectStmt>(
      static_cast<SelectStmt*>(stmt.release()));
}

Result<std::vector<StmtPtr>> ParseScript(const std::string& script) {
  APUAMA_ASSIGN_OR_RETURN(std::vector<Token> toks, Lex(script));
  Parser p(std::move(toks));
  return p.ParseAll();
}

}  // namespace apuama::sql
