// Abstract syntax tree for the SQL dialect.
//
// The AST is deliberately close to SQL text: the Apuama SVP rewriter
// operates by transforming the tree (adding range predicates, splitting
// avg into sum/count) and unparsing it back to SQL for each node
// (see sql/unparse.h), exactly as the paper's middleware manipulates
// query strings.
#ifndef APUAMA_SQL_AST_H_
#define APUAMA_SQL_AST_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "types/schema.h"
#include "types/value.h"

namespace apuama::sql {

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

enum class ExprKind {
  kLiteral,
  kColumnRef,
  kUnary,       // -x, NOT x
  kBinary,      // arithmetic / comparison / AND / OR
  kBetween,
  kInList,
  kInSubquery,
  kExists,
  kLike,
  kIsNull,
  kCase,
  kFuncCall,    // aggregates and scalar functions
  kStar,        // bare * inside count(*) / select *
  kInterval,    // INTERVAL '90' DAY — only valid under +/- with dates
  kScalarSubquery,  // (SELECT ...) used as a value; <= 1 row, 1 column
};

enum class BinaryOp {
  kAdd, kSub, kMul, kDiv,
  kEq, kNotEq, kLt, kLtEq, kGt, kGtEq,
  kAnd, kOr,
};

enum class UnaryOp { kNegate, kNot };

/// True for =, <>, <, <=, >, >=.
bool IsComparison(BinaryOp op);
/// SQL spelling of an operator ("+", "<=", "AND", ...).
const char* BinaryOpName(BinaryOp op);

struct SelectStmt;  // forward (subqueries)

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

/// Base expression node. Concrete payloads are discriminated by kind;
/// a tagged struct (not a class hierarchy with virtual dispatch per
/// kind) keeps Clone/unparse/eval logic in flat switches.
struct Expr {
  ExprKind kind;

  // kLiteral
  Value literal;

  // kColumnRef
  std::string table_qualifier;  // optional ("l1" in l1.l_suppkey)
  std::string column_name;

  // kUnary
  UnaryOp unary_op = UnaryOp::kNegate;

  // kBinary
  BinaryOp binary_op = BinaryOp::kAdd;

  // kFuncCall: lower-cased name; star=true for count(*)
  std::string func_name;
  bool star_arg = false;
  bool distinct = false;

  // kInterval
  int64_t interval_count = 0;
  enum class IntervalUnit { kDay, kMonth, kYear } interval_unit =
      IntervalUnit::kDay;

  // kLike
  std::string like_pattern;

  // kBetween / kInList / kInSubquery / kExists / kLike / kIsNull
  bool negated = false;

  // kCase: children laid out as [when1, then1, when2, then2, ...],
  // case_else optional.
  ExprPtr case_else;

  // Generic children:
  //   kUnary: [operand]
  //   kBinary: [lhs, rhs]
  //   kBetween: [expr, lo, hi]
  //   kInList: [expr, item...]
  //   kInSubquery: [expr]
  //   kLike / kIsNull: [expr]
  //   kFuncCall: args
  std::vector<ExprPtr> children;

  // kExists / kInSubquery
  std::unique_ptr<SelectStmt> subquery;

  /// Deep copy.
  ExprPtr Clone() const;
};

// Constructors (free functions keep call sites short).
ExprPtr MakeLiteral(Value v);
ExprPtr MakeColumnRef(std::string qualifier, std::string column);
ExprPtr MakeUnary(UnaryOp op, ExprPtr operand);
ExprPtr MakeBinary(BinaryOp op, ExprPtr lhs, ExprPtr rhs);
ExprPtr MakeBetween(ExprPtr e, ExprPtr lo, ExprPtr hi, bool negated);
ExprPtr MakeFuncCall(std::string name, std::vector<ExprPtr> args);
ExprPtr MakeCountStar();
ExprPtr MakeStar();
ExprPtr MakeExists(std::unique_ptr<SelectStmt> sub, bool negated);

/// a AND b, treating null as identity (returns the other side).
ExprPtr AndCombine(ExprPtr a, ExprPtr b);

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

enum class StmtKind {
  kSelect,
  kInsert,
  kDelete,
  kUpdate,
  kCreateTable,
  kCreateIndex,
  kDropTable,
  kAlterFragment,
  kCreateSample,
  kDropSample,
  kSet,
  kBegin,
  kCommit,
  kRollback,
  kExplain,
};

struct Stmt {
  virtual ~Stmt() = default;
  virtual StmtKind kind() const = 0;
};
using StmtPtr = std::unique_ptr<Stmt>;

/// A table in the FROM list. `alias` is empty when not aliased
/// (the table is then addressable by its own name).
struct TableRef {
  std::string table;
  std::string alias;

  const std::string& binding() const { return alias.empty() ? table : alias; }
};

struct SelectItem {
  ExprPtr expr;        // null when star
  std::string alias;   // output column name override
  bool star = false;   // SELECT *
};

/// Output column name of a select item: its alias, else the column
/// name of a bare column ref, else the function name of a call, else
/// "column<ordinal + 1>".
std::string OutputName(const SelectItem& item, size_t ordinal);

struct OrderItem {
  ExprPtr expr;        // may be an integer literal => 1-based ordinal
  bool desc = false;
};

/// SELECT [DISTINCT] items FROM refs [WHERE] [GROUP BY] [HAVING]
/// [ORDER BY] [LIMIT]. FROM uses the comma-join style of TPC-H;
/// explicit INNER JOIN ... ON is parsed into the same representation
/// (tables + conjoined predicates).
struct SelectStmt : Stmt {
  StmtKind kind() const override { return StmtKind::kSelect; }

  /// APPROX SELECT — the query accepts an approximate answer with
  /// confidence intervals, served from a scrambled sample when one
  /// exists. Top-level only: the flag is never rendered on SVP
  /// sub-queries (nodes always run exact SQL over the sample).
  bool approx = false;
  bool distinct = false;
  std::vector<SelectItem> items;
  std::vector<TableRef> from;
  ExprPtr where;                 // may be null
  std::vector<ExprPtr> group_by;
  ExprPtr having;                // may be null
  std::vector<OrderItem> order_by;
  int64_t limit = -1;            // -1 = no limit
  int64_t offset = 0;            // rows skipped before LIMIT applies

  std::unique_ptr<SelectStmt> Clone() const;
};

struct InsertStmt : Stmt {
  StmtKind kind() const override { return StmtKind::kInsert; }
  std::string table;
  std::vector<std::string> columns;          // empty = schema order
  std::vector<std::vector<ExprPtr>> rows;    // literal expressions
};

struct DeleteStmt : Stmt {
  StmtKind kind() const override { return StmtKind::kDelete; }
  std::string table;
  ExprPtr where;  // may be null (delete all)
};

struct UpdateStmt : Stmt {
  StmtKind kind() const override { return StmtKind::kUpdate; }
  std::string table;
  std::vector<std::pair<std::string, ExprPtr>> assignments;
  ExprPtr where;  // may be null
};

struct ColumnDef {
  std::string name;
  ValueType type = ValueType::kInt64;
  bool not_null = false;
  bool primary_key = false;
};

struct CreateTableStmt : Stmt {
  StmtKind kind() const override { return StmtKind::kCreateTable; }
  std::string table;
  std::vector<ColumnDef> columns;
  std::vector<std::string> primary_key;  // composite PK column names
};

struct CreateIndexStmt : Stmt {
  StmtKind kind() const override { return StmtKind::kCreateIndex; }
  std::string index_name;
  std::string table;
  std::vector<std::string> columns;
  bool clustered = false;  // CREATE CLUSTERED INDEX => reorders heap
};

struct DropTableStmt : Stmt {
  StmtKind kind() const override { return StmtKind::kDropTable; }
  std::string table;
};

/// ALTER TABLE t FRAGMENT BY HASH|RANGE (col) INTO k [REPLICA r]
/// — installs a physical fragmentation spec for the table — and
/// ALTER TABLE t UNFRAGMENT — removes it (back to full
/// replication). Middleware-level DDL: it changes catalog metadata
/// and routing, never the stored rows.
struct AlterFragmentStmt : Stmt {
  StmtKind kind() const override { return StmtKind::kAlterFragment; }
  std::string table;
  std::string column;       // empty for UNFRAGMENT
  bool unfragment = false;
  bool by_hash = true;      // false: BY RANGE
  int64_t fragments = 0;    // INTO k
  int64_t replica_factor = 1;
};

/// CREATE SAMPLE [name ON] t RATIO p — materializes a deterministic
/// uniform-random permuted sample ("scramble") of table t holding
/// ~p·N rows, clustered on a dense permutation-rank column `__skey`.
/// Middleware-level DDL: the Apuama engine builds the sample on every
/// replica and registers it in the Data Catalog as its own virtual
/// partition space so APPROX SELECT can carve it with the stock SVP
/// machinery. Default sample name: `<table>__sample`.
struct CreateSampleStmt : Stmt {
  StmtKind kind() const override { return StmtKind::kCreateSample; }
  std::string table;
  std::string sample_name;  // empty = <table>__sample
  double ratio = 0.0;       // target sampling ratio in (0, 1]
};

/// DROP SAMPLE [name ON] t — removes the scramble and its catalog
/// registration.
struct DropSampleStmt : Stmt {
  StmtKind kind() const override { return StmtKind::kDropSample; }
  std::string table;
  std::string sample_name;  // empty = <table>__sample
};

/// SET name = value — session settings; the one Apuama uses is
/// `SET enable_seqscan = off` (PostgreSQL-compatible spelling).
struct SetStmt : Stmt {
  StmtKind kind() const override { return StmtKind::kSet; }
  std::string name;
  std::string value;
};

/// EXPLAIN <select> — executes the query and reports the plan
/// actually used (access path per table, page/tuple counts).
/// EXPLAIN ANALYZE <select> additionally reports a per-level timing
/// breakdown (admission wait, barrier wait, per-node sub-query
/// min/max, composition) collected while the query ran.
struct ExplainStmt : Stmt {
  StmtKind kind() const override { return StmtKind::kExplain; }
  bool analyze = false;
  std::unique_ptr<SelectStmt> query;
};

struct BeginStmt : Stmt {
  StmtKind kind() const override { return StmtKind::kBegin; }
};
struct CommitStmt : Stmt {
  StmtKind kind() const override { return StmtKind::kCommit; }
};
struct RollbackStmt : Stmt {
  StmtKind kind() const override { return StmtKind::kRollback; }
};

}  // namespace apuama::sql

#endif  // APUAMA_SQL_AST_H_
