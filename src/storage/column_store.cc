#include "storage/column_store.h"

#include <algorithm>
#include <string_view>
#include <unordered_map>

namespace apuama::storage {

namespace {

// Sets row i's null flag, allocating the n-row bitmap on first use.
void MarkNull(ColumnVector* c, size_t i, size_t n) {
  if (!c->has_nulls) {
    c->has_nulls = true;
    c->nulls.assign(n, 0);
  }
  c->nulls[i] = 1;
}

// Materializes column `col` of the heap `rows`. Returns the column
// with materialized == false when the column's runtime values cannot
// be represented losslessly in a single typed array.
ColumnVector BuildColumn(ValueType decl, const std::vector<Row>& rows,
                         size_t col) {
  ColumnVector out;
  const size_t n = rows.size();
  out.type = decl;
  switch (decl) {
    case ValueType::kInt64:
    case ValueType::kDate: {
      out.i64.resize(n, 0);
      for (size_t i = 0; i < n; ++i) {
        const Value& v = rows[i][col];
        if (v.is_null()) {
          MarkNull(&out, i, n);
          continue;
        }
        out.i64[i] = decl == ValueType::kDate ? v.date_val() : v.int_val();
      }
      out.materialized = true;
      return out;
    }
    case ValueType::kDouble: {
      // ValidateRow admits kInt64 into kDouble columns, and the
      // runtime type drives every promotion decision the row path
      // makes. A type-homogeneous column still vectorizes: all-double
      // lands in f64, all-int lands in i64 *typed kInt64* (the exact
      // Values the heap holds). Only a genuine int/double mix keeps
      // the column row-wise — a single typed array would erase the
      // per-row distinction.
      bool saw_double = false, saw_int = false;
      for (size_t i = 0; i < n; ++i) {
        const Value& v = rows[i][col];
        if (v.is_null()) continue;
        (v.type() == ValueType::kDouble ? saw_double : saw_int) = true;
        if (saw_double && saw_int) return ColumnVector{};
      }
      const bool as_int = saw_int;  // all non-null values are kInt64
      if (as_int) {
        out.type = ValueType::kInt64;
        out.i64.resize(n, 0);
      } else {
        out.f64.resize(n, 0.0);
      }
      for (size_t i = 0; i < n; ++i) {
        const Value& v = rows[i][col];
        if (v.is_null()) {
          MarkNull(&out, i, n);
          continue;
        }
        if (as_int) {
          out.i64[i] = v.int_val();
        } else {
          out.f64[i] = v.double_val();
        }
      }
      out.materialized = true;
      return out;
    }
    case ValueType::kString: {
      // Dictionary encoding: sorted distinct values + per-row codes.
      // `materialized` stays false — expressions keep gathering heap
      // Values — but predicates compile to code-space compares.
      // (ValidateRow admits only strings and NULLs here.)
      // Each row first takes the id of its string's first appearance
      // (one hash probe, views into the heap rows), then only the
      // distinct strings are sorted and the ids remapped to sorted
      // codes.
      std::unordered_map<std::string_view, int32_t> ids;
      std::vector<std::string_view> distinct;
      out.codes.resize(n, 0);
      for (size_t i = 0; i < n; ++i) {
        const Value& v = rows[i][col];
        if (v.is_null()) {
          MarkNull(&out, i, n);
          continue;
        }
        auto [it, fresh] = ids.try_emplace(
            v.str_val(), static_cast<int32_t>(distinct.size()));
        if (fresh) distinct.push_back(it->first);
        out.codes[i] = it->second;
      }
      std::vector<int32_t> order(distinct.size());
      for (size_t d = 0; d < order.size(); ++d) {
        order[d] = static_cast<int32_t>(d);
      }
      std::sort(order.begin(), order.end(), [&](int32_t a, int32_t b) {
        return distinct[static_cast<size_t>(a)] <
               distinct[static_cast<size_t>(b)];
      });
      std::vector<int32_t> code_of(distinct.size());
      out.dict.reserve(distinct.size());
      for (size_t c = 0; c < order.size(); ++c) {
        code_of[static_cast<size_t>(order[c])] = static_cast<int32_t>(c);
        out.dict.emplace_back(distinct[static_cast<size_t>(order[c])]);
      }
      out.counts.assign(distinct.size(), 0);
      for (size_t i = 0; i < n; ++i) {
        if (!out.IsNull(i)) {
          out.codes[i] = code_of[static_cast<size_t>(out.codes[i])];
          ++out.counts[static_cast<size_t>(out.codes[i])];
        }
      }
      out.dict_encoded = true;
      return out;
    }
    default:
      // Anything else stays row-wise.
      return out;
  }
}

// True when a splice keeps `c` equal to a fresh build once `v` (or,
// for an erase, nothing) enters it. A kDouble column splices only in
// the plain-double lane and only while no int value arrives; every
// other lane of it is rebuilt alone from the heap.
bool Spliceable(const ColumnVector& c, ValueType decl, const Value* v) {
  switch (decl) {
    case ValueType::kDouble:
      return c.materialized && c.type == ValueType::kDouble &&
             (v == nullptr || v->type() != ValueType::kInt64);
    case ValueType::kInt64:
    case ValueType::kDate:
    case ValueType::kString:
      return true;
    default:
      return false;
  }
}

template <typename T>
void InsertAt(std::vector<T>* v, size_t pos, T x) {
  v->insert(v->begin() + static_cast<ptrdiff_t>(pos), x);
}

// Codes string `v` (or NULL) for a row entering at `pos`: a known
// value takes its code by binary search; a new one enters the
// dictionary at its rank and every code at or above that rank moves
// up one. Returns the codes rewritten.
size_t InsertCode(ColumnVector* c, size_t pos, const Value& v) {
  size_t recoded = 0;
  int32_t code = 0;
  if (!v.is_null()) {
    const std::string& s = v.str_val();
    auto it = std::lower_bound(c->dict.begin(), c->dict.end(), s);
    code = static_cast<int32_t>(it - c->dict.begin());
    if (it == c->dict.end() || *it != s) {
      if (it != c->dict.end()) {
        for (size_t i = 0; i < c->codes.size(); ++i) {
          if (c->codes[i] >= code && !c->IsNull(i)) {
            ++c->codes[i];
            ++recoded;
          }
        }
      }
      c->dict.insert(it, s);
      InsertAt<uint32_t>(&c->counts, static_cast<size_t>(code), 0);
    }
    ++c->counts[static_cast<size_t>(code)];
  }
  InsertAt(&c->codes, pos, code);
  return recoded;
}

// Drops every dictionary value no row holds any more; codes above a
// dropped value move down. Returns the codes rewritten.
size_t DropDeadCodes(ColumnVector* c) {
  std::vector<int32_t> remap(c->dict.size());
  size_t kept = 0;
  size_t first_dead = c->dict.size();
  for (size_t code = 0; code < c->dict.size(); ++code) {
    remap[code] = static_cast<int32_t>(kept);
    if (c->counts[code] == 0) {
      first_dead = std::min(first_dead, code);
      continue;
    }
    c->dict[kept].swap(c->dict[code]);
    c->counts[kept++] = c->counts[code];
  }
  c->dict.resize(kept);
  c->counts.resize(kept);
  if (first_dead >= kept) return 0;  // only the top values went
  size_t recoded = 0;
  // A NULL row's code 0 maps to 0.
  for (int32_t& code : c->codes) {
    const int32_t to = remap[static_cast<size_t>(code)];
    recoded += to != code;
    code = to;
  }
  return recoded;
}

}  // namespace

ColumnarTable ColumnarTable::Build(const Schema& schema,
                                   const std::vector<Row>& rows) {
  ColumnarTable image;
  image.num_rows = rows.size();
  image.cols.reserve(schema.num_columns());
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    image.cols.push_back(BuildColumn(schema.column(c).type, rows, c));
  }
  return image;
}

size_t ColumnarTable::SpliceInsert(const Schema& schema,
                                   const std::vector<Row>& rows,
                                   size_t pos) {
  const size_t n = rows.size();
  size_t work = 0;
  for (size_t col = 0; col < cols.size(); ++col) {
    ColumnVector& c = cols[col];
    const ValueType decl = schema.column(col).type;
    const Value& v = rows[pos][col];
    if (!Spliceable(c, decl, &v)) {
      c = BuildColumn(decl, rows, col);
      work += n;
      continue;
    }
    work += n - 1 - pos;
    if (c.dict_encoded) {
      work += InsertCode(&c, pos, v);
    } else if (c.type == ValueType::kDouble) {
      InsertAt(&c.f64, pos, v.is_null() ? 0.0 : v.double_val());
    } else {
      InsertAt(&c.i64, pos,
               v.is_null()                 ? int64_t{0}
               : decl == ValueType::kDate ? v.date_val()
                                           : v.int_val());
    }
    if (c.has_nulls) InsertAt<uint8_t>(&c.nulls, pos, 0);
    if (v.is_null()) MarkNull(&c, pos, n);
  }
  num_rows = n;
  return work;
}

size_t ColumnarTable::SpliceErase(const Schema& schema,
                                  const std::vector<Row>& rows,
                                  const std::vector<size_t>& positions) {
  if (positions.empty()) return 0;
  const size_t moved = num_rows - positions[0] - positions.size();
  size_t work = 0;
  for (size_t col = 0; col < cols.size(); ++col) {
    ColumnVector& c = cols[col];
    const ValueType decl = schema.column(col).type;
    if (!Spliceable(c, decl, nullptr)) {
      c = BuildColumn(decl, rows, col);
      work += rows.size();
      continue;
    }
    work += moved;
    bool erased_null = false;
    bool emptied = false;  // a dictionary value lost its last row
    for (size_t p : positions) {
      if (c.IsNull(p)) {
        erased_null = true;
      } else if (c.dict_encoded) {
        emptied |= --c.counts[static_cast<size_t>(c.codes[p])] == 0;
      }
    }
    EraseSortedPositions(&c.i64, positions);  // the unused lanes
    EraseSortedPositions(&c.f64, positions);  // are empty
    EraseSortedPositions(&c.codes, positions);
    EraseSortedPositions(&c.nulls, positions);
    if (erased_null &&
        std::find(c.nulls.begin(), c.nulls.end(), 1) == c.nulls.end()) {
      c.has_nulls = false;
      c.nulls = std::vector<uint8_t>();
    }
    if (emptied) work += DropDeadCodes(&c);
  }
  num_rows = rows.size();
  return work;
}

}  // namespace apuama::storage
