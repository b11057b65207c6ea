#include "storage/column_store.h"

#include <algorithm>
#include <string_view>
#include <unordered_map>

namespace apuama::storage {

namespace {

// Materializes one schema column out of the row heap. Returns the
// column with materialized == false when the column's runtime values
// cannot be represented losslessly in a single typed array.
ColumnVector BuildColumn(const Table& t, size_t col) {
  ColumnVector out;
  const ValueType decl = t.schema().column(col).type;
  const size_t n = t.num_rows();
  out.type = decl;
  switch (decl) {
    case ValueType::kInt64:
    case ValueType::kDate: {
      out.i64.resize(n, 0);
      for (size_t i = 0; i < n; ++i) {
        const Value& v = t.row(i)[col];
        if (v.is_null()) {
          if (!out.has_nulls) {
            out.has_nulls = true;
            out.nulls.assign(n, 0);
          }
          out.nulls[i] = 1;
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
        const Value& v = t.row(i)[col];
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
        const Value& v = t.row(i)[col];
        if (v.is_null()) {
          if (!out.has_nulls) {
            out.has_nulls = true;
            out.nulls.assign(n, 0);
          }
          out.nulls[i] = 1;
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
      for (size_t i = 0; i < n; ++i) {
        const Value& v = t.row(i)[col];
        if (!v.is_null() && v.type() != ValueType::kString) {
          return out;  // defensive: heterogenous column stays row-wise
        }
      }
      // Each row first takes the id of its string's first appearance
      // (one hash probe, views into the heap rows), then only the
      // distinct strings are sorted and the ids remapped to sorted
      // codes.
      std::unordered_map<std::string_view, int32_t> ids;
      std::vector<std::string_view> distinct;
      out.codes.resize(n, 0);
      for (size_t i = 0; i < n; ++i) {
        const Value& v = t.row(i)[col];
        if (v.is_null()) {
          if (!out.has_nulls) {
            out.has_nulls = true;
            out.nulls.assign(n, 0);
          }
          out.nulls[i] = 1;
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
      for (size_t i = 0; i < n; ++i) {
        if (!out.IsNull(i)) {
          out.codes[i] = code_of[static_cast<size_t>(out.codes[i])];
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

}  // namespace

ColumnStore::GetResult ColumnStore::Get(const Table& t) {
  GetResult r;
  auto it = chunks_.find(t.id());
  const bool have = it != chunks_.end();
  if (have && it->second->data_version == t.data_version()) {
    r.chunk = it->second.get();
    return r;
  }
  auto chunk = std::make_unique<ColumnarTable>();
  chunk->data_version = t.data_version();
  chunk->num_rows = t.num_rows();
  chunk->cols.reserve(t.schema().num_columns());
  for (size_t c = 0; c < t.schema().num_columns(); ++c) {
    chunk->cols.push_back(BuildColumn(t, c));
  }
  r.built = !have;
  r.rebuilt = have;
  r.chunk = chunk.get();
  chunks_[t.id()] = std::move(chunk);
  return r;
}

}  // namespace apuama::storage
