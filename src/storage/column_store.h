// Column-major images of row-store tables for vectorized execution.
//
// The row heap stays the source of truth (indexes and clustered order
// live there). A ColumnarTable is a per-column contiguous copy of it,
// owned by its storage::Table: built on the first columnar read and
// spliced in place by every later insert and delete, so it always
// equals a fresh build of the heap (see Table::Columnar for the work
// bound that drops it instead). Heap position i in the row store is
// element i of every column, so selection vectors carry plain heap
// positions and the row path and column path address the same tuples.
#ifndef APUAMA_STORAGE_COLUMN_STORE_H_
#define APUAMA_STORAGE_COLUMN_STORE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "types/schema.h"
#include "types/value.h"

namespace apuama::storage {

/// One materialized column. Integer-family columns (kInt64, kDate)
/// land in `i64`, kDouble columns in `f64` — except kDouble columns
/// whose non-null values are all kInt64 (the schema accepts ints
/// where doubles are declared): those land in `i64` with type kInt64,
/// which is exactly what the row path's Values hold, so promotion
/// decisions stay byte-for-byte identical. kDouble columns that MIX
/// int and double values are left unmaterialized (`materialized ==
/// false`) and expressions over them fall back to row-wise
/// evaluation. NULL rows hold 0 in the value arrays.
///
/// String columns are dictionary-encoded (`dict_encoded == true`,
/// `materialized` stays false): `dict` holds the sorted distinct
/// values and `codes[i]` is row i's index into it (0 where the null
/// bitmap is set). Because the dictionary is sorted in Value::Compare
/// order (std::string::compare), every equality / IN / range
/// predicate over the column reduces to an integer compare on the
/// code — the row path's string compares, one dictionary lookup
/// early. Expressions still gather Values from the heap; only
/// predicates read codes. `counts[c]` is the number of rows holding
/// code c, so a splice knows when a value leaves the dictionary.
struct ColumnVector {
  ValueType type = ValueType::kNull;
  bool materialized = false;
  std::vector<int64_t> i64;
  std::vector<double> f64;
  /// Per-row null flags; empty (and has_nulls false) when the column
  /// holds no NULLs, so the common case costs no mask reads.
  std::vector<uint8_t> nulls;
  bool has_nulls = false;
  /// Dictionary encoding (string columns only).
  bool dict_encoded = false;
  std::vector<std::string> dict;  // sorted, distinct
  std::vector<int32_t> codes;     // per row; 0 where null
  std::vector<uint32_t> counts;   // per code: rows holding it

  bool IsNull(size_t i) const { return has_nulls && nulls[i] != 0; }
};

/// Column-major image of one table's heap.
struct ColumnarTable {
  size_t num_rows = 0;
  std::vector<ColumnVector> cols;  // positionally matches the schema

  /// A fresh image of `rows` (heap order) under `schema`.
  static ColumnarTable Build(const Schema& schema,
                             const std::vector<Row>& rows);

  /// Splices in the row now at heap position `pos` of `rows`. Returns
  /// the column values moved, re-coded or rebuilt.
  size_t SpliceInsert(const Schema& schema, const std::vector<Row>& rows,
                      size_t pos);

  /// Splices out the image rows at `positions` (sorted ascending,
  /// distinct); `rows` is the heap after the same erase. Returns the
  /// column values moved, re-coded or rebuilt.
  size_t SpliceErase(const Schema& schema, const std::vector<Row>& rows,
                     const std::vector<size_t>& positions);
};

/// Erases `positions` (sorted ascending, distinct) from `v` in place,
/// moving only the elements after the first erased one. An empty `v`
/// (a column lane the image does not use) stays empty.
template <typename T>
void EraseSortedPositions(std::vector<T>* v,
                          const std::vector<size_t>& positions) {
  if (positions.empty() || v->empty()) return;
  size_t out = positions[0];
  size_t pi = 0;
  for (size_t i = out; i < v->size(); ++i) {
    if (pi < positions.size() && positions[pi] == i) {
      ++pi;
      continue;
    }
    (*v)[out++] = std::move((*v)[i]);
  }
  v->erase(v->begin() + static_cast<ptrdiff_t>(out), v->end());
}

}  // namespace apuama::storage

#endif  // APUAMA_STORAGE_COLUMN_STORE_H_
