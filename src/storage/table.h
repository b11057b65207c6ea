// Row-store table with clustered ordering, secondary indexes and a
// column image.
//
// The heap is a vector of rows kept sorted on the clustered key (the
// physical ordering the paper requires for SVP: "tuples of the virtual
// partition must be physically clustered according to the VPA").
// Secondary indexes map a column value to the clustered-key tuples of
// matching rows, so they stay valid as row positions shift. Writes
// splice the column image (Columnar()) at the positions they touch.
#ifndef APUAMA_STORAGE_TABLE_H_
#define APUAMA_STORAGE_TABLE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/column_store.h"
#include "storage/page.h"
#include "types/schema.h"

namespace apuama::storage {

class Table;

/// Compares clustered-key tuples lexicographically.
struct KeyLess {
  bool operator()(const Row& a, const Row& b) const {
    size_t n = std::min(a.size(), b.size());
    for (size_t i = 0; i < n; ++i) {
      int c = a[i].Compare(b[i]);
      if (c != 0) return c < 0;
    }
    return a.size() < b.size();
  }
};

/// Secondary (non-clustered) ordered index on one column.
/// Entries reference rows by their clustered-key tuple, which is
/// stable across heap reorganization.
class Index {
 public:
  Index(std::string name, int column_idx)
      : name_(std::move(name)), column_idx_(column_idx) {}

  const std::string& name() const { return name_; }
  int column_idx() const { return column_idx_; }
  size_t num_entries() const { return entries_.size(); }

  void Insert(const Value& key, Row pk) {
    entries_.emplace(key, std::move(pk));
  }
  void Erase(const Value& key, const Row& pk);
  void Clear() { entries_.clear(); }

  /// Clustered keys of rows with column == key.
  std::vector<const Row*> Lookup(const Value& key) const;

  /// Clustered keys of rows with lo <= column <= hi (either bound may
  /// be omitted via null Value + flag).
  std::vector<const Row*> LookupRange(const Value* lo, bool lo_inclusive,
                                      const Value* hi,
                                      bool hi_inclusive) const;

 private:
  std::string name_;
  int column_idx_;
  std::multimap<Value, Row> entries_;
};

/// A table. Not thread-safe; callers (simulated nodes) serialize.
class Table {
 public:
  Table(uint32_t id, std::string name, Schema schema);

  uint32_t id() const { return id_; }
  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return rows_.size(); }
  const Row& row(size_t i) const { return rows_[i]; }
  const std::vector<Row>& rows() const { return rows_; }

  /// Declares the clustered key (column indices). Re-sorts the heap if
  /// data is already present and rebuilds secondary indexes.
  Status SetClusteredKey(std::vector<int> key_columns);
  const std::vector<int>& clustered_key() const { return key_cols_; }

  /// Creates a secondary ordered index on one column.
  Status CreateIndex(const std::string& index_name,
                     const std::string& column_name);
  /// Index on `column_idx`, or nullptr.
  const Index* FindIndexOnColumn(int column_idx) const;
  const std::vector<std::unique_ptr<Index>>& indexes() const {
    return indexes_;
  }

  /// Validates and inserts, keeping clustered order and indexes.
  /// Returns the heap position the row landed at.
  Result<size_t> Insert(Row row);
  /// Bulk insert of pre-sorted-or-not rows; sorts once at the end.
  Status BulkLoad(std::vector<Row> rows);

  /// Deletes rows at the given positions (sorted ascending, distinct),
  /// compacting the heap in place from the first of them.
  void DeleteAt(const std::vector<size_t>& positions);

  /// The column image, equal to a fresh build of the heap: built here
  /// on first use, spliced by Insert and DeleteAt, dropped for the
  /// next call to rebuild by BulkLoad, SetClusteredKey and the work
  /// bound (the column values splices moved, re-coded or rebuilt
  /// since the build exceed its rows x columns). Not thread-safe:
  /// only a query's coordinator calls it, before morsels fan out.
  struct ColumnarRef {
    const ColumnarTable* image = nullptr;
    bool built = false;    // the table's first image
    bool rebuilt = false;  // a build after an earlier image was dropped
  };
  ColumnarRef Columnar() const;

  /// Position range [begin, end) of rows whose *first clustered key
  /// column* lies in [lo, hi) / (lo, hi] etc. Bounds may be null.
  /// Only meaningful when a clustered key is set.
  std::pair<size_t, size_t> ClusteredRange(const Value* lo,
                                           bool lo_inclusive,
                                           const Value* hi,
                                           bool hi_inclusive) const;

  /// Heap positions [begin, end) of the rows whose clustered key
  /// equals `key`: every row sharing a non-unique key, and the whole
  /// heap when no clustered key is set.
  std::pair<size_t, size_t> KeyRange(const Row& key) const;

  /// Heap position of the first row with this clustered-key tuple, or
  /// num_rows() when absent.
  size_t PositionOfKey(const Row& key) const;

  /// Extracts the clustered-key tuple of a row.
  Row KeyOfRow(const Row& row) const;

  // --- Morsel-range iteration ----------------------------------------------

  /// One scan morsel: a contiguous heap-position range [begin, end).
  struct Morsel {
    size_t begin;
    size_t end;
  };

  /// Splits [begin, end) into morsels of roughly `target_rows` rows
  /// each, with interior boundaries aligned to page boundaries so no
  /// logical page is shared between two morsels (workers then never
  /// contend on a page's rows). Empty when begin >= end.
  std::vector<Morsel> Morsels(size_t begin, size_t end,
                              size_t target_rows) const;

  // --- Page accounting -----------------------------------------------------

  /// Rows stored per logical page (>=1), derived from average row size.
  size_t rows_per_page() const;
  /// Total pages occupied by the heap.
  size_t num_pages() const;
  /// Page holding heap position `pos`.
  PageId PageOfPosition(size_t pos) const;

  /// Min / max of the first clustered key column (planner statistics).
  /// Null values when the table is empty or has no clustered key.
  Value MinClusteredKey() const;
  Value MaxClusteredKey() const;

 private:
  void ReindexAll();
  bool RowKeyLess(const Row& a, const Row& b) const;
  /// Drops the image once splices outrun its budget.
  void ChargeSplice(size_t work);

  uint32_t id_;
  std::string name_;
  Schema schema_;
  std::vector<int> key_cols_;
  std::vector<Row> rows_;
  std::vector<std::unique_ptr<Index>> indexes_;

  mutable std::unique_ptr<ColumnarTable> image_;
  mutable bool image_built_ = false;  // some image was built, ever
  mutable size_t splice_budget_ = 0;  // column values left to splice

  mutable size_t cached_rows_per_page_ = 0;
  mutable size_t cached_at_rows_ = SIZE_MAX;
};

}  // namespace apuama::storage

#endif  // APUAMA_STORAGE_TABLE_H_
