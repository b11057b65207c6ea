#include "storage/table.h"

#include <algorithm>
#include <cassert>

#include "common/string_util.h"

namespace apuama::storage {

void Index::Erase(const Value& key, const Row& pk) {
  auto [lo, hi] = entries_.equal_range(key);
  for (auto it = lo; it != hi; ++it) {
    if (it->second.size() == pk.size()) {
      bool eq = true;
      for (size_t i = 0; i < pk.size(); ++i) {
        if (it->second[i].Compare(pk[i]) != 0) {
          eq = false;
          break;
        }
      }
      if (eq) {
        entries_.erase(it);
        return;
      }
    }
  }
}

std::vector<const Row*> Index::Lookup(const Value& key) const {
  std::vector<const Row*> out;
  auto [lo, hi] = entries_.equal_range(key);
  for (auto it = lo; it != hi; ++it) out.push_back(&it->second);
  return out;
}

std::vector<const Row*> Index::LookupRange(const Value* lo, bool lo_inclusive,
                                           const Value* hi,
                                           bool hi_inclusive) const {
  auto begin = entries_.begin();
  auto end = entries_.end();
  if (lo != nullptr) {
    begin = lo_inclusive ? entries_.lower_bound(*lo)
                         : entries_.upper_bound(*lo);
  }
  if (hi != nullptr) {
    end = hi_inclusive ? entries_.upper_bound(*hi)
                       : entries_.lower_bound(*hi);
  }
  std::vector<const Row*> out;
  for (auto it = begin; it != end; ++it) out.push_back(&it->second);
  return out;
}

Table::Table(uint32_t id, std::string name, Schema schema)
    : id_(id), name_(std::move(name)), schema_(std::move(schema)) {}

bool Table::RowKeyLess(const Row& a, const Row& b) const {
  for (int c : key_cols_) {
    int cmp = a[static_cast<size_t>(c)].Compare(b[static_cast<size_t>(c)]);
    if (cmp != 0) return cmp < 0;
  }
  return false;
}

Status Table::SetClusteredKey(std::vector<int> key_columns) {
  for (int c : key_columns) {
    if (c < 0 || static_cast<size_t>(c) >= schema_.num_columns()) {
      return Status::InvalidArgument("clustered key column out of range");
    }
  }
  key_cols_ = std::move(key_columns);
  if (!rows_.empty()) {
    std::stable_sort(rows_.begin(), rows_.end(),
                     [this](const Row& a, const Row& b) {
                       return RowKeyLess(a, b);
                     });
    ReindexAll();
  }
  image_.reset();  // heap positions were reordered
  return Status::OK();
}

Status Table::CreateIndex(const std::string& index_name,
                          const std::string& column_name) {
  int col = schema_.FindColumn(column_name);
  if (col < 0) {
    return Status::NotFound("no column " + column_name + " in " + name_);
  }
  for (const auto& idx : indexes_) {
    if (EqualsIgnoreCase(idx->name(), index_name)) {
      return Status::AlreadyExists("index " + index_name);
    }
  }
  auto idx = std::make_unique<Index>(index_name, col);
  for (const Row& r : rows_) {
    idx->Insert(r[static_cast<size_t>(col)], KeyOfRow(r));
  }
  indexes_.push_back(std::move(idx));
  return Status::OK();
}

const Index* Table::FindIndexOnColumn(int column_idx) const {
  for (const auto& idx : indexes_) {
    if (idx->column_idx() == column_idx) return idx.get();
  }
  return nullptr;
}

Row Table::KeyOfRow(const Row& row) const {
  Row key;
  key.reserve(key_cols_.size());
  for (int c : key_cols_) key.push_back(row[static_cast<size_t>(c)]);
  return key;
}

Result<size_t> Table::Insert(Row row) {
  APUAMA_RETURN_NOT_OK(schema_.ValidateRow(row));
  size_t pos = rows_.size();
  if (!key_cols_.empty()) {
    auto it = std::upper_bound(rows_.begin(), rows_.end(), row,
                               [this](const Row& a, const Row& b) {
                                 return RowKeyLess(a, b);
                               });
    pos = static_cast<size_t>(it - rows_.begin());
  }
  for (auto& idx : indexes_) {
    idx->Insert(row[static_cast<size_t>(idx->column_idx())], KeyOfRow(row));
  }
  rows_.insert(rows_.begin() + static_cast<ptrdiff_t>(pos), std::move(row));
  cached_at_rows_ = SIZE_MAX;
  if (image_ != nullptr) {
    ChargeSplice(image_->SpliceInsert(schema_, rows_, pos));
  }
  return pos;
}

Status Table::BulkLoad(std::vector<Row> rows) {
  for (const Row& r : rows) {
    APUAMA_RETURN_NOT_OK(schema_.ValidateRow(r));
  }
  rows_.insert(rows_.end(), std::make_move_iterator(rows.begin()),
               std::make_move_iterator(rows.end()));
  if (!key_cols_.empty()) {
    std::stable_sort(rows_.begin(), rows_.end(),
                     [this](const Row& a, const Row& b) {
                       return RowKeyLess(a, b);
                     });
  }
  ReindexAll();
  cached_at_rows_ = SIZE_MAX;
  image_.reset();
  return Status::OK();
}

void Table::DeleteAt(const std::vector<size_t>& positions) {
  if (positions.empty()) return;
  // Remove index entries first (rows still addressable).
  for (size_t pos : positions) {
    const Row& r = rows_[pos];
    for (auto& idx : indexes_) {
      idx->Erase(r[static_cast<size_t>(idx->column_idx())], KeyOfRow(r));
    }
  }
  EraseSortedPositions(&rows_, positions);
  cached_at_rows_ = SIZE_MAX;
  if (image_ != nullptr) {
    ChargeSplice(image_->SpliceErase(schema_, rows_, positions));
  }
}

Table::ColumnarRef Table::Columnar() const {
  ColumnarRef r;
  if (image_ == nullptr) {
    image_ = std::make_unique<ColumnarTable>(
        ColumnarTable::Build(schema_, rows_));
    splice_budget_ = rows_.size() * schema_.num_columns();
    r.built = !image_built_;
    r.rebuilt = image_built_;
    image_built_ = true;
  }
  r.image = image_.get();
  return r;
}

void Table::ChargeSplice(size_t work) {
  if (work > splice_budget_) {
    image_.reset();
  } else {
    splice_budget_ -= work;
  }
}

std::pair<size_t, size_t> Table::ClusteredRange(const Value* lo,
                                                bool lo_inclusive,
                                                const Value* hi,
                                                bool hi_inclusive) const {
  assert(!key_cols_.empty());
  const size_t kc = static_cast<size_t>(key_cols_[0]);
  auto val_less = [kc](const Row& r, const Value& v) {
    return r[kc].Compare(v) < 0;
  };
  auto val_less_eq = [kc](const Row& r, const Value& v) {
    return r[kc].Compare(v) <= 0;
  };
  size_t begin = 0, end = rows_.size();
  if (lo != nullptr) {
    auto it = lo_inclusive
                  ? std::partition_point(
                        rows_.begin(), rows_.end(),
                        [&](const Row& r) { return val_less(r, *lo); })
                  : std::partition_point(
                        rows_.begin(), rows_.end(),
                        [&](const Row& r) { return val_less_eq(r, *lo); });
    begin = static_cast<size_t>(it - rows_.begin());
  }
  if (hi != nullptr) {
    auto it = hi_inclusive
                  ? std::partition_point(
                        rows_.begin(), rows_.end(),
                        [&](const Row& r) { return val_less_eq(r, *hi); })
                  : std::partition_point(
                        rows_.begin(), rows_.end(),
                        [&](const Row& r) { return val_less(r, *hi); });
    end = static_cast<size_t>(it - rows_.begin());
  }
  if (end < begin) end = begin;
  return {begin, end};
}

std::pair<size_t, size_t> Table::KeyRange(const Row& key) const {
  // Three-way compare of a heap row's clustered-key columns against
  // the key tuple (a shorter tuple compares as a prefix).
  auto cmp = [this, &key](const Row& r) {
    for (size_t i = 0; i < key_cols_.size() && i < key.size(); ++i) {
      int c = r[static_cast<size_t>(key_cols_[i])].Compare(key[i]);
      if (c != 0) return c;
    }
    return 0;
  };
  auto lo = std::partition_point(rows_.begin(), rows_.end(),
                                 [&](const Row& r) { return cmp(r) < 0; });
  auto hi = std::partition_point(lo, rows_.end(),
                                 [&](const Row& r) { return cmp(r) == 0; });
  return {static_cast<size_t>(lo - rows_.begin()),
          static_cast<size_t>(hi - rows_.begin())};
}

size_t Table::PositionOfKey(const Row& key) const {
  auto [begin, end] = KeyRange(key);
  return begin < end ? begin : rows_.size();
}

void Table::ReindexAll() {
  for (auto& idx : indexes_) {
    idx->Clear();
    for (const Row& r : rows_) {
      idx->Insert(r[static_cast<size_t>(idx->column_idx())], KeyOfRow(r));
    }
  }
}

size_t Table::rows_per_page() const {
  if (cached_at_rows_ == rows_.size() && cached_rows_per_page_ > 0) {
    return cached_rows_per_page_;
  }
  size_t sample = std::min<size_t>(rows_.size(), 64);
  size_t bytes = 0;
  for (size_t i = 0; i < sample; ++i) {
    // Sample evenly across the heap.
    size_t pos = rows_.size() <= 64 ? i : i * (rows_.size() / 64);
    bytes += RowByteSize(rows_[pos]);
  }
  size_t avg = sample == 0 ? 64 : std::max<size_t>(1, bytes / sample);
  cached_rows_per_page_ = std::max<size_t>(1, kPageSizeBytes / avg);
  cached_at_rows_ = rows_.size();
  return cached_rows_per_page_;
}

std::vector<Table::Morsel> Table::Morsels(size_t begin, size_t end,
                                          size_t target_rows) const {
  std::vector<Morsel> out;
  if (begin >= end) return out;
  if (target_rows == 0) target_rows = 1;
  const size_t rpp = rows_per_page();
  // Round the morsel size up to whole pages so an interior boundary
  // always falls on a page boundary.
  const size_t step = std::max(rpp, (target_rows + rpp - 1) / rpp * rpp);
  size_t cur = begin;
  while (cur < end) {
    // First boundary after `cur` that is page-aligned and at least
    // `step` rows away (the leading morsel absorbs any unaligned
    // prefix of the range).
    size_t next = (cur / rpp) * rpp + step;
    if (next <= cur) next = cur + step;
    if (next > end) next = end;
    out.push_back(Morsel{cur, next});
    cur = next;
  }
  return out;
}

size_t Table::num_pages() const {
  size_t rpp = rows_per_page();
  return (rows_.size() + rpp - 1) / rpp;
}

PageId Table::PageOfPosition(size_t pos) const {
  return PageId{id_, static_cast<uint32_t>(pos / rows_per_page())};
}

Value Table::MinClusteredKey() const {
  if (rows_.empty() || key_cols_.empty()) return Value::Null();
  return rows_.front()[static_cast<size_t>(key_cols_[0])];
}

Value Table::MaxClusteredKey() const {
  if (rows_.empty() || key_cols_.empty()) return Value::Null();
  return rows_.back()[static_cast<size_t>(key_cols_[0])];
}

}  // namespace apuama::storage
