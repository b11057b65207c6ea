#include "apuama/share/result_cache.h"

namespace apuama::share {

std::shared_ptr<const engine::QueryResult> ResultCache::Lookup(
    const std::string& key, uint64_t catalog_version) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key);
  if (it == map_.end()) {
    ++misses_;
    return nullptr;
  }
  if (!ValidLocked(it->second->second, catalog_version)) {
    // Stale: a write or catalog change outdated it. Erase so memory
    // is not pinned by results nobody can be served.
    lru_.erase(it->second);
    map_.erase(it);
    ++misses_;
    return nullptr;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second);  // touch
  return it->second->second.result;
}

ResultCache::FillTicket ResultCache::BeginFill(
    const std::string& key, uint64_t catalog_version,
    const std::set<std::string>& tables, uint64_t writes_observed) {
  FillTicket t;
  t.key = key;
  t.catalog_version = catalog_version;
  t.writes_observed = writes_observed;
  std::lock_guard<std::mutex> lock(mu_);
  t.global_epoch = global_epoch_;
  t.table_epochs.reserve(tables.size());
  for (const auto& table : tables) {
    t.table_epochs.emplace_back(table, table_epochs_[table]);
  }
  return t;
}

bool ResultCache::Insert(const FillTicket& ticket,
                         std::shared_ptr<const engine::QueryResult> result) {
  if (capacity_ == 0 || result == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  // Re-validate the snapshot: any epoch movement since BeginFill
  // means a write (or DDL) overlapped this read, and the result may
  // carry pre-write bits — never publish it.
  if (ticket.global_epoch != global_epoch_) {
    ++insert_rejects_;
    return false;
  }
  for (const auto& [table, epoch] : ticket.table_epochs) {
    auto it = table_epochs_.find(table);
    const uint64_t current = it == table_epochs_.end() ? 0 : it->second;
    if (epoch != current) {
      ++insert_rejects_;
      return false;
    }
  }
  Entry e;
  e.result = std::move(result);
  e.catalog_version = ticket.catalog_version;
  e.global_epoch = ticket.global_epoch;
  e.table_epochs = ticket.table_epochs;
  auto it = map_.find(ticket.key);
  if (it != map_.end()) {
    it->second->second = std::move(e);
    lru_.splice(lru_.begin(), lru_, it->second);
    return true;
  }
  lru_.emplace_front(ticket.key, std::move(e));
  map_[ticket.key] = lru_.begin();
  while (map_.size() > capacity_) {
    map_.erase(lru_.back().first);
    lru_.pop_back();
  }
  return true;
}

void ResultCache::BeginTableWrite(const std::string& table) {
  std::lock_guard<std::mutex> lock(mu_);
  BumpLocked(table);
}

void ResultCache::EndTableWrite(const std::string& table) {
  std::lock_guard<std::mutex> lock(mu_);
  BumpLocked(table);
}

void ResultCache::BeginTableWrite(const std::vector<std::string>& keys) {
  std::lock_guard<std::mutex> lock(mu_);
  if (keys.empty()) BumpLocked("");
  for (const auto& key : keys) BumpLocked(key);
}

void ResultCache::EndTableWrite(const std::vector<std::string>& keys) {
  std::lock_guard<std::mutex> lock(mu_);
  if (keys.empty()) BumpLocked("");
  for (const auto& key : keys) BumpLocked(key);
}

void ResultCache::InvalidateAll() {
  std::lock_guard<std::mutex> lock(mu_);
  ++global_epoch_;
  lru_.clear();
  map_.clear();
}

uint64_t ResultCache::TableEpoch(const std::string& table) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (table.empty()) return global_epoch_;
  auto it = table_epochs_.find(table);
  return it == table_epochs_.end() ? 0 : it->second;
}

uint64_t ResultCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

uint64_t ResultCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

uint64_t ResultCache::insert_rejects() const {
  std::lock_guard<std::mutex> lock(mu_);
  return insert_rejects_;
}

size_t ResultCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

void ResultCache::BumpLocked(const std::string& table) {
  if (table.empty()) {
    ++global_epoch_;
  } else {
    ++table_epochs_[table];
  }
}

bool ResultCache::ValidLocked(const Entry& e,
                              uint64_t catalog_version) const {
  if (e.catalog_version != catalog_version) return false;
  if (e.global_epoch != global_epoch_) return false;
  for (const auto& [table, epoch] : e.table_epochs) {
    auto it = table_epochs_.find(table);
    const uint64_t current = it == table_epochs_.end() ? 0 : it->second;
    if (epoch != current) return false;
  }
  return true;
}

}  // namespace apuama::share
