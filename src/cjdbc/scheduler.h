// Request scheduler — C-JDBC's "Scheduler" component.
//
// Guarantees the property the paper relies on: update requests are
// executed in the same total order by every backend, while read
// requests run concurrently with each other (the RAW — read and
// write concurrent — level used in the paper's experiments lets
// reads proceed alongside writes; per-node session mutexes provide
// statement isolation).
#ifndef APUAMA_CJDBC_SCHEDULER_H_
#define APUAMA_CJDBC_SCHEDULER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>

namespace apuama::cjdbc {

class Scheduler {
 public:
  /// Scope guard for a scheduled write: while held, no other write
  /// can be dispatched, fixing the replica-wide order.
  class WriteTicket {
   public:
    explicit WriteTicket(Scheduler* s) : sched_(s) {}
    ~WriteTicket() {
      if (sched_ != nullptr) sched_->EndWrite();
    }
    WriteTicket(WriteTicket&& o) noexcept : sched_(o.sched_) {
      o.sched_ = nullptr;
    }
    WriteTicket(const WriteTicket&) = delete;
    WriteTicket& operator=(const WriteTicket&) = delete;

   private:
    Scheduler* sched_;
  };

  /// Blocks until this write holds the global write order; assigns it
  /// the next sequence number.
  WriteTicket BeginWrite(uint64_t* sequence);

  uint64_t writes_scheduled() const { return write_seq_.load(); }

 private:
  friend class WriteTicket;
  void EndWrite();

  std::mutex mu_;
  std::condition_variable cv_;
  bool write_active_ = false;
  // Atomic: writes_scheduled() is an observability read that must not
  // take mu_ (and would race unlocked otherwise).
  std::atomic<uint64_t> write_seq_{0};
};

}  // namespace apuama::cjdbc

#endif  // APUAMA_CJDBC_SCHEDULER_H_
