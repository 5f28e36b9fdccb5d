// ScanReadahead: scheduler readahead for the producer of a circular scan,
// shared by QPipe's CircularScanGroup and CJOIN's fact-scan driver. The
// producer calls Advance() right before each FetchPage; the next `depth`
// positions are then read on the IoScheduler's kScanPrefetch workers
// instead of inline, so the page it needs next is usually resident.
//
// Rules: resident pages are skipped; at most `depth` jobs are outstanding;
// a job captures only the buffer pool and the page id, so it is safe after
// the scan is gone; it is best-effort — a failed or cancelled job is just
// a future miss, whose error the producer's own FetchPage reports.
// Producer thread only, no locking.

#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <utility>

#include "common/macros.h"
#include "io/io_scheduler.h"
#include "storage/table.h"

namespace sharing {

class ScanReadahead {
 public:
  /// A null `scheduler` or a zero `depth` disables readahead.
  ScanReadahead(const Table* table, std::shared_ptr<IoScheduler> scheduler,
                std::size_t depth)
      : table_(table), scheduler_(std::move(scheduler)), depth_(depth) {}

  /// Cancels readahead still queued; a running job finishes harmlessly.
  ~ScanReadahead() {
    for (const auto& ticket : prefetch_tickets_) ticket->TryCancel();
  }

  SHARING_DISALLOW_COPY_AND_MOVE(ScanReadahead);

  /// Called right before the producer fetches its next position. The scan
  /// reads positions 0, 1, 2, ... modulo the table's page count.
  void Advance() {
    const uint64_t seq = read_seq_++;
    if (scheduler_ == nullptr || depth_ == 0) return;
    BufferPool* pool = table_->buffer_pool();
    // Drop completed tickets so the deque tracks only live readahead.
    while (!prefetch_tickets_.empty() && prefetch_tickets_.front()->done()) {
      prefetch_tickets_.pop_front();
    }
    for (uint64_t s = std::max(seq + 1, prefetched_until_ + 1);
         s <= seq + depth_; ++s) {
      // Readahead that cannot keep up arrives too late to help: once
      // `depth_` jobs are outstanding, stop issuing instead of
      // backlogging the scheduler queue. Skipped positions are future
      // misses; later calls target only what is still ahead.
      if (prefetch_tickets_.size() >= depth_) break;
      const PageId pid = table_->page_id(s % table_->num_pages());
      // A resident page would be a free hit: don't spend scheduler budget
      // (or io.reads_issued) on it. The probe is advisory.
      if (!pool->IsResident(pid)) {
        // Fetch + drop leaves the page resident for the producer.
        IoTicketRef ticket = scheduler_->Submit(
            IoPriority::kScanPrefetch, kPageBytes, [pool, pid] {
              auto guard_or = pool->FetchPage(pid);
              return guard_or.ok() ? Status::OK() : guard_or.status();
            });
        if (ticket == nullptr) return;  // scheduler shut down
        prefetch_tickets_.push_back(std::move(ticket));
      }
      prefetched_until_ = s;
    }
  }

 private:
  const Table* table_;
  std::shared_ptr<IoScheduler> scheduler_;
  std::size_t depth_;

  // Absolute read sequence, the highest sequence already prefetched, and
  // the outstanding tickets (at most depth_).
  uint64_t read_seq_ = 0;
  uint64_t prefetched_until_ = 0;
  std::deque<IoTicketRef> prefetch_tickets_;
};

}  // namespace sharing
