#include "qpipe/sp_budget_governor.h"

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>

#include "common/fault.h"
#include "common/logging.h"
#include "qpipe/shared_pages_list.h"

namespace sharing {

namespace {

/// One spilled RowPage = a page_layout header (magic, row width/count,
/// capacity in `reserved`) followed by the raw row bytes, split across as
/// many fixed-size disk pages as it needs.
std::size_t SerializedBytes(const RowPage& page) {
  return page_layout::kHeaderBytes + page.data_bytes();
}

std::size_t ChainLength(std::size_t bytes) {
  return (bytes + kPageBytes - 1) / kPageBytes;
}

/// Reconstructs a RowPage bit-identical to the original from a spilled
/// page's chain; `frame_at(i)` yields a pointer to the kPageBytes of
/// chain page i (valid until the next call — the synchronous path reuses
/// one scratch buffer, the async path hands out pre-read frames without
/// copying). Capacity (not just row count) is restored so the
/// faulted-back page is indistinguishable from the original to every
/// accessor.
StatusOr<PageRef> AssembleSpilledPage(
    const SpilledPage& spilled,
    const std::function<StatusOr<const uint8_t*>(std::size_t)>& frame_at) {
  auto page = std::make_shared<RowPage>(
      spilled.row_width(),
      static_cast<std::size_t>(spilled.capacity()) * spilled.row_width());
  for (uint32_t r = 0; r < spilled.row_count(); ++r) {
    SHARING_CHECK(page->AppendSlot() != nullptr);
  }
  const std::size_t data_bytes =
      static_cast<std::size_t>(spilled.row_count()) * spilled.row_width();
  uint8_t* data = data_bytes > 0 ? page->MutableRowAt(0) : nullptr;

  std::size_t data_off = 0;
  for (std::size_t i = 0; i < spilled.chain().size(); ++i) {
    const uint8_t* frame;
    SHARING_ASSIGN_OR_RETURN(frame, frame_at(i));
    std::size_t frame_off = 0;
    if (i == 0) {
      const page_layout::Header* h = page_layout::GetHeader(frame);
      if (h->magic != page_layout::kMagic ||
          h->row_width != spilled.row_width() ||
          h->row_count != spilled.row_count()) {
        return Status::Internal("corrupt spilled page header");
      }
      frame_off = page_layout::kHeaderBytes;
    }
    // Rows are a contiguous byte stream that may straddle disk-page
    // boundaries; copy the stream, not row by row.
    const std::size_t take =
        std::min(kPageBytes - frame_off, data_bytes - data_off);
    if (take > 0) std::memcpy(data + data_off, frame + frame_off, take);
    data_off += take;
  }
  return PageRef(page);
}

std::string UniqueSpillPath() {
  static std::atomic<uint64_t> seq{0};
  std::error_code ec;
  std::filesystem::path dir = std::filesystem::temp_directory_path(ec);
  if (ec) dir = ".";
  return (dir / ("sharing_sp_spill_" + std::to_string(::getpid()) + "_" +
                 std::to_string(seq.fetch_add(1)) + ".bin"))
      .string();
}

}  // namespace

SpilledPage::~SpilledPage() {
  if (governor_ != nullptr) governor_->FreeChain(chain_, bytes_);
}

SpBudgetGovernor::SpBudgetGovernor(Options options)
    : options_(std::move(options)),
      pages_spilled_(options_.metrics->GetCounter(metrics::kSpPagesSpilled)),
      unspill_reads_(options_.metrics->GetCounter(metrics::kSpUnspillReads)),
      spill_bytes_(options_.metrics->GetGauge(metrics::kSpSpillBytes)),
      spill_disabled_(options_.metrics->GetGauge(metrics::kSpSpillDisabled)),
      scheduler_(options_.scheduler) {
  // Only the weak reference is kept (see Options::scheduler): spill jobs
  // pin this governor, and the governor must never be what keeps the
  // scheduler alive, or a worker destroying the last job capture would
  // end up destroying — and self-joining — its own scheduler.
  options_.scheduler.reset();
}

void SpBudgetGovernor::Register(std::weak_ptr<SharedPagesList> list) {
  std::lock_guard<std::mutex> lock(lists_mutex_);
  std::erase_if(lists_,
                [](const std::weak_ptr<SharedPagesList>& w) {
                  return w.expired();
                });
  lists_.push_back(std::move(list));
}

void SpBudgetGovernor::Rebalance(SharedPagesList* appender) {
  // A failed spill store latches the governor off: rescanning every
  // channel per append to shed zero pages would tax the engine forever.
  if (store_failed_.load(std::memory_order_relaxed)) return;
  if (ExcessPages() == 0) return;
  // With the async window exhausted every SpillAsync below would decline;
  // the install of an in-flight write re-runs Rebalance, so the excess
  // that remains here is picked up as soon as a window slot frees.
  if (SpillWindowFull()) return;
  std::vector<std::shared_ptr<SharedPagesList>> lists;
  {
    std::lock_guard<std::mutex> lock(lists_mutex_);
    lists.reserve(lists_.size());
    for (const auto& w : lists_) {
      if (auto list = w.lock()) lists.push_back(std::move(list));
    }
  }
  // Tier-major sweep: exhaust drained history engine-wide before touching
  // any consumed-but-laggard-needed page anywhere, and those before any
  // unread page — an idle channel's dead history must spill before the
  // active channel refaults pages its readers still want. Within the
  // drained/consumed tiers the appender goes first (cache-warm, most
  // likely to have candidates); in the unread tier it goes last, because
  // its fresh pages are read next while an idle channel's unread pages
  // are read later. The engine-wide excess is re-sampled before every
  // shed so concurrent rebalances from other appenders do not multiply
  // the spill work.
  for (SpillTier tier :
       {SpillTier::kDrained, SpillTier::kConsumed, SpillTier::kUnread}) {
    auto shed = [&](SharedPagesList* list) {
      if (SpillWindowFull()) return false;
      std::size_t excess = ExcessPages();
      if (excess == 0) return false;
      list->ShedForBudget(excess, tier);
      return true;
    };
    if (tier != SpillTier::kUnread && appender != nullptr &&
        !shed(appender)) {
      return;
    }
    for (const auto& list : lists) {
      if (list.get() == appender) continue;
      if (!shed(list.get())) return;
    }
    if (tier == SpillTier::kUnread && appender != nullptr &&
        !shed(appender)) {
      return;
    }
  }
}

void SpBudgetGovernor::DisableStore(const Status& cause) {
  {
    std::lock_guard<std::mutex> lock(disabled_mutex_);
    if (!disabled_cause_.ok()) {  // already latched; first cause wins
      store_failed_.store(true, std::memory_order_relaxed);
      return;
    }
    disabled_cause_ = cause;
  }
  store_failed_.store(true, std::memory_order_relaxed);
  spill_disabled_->Set(1);
  // The latch makes this a once-per-governor event, so one Error line is
  // the rate limit: subsequent failures short-circuit above.
  SHARING_LOG(Error) << "SP spill tier disabled: " << cause.ToString()
                     << " — queries keep running without a memory budget "
                        "(sp.spill_disabled=1, see /healthz)";
}

DiskManager* SpBudgetGovernor::EnsureStore() {
  std::lock_guard<std::mutex> lock(store_mutex_);
  if (store_ != nullptr) return store_.get();
  if (store_failed_.load(std::memory_order_relaxed)) return nullptr;
  if (SHARING_FAULT_POINT(fault_points::kSpillOpen)) {
    DisableStore(Status::IoError("injected spill store open failure"));
    return nullptr;
  }
  DiskOptions disk;
  disk.read_latency_micros = options_.read_latency_micros;
  disk.read_bandwidth_mib = options_.read_bandwidth_mib;
  disk.write_latency_micros = options_.write_latency_micros;
  // Exclusive creation ("x"): two governors must never share one spill
  // file — their DiskManagers would allocate overlapping PageIds and
  // truncate/remove each other's chains, silently corrupting results.
  // An explicit path that already exists fails loudly (degrades to "no
  // spilling"); auto-generated paths retry with a fresh suffix. A bad
  // path is probed here rather than handed to DiskManager, which aborts
  // on an unopenable backing file.
  if (options_.spill_path.empty()) {
    for (int attempt = 0; attempt < 16 && disk.path.empty(); ++attempt) {
      std::string candidate = UniqueSpillPath();
      if (std::FILE* probe = std::fopen(candidate.c_str(), "wbx")) {
        std::fclose(probe);
        disk.path = std::move(candidate);
      }
    }
  } else if (std::FILE* probe = std::fopen(options_.spill_path.c_str(),
                                           "wbx")) {
    std::fclose(probe);
    disk.path = options_.spill_path;
  }
  if (disk.path.empty()) {
    DisableStore(Status::IoError(
        "spill store unavailable at " +
        (options_.spill_path.empty() ? std::string("<temp dir>")
                                     : options_.spill_path) +
        " (unwritable, or the file already exists — spill stores are "
        "never shared or truncated)"));
    return nullptr;
  }
  store_ = std::make_unique<DiskManager>(disk, options_.metrics);
  return store_.get();
}

SpilledPageRef SpBudgetGovernor::Spill(const RowPage& page) {
  if (store_failed_.load(std::memory_order_relaxed)) return nullptr;
  DiskManager* store = EnsureStore();
  if (store == nullptr) return nullptr;

  const std::size_t bytes = SerializedBytes(page);
  const std::size_t chain_len = ChainLength(bytes);
  std::vector<PageId> chain;
  chain.reserve(chain_len);
  for (std::size_t i = 0; i < chain_len; ++i) {
    PageId id = store->AllocatePage();
    if (id == kInvalidPageId) {
      // Spill store out of space: degrade to no-spill (pages stay
      // resident, over budget) rather than failing the queries whose
      // pages we were evicting on their behalf.
      DisableStore(Status::ResourceExhausted(
          "spill store allocation failed (out of space)"));
      for (PageId allocated : chain) store->FreePage(allocated);
      return nullptr;
    }
    chain.push_back(id);
  }

  // Stream the header + row bytes through a page-sized scratch frame.
  uint8_t frame[kPageBytes];
  page_layout::Header header;
  header.magic = page_layout::kMagic;
  header.row_width = static_cast<uint32_t>(page.row_width());
  header.row_count = static_cast<uint32_t>(page.row_count());
  header.reserved = static_cast<uint32_t>(page.capacity());

  const uint8_t* data =
      page.row_count() > 0 ? page.RowAt(0) : nullptr;
  const std::size_t data_bytes = page.data_bytes();
  std::size_t data_off = 0;
  for (std::size_t i = 0; i < chain_len; ++i) {
    std::size_t frame_off = 0;
    if (i == 0) {
      std::memcpy(frame, &header, page_layout::kHeaderBytes);
      frame_off = page_layout::kHeaderBytes;
    }
    const std::size_t take =
        std::min(kPageBytes - frame_off, data_bytes - data_off);
    if (take > 0) std::memcpy(frame + frame_off, data + data_off, take);
    data_off += take;
    frame_off += take;
    if (frame_off < kPageBytes) {
      std::memset(frame + frame_off, 0, kPageBytes - frame_off);
    }
    Status st = store->WritePage(chain[i], frame);
    if (!st.ok()) {
      // Latch off, exactly like a creation failure: a full spill
      // filesystem does not heal mid-run, and without the latch every
      // subsequent AppendBatch would re-select the same victims and
      // re-issue the same failing writes across all channels forever.
      DisableStore(st);
      for (PageId id : chain) store->FreePage(id);
      return nullptr;
    }
  }

  pages_spilled_->Increment();
  spill_bytes_->Add(static_cast<int64_t>(bytes));
  return std::make_shared<SpilledPage>(
      shared_from_this(), std::move(chain), header.row_width,
      header.row_count, header.reserved, bytes);
}

bool SpBudgetGovernor::SpillAsync(
    PageRef page, std::function<void(SpilledPageRef)> install) {
  SHARING_CHECK(page != nullptr && install != nullptr);
  std::shared_ptr<IoScheduler> scheduler = scheduler_.lock();
  if (scheduler == nullptr) {
    install(Spill(*page));
    return true;
  }
  // Claim a window slot before submitting; the slot is released when the
  // job completes or is skipped, so the count never leaks even through
  // cancellation or scheduler shutdown.
  if (spills_in_flight_.fetch_add(1, std::memory_order_acq_rel) >=
      options_.spill_write_window) {
    spills_in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    return false;
  }
  auto self = shared_from_this();
  const std::size_t bytes = SerializedBytes(*page);
  IoTicketRef ticket = scheduler->Submit(
      IoPriority::kSpillWrite, bytes,
      /*work=*/
      [self, page, install] {
        SpilledPageRef spilled = self->Spill(*page);
        const bool ok = spilled != nullptr;
        // Install before releasing the window slot, so a Rebalance
        // kicked by the freed slot sees the updated residency.
        install(std::move(spilled));
        self->spills_in_flight_.fetch_sub(1, std::memory_order_acq_rel);
        // The freed window slot may be the only thing that was holding
        // back further shedding (Rebalance declines while the window is
        // full, and a closed producer never calls it again) — re-run it
        // here so the budget converges without another AppendBatch.
        self->Rebalance(nullptr);
        return ok ? Status::OK() : Status::IoError("spill write failed");
      },
      /*on_skip=*/
      [self, install] {
        install(nullptr);  // page stays resident; caller unmarks it
        self->spills_in_flight_.fetch_sub(1, std::memory_order_acq_rel);
      });
  if (ticket == nullptr) {  // scheduler shut down
    spills_in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    return false;
  }
  return true;
}

StatusOr<PageRef> SpBudgetGovernor::UnspillBlocking(
    const SpilledPageRef& spilled) {
  SHARING_CHECK(spilled != nullptr);
  std::shared_ptr<IoScheduler> scheduler = scheduler_.lock();
  if (scheduler == nullptr) return Unspill(*spilled);
  DiskManager* store;
  {
    std::lock_guard<std::mutex> lock(store_mutex_);
    store = store_.get();
  }
  SHARING_CHECK(store != nullptr) << "unspill with no spill store";

  // Fan the chain out as per-page kFaultBack reads and assemble here:
  // the caller is never a scheduler worker (workers fault whole chains
  // inside UnspillPrefetch jobs), so waiting on the tickets cannot
  // self-deadlock, and a multi-page chain's reads — each charged the
  // latency model — overlap across the worker pool.
  const auto& chain = spilled->chain();
  std::vector<std::unique_ptr<uint8_t[]>> frames(chain.size());
  std::vector<IoTicketRef> tickets(chain.size());
  bool scheduler_down = false;
  for (std::size_t i = 0; i < chain.size(); ++i) {
    frames[i] = std::make_unique<uint8_t[]>(kPageBytes);
    tickets[i] = store->ReadPageAsync(scheduler.get(), IoPriority::kFaultBack,
                                      chain[i], frames[i].get());
    if (tickets[i] == nullptr) {
      scheduler_down = true;
      break;
    }
  }
  // Every issued ticket must resolve before the frames can be released,
  // even on the fallback paths — a running job writes into them.
  Status read_status = Status::OK();
  for (const auto& ticket : tickets) {
    if (ticket == nullptr) continue;
    Status st = ticket->Wait();
    if (!st.ok() && read_status.ok()) read_status = st;
  }
  if (scheduler_down ||
      (!read_status.ok() && read_status.code() == StatusCode::kAborted)) {
    // Shutdown dropped some reads; the chain is still on the store.
    return Unspill(*spilled);
  }
  if (!read_status.ok()) return read_status;
  auto result = AssembleSpilledPage(
      *spilled, [&](std::size_t i) -> StatusOr<const uint8_t*> {
        return static_cast<const uint8_t*>(frames[i].get());
      });
  if (result.ok()) unspill_reads_->Increment();
  return result;
}

IoTicketRef SpBudgetGovernor::UnspillPrefetch(
    SpilledPageRef spilled, std::shared_ptr<std::optional<StatusOr<PageRef>>> out) {
  SHARING_CHECK(spilled != nullptr && out != nullptr);
  std::shared_ptr<IoScheduler> scheduler = scheduler_.lock();
  if (scheduler == nullptr) return nullptr;
  auto self = shared_from_this();
  const std::size_t bytes = spilled->chain().size() * kPageBytes;
  return scheduler->Submit(
      IoPriority::kFaultBack, bytes, [self, spilled, out] {
        auto result = self->Unspill(*spilled);
        Status st = result.ok() ? Status::OK() : result.status();
        // The ticket completes after this returns, so Wait() observes a
        // populated holder.
        out->emplace(std::move(result));
        return st;
      });
}

StatusOr<PageRef> SpBudgetGovernor::Unspill(const SpilledPage& spilled) {
  DiskManager* store;
  {
    std::lock_guard<std::mutex> lock(store_mutex_);
    store = store_.get();
  }
  SHARING_CHECK(store != nullptr) << "unspill with no spill store";
  uint8_t frame[kPageBytes];
  auto result = AssembleSpilledPage(
      spilled, [&](std::size_t i) -> StatusOr<const uint8_t*> {
        Status st = store->ReadPage(spilled.chain()[i], frame);
        if (!st.ok()) return st;
        return static_cast<const uint8_t*>(frame);
      });
  if (result.ok()) unspill_reads_->Increment();
  return result;
}

void SpBudgetGovernor::FreeChain(const std::vector<PageId>& chain,
                                 std::size_t bytes) {
  std::lock_guard<std::mutex> lock(store_mutex_);
  if (store_ == nullptr) return;
  for (PageId id : chain) store_->FreePage(id);
  spill_bytes_->Sub(static_cast<int64_t>(bytes));
}

}  // namespace sharing
