// Micro A: the mechanism behind Fig. 4 — FIFO copy fan-out (push SP) vs
// Shared Pages List fan-out (pull SP), isolated from the query engine.
//
// One producer produces P pages; N consumers each need all P pages.
// Push: the producer deep-copies every page into each consumer's FIFO.
// Pull: the producer appends each page once to an SPL; consumers share.
// google-benchmark reports time per (producer+consumers) round.

#include <benchmark/benchmark.h>

#include <thread>
#include <vector>

#include "qpipe/fifo_buffer.h"
#include "qpipe/shared_pages_list.h"

namespace sharing {
namespace {

constexpr std::size_t kRowWidth = 64;
constexpr std::size_t kPageBytesProduced = 32 * 1024;

PageRef MakeFullPage() {
  auto page = std::make_shared<RowPage>(kRowWidth, kPageBytesProduced);
  while (uint8_t* slot = page->AppendSlot()) {
    slot[0] = 1;
  }
  return page;
}

/// Push model: producer writes each page into every consumer FIFO as a
/// deep copy — all copies serialized through the producer thread.
void BM_PushFanout(benchmark::State& state) {
  const int consumers = static_cast<int>(state.range(0));
  const int pages = static_cast<int>(state.range(1));
  PageRef source = MakeFullPage();

  for (auto _ : state) {
    std::vector<std::shared_ptr<FifoBuffer>> fifos;
    for (int c = 0; c < consumers; ++c) {
      fifos.push_back(std::make_shared<FifoBuffer>(8));
    }
    std::vector<std::thread> threads;
    std::atomic<int64_t> consumed{0};
    for (int c = 0; c < consumers; ++c) {
      threads.emplace_back([&, c] {
        int64_t n = 0;
        while (fifos[c]->Next()) ++n;
        consumed.fetch_add(n);
      });
    }
    for (int p = 0; p < pages; ++p) {
      for (int c = 0; c < consumers; ++c) {
        auto copy = std::make_shared<RowPage>(*source);  // the copy cost
        fifos[c]->Put(std::move(copy));
      }
    }
    for (auto& f : fifos) f->Close(Status::OK());
    for (auto& t : threads) t.join();
    if (consumed.load() != int64_t(consumers) * pages) {
      state.SkipWithError("lost pages");
    }
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * consumers * pages *
                          int64_t(kPageBytesProduced));
}

/// Pull model: producer appends once; consumers share page references.
void BM_PullFanout(benchmark::State& state) {
  const int consumers = static_cast<int>(state.range(0));
  const int pages = static_cast<int>(state.range(1));
  PageRef source = MakeFullPage();

  for (auto _ : state) {
    auto spl = SharedPagesList::Create();
    std::vector<std::shared_ptr<SplReader>> readers;
    for (int c = 0; c < consumers; ++c) readers.push_back(spl->AttachReader());
    std::vector<std::thread> threads;
    std::atomic<int64_t> consumed{0};
    for (int c = 0; c < consumers; ++c) {
      threads.emplace_back([&, c] {
        int64_t n = 0;
        while (readers[c]->Next()) ++n;
        consumed.fetch_add(n);
      });
    }
    for (int p = 0; p < pages; ++p) {
      spl->AppendBatch({source});  // shared: no copy
    }
    spl->Close(Status::OK());
    for (auto& t : threads) t.join();
    if (consumed.load() != int64_t(consumers) * pages) {
      state.SkipWithError("lost pages");
    }
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * consumers * pages *
                          int64_t(kPageBytesProduced));
}

BENCHMARK(BM_PushFanout)
    ->ArgsProduct({{1, 2, 4, 8, 16}, {64}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(BM_PullFanout)
    ->ArgsProduct({{1, 2, 4, 8, 16}, {64}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace sharing

BENCHMARK_MAIN();
