// Concurrency tests for the page-flow buffers: FifoBuffer (push model) and
// SharedPagesList (the paper's pull-model SPL).

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "qpipe/fifo_buffer.h"
#include "qpipe/shared_pages_list.h"

namespace sharing {
namespace {

PageRef MakePage(int64_t tag, std::size_t rows = 4) {
  auto page = std::make_shared<RowPage>(sizeof(int64_t), 64);
  for (std::size_t i = 0; i < rows; ++i) {
    int64_t v = tag * 100 + static_cast<int64_t>(i);
    page->AppendRow(reinterpret_cast<const uint8_t*>(&v));
  }
  return page;
}

int64_t FirstValue(const PageRef& page) {
  int64_t v;
  std::memcpy(&v, page->RowAt(0), sizeof(v));
  return v;
}

// ---------------------------------------------------------------------------
// FifoBuffer
// ---------------------------------------------------------------------------

TEST(FifoBufferTest, InOrderDelivery) {
  FifoBuffer fifo(4);
  fifo.Put(MakePage(1));
  fifo.Put(MakePage(2));
  fifo.Close(Status::OK());
  EXPECT_EQ(FirstValue(fifo.Next()), 100);
  EXPECT_EQ(FirstValue(fifo.Next()), 200);
  EXPECT_EQ(fifo.Next(), nullptr);
  EXPECT_TRUE(fifo.FinalStatus().ok());
}

TEST(FifoBufferTest, BackpressureBlocksProducer) {
  FifoBuffer fifo(2);
  std::atomic<int> produced{0};
  std::thread producer([&] {
    for (int i = 0; i < 6; ++i) {
      fifo.Put(MakePage(i));
      produced.fetch_add(1);
    }
    fifo.Close(Status::OK());
  });
  // Give the producer time to fill the buffer and block.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_LE(produced.load(), 3);  // capacity 2 (+1 in flight)
  while (fifo.Next() != nullptr) {
  }
  producer.join();
  EXPECT_EQ(produced.load(), 6);
}

TEST(FifoBufferTest, ReaderCancelUnblocksProducer) {
  FifoBuffer fifo(1);
  std::atomic<bool> done{false};
  std::thread producer([&] {
    bool alive = true;
    for (int i = 0; i < 100 && alive; ++i) {
      alive = fifo.Put(MakePage(i));
    }
    done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  fifo.CancelReader();
  producer.join();
  EXPECT_TRUE(done.load());
}

TEST(FifoBufferTest, CloseWithErrorSurfacesToConsumer) {
  FifoBuffer fifo(4);
  fifo.Put(MakePage(1));
  fifo.Close(Status::Aborted("producer died"));
  EXPECT_NE(fifo.Next(), nullptr);  // buffered page still delivered
  EXPECT_EQ(fifo.Next(), nullptr);
  EXPECT_EQ(fifo.FinalStatus().code(), StatusCode::kAborted);
}

TEST(FifoBufferTest, PutAfterCloseFails) {
  FifoBuffer fifo(4);
  fifo.Close(Status::OK());
  EXPECT_FALSE(fifo.Put(MakePage(1)));
}

TEST(FifoBufferTest, ProducerConsumerStress) {
  FifoBuffer fifo(8);
  constexpr int kPages = 2000;
  std::thread producer([&] {
    for (int i = 0; i < kPages; ++i) fifo.Put(MakePage(i, 1));
    fifo.Close(Status::OK());
  });
  int64_t expected = 0;
  while (PageRef page = fifo.Next()) {
    EXPECT_EQ(FirstValue(page), expected * 100);
    ++expected;
  }
  producer.join();
  EXPECT_EQ(expected, kPages);
}

// ---------------------------------------------------------------------------
// SharedPagesList
// ---------------------------------------------------------------------------

TEST(SplTest, SingleReaderSeesAllPagesInOrder) {
  auto spl = SharedPagesList::Create();
  auto reader = spl->AttachReader();
  ASSERT_NE(reader, nullptr);
  spl->AppendBatch({MakePage(1)});
  spl->AppendBatch({MakePage(2)});
  spl->Close(Status::OK());
  EXPECT_EQ(FirstValue(reader->Next()), 100);
  EXPECT_EQ(FirstValue(reader->Next()), 200);
  EXPECT_EQ(reader->Next(), nullptr);
  EXPECT_TRUE(reader->FinalStatus().ok());
}

TEST(SplTest, PagesAreSharedNotCopied) {
  auto spl = SharedPagesList::Create();
  auto r1 = spl->AttachReader();
  auto r2 = spl->AttachReader();
  PageRef page = MakePage(7);
  const RowPage* raw = page.get();
  spl->AppendBatch({std::move(page)});
  spl->Close(Status::OK());
  // Both readers observe the *same* page object — the defining property
  // of pull-based SP (no per-consumer copies).
  EXPECT_EQ(r1->Next().get(), raw);
  EXPECT_EQ(r2->Next().get(), raw);
}

TEST(SplTest, LateReaderSeesHistory) {
  auto spl = SharedPagesList::Create();
  auto early = spl->AttachReader();
  spl->AppendBatch({MakePage(1)});
  spl->AppendBatch({MakePage(2)});
  // Late attach mid-production: the widened pull-model sharing window.
  auto late = spl->AttachReader();
  ASSERT_NE(late, nullptr);
  spl->AppendBatch({MakePage(3)});
  spl->Close(Status::OK());

  int early_count = 0, late_count = 0;
  while (early->Next()) ++early_count;
  while (late->Next()) ++late_count;
  EXPECT_EQ(early_count, 3);
  EXPECT_EQ(late_count, 3);
}

TEST(SplTest, AttachAfterOkCloseStillWorks) {
  auto spl = SharedPagesList::Create();
  auto keeper = spl->AttachReader();  // keeps producer alive
  spl->AppendBatch({MakePage(1)});
  spl->Close(Status::OK());
  auto reader = spl->AttachReader();
  ASSERT_NE(reader, nullptr);
  EXPECT_EQ(FirstValue(reader->Next()), 100);
  EXPECT_EQ(reader->Next(), nullptr);
}

TEST(SplTest, AttachAfterAbortFails) {
  auto spl = SharedPagesList::Create();
  auto reader = spl->AttachReader();
  spl->Close(Status::Aborted("host cancelled"));
  EXPECT_EQ(spl->AttachReader(), nullptr);
  EXPECT_EQ(reader->Next(), nullptr);
  EXPECT_EQ(reader->FinalStatus().code(), StatusCode::kAborted);
}

TEST(SplTest, AppendFailsWhenAllReadersCancelled) {
  auto spl = SharedPagesList::Create();
  auto r1 = spl->AttachReader();
  auto r2 = spl->AttachReader();
  EXPECT_TRUE(spl->AppendBatch({MakePage(1)}));
  r1->Cancel();
  EXPECT_TRUE(spl->AppendBatch({MakePage(2)}));  // r2 still live
  r2->Cancel();
  EXPECT_FALSE(spl->AppendBatch({MakePage(3)}));  // everyone gone
}

TEST(SplTest, CancelledReaderStopsEarly) {
  auto spl = SharedPagesList::Create();
  auto reader = spl->AttachReader();
  spl->AppendBatch({MakePage(1)});
  reader->Cancel();
  EXPECT_EQ(reader->Next(), nullptr);
  EXPECT_EQ(reader->FinalStatus().code(), StatusCode::kAborted);
}

TEST(SplTest, ManyConcurrentReadersSeeIdenticalStream) {
  auto spl = SharedPagesList::Create();
  constexpr int kReaders = 8;
  constexpr int kPages = 500;

  std::vector<std::shared_ptr<SplReader>> readers;
  for (int r = 0; r < kReaders; ++r) readers.push_back(spl->AttachReader());

  std::thread producer([&] {
    for (int i = 0; i < kPages; ++i) spl->AppendBatch({MakePage(i, 1)});
    spl->Close(Status::OK());
  });

  std::vector<std::thread> consumers;
  std::atomic<int> failures{0};
  for (int r = 0; r < kReaders; ++r) {
    consumers.emplace_back([&, r] {
      int64_t expect = 0;
      while (PageRef page = readers[r]->Next()) {
        if (FirstValue(page) != expect * 100) failures.fetch_add(1);
        ++expect;
      }
      if (expect != kPages) failures.fetch_add(1);
    });
  }
  producer.join();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(spl->NumPages(), static_cast<std::size_t>(kPages));
}

TEST(SplTest, SlowAndFastReadersBothComplete) {
  auto spl = SharedPagesList::Create();
  auto fast = spl->AttachReader();
  auto slow = spl->AttachReader();

  std::thread producer([&] {
    for (int i = 0; i < 50; ++i) spl->AppendBatch({MakePage(i)});
    spl->Close(Status::OK());
  });
  std::thread fast_consumer([&] {
    while (fast->Next()) {
    }
  });
  int slow_count = 0;
  while (PageRef page = slow->Next()) {
    ++slow_count;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  producer.join();
  fast_consumer.join();
  EXPECT_EQ(slow_count, 50);
}

}  // namespace
}  // namespace sharing
