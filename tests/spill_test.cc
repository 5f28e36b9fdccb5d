// Tests for the SP spill subsystem: DiskManager temp-page recycling, the
// SpBudgetGovernor's spill/unspill round trip, graceful degradation on an
// unusable spill store, the engine-level budget acceptance criterion
// (stalled reader: in-memory retention <= budget, bit-exact fault-back,
// all spill bytes freed after drain), and the cost model's pull+spill
// admission reaching the stage stats and explain.

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstring>
#include <thread>

#include "exec/explain.h"
#include "qpipe/engine.h"
#include "qpipe/sharing_channel.h"
#include "storage/disk_manager.h"
#include "test_util.h"

namespace sharing {
namespace {

using testing::ExpectResultsEquivalent;
using testing::MakeTestDatabase;

// ---------------------------------------------------------------------------
// DiskManager: temp-file allocation/free
// ---------------------------------------------------------------------------

TEST(DiskManagerFreeListTest, FreedPagesAreRecycledBeforeGrowth) {
  DiskManager disk(DiskOptions{}, &MetricsRegistry::Global());
  PageId a = disk.AllocatePage();
  PageId b = disk.AllocatePage();
  PageId c = disk.AllocatePage();
  EXPECT_EQ(disk.num_pages(), 3u);

  disk.FreePage(b);
  disk.FreePage(a);
  EXPECT_EQ(disk.NumFreePages(), 2u);

  // Recycled ids come back before the store grows.
  PageId d = disk.AllocatePage();
  PageId e = disk.AllocatePage();
  EXPECT_EQ(disk.NumFreePages(), 0u);
  EXPECT_EQ(disk.num_pages(), 3u) << "no growth while the free list serves";
  EXPECT_TRUE((d == a && e == b) || (d == b && e == a));
  (void)c;

  // A recycled page is zeroed, not a stale view of its previous tenant.
  uint8_t frame[kPageBytes];
  ASSERT_TRUE(disk.ReadPage(d, frame).ok());
  for (std::size_t i = 0; i < kPageBytes; ++i) ASSERT_EQ(frame[i], 0);
}

TEST(DiskManagerFreeListTest, FileBackedRecycledPagesAreZeroed) {
  DiskOptions options;
  // Unique per process so concurrent runs on one host cannot truncate
  // or remove each other's backing file.
  options.path = "/tmp/sharing_disk_free_test_" +
                 std::to_string(::getpid()) + ".bin";
  DiskManager disk(options, &MetricsRegistry::Global());
  PageId id = disk.AllocatePage();
  uint8_t frame[kPageBytes];
  std::memset(frame, 0xab, kPageBytes);
  ASSERT_TRUE(disk.WritePage(id, frame).ok());
  disk.FreePage(id);
  ASSERT_EQ(disk.AllocatePage(), id);
  ASSERT_TRUE(disk.ReadPage(id, frame).ok());
  for (std::size_t i = 0; i < kPageBytes; ++i) {
    ASSERT_EQ(frame[i], 0) << "stale tenant byte at offset " << i;
  }
  // Real bytes supersede the deferred zero.
  std::memset(frame, 0x5c, kPageBytes);
  ASSERT_TRUE(disk.WritePage(id, frame).ok());
  uint8_t back[kPageBytes];
  ASSERT_TRUE(disk.ReadPage(id, back).ok());
  ASSERT_EQ(0, std::memcmp(back, frame, kPageBytes));
}

// ---------------------------------------------------------------------------
// SpBudgetGovernor: serialization round trip
// ---------------------------------------------------------------------------

std::shared_ptr<SpBudgetGovernor> MakeGovernor(MetricsRegistry* metrics,
                                               std::size_t budget,
                                               std::string path = {}) {
  SpBudgetGovernor::Options gopts;
  gopts.budget_pages = budget;
  gopts.spill_path = std::move(path);
  gopts.metrics = metrics;
  return SpBudgetGovernor::Create(std::move(gopts));
}

/// A page whose every row byte is a deterministic pattern of (seed, row).
PageRef MakePatternPage(std::size_t row_width, std::size_t rows,
                        uint8_t seed) {
  auto page = std::make_shared<RowPage>(row_width, row_width * rows);
  for (std::size_t r = 0; r < rows; ++r) {
    uint8_t* slot = page->AppendSlot();
    EXPECT_NE(slot, nullptr);
    for (std::size_t b = 0; b < row_width; ++b) {
      slot[b] = static_cast<uint8_t>(seed + 31 * r + b);
    }
  }
  return page;
}

void ExpectPagesIdentical(const RowPage& got, const RowPage& want) {
  ASSERT_EQ(got.row_width(), want.row_width());
  ASSERT_EQ(got.row_count(), want.row_count());
  EXPECT_EQ(got.capacity(), want.capacity());
  if (want.row_count() > 0) {
    EXPECT_EQ(0, std::memcmp(got.RowAt(0), want.RowAt(0), want.data_bytes()));
  }
}

TEST(SpBudgetGovernorTest, SpillUnspillRoundTripIsBitExact) {
  MetricsRegistry metrics;
  auto governor = MakeGovernor(&metrics, 1);
  // Odd row width (rows straddle the 8 KiB disk-page boundary), multi-page
  // chain (40 KiB serialized > 4 disk pages), plus a single-page payload.
  const std::pair<std::size_t, std::size_t> kCases[] = {
      {40, 1000}, {24, 10}, {8192, 4}};
  for (auto [width, rows] : kCases) {
    PageRef original = MakePatternPage(width, rows, 0x5a);
    SpilledPageRef spilled = governor->Spill(*original);
    ASSERT_NE(spilled, nullptr);
    EXPECT_EQ(spilled->bytes(),
              page_layout::kHeaderBytes + original->data_bytes());
    EXPECT_EQ(metrics.GetGauge(metrics::kSpSpillBytes)->Get(),
              static_cast<int64_t>(spilled->bytes()));
    auto back = governor->Unspill(*spilled);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    ExpectPagesIdentical(*back.value(), *original);
  }
  EXPECT_EQ(metrics.GetCounter(metrics::kSpPagesSpilled)->Get(), 3);
  EXPECT_EQ(metrics.GetCounter(metrics::kSpUnspillReads)->Get(), 3);
  EXPECT_EQ(metrics.GetGauge(metrics::kSpSpillBytes)->Get(), 0)
      << "each chain was freed when its ref died";
}

TEST(SpBudgetGovernorTest, DroppingTheLastRefFreesTheChain) {
  MetricsRegistry metrics;
  Gauge* spill_bytes = metrics.GetGauge(metrics::kSpSpillBytes);
  auto governor = MakeGovernor(&metrics, 1);
  PageRef page = MakePatternPage(64, 400, 7);  // ~25 KiB, 4-page chain
  SpilledPageRef spilled = governor->Spill(*page);
  ASSERT_NE(spilled, nullptr);
  EXPECT_GT(spill_bytes->Get(), 0);
  spilled.reset();
  EXPECT_EQ(spill_bytes->Get(), 0) << "freeing must return every byte";

  // The freed chain is recycled: spilling again reuses the same disk
  // pages instead of growing the temp file.
  SpilledPageRef again = governor->Spill(*page);
  ASSERT_NE(again, nullptr);
  auto back = governor->Unspill(*again);
  ASSERT_TRUE(back.ok());
  ExpectPagesIdentical(*back.value(), *page);
}

TEST(SpBudgetGovernorTest, ExplicitSpillPathIsNeverShared) {
  MetricsRegistry metrics;
  const std::string path = "/tmp/sharing_spill_shared_path_test_" +
      std::to_string(::getpid()) + ".bin";
  std::remove(path.c_str());
  auto first = MakeGovernor(&metrics, 1, path);
  PageRef page = MakePatternPage(64, 10, 3);
  SpilledPageRef spilled = first->Spill(*page);
  ASSERT_NE(spilled, nullptr);

  // A second governor on the same path must refuse (exclusive creation)
  // instead of truncating the first governor's chains.
  auto second = MakeGovernor(&metrics, 1, path);
  EXPECT_EQ(second->Spill(*page), nullptr);

  // The first governor's store is intact.
  auto back = first->Unspill(*spilled);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectPagesIdentical(*back.value(), *page);
}

TEST(SpBudgetGovernorTest, FailedStoreLatchesUsableOff) {
  MetricsRegistry metrics;
  auto governor =
      MakeGovernor(&metrics, 2, "/nonexistent_dir_for_spill/x/store.bin");
  EXPECT_TRUE(governor->enabled());
  EXPECT_TRUE(governor->usable()) << "store not probed yet";
  PageRef page = MakePatternPage(8, 4, 1);
  EXPECT_EQ(governor->Spill(*page), nullptr);
  EXPECT_TRUE(governor->enabled());
  EXPECT_FALSE(governor->usable())
      << "a failed store must switch the adaptive spill preference off";
}

TEST(SpBudgetGovernorTest, UnusableSpillPathDegradesToNoSpill) {
  MetricsRegistry metrics;
  auto governor =
      MakeGovernor(&metrics, 2, "/nonexistent_dir_for_spill/x/store.bin");
  SharingChannelOptions options;
  options.metrics = &metrics;
  options.governor = governor;
  auto channel = MakeSharingChannel(SpMode::kPull, std::move(options));
  auto host = channel->AttachReader();
  auto stalled = channel->AttachReader();
  for (int i = 0; i < 16; ++i) {
    auto page = std::make_shared<RowPage>(sizeof(int64_t), 64);
    int64_t v = i;
    page->AppendRow(reinterpret_cast<const uint8_t*>(&v));
    ASSERT_TRUE(channel->Put(page));
    ASSERT_NE(host->Next(), nullptr);
  }
  channel->Close(Status::OK());
  // Over budget but unspillable: pages stay resident (losing data would
  // be worse) and the stalled reader still sees the full result.
  EXPECT_EQ(metrics.GetCounter(metrics::kSpPagesSpilled)->Get(), 0);
  int count = 0;
  int64_t v;
  while (PageRef page = stalled->Next()) {
    std::memcpy(&v, page->RowAt(0), sizeof(v));
    EXPECT_EQ(v, count);
    ++count;
  }
  EXPECT_EQ(count, 16);
}

// ---------------------------------------------------------------------------
// Engine-level acceptance: budget held under a stalled reader, bit-exact
// fault-back, all spill bytes freed after drain.
// ---------------------------------------------------------------------------

class SpillEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = MakeTestDatabase();
    Schema schema({Column::Int64("id"), Column::Int64("grp"),
                   Column::Double("val")});
    auto t = db_->catalog()->CreateTable("wide", schema, db_->buffer_pool());
    ASSERT_TRUE(t.ok());
    TableAppender appender(t.value());
    for (int64_t i = 0; i < 100000; ++i) {
      auto row = appender.AppendRow();
      ASSERT_TRUE(row.ok());
      row.value().SetInt64(0, i).SetInt64(1, i % 17).SetDouble(
          2, double(i % 257));
    }
    ASSERT_TRUE(appender.Finish().ok());
  }

  PlanNodeRef ScanPlan() {
    Schema schema = db_->catalog()->GetTable("wide").value()->schema();
    return std::make_shared<ScanNode>("wide", schema, TruePredicate(),
                                      std::vector<std::size_t>{0, 1, 2});
  }

  /// Waits until the engine's producers go quiet (pages_shared stable).
  void AwaitProduction() {
    Counter* shared = db_->metrics()->GetCounter(metrics::kSpPagesShared);
    int64_t last = -1;
    for (int spin = 0; spin < 200; ++spin) {
      int64_t now = shared->Get();
      if (now == last && now > 0) return;
      last = now;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }

  /// Waits until the governor's async spill writes have all landed — the
  /// budget is only guaranteed once in-flight victims (pinned until
  /// durable) have been installed.
  void AwaitSpillQuiesce(QPipeEngine& engine) {
    const auto& governor = engine.sp_governor();
    ASSERT_NE(governor, nullptr);
    for (int spin = 0; spin < 1000 && governor->SpillsInFlight() > 0;
         ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(governor->SpillsInFlight(), 0u);
  }

  std::unique_ptr<Database> db_;
};

TEST_F(SpillEngineTest, StalledReaderHoldsBudgetAndDrainsBitExact) {
  constexpr std::size_t kBudget = 8;
  QPipeOptions options = QPipeOptions::AllSp(SpMode::kPull);
  options.sp_memory_budget = kBudget;
  QPipeEngine engine(db_->catalog(), options, db_->metrics());

  Gauge* retained = db_->metrics()->GetGauge(metrics::kSpPagesRetained);
  Gauge* spill_bytes = db_->metrics()->GetGauge(metrics::kSpSpillBytes);

  // Host + a satellite we deliberately do not drain: the stalled reader
  // pins the scan's whole result, the regime the budget exists for.
  QueryHandle host = engine.Submit(ScanPlan());
  QueryHandle stalled = engine.Submit(ScanPlan());
  auto host_result = host.Collect();
  ASSERT_TRUE(host_result.ok());

  AwaitProduction();
  AwaitSpillQuiesce(engine);
  ASSERT_GT(db_->metrics()->GetCounter(metrics::kSpPagesShared)->Get(),
            static_cast<int64_t>(2 * kBudget))
      << "the scan must produce enough pages to exercise the budget";
  EXPECT_LE(retained->Get(), static_cast<int64_t>(kBudget))
      << "a stalled reader must not pin more than the budget in RAM";
  EXPECT_GT(db_->metrics()->GetCounter(metrics::kSpPagesSpilled)->Get(), 0);
  EXPECT_GT(spill_bytes->Get(), 0);

  // The stalled reader drains: bit-exact results via fault-back.
  auto late_result = stalled.Collect();
  ASSERT_TRUE(late_result.ok());
  ExpectResultsEquivalent(host_result.value(), late_result.value());
  EXPECT_GT(db_->metrics()->GetCounter(metrics::kSpUnspillReads)->Get(), 0);

  // All tiers empty after every reader drained.
  EXPECT_EQ(retained->Get(), 0);
  EXPECT_EQ(spill_bytes->Get(), 0);
}

TEST_F(SpillEngineTest, CancelledStalledReaderFreesSpill) {
  QPipeOptions options = QPipeOptions::AllSp(SpMode::kPull);
  options.sp_memory_budget = 4;
  QPipeEngine engine(db_->catalog(), options, db_->metrics());

  QueryHandle host = engine.Submit(ScanPlan());
  QueryHandle stalled = engine.Submit(ScanPlan());
  ASSERT_TRUE(host.Collect().ok());
  AwaitProduction();
  AwaitSpillQuiesce(engine);

  stalled.Cancel();
  // Cancellation releases the stalled reader's hold; spilled chains are
  // deleted unread and the memory account returns to zero.
  Gauge* retained = db_->metrics()->GetGauge(metrics::kSpPagesRetained);
  Gauge* spill_bytes = db_->metrics()->GetGauge(metrics::kSpSpillBytes);
  for (int spin = 0; spin < 100 && spill_bytes->Get() != 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(retained->Get(), 0);
  EXPECT_EQ(spill_bytes->Get(), 0);
}

// ---------------------------------------------------------------------------
// Adaptive admission: the cost model's pull+spill preference
// ---------------------------------------------------------------------------

/// Rounds of `queries` identical scans submitted together and collected in
/// order: the first hosts, the rest attach and stall until it drains, so
/// every session closes with the host's whole result retained (and the
/// capped lag at the FIFO capacity, which prices push with a convoy).
/// Returns the scan-stage explain records of every query, in order.
std::vector<QueryExplain::StageRecord> RunStalledRounds(QPipeEngine& engine,
                                                        PlanNodeRef plan,
                                                        int rounds,
                                                        int queries) {
  std::vector<QueryExplain::StageRecord> records;
  for (int round = 0; round < rounds; ++round) {
    std::vector<QueryHandle> handles;
    for (int q = 0; q < queries; ++q) handles.push_back(engine.Submit(plan));
    for (auto& h : handles) {
      auto got = h.Collect();
      EXPECT_TRUE(got.ok()) << got.status().ToString();
      if (!got.ok() || got.value().explain() == nullptr) continue;
      for (const auto& rec : got.value().explain()->stages) {
        if (rec.stage == "TSCAN") records.push_back(rec);
      }
    }
  }
  return records;
}

TEST_F(SpillEngineTest, AdaptiveModelSpillDecisionReachesStatsAndExplain) {
  QPipeOptions options = QPipeOptions::AllSp(SpMode::kAdaptive);
  options.cost_model_min_samples = 2;
  // Below the scan's ~74-page result but close to it: the overflow's
  // spill round trips stay cheaper than push's convoy whatever the
  // measured per-page copy cost is.
  options.sp_memory_budget = 48;
  QPipeEngine engine(db_->catalog(), options, db_->metrics());

  // Every session retains the whole scan result, above the budget, and
  // its satellites lag past the FIFO capacity: the model prices push with
  // a convoy and pull with spill round trips for the overflow, and hosts
  // pull + spill.
  const auto records = RunStalledRounds(engine, ScanPlan(), 6, 8);
  StageStats scan = engine.scan_stage()->GetStats();
  EXPECT_GT(scan.adaptive_pull_spill, 0)
      << engine.scan_stage()->CostModelDump();
  EXPECT_LE(scan.adaptive_pull_spill, scan.adaptive_pull);

  int64_t explained = 0;
  for (const auto& rec : records) {
    if (!rec.spill_preferred) continue;
    EXPECT_STREQ(rec.decided_by, "model");
    EXPECT_STREQ(rec.transport, "pull");
    EXPECT_EQ(rec.role, QueryExplain::StageRecord::Role::kHost);
    ++explained;
  }
  EXPECT_EQ(explained, scan.adaptive_pull_spill)
      << "every spill-preferred admission must be visible in explain";
}

TEST_F(SpillEngineTest, AdaptiveWithoutGovernorNeverPrefersSpill) {
  QPipeOptions options = QPipeOptions::AllSp(SpMode::kAdaptive);
  options.cost_model_min_samples = 2;
  // No sp_memory_budget: no budget for the retention forecast to exceed.
  QPipeEngine engine(db_->catalog(), options, db_->metrics());

  const auto records = RunStalledRounds(engine, ScanPlan(), 6, 8);
  auto snaps = engine.scan_stage()->CostModelSnapshot();
  ASSERT_EQ(snaps.size(), 1u);
  EXPECT_GT(snaps[0].decided_off + snaps[0].decided_push +
                snaps[0].decided_pull,
            0)
      << "the same history must reach the cost model";
  EXPECT_EQ(engine.scan_stage()->GetStats().adaptive_pull_spill, 0);
  for (const auto& rec : records) EXPECT_FALSE(rec.spill_preferred);
}

}  // namespace
}  // namespace sharing
