// Ablation J: what a disarmed fault point costs on the hot path.
//
// This PR threads SHARING_FAULT_POINT checks through the engine's hot
// paths — disk reads/writes, I/O dispatch, spill-store open, sharing
// appends. The whole design rests on the disarmed check being free: one
// relaxed atomic load and a branch, no lock, no clock. This bench holds
// that claim to a number and gates on it.
//
// Measured:
//   1. ns per disarmed Check() in a hot loop (the production fast path)
//   2. ns per Check() on a non-participating point while the registry is
//      armed for a *different* point (the mutexed slow path a chaos run
//      imposes on innocent sites — reported, not gated; faults are a
//      test facility)
//   3. ns per SPL page append+drain (the realistic unit of hot-path work
//      a check rides on): one page per AppendBatch, so every page pays
//      its own append, drained in engine-sized reader batches
//
// Gate (exit 1 on breach): disarmed_check_ns / append_ns_per_page < 2%.
//
// SHARING_BENCH_JSON=<path> also emits the numbers as JSON
// (ci/verify.sh records BENCH_faults.json).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/fault.h"
#include "qpipe/batch_pipe.h"
#include "qpipe/shared_pages_list.h"

using namespace sharing;
using namespace sharing::bench;

namespace {

constexpr std::size_t kRowWidth = 64;
constexpr std::size_t kRowsPerPage = 64;  // 4 KiB of row bytes per page
constexpr std::size_t kChecks = 20'000'000;
constexpr std::size_t kPages = 8192;
constexpr int kReps = 3;  // keep the min — the loops are allocation-free

PageRef MakePage(int64_t tag) {
  auto page = std::make_shared<RowPage>(kRowWidth, kRowWidth * kRowsPerPage);
  for (std::size_t r = 0; r < kRowsPerPage; ++r) {
    uint8_t* slot = page->AppendSlot();
    for (std::size_t b = 0; b < kRowWidth; ++b) {
      slot[b] = static_cast<uint8_t>(tag + 31 * r + b);
    }
  }
  return page;
}

double NsPerCheck() {
  // The accumulator keeps the loop observable; disarmed it stays 0.
  uint64_t fired = 0;
  double best = 1e18;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < kChecks; ++i) {
      fired += FaultCheck(fault_points::kSharingAppend).fired ? 1 : 0;
    }
    const double ns =
        std::chrono::duration<double, std::nano>(
            std::chrono::steady_clock::now() - t0)
            .count() /
        static_cast<double>(kChecks);
    if (ns < best) best = ns;
  }
  if (fired > kChecks * kReps) std::abort();  // defeat dead-code elimination
  return best;
}

double NsPerAppend(MetricsSnapshot* out_snap) {
  double best = 1e18;
  for (int rep = 0; rep < kReps; ++rep) {
    MetricsRegistry metrics;
    auto list = SharedPagesList::Create(&metrics);
    auto reader = list->AttachReader();
    std::size_t drained = 0;
    std::thread consumer([&] {
      std::vector<PageRef> got;
      while (reader->NextBatch(kTransportBatch, &got) > 0) {
        drained += got.size();
        got.clear();
      }
    });
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t p = 0; p < kPages; ++p) {
      list->AppendBatch({MakePage(static_cast<int64_t>(p))});
    }
    list->Close(Status::OK());
    consumer.join();
    const double ns =
        std::chrono::duration<double, std::nano>(
            std::chrono::steady_clock::now() - t0)
            .count() /
        static_cast<double>(kPages);
    if (drained != kPages) std::abort();
    if (ns < best) best = ns;
    *out_snap = metrics.Snapshot();
  }
  return best;
}

}  // namespace

int main() {
  PrintHeader("Ablation J: disarmed fault-point overhead");
  std::printf("checks=%zu, pages=%zu (%zu KiB each), reps=%d (min kept)\n\n",
              kChecks, kPages, kRowWidth * kRowsPerPage / 1024, kReps);

  FaultRegistry::Global().Disarm();
  const double disarmed_ns = NsPerCheck();

  // Arm a point no loop below consults: every other site now pays the
  // armed slow path (mutex + map miss).
  if (!FaultRegistry::Global().Arm("disk.write=p0.5").ok()) return 1;
  const double armed_other_ns = NsPerCheck();
  FaultRegistry::Global().Disarm();

  MetricsSnapshot snap;
  const double append_ns = NsPerAppend(&snap);

  const double overhead_pct =
      append_ns > 0 ? disarmed_ns / append_ns * 100.0 : 100.0;

  std::printf("%-34s %12.2f ns\n", "disarmed Check()", disarmed_ns);
  std::printf("%-34s %12.2f ns\n", "Check() while another point armed",
              armed_other_ns);
  std::printf("%-34s %12.2f ns\n", "SPL append+drain per page", append_ns);
  std::printf("%-34s %12.4f %%  (gate: < 2%%)\n", "disarmed check / append",
              overhead_pct);

  if (const char* path = std::getenv("SHARING_BENCH_JSON")) {
    std::FILE* json = std::fopen(path, "w");
    if (json == nullptr) {
      std::fprintf(stderr, "cannot open %s for JSON output\n", path);
      return 1;
    }
    bool first = true;
    std::fprintf(json,
                 "[\n  {\"bench\": \"faults\", \"disarmed_check_ns\": %.3f, "
                 "\"armed_other_point_check_ns\": %.3f, "
                 "\"append_ns_per_page\": %.1f, \"overhead_pct\": %.5f}",
                 disarmed_ns, armed_other_ns, append_ns, overhead_pct);
    first = false;
    JsonMetricsRow(json, &first, snap);
    std::fprintf(json, "\n]\n");
    std::fclose(json);
  }

  if (overhead_pct >= 2.0) {
    std::fprintf(stderr,
                 "FAIL: a disarmed fault check costs %.2f%% of a page "
                 "append (gate: < 2%%)\n",
                 overhead_pct);
    return 1;
  }
  std::printf(
      "\nExpected shape: the disarmed check is a relaxed load + branch\n"
      "(~1 ns), orders of magnitude under the gate; the armed-other-point\n"
      "cost shows the mutexed slow path chaos runs impose, which is why\n"
      "faults stay disarmed in production.\n");
  return 0;
}
