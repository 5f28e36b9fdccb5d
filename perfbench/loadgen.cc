// perfbench load generator: runs one benchmark workload against the engine's
// public API and writes the raw measurements as one JSON object.
//
//   perfbench_loadgen --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> --out <raw.json> [--trace-out <t.json>]
//
// run.py builds this program, runs it and turns the raw measurements into
// the benchmark's metrics (see analysis.py and NOTES.md). It only
// calls SharingEngine::Submit, QueryHandle::Collect,
// MetricsRegistry::Snapshot, ResultSet::explain(), Trace, the ssb/tpch
// generators and ReferenceExecutor; it adds nothing to the engine.
//
// Load: a closed loop of `threads` generator threads. Each thread submits
// a wave of `wave` handles, then collects them in submission order, so
// threads x wave queries are in flight. Collecting in order makes a later
// handle of a wave wait for the earlier ones: its latency includes that
// head-of-line wait even when its own result was ready sooner.

#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "core/sharing_engine.h"
#include "exec/explain.h"
#include "exec/reference_executor.h"
#include "workload/ssb.h"
#include "workload/tpch.h"

namespace sharing::perfbench {
namespace {

// Queries a timed phase completes at least, whatever --seconds says: one
// p99 window (analysis.py WINDOW_QUERIES), with ten samples beyond its p99.
constexpr int64_t kMinTimedQueries = 1024;

// Setups per run; setup_s is their median.
constexpr int kSetupRepeats = 3;

// The traced run measures this many queries (rounded up to whole waves)
// after its warm-up: enough to split the time per layer, few enough that
// no thread's trace ring wraps. The busiest recorders are the CJOIN
// workers of star-gqp-disk, with about 80 buffer-pool miss spans per query
// each; run.py fails the traced run if any ring filled up.
constexpr int64_t kTracedQueries = 384;
constexpr std::size_t kTraceBufferEvents = 1 << 17;

struct WorkloadSpec {
  std::string name;
  bool ssb = true;  // SSB star schema; false = TPC-H lineitem
  double scale_factor = 0;
  std::size_t frames = 0;
  bool disk_resident = false;
  std::size_t threads = 1;
  std::size_t wave = 1;
  std::size_t warmup_waves = 1;  // per generator thread
  EngineMode mode = EngineMode::kQueryCentric;
  bool scan_only_sp = false;  // SP pull on the scan stage, off elsewhere
  std::vector<PlanNodeRef> plans;
};

WorkloadSpec MakeSpec(const std::string& name) {
  WorkloadSpec spec;
  spec.name = name;
  if (name == "scan-share") {
    // Paper Fig. 4 (Scenario I): identical TPC-H Q1 instances ride one
    // scan through pull-based SP at the scan stage.
    spec.ssb = false;
    spec.scale_factor = 0.02;
    spec.frames = 65536;
    spec.threads = 1;
    spec.wave = 32;
    spec.warmup_waves = 4;
    spec.mode = EngineMode::kQueryCentric;
    spec.scan_only_sp = true;
    spec.plans.push_back(tpch::MakeQ1Plan(90));
  } else if (name == "star-gqp-disk") {
    // Paper Fig. 5, Scenarios II/IV: high concurrency, moderate
    // similarity, disk-resident, the CJOIN global plan with SP on top.
    spec.scale_factor = 0.05;
    spec.frames = 512;
    spec.disk_resident = true;
    spec.threads = 2;
    spec.wave = 16;
    spec.warmup_waves = 3;
    spec.mode = EngineMode::kGqpSp;
    for (int variant = 0; variant < 8; ++variant) {
      for (int agg = 0; agg < 4; ++agg) {
        ssb::StarTemplateParams params;
        params.selectivity = 0.01;
        params.num_variants = 8;
        params.variant = variant;
        params.agg_variant = agg;
        params.join_part = true;
        spec.plans.push_back(ssb::ParameterizedStarPlan(params));
      }
    }
  } else if (name == "star-qc-mem") {
    // Paper Fig. 5, Scenario III: low concurrency, disjoint plans,
    // memory-resident, query-centric operators over shared scans.
    spec.scale_factor = 0.05;
    spec.frames = 65536;
    spec.threads = 2;
    spec.wave = 1;
    spec.warmup_waves = 64;
    spec.mode = EngineMode::kQueryCentric;
    for (int variant = 0; variant < 64; ++variant) {
      ssb::StarTemplateParams params;
      params.selectivity = 0.04;
      params.num_variants = 64;
      params.variant = variant;
      spec.plans.push_back(ssb::ParameterizedStarPlan(params));
    }
  } else {
    SHARING_LOG(Error) << "unknown workload: " << name;
    std::exit(2);
  }
  return spec;
}

EngineConfig MakeEngineConfig(const WorkloadSpec& spec, bool traced) {
  EngineConfig config;
  config.mode = spec.mode;
  if (spec.ssb) {
    config.fact_table = "lineorder";
    config.cjoin_levels = ssb::PipelineLevels();
    config.cjoin.max_queries = 64;
  }
  config.trace_enabled = traced;
  config.trace_buffer_events = kTraceBufferEvents;
  return config;
}

double NowMicros() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Everything one setup builds; the last setup's state is measured.
struct Setup {
  double generate_s = 0;
  double reference_s = 0;
  double engine_s = 0;
  double warmup_s = 0;
  int64_t warmup_errors = 0;  // failed or mismatched warm-up queries
  std::unique_ptr<Database> db;
  std::vector<std::vector<std::string>> answers;  // per plan, canonical
  std::unique_ptr<SharingEngine> engine;
  std::size_t data_pages = 0;
};

// Raw per-phase measurements.
struct PhaseResult {
  int64_t attempted = 0;
  int64_t failed = 0;      // non-OK status
  int64_t mismatched = 0;  // OK but differs from the reference answer
  double wall_s = 0;
  double cpu_s = 0;
  double t0_us = 0;
  double t1_us = 0;
  std::vector<double> latency_us;
  std::vector<double> done_us;  // when each latency sample's Collect returned
  std::vector<double> submit_us;
  std::vector<double> collect_us;
  int64_t explain_records = 0;
  int64_t explain_satellites = 0;
  int64_t explain_pages_served = 0;
  MetricsSnapshot counters;  // delta over the phase
  MetricsSnapshot after;     // snapshot at its end (histogram views)
};

struct ThreadResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t mismatched = 0;
  std::vector<double> latency_us, done_us, submit_us, collect_us;
  int64_t explain_records = 0, explain_satellites = 0;
  int64_t explain_pages_served = 0;
  std::string first_error;
};

// One generator thread: waves of Submit, then in-order Collect, until
// `should_stop` says so at a wave boundary (or after `max_waves`).
void GeneratorLoop(const WorkloadSpec& spec, Setup* setup, uint64_t seed,
                   std::size_t max_waves,
                   const std::function<bool()>& should_stop,
                   std::atomic<int64_t>* completed, ThreadResult* out) {
  Rng rng(seed);
  std::vector<QueryHandle> handles(spec.wave);
  std::vector<std::size_t> picks(spec.wave);
  std::vector<double> submitted_at(spec.wave);
  for (std::size_t w = 0; w < max_waves && !should_stop(); ++w) {
    for (std::size_t i = 0; i < spec.wave; ++i) {
      picks[i] = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<int64_t>(spec.plans.size()) - 1));
      submitted_at[i] = NowMicros();
      {
        TraceSpan span("bench", "bench.submit");
        handles[i] = setup->engine->Submit(spec.plans[picks[i]]);
      }
      out->submit_us.push_back(NowMicros() - submitted_at[i]);
    }
    for (std::size_t i = 0; i < spec.wave; ++i) {
      const double start = NowMicros();
      StatusOr<ResultSet> result = [&] {
        TraceSpan span("bench", "bench.collect");
        return handles[i].Collect();
      }();
      const double end = NowMicros();
      handles[i] = QueryHandle();
      ++out->attempted;
      if (!result.ok()) {
        ++out->failed;
        if (out->first_error.empty()) {
          out->first_error = result.status().ToString();
        }
        continue;
      }
      out->latency_us.push_back(end - submitted_at[i]);
      out->done_us.push_back(end);
      out->collect_us.push_back(end - start);
      if (result.value().CanonicalRows() != setup->answers[picks[i]]) {
        ++out->mismatched;
        if (out->first_error.empty()) {
          out->first_error = "result differs from the reference answer";
        }
      }
      if (const auto& explain = result.value().explain()) {
        for (const auto& record : explain->stages) {
          ++out->explain_records;
          if (record.role == QueryExplain::StageRecord::Role::kSatellite) {
            ++out->explain_satellites;
          }
          out->explain_pages_served +=
              record.pages_shared + record.pages_copied;
        }
      }
    }
    completed->fetch_add(static_cast<int64_t>(spec.wave));
  }
}

// Runs the closed loop. With `seconds` > 0 it measures whole waves until
// both `seconds` have passed and kMinTimedQueries have completed;
// otherwise every thread runs `waves` waves.
PhaseResult RunPhase(const WorkloadSpec& spec, Setup* setup, uint64_t seed,
                     double seconds, std::size_t waves = 0) {
  PhaseResult phase;
  std::atomic<int64_t> completed{0};
  const bool timed = seconds > 0;
  const double deadline_us = NowMicros() + seconds * 1e6;
  auto should_stop = [&] {
    return timed && NowMicros() >= deadline_us &&
           completed.load() >= kMinTimedQueries;
  };
  const std::size_t max_waves =
      timed ? std::numeric_limits<std::size_t>::max() : waves;

  std::vector<ThreadResult> results(spec.threads);
  const MetricsSnapshot before = setup->db->metrics()->Snapshot();
  CpuTimer cpu;
  phase.t0_us = NowMicros();
  {
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < spec.threads; ++t) {
      threads.emplace_back(GeneratorLoop, std::cref(spec), setup,
                           seed * 1000003 + t, max_waves,
                           std::cref(should_stop), &completed, &results[t]);
    }
    for (auto& thread : threads) thread.join();
  }
  phase.t1_us = NowMicros();
  phase.cpu_s = cpu.ElapsedSeconds();
  phase.wall_s = (phase.t1_us - phase.t0_us) / 1e6;
  phase.after = setup->db->metrics()->Snapshot();
  phase.counters = MetricsRegistry::Delta(before, phase.after);

  for (auto& r : results) {
    phase.attempted += r.attempted;
    phase.failed += r.failed;
    phase.mismatched += r.mismatched;
    phase.explain_records += r.explain_records;
    phase.explain_satellites += r.explain_satellites;
    phase.explain_pages_served += r.explain_pages_served;
    auto append = [](std::vector<double>* to, const std::vector<double>& v) {
      to->insert(to->end(), v.begin(), v.end());
    };
    append(&phase.latency_us, r.latency_us);
    append(&phase.done_us, r.done_us);
    append(&phase.submit_us, r.submit_us);
    append(&phase.collect_us, r.collect_us);
    if (!r.first_error.empty()) {
      std::fprintf(stderr, "perfbench: %s\n", r.first_error.c_str());
    }
  }
  return phase;
}

std::unique_ptr<SharingEngine> MakeEngine(const WorkloadSpec& spec,
                                          Database* db, bool traced) {
  auto engine =
      std::make_unique<SharingEngine>(db, MakeEngineConfig(spec, traced));
  if (spec.scan_only_sp) {
    // Paper §4.3: SP on the table-scan stage only; the aggregation above
    // stays per query (bench_scenario1_sp_models does the same).
    engine->qpipe()->SetSpModeAllStages(SpMode::kOff);
    engine->qpipe()->scan_stage()->SetSpMode(SpMode::kPull);
  }
  return engine;
}

void Generate(const WorkloadSpec& spec, uint64_t seed, Setup* setup) {
  TraceSpan span("bench", "bench.generate");
  DatabaseOptions options;
  options.buffer_pool_frames = spec.frames;
  setup->db = std::make_unique<Database>(options);
  Catalog* catalog = setup->db->catalog();
  if (spec.ssb) {
    SHARING_CHECK_OK(ssb::GenerateAll(catalog, setup->db->buffer_pool(),
                                      spec.scale_factor, seed));
    for (const char* table :
         {"lineorder", "date", "customer", "supplier", "part"}) {
      auto t = catalog->GetTable(table);
      SHARING_CHECK(t.ok()) << t.status().ToString();
      setup->data_pages += t.value()->num_pages();
    }
  } else {
    auto table = tpch::GenerateLineitem(catalog, setup->db->buffer_pool(),
                                        spec.scale_factor, seed);
    SHARING_CHECK(table.ok()) << table.status().ToString();
    setup->data_pages = table.value()->num_pages();
  }
}

// One full setup: data, reference answers, engine, warm-up. The reference
// answers are computed before the disk latency model is switched on, so
// they cost CPU only.
std::unique_ptr<Setup> RunSetup(const WorkloadSpec& spec, uint64_t seed,
                                bool traced) {
  auto setup = std::make_unique<Setup>();
  Stopwatch watch;
  Generate(spec, seed, setup.get());
  setup->generate_s = watch.ElapsedSeconds();

  watch.Restart();
  {
    TraceSpan span("bench", "bench.reference");
    ReferenceExecutor reference(setup->db->catalog());
    for (const auto& plan : spec.plans) {
      auto answer = reference.Execute(*plan);
      SHARING_CHECK(answer.ok()) << answer.status().ToString();
      setup->answers.push_back(answer.value().CanonicalRows());
    }
  }
  setup->reference_s = watch.ElapsedSeconds();
  if (spec.disk_resident) {
    // The scenarios' scaled 15kRPM model (bench_scenario2/4).
    setup->db->SetDiskResident(55, 15000);
  }

  watch.Restart();
  setup->engine = MakeEngine(spec, setup->db.get(), traced);
  setup->engine_s = watch.ElapsedSeconds();

  watch.Restart();
  const PhaseResult warmup = RunPhase(spec, setup.get(), seed ^ 0x5eedULL,
                                      /*seconds=*/0, spec.warmup_waves);
  setup->warmup_s = watch.ElapsedSeconds();
  setup->warmup_errors = warmup.failed + warmup.mismatched;
  return setup;
}

// --- raw JSON output -----------------------------------------------------

void WriteList(std::FILE* f, const char* key, const std::vector<double>& v) {
  std::fprintf(f, "\"%s\": [", key);
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::fprintf(f, "%s%.3f", i == 0 ? "" : ",", v[i]);
  }
  std::fprintf(f, "]");
}

void WriteMap(std::FILE* f, const char* key, const MetricsSnapshot& m) {
  std::fprintf(f, "\"%s\": {", key);
  bool first = true;
  for (const auto& [name, value] : m) {
    std::fprintf(f, "%s\"%s\": %lld", first ? "" : ", ", name.c_str(),
                 static_cast<long long>(value));
    first = false;
  }
  std::fprintf(f, "}");
}

void WritePhase(std::FILE* f, const char* key, const PhaseResult& p) {
  std::fprintf(f, "\"%s\": {", key);
  std::fprintf(f,
               "\"attempted\": %lld, \"failed\": %lld, \"mismatched\": %lld, "
               "\"wall_s\": %.6f, \"cpu_s\": %.6f, \"t0_us\": %.1f, "
               "\"t1_us\": %.1f, \"explain_records\": %lld, "
               "\"explain_satellites\": %lld, "
               "\"explain_pages_served\": %lld, ",
               static_cast<long long>(p.attempted),
               static_cast<long long>(p.failed),
               static_cast<long long>(p.mismatched), p.wall_s, p.cpu_s,
               p.t0_us, p.t1_us, static_cast<long long>(p.explain_records),
               static_cast<long long>(p.explain_satellites),
               static_cast<long long>(p.explain_pages_served));
  WriteList(f, "latency_us", p.latency_us);
  std::fprintf(f, ", ");
  WriteList(f, "done_us", p.done_us);
  std::fprintf(f, ", ");
  WriteList(f, "submit_us", p.submit_us);
  std::fprintf(f, ", ");
  WriteList(f, "collect_us", p.collect_us);
  std::fprintf(f, ", ");
  WriteMap(f, "counters", p.counters);
  std::fprintf(f, ", ");
  WriteMap(f, "snapshot", p.after);
  std::fprintf(f, "}");
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out;
  std::string trace_out;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--out") {
      args.out = value;
    } else if (key == "--trace-out") {
      args.trace_out = value;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      std::exit(2);
    }
  }
  if (args.workload.empty() || args.out.empty() || args.seconds <= 0 ||
      (args.trace && args.trace_out.empty())) {
    std::fprintf(stderr,
                 "usage: perfbench_loadgen --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> --out <raw.json> "
                 "[--trace-out <trace.json>]\n");
    std::exit(2);
  }
  return args;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const WorkloadSpec spec = MakeSpec(args.workload);

  std::unique_ptr<Setup> setup;
  int64_t warmup_errors = 0;
  std::FILE* f = std::fopen(args.out.c_str(), "w");
  SHARING_CHECK(f != nullptr) << "cannot write " << args.out;
  std::fprintf(f,
               "{\"workload\": \"%s\", \"seed\": %llu, \"threads\": %zu, "
               "\"wave\": %zu, \"plans\": %zu, \"frames\": %zu, "
               "\"setups\": [",
               spec.name.c_str(), static_cast<unsigned long long>(args.seed),
               spec.threads, spec.wave, spec.plans.size(), spec.frames);
  for (int i = 0; i < kSetupRepeats; ++i) {
    // Tear the previous setup down first (engine before its database), so
    // the process never holds two data sets at once.
    setup.reset();
    setup = RunSetup(spec, args.seed, /*traced=*/false);
    warmup_errors += setup->warmup_errors;
    std::fprintf(f,
                 "%s{\"generate_s\": %.6f, \"reference_s\": %.6f, "
                 "\"engine_s\": %.6f, \"warmup_s\": %.6f}",
                 i == 0 ? "" : ", ", setup->generate_s, setup->reference_s,
                 setup->engine_s, setup->warmup_s);
  }
  std::fprintf(f, "], \"data_pages\": %zu, ", setup->data_pages);

  PhaseResult timed = RunPhase(spec, setup.get(), args.seed, args.seconds);
  WritePhase(f, "timed", timed);
  bool ok = warmup_errors == 0 && timed.failed == 0 && timed.mismatched == 0;

  if (args.trace) {
    // The traced run: the same workload and seed once more, set-up
    // included, with the trace_enabled knob on. Recording starts before
    // the set-up so the generator and reference spans land in the trace.
    setup.reset();
    Trace::Enable(kTraceBufferEvents);
    setup = RunSetup(spec, args.seed, /*traced=*/true);
    const std::size_t per_wave = spec.threads * spec.wave;
    PhaseResult traced =
        RunPhase(spec, setup.get(), args.seed, /*seconds=*/0,
                 (kTracedQueries + per_wave - 1) / per_wave);
    Trace::Disable();
    std::fprintf(f, ", ");
    WritePhase(f, "traced", traced);
    std::fprintf(f, ", \"trace_buffer_events\": %zu", kTraceBufferEvents);
    SHARING_CHECK_OK(Trace::ExportChromeJsonToFile(args.trace_out));
    ok = ok && setup->warmup_errors == 0 && traced.failed == 0 &&
         traced.mismatched == 0;
  }
  setup.reset();

  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  std::fprintf(f, ", \"peak_rss_kib\": %ld}\n", usage.ru_maxrss);
  std::fclose(f);
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace sharing::perfbench

int main(int argc, char** argv) {
  return sharing::perfbench::Main(argc, argv);
}
