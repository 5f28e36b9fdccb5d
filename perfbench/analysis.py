"""Arithmetic of the benchmark: percentiles, span self time, per-query
normalisation, and the metric tables built from one load-generator run.

The load generator (loadgen.cc) writes raw measurements; everything here
is pure functions over them so that tests/test_analysis.py can check the
rules on hand-built inputs.
"""

import math
import statistics

# A percentile is reported only when at least this many samples lie
# beyond it (so a p99 needs 1000 samples).
MIN_SAMPLES_BEYOND = 10

# The tail percentile is taken per window of this many consecutive
# completions, and the run reports the median over its windows, so that a
# burst of host noise in one part of a run moves one window, not the
# whole figure. loadgen.cc's kMinTimedQueries guarantees one window.
WINDOW_QUERIES = 1024

STAGES = ("tscan", "join", "agg", "sort", "cjoin")


def percentile(samples, q):
    """Nearest-rank percentile of `samples` at quantile q in (0, 1).

    Returns (value, n, beyond): the value, the sample count, and how many
    samples rank above it. Raises ValueError when fewer than
    MIN_SAMPLES_BEYOND samples lie beyond the percentile.
    """
    if not 0 < q < 1:
        raise ValueError("quantile must lie in (0, 1)")
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(1, math.ceil(q * n))
    beyond = n - rank
    if beyond < MIN_SAMPLES_BEYOND:
        raise ValueError(
            f"p{q * 100:g} of {n} samples has {beyond} beyond it; "
            f"{MIN_SAMPLES_BEYOND} are needed")
    return ordered[rank - 1], n, beyond


def windowed_percentile(done_us, latency_us, q, window=WINDOW_QUERIES):
    """Median over windows of the nearest-rank percentile q.

    The samples are ordered by completion time (`done_us`) and cut into
    consecutive windows of `window`; the last window takes the remainder,
    so every sample counts and no window is short. Returns (value,
    windows, beyond), where beyond is the fewest samples any window has
    above its percentile; percentile() rejects a window with too few.
    """
    ordered = [lat for _, lat in sorted(zip(done_us, latency_us))]
    count = max(1, len(ordered) // window)
    values, beyond = [], None
    for k in range(count):
        end = (k + 1) * window if k < count - 1 else len(ordered)
        value, _, b = percentile(ordered[k * window:end], q)
        values.append(value)
        beyond = b if beyond is None else min(beyond, b)
    return statistics.median(values), count, beyond


def per_query(total, queries):
    """`total` divided by the number of queries; 0 when none completed."""
    return total / queries if queries > 0 else 0.0


def ratio(part, whole):
    """part / whole; 0 when the denominator is 0 (nothing happened)."""
    return part / whole if whole > 0 else 0.0


def first_queries_qps(done_us, t0_us, count):
    """Throughput of the first `count` queries completed after `t0_us`.

    `done_us` holds the completion times of a phase that started at
    `t0_us`. Comparing two phases over the same number of queries, each
    from its own start, keeps window length and warm-up out of the
    comparison. 0 when fewer than `count` queries completed.
    """
    if count <= 0 or len(done_us) < count:
        return 0.0
    end_us = sorted(done_us)[count - 1]
    return ratio(count, (end_us - t0_us) / 1e6)


def self_times(events):
    """Self time of every complete ("X") span, in the span's time unit.

    A span's children are the spans of the same thread whose interval
    lies inside its own; its self time is its duration minus the part of
    its interval the children cover (overlapping children count once).
    Spans of other threads never count as children: work another thread
    did at the same time is not work this span waited on itself.

    Returns a list of (event, self_time) in input order of the spans.
    """
    spans = [(i, e) for i, e in enumerate(events) if e.get("ph") == "X"]
    by_tid = {}
    for i, e in spans:
        by_tid.setdefault(e["tid"], []).append((i, e))
    result = {}
    for thread_spans in by_tid.values():
        # Parents sort before the children they contain: earlier start
        # first, and at equal start the longer span first.
        thread_spans.sort(key=lambda p: (p[1]["ts"], -p[1]["dur"]))
        for k, (i, parent) in enumerate(thread_spans):
            start = parent["ts"]
            end = start + parent["dur"]
            covered = 0
            covered_until = start
            for j in range(k + 1, len(thread_spans)):
                child = thread_spans[j][1]
                if child["ts"] >= end:
                    break
                child_end = child["ts"] + child["dur"]
                if child_end > end:
                    continue  # overlaps the parent's end: not its child
                lo = max(child["ts"], covered_until)
                if child_end > lo:
                    covered += child_end - lo
                    covered_until = child_end
            result[i] = parent["dur"] - covered
    return [(events[i], result[i]) for i, _ in spans]


def layer_of(name):
    """Maps a span name to the per-layer bucket it is charged to, or None.

    The taxonomy is docs/TRACING.md's: run_packet:<STAGE> (operators run
    inside stage packets; the engine upper-cases stage names), spl.park,
    pull.put/push.put (sharing transport), policy.decide, io.* jobs and
    bufferpool.miss_stall.
    """
    if name.startswith("run_packet:"):
        return "stage." + name[len("run_packet:"):].lower()
    if name == "spl.park":
        return "sharing.park"
    if name in ("pull.put", "push.put"):
        return "sharing.put"
    if name == "policy.decide":
        return "policy.decide"
    if name == "bufferpool.miss_stall":
        return "storage.miss_stall"
    if name.startswith("io.") and not name.startswith("io.enqueue"):
        return "io.busy"
    return None


def layer_self_us(events, t0_us, t1_us):
    """Sums self time per layer bucket over spans that start in [t0, t1]."""
    totals = {}
    for event, self_us in self_times(events):
        if not t0_us <= event["ts"] <= t1_us:
            continue
        layer = layer_of(event["name"])
        if layer is not None:
            totals[layer] = totals.get(layer, 0) + self_us
    return totals


def query_span_count(events, t0_us, t1_us):
    """Engine `query` spans (submit -> collect) inside [t0, t1]."""
    return sum(
        1 for e in events
        if e.get("ph") == "X" and e.get("cat") == "engine"
        and e["name"] == "query" and e["ts"] >= t0_us
        and e["ts"] + e["dur"] <= t1_us)


def threads_with_lost_events(events, ring_capacity, t0_us):
    """Threads whose trace ring wrapped after `t0_us`.

    A ring holds the newest `ring_capacity` events of its thread. When it
    is full and its oldest event is younger than the window start, older
    events of the window were overwritten and the per-layer sums would
    undercount.
    """
    counts, oldest = {}, {}
    for e in events:
        tid = e["tid"]
        counts[tid] = counts.get(tid, 0) + 1
        oldest[tid] = min(oldest.get(tid, e["ts"]), e["ts"])
    return sorted(tid for tid, n in counts.items()
                  if n >= ring_capacity and oldest[tid] > t0_us)


def completed(phase):
    return phase["attempted"] - phase["failed"]


def setup_seconds(setup):
    return (setup["generate_s"] + setup["reference_s"] + setup["engine_s"]
            + setup["warmup_s"])


def end_to_end(raw):
    """The end-to-end metrics of an untraced run: {name: (value, unit)}.

    Also returns the notes printed beside them: sample counts, the error
    rate and the p99. Both stay out of BENCHMARK.json: the error rate is 0
    at a correct commit, and the p99's run-to-run spread on a host that
    loses CPU to its neighbours exceeds the widest bound (NOTES.md).
    """
    timed = raw["timed"]
    done = completed(timed)
    p50, n, _ = percentile(timed["latency_us"], 0.50)
    p99, windows, beyond = windowed_percentile(
        timed["done_us"], timed["latency_us"], 0.99)
    metrics = {
        "qps": (done / timed["wall_s"], "queries/s"),
        "latency_p50_ms": (p50 / 1e3, "ms"),
        "cpu_ms_per_query": (per_query(timed["cpu_s"] * 1e3, done), "ms"),
        "peak_rss_mib": (raw["peak_rss_kib"] / 1024, "MiB"),
        "setup_s": (statistics.median(
            setup_seconds(s) for s in raw["setups"]), "s"),
    }
    errors = timed["failed"] + timed["mismatched"]
    notes = {
        "latency_samples": n,
        "latency_p99_ms": p99 / 1e3,
        "p99_windows": windows,
        "p99_samples_beyond": beyond,
        "error_rate": ratio(errors, timed["attempted"]),
    }
    return metrics, notes


def per_layer(raw, events):
    """The per-layer metrics of a traced run: {name: (value, unit)}.

    Counter metrics are deltas over the untraced timed phase; the
    span-derived ones come from the traced phase of the same process.
    """
    timed, traced = raw["timed"], raw["traced"]
    c = timed["counters"]
    snap = timed["snapshot"]
    n = completed(timed)
    nt = completed(traced)

    def counter(name):
        return c.get(name, 0)

    def pq(name, scale=1.0):
        return per_query(counter(name) * scale, n)

    def median(values):
        return statistics.median(values) if values else 0.0

    spans = layer_self_us(events, traced["t0_us"], traced["t1_us"])

    def span_ms_pq(layer):
        return per_query(spans.get(layer, 0) / 1e3, nt)

    hits, misses = counter("bufferpool.hits"), counter("bufferpool.misses")
    m = {
        "core.submit_us_p50": (median(timed["submit_us"]), "us"),
        "core.collect_ms_p50": (median(timed["collect_us"]) / 1e3, "ms"),
        "core.query_latency_us_p50": (snap.get("query.latency.p50", 0), "us"),
        "setup.generate_s": (median([s["generate_s"] for s in raw["setups"]]),
                             "s"),
        "setup.reference_s": (
            median([s["reference_s"] for s in raw["setups"]]), "s"),
        "setup.warmup_s": (median([s["warmup_s"] for s in raw["setups"]]),
                           "s"),
        "storage.bufferpool_hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "storage.disk_reads_per_query": (pq("disk.page_reads"), "pages/query"),
        "storage.scan_pages_per_query": (pq("scan.pages_read"), "pages/query"),
        "storage.shared_attach_per_query": (pq("scan.shared_attach"),
                                            "count/query"),
        "storage.miss_stall_ms_per_query": (
            span_ms_pq("storage.miss_stall"), "ms/query"),
        "qpipe.stage.run_packet_us_p50": (
            snap.get("stage.run_packet.p50", 0), "us"),
        "qpipe.stage.run_packet_us_p99": (
            snap.get("stage.run_packet.p99", 0), "us"),
    }
    for stage in STAGES:
        m["qpipe.stage.self_ms_per_query." + stage] = (
            span_ms_pq("stage." + stage), "ms/query")
    m.update({
        "qpipe.sharing.satellite_ratio": (
            ratio(timed["explain_satellites"], timed["explain_records"]),
            "ratio"),
        # Pages satellites were served (explain: SPL pages + push copies);
        # sp.pages_shared counts pages *published* to an SPL instead.
        "qpipe.sharing.pages_served_per_query": (
            per_query(timed["explain_pages_served"], n), "pages/query"),
        "qpipe.sharing.pages_published_per_query": (pq("sp.pages_shared"),
                                                    "pages/query"),
        "qpipe.sharing.reader_parks_per_query": (pq("sp.reader_parks"),
                                                 "count/query"),
        "qpipe.sharing.lock_waits_per_query": (pq("sp.lock_waits"),
                                               "count/query"),
        "qpipe.sharing.park_ms_per_query": (span_ms_pq("sharing.park"),
                                            "ms/query"),
        "qpipe.sharing.put_ms_per_query": (span_ms_pq("sharing.put"),
                                           "ms/query"),
        "qpipe.sharing.satellite_reruns": (
            counter("sharing.satellite_rerun"), "count"),
        "qpipe.policy.decisions_shared_per_query": (
            pq("policy.decisions_shared"), "count/query"),
        "qpipe.policy.decisions_unshared_per_query": (
            pq("policy.decisions_unshared"), "count/query"),
        "qpipe.policy.flips": (counter("policy.flips"), "count"),
        "qpipe.policy.decide_us_per_query": (
            per_query(spans.get("policy.decide", 0), nt), "us/query"),
        "cjoin.admissions_per_query": (pq("cjoin.queries_admitted"),
                                       "count/query"),
        "cjoin.admission_ms_per_query": (pq("cjoin.admission_micros", 1e-3),
                                         "ms/query"),
        "cjoin.admission_epochs_per_query": (pq("cjoin.admission_epochs"),
                                             "count/query"),
        "cjoin.bitmap_ands_per_query": (pq("cjoin.bitmap_and_ops"),
                                        "count/query"),
        "cjoin.tuple_drop_ratio": (
            ratio(counter("cjoin.tuples_dropped"),
                  counter("cjoin.fact_tuples_in")), "ratio"),
        # Untraced vs traced throughput over the same number of queries,
        # each counted from the start of its own timed phase.
        "trace.overhead_ratio": (
            ratio(first_queries_qps(timed["done_us"], timed["t0_us"], nt),
                  first_queries_qps(traced["done_us"], traced["t0_us"], nt)),
            "ratio"),
        "trace.query_spans_ratio": (
            ratio(query_span_count(events, traced["t0_us"],
                                   traced["t1_us"]), nt), "ratio"),
    })
    return m
