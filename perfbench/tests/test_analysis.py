"""Tests for the benchmark's own arithmetic (perfbench/analysis.py).

    python3 -m unittest discover -s perfbench/tests
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

import analysis  # noqa: E402


def span(name, tid, ts, dur, cat="stage"):
    return {"name": name, "cat": cat, "ph": "X", "tid": tid, "ts": ts,
            "dur": dur}


class PercentileTest(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond(self):
        samples = list(range(1, 1001))  # 1..1000
        value, n, beyond = analysis.percentile(samples, 0.99)
        self.assertEqual((value, n, beyond), (990, 1000, 10))
        with self.assertRaises(ValueError):
            analysis.percentile(samples[:999], 0.99)

    def test_windowed_p99_is_the_median_over_windows(self):
        # Three windows of 1000 completions whose p99s are 10, 500 and 20;
        # a burst in the middle window does not move the result.
        latency, done = [], []
        for k, tail in enumerate((10, 500, 20)):
            latency += [1] * 989 + [tail] * 11
            done += [k * 1000 + i for i in range(1000)]
        value, windows, beyond = analysis.windowed_percentile(
            done, latency, 0.99, window=1000)
        self.assertEqual((value, windows, beyond), (20, 3, 10))

    def test_windows_follow_completion_order_and_keep_the_remainder(self):
        # 2500 samples: two windows, the second taking the last 1500.
        latency = [1] * 989 + [7] * 11 + [2] * 1500
        done = list(range(2500))
        value, windows, beyond = analysis.windowed_percentile(
            list(reversed(done)), list(reversed(latency)), 0.99,
            window=1000)
        self.assertEqual((windows, beyond), (2, 10))
        self.assertEqual(value, (7 + 2) / 2)
        with self.assertRaises(ValueError):
            analysis.windowed_percentile(done[:999], latency[:999], 0.99,
                                         window=1000)

    def test_median_is_nearest_rank_and_order_free(self):
        value, n, beyond = analysis.percentile([5, 1, 4, 2, 3] * 5, 0.5)
        self.assertEqual((value, n, beyond), (3, 25, 12))

    def test_rejects_quantiles_outside_unit_interval(self):
        for q in (0, 1, 1.5):
            with self.assertRaises(ValueError):
                analysis.percentile(range(100), q)


class SelfTimeTest(unittest.TestCase):
    def self_of(self, events):
        return [s for _, s in analysis.self_times(events)]

    def test_nested_spans_subtract_children_once(self):
        events = [
            span("run_packet:agg", 1, 0, 100),
            span("spl.park", 1, 10, 20),      # child of the packet
            span("pull.put", 1, 15, 5),       # grandchild, inside the park
            span("spl.park", 1, 50, 30),      # second child
        ]
        self.assertEqual(self.of_names(events),
                         {"run_packet:agg": 50, "spl.park": 15 + 30,
                          "pull.put": 5})
        self.assertEqual(self.self_of(events), [50, 15, 5, 30])

    def test_overlapping_children_are_counted_once(self):
        events = [span("query", 1, 0, 100, "engine"),
                  span("a", 1, 10, 40), span("b", 1, 30, 40)]
        # a and b cover [10, 70): 60 units of the parent.
        self.assertEqual(self.self_of(events)[0], 40)

    def test_other_threads_never_count_as_children(self):
        events = [span("run_packet:tscan", 1, 0, 100),
                  span("io.prefetch", 2, 10, 50),
                  span("bufferpool.miss_stall", 1, 20, 10)]
        self.assertEqual(self.self_of(events), [90, 50, 10])

    def test_span_running_past_the_parent_end_is_not_a_child(self):
        events = [span("query", 1, 0, 100, "engine"),
                  span("query", 1, 50, 100, "engine")]
        self.assertEqual(self.self_of(events), [100, 100])

    def test_instants_are_ignored(self):
        events = [span("run_packet:join", 1, 0, 10),
                  {"name": "spl.attach", "ph": "i", "tid": 1, "ts": 5}]
        self.assertEqual(self.self_of(events), [10])

    def test_layer_totals_keep_spans_starting_in_window(self):
        events = [span("run_packet:JOIN", 1, 0, 10),
                  span("run_packet:JOIN", 1, 100, 10),
                  span("spl.park", 1, 102, 4, "sharing"),
                  span("io.prefetch", 2, 105, 3, "io"),
                  span("io.enqueue.prefetch", 2, 104, 0, "io"),
                  span("bench.collect", 3, 100, 50, "bench")]
        totals = analysis.layer_self_us(events, 50, 200)
        self.assertEqual(totals, {"stage.join": 6, "sharing.park": 4,
                                  "io.busy": 3})

    def test_ring_that_wrapped_inside_the_window_is_reported(self):
        full_before = [span("bufferpool.miss_stall", 1, ts, 1)
                       for ts in range(0, 40, 10)]
        full_after = [span("bufferpool.miss_stall", 2, ts, 1)
                      for ts in range(60, 100, 10)]
        short = [span("spl.park", 3, 70, 1)]
        events = full_before + full_after + short
        self.assertEqual(
            analysis.threads_with_lost_events(events, 4, t0_us=50), [2])

    def of_names(self, events):
        totals = {}
        for event, self_time in analysis.self_times(events):
            totals[event["name"]] = totals.get(event["name"], 0) + self_time
        return totals


class NormalisationTest(unittest.TestCase):
    def test_per_query(self):
        self.assertEqual(analysis.per_query(300, 100), 3.0)
        self.assertEqual(analysis.per_query(300, 0), 0.0)

    def test_ratios_with_zero_denominator(self):
        self.assertEqual(analysis.ratio(3, 4), 0.75)
        self.assertEqual(analysis.ratio(0, 0), 0.0)

    def test_hit_and_drop_ratios_of_an_idle_layer_are_zero(self):
        raw = fake_raw(counters={})
        metrics = analysis.per_layer(raw, [])
        self.assertEqual(metrics["storage.bufferpool_hit_ratio"][0], 0.0)
        self.assertEqual(metrics["cjoin.tuple_drop_ratio"][0], 0.0)
        self.assertEqual(metrics["qpipe.sharing.satellite_ratio"][0], 0.0)

    def test_counters_are_divided_by_completed_queries(self):
        raw = fake_raw(counters={"bufferpool.hits": 30,
                                 "bufferpool.misses": 10,
                                 "disk.page_reads": 10,
                                 "sp.pages_shared": 50,
                                 "cjoin.tuples_dropped": 9,
                                 "cjoin.fact_tuples_in": 10})
        metrics = analysis.per_layer(raw, [])
        self.assertEqual(metrics["storage.bufferpool_hit_ratio"][0], 0.75)
        self.assertEqual(metrics["storage.disk_reads_per_query"][0], 1.0)
        self.assertEqual(
            metrics["qpipe.sharing.pages_published_per_query"][0], 5.0)
        self.assertEqual(metrics["cjoin.tuple_drop_ratio"][0], 0.9)

    def test_query_spans_ratio_counts_engine_query_spans(self):
        raw = fake_raw(counters={})
        events = [span("query", 7, 1000 + 10 * i, 5, "engine")
                  for i in range(10)]
        metrics = analysis.per_layer(raw, events)
        self.assertEqual(metrics["trace.query_spans_ratio"][0], 1.0)

    def test_overhead_ratio_compares_equal_query_counts(self):
        # The untraced phase's wall time covers more than the queries the
        # traced phase ran; only its first 10 completions are compared.
        metrics = analysis.per_layer(fake_raw(counters={}), [])
        self.assertEqual(metrics["trace.overhead_ratio"][0], 2.0)

    def test_first_queries_qps(self):
        done = [3.0, 1.0, 2.0, 10.0]
        self.assertEqual(analysis.first_queries_qps(done, 0.0, 3), 1e6)
        self.assertEqual(analysis.first_queries_qps(done, 0.0, 5), 0.0)
        self.assertEqual(analysis.first_queries_qps(done, 0.0, 0), 0.0)


def fake_raw(counters):
    """A load-generator output with 10 untraced (failed: 1 of 11) and 10 traced
    queries; the traced ones took twice as long to complete."""
    phase = {"attempted": 11, "failed": 1, "mismatched": 0, "wall_s": 5.0,
             "cpu_s": 1.0, "t0_us": 1000, "t1_us": 2000,
             "latency_us": [1.0] * 10,
             "done_us": [1000 + 100 * (i + 1) for i in range(10)],
             "submit_us": [2.0] * 10,
             "collect_us": [3000.0] * 10, "explain_records": 0,
             "explain_satellites": 0, "explain_pages_served": 0,
             "counters": counters, "snapshot": {}}
    traced = dict(phase, attempted=10, failed=0, wall_s=2.0,
                  done_us=[1000 + 200 * (i + 1) for i in range(10)])
    return {"timed": phase, "traced": traced,
            "setups": [{"generate_s": 1, "reference_s": 2, "engine_s": 0,
                        "warmup_s": 3}]}


if __name__ == "__main__":
    unittest.main()
