"""Self-tests for the benchmark's statistics and checks.

    python3 perfbench/test_stats.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402
from run import check_correctness, per_layer  # noqa: E402


def analysis(latency, hit, circuit="qft3", traced=False):
    return {"type": "analysis", "latency_s": latency, "hit": hit,
            "circuit": circuit, "traced": traced, "actual_ns": 0.0,
            "fetch_bytes": 100}


class PercentileTest(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        with self.assertRaises(stats.InsufficientSamples):
            stats.percentile(range(99), 0.9)  # rank 90: 9 beyond
        self.assertEqual(stats.percentile(range(100), 0.9), 89)  # 10 beyond
        self.assertEqual(stats.percentile(range(1, 111), 0.9), 99)

    def test_median_percentile_threshold(self):
        with self.assertRaises(stats.InsufficientSamples):
            stats.percentile(range(19), 0.5)
        self.assertEqual(stats.percentile(range(1, 22), 0.5), 11)

    def test_empty_fails(self):
        with self.assertRaises(stats.InsufficientSamples):
            stats.percentile([], 0.5)
        with self.assertRaises(stats.InsufficientSamples):
            stats.median([])

    def test_per_layer_fails_loudly_on_short_service_runs(self):
        recs = [analysis(0.05, False) for _ in range(30)]
        recs += [analysis(0.01, True) for _ in range(30)]
        with self.assertRaises(stats.InsufficientSamples):
            per_layer(recs, "service-repeat")


class HitMissTest(unittest.TestCase):
    def test_never_pooled(self):
        recs = [analysis(1.0, False) for _ in range(25)]
        recs += [analysis(0.001, True) for _ in range(200)]
        misses, hits = stats.split_latencies(recs)
        self.assertEqual(misses, [1.0] * 25)
        self.assertEqual(hits, [0.001] * 200)
        # The miss median ignores how many hits there are.
        self.assertEqual(stats.percentile(misses, 0.5), 1.0)

    def test_per_layer_separates_hits(self):
        recs = [analysis(0.2 + i * 1e-3, False) for i in range(120)]
        recs += [analysis(0.01, True) for _ in range(500)]
        m = per_layer(recs, "service-repeat")
        self.assertAlmostEqual(m["service.job_p50_s"], 0.2 + 59e-3)
        self.assertAlmostEqual(m["service.job_p90_s"], 0.2 + 107e-3)
        self.assertEqual(m["service.hit_p50_s"], 0.01)


def span(i, parent, start, end, name="x", job=0):
    return {"type": "span", "id": i, "parent": parent, "start": start,
            "end": end, "name": name, "job": job}


class SelfTimeTest(unittest.TestCase):
    def test_children_subtracted(self):
        spans = [span(0, -1, 0.0, 10.0), span(1, 0, 1.0, 3.0),
                 span(2, 0, 5.0, 6.0), span(3, 1, 1.5, 2.0)]
        t = stats.self_times(spans)
        self.assertAlmostEqual(t[0], 7.0)
        self.assertAlmostEqual(t[1], 1.5)
        self.assertAlmostEqual(t[2], 1.0)
        self.assertAlmostEqual(t[3], 0.5)

    def test_overlapping_children_counted_once(self):
        spans = [span(0, -1, 0.0, 10.0), span(1, 0, 1.0, 4.0),
                 span(2, 0, 3.0, 5.0)]
        self.assertAlmostEqual(stats.self_times(spans)[0], 6.0)

    def test_child_clipped_to_parent(self):
        spans = [span(0, -1, 0.0, 2.0), span(1, 0, 1.0, 5.0)]
        self.assertAlmostEqual(stats.self_times(spans)[0], 1.0)


class ParallelEffTest(unittest.TestCase):
    def test_serial_phases_of_the_batched_job_only(self):
        spans = [span(0, -1, 0.0, 4.0, "exec.base_sweep", job=1),
                 span(1, -1, 4.0, 8.0, "exec.replay", job=1),
                 span(2, -1, 0.0, 9.0, "exec.replay", job=2),
                 span(3, -1, 10.0, 12.0, "exec.batch", job=1)]
        m = per_layer(spans, "dm-sweep")
        self.assertEqual(m["exec.batch_s"], 2.0)
        self.assertAlmostEqual(m["exec.parallel_eff"], 8.0 / (2 * 2.0))


class FailureCountTest(unittest.TestCase):
    def test_errors_and_failed_checks_count(self):
        recs = [{"type": "error", "where": "tenant 0", "what": "exhausted"},
                {"type": "check", "what": "x", "ok": True},
                {"type": "check", "what": "y", "ok": False}]
        attempted, failed, problems = check_correctness(recs, "dm-sweep")
        self.assertEqual((attempted, failed, len(problems)), (3, 2, 2))


class ReferenceTest(unittest.TestCase):
    ref = {"op": [3, 7, 9], "sj": [1, 0, 0, 0, 3]}
    ref.update(stats.encode_tvds([0.5, 0.25, 0.125]))

    def record(self, tvd, sj=None, op=None):
        return {"op": op or [3, 7, 9], "tvd": tvd,
                "sj": sj or [1, 0, 0, 0, 3]}

    def test_encoding_round_trips(self):
        self.assertIn("tvd_q", self.ref)
        self.assertEqual(stats.decode_tvds(self.ref), [0.5, 0.25, 0.125])
        odd = stats.encode_tvds([0.1])
        self.assertEqual(stats.decode_tvds(odd), [0.1])

    def test_exact_match(self):
        self.assertEqual(stats.compare_report(
            self.record([0.5, 0.25, 0.125]), self.ref), [])

    def test_within_tolerance(self):
        got = [0.5 + 5e-13, 0.25 - 5e-13, 0.125]
        self.assertEqual(stats.compare_report(self.record(got), self.ref), [])

    def test_beyond_tolerance(self):
        got = [0.5 + 2e-12, 0.25, 0.125]
        self.assertTrue(stats.compare_report(self.record(got), self.ref))

    def test_ranking_change(self):
        tied = {"op": [1, 2], "tvd_q": [4, 4]}
        self.assertTrue(stats.compare_report(
            {"op": [1, 2], "tvd": [4 * stats.TVD_UNIT, 4 * stats.TVD_UNIT
                                   + 5e-13]}, tied))

    def test_gates_and_strategy(self):
        self.assertTrue(stats.compare_report(
            self.record([0.5, 0.25, 0.125], op=[3, 7, 8]), self.ref))
        self.assertTrue(stats.compare_report(
            self.record([0.5, 0.25, 0.125], sj=[0, 1, 0, 0, 3]), self.ref))

    def test_hit_must_match_first_computation_bitwise(self):
        first = self.record([0.5, 0.25, 0.125])
        self.assertEqual(stats.compare_hit(first, first), [])
        self.assertTrue(stats.compare_hit(
            self.record([0.5, 0.25, 0.125 + 1e-15]), first))


if __name__ == "__main__":
    unittest.main()
