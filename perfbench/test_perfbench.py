"""Tests of the benchmark's own arithmetic and request generator.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import perfstats as ps  # noqa: E402
import run  # noqa: E402
import servemix  # noqa: E402


def span(sid, name, parent, start, end, trace="t"):
    return {"id": sid, "trace": trace, "name": name, "parent": parent,
            "start_us": start, "end_us": end}


class Percentiles(unittest.TestCase):
    def test_interpolates_between_ranks(self):
        self.assertEqual(ps.percentile([4, 1, 3, 2], 50), 2.5)
        self.assertAlmostEqual(ps.percentile(list(range(1, 11)), 90), 9.1)
        self.assertEqual(ps.percentile([5, 7], 0), 5)
        self.assertEqual(ps.percentile([5, 7], 100), 7)
        self.assertEqual(ps.percentile([3.5], 90), 3.5)

    def test_rejects_empty_and_out_of_range(self):
        with self.assertRaises(ValueError):
            ps.percentile([], 50)
        with self.assertRaises(ValueError):
            ps.percentile([1], 101)

    def test_median_matches_statistics(self):
        values = [0.3, 9.1, 2.2, 7.7, 5.0, 1.4]
        self.assertEqual(ps.median(values), statistics.median(values))


class Ratios(unittest.TestCase):
    def test_ratio_with_base(self):
        self.assertEqual(ps.ratio(19, 20), 0.95)
        self.assertEqual(ps.ratio(0, 4), 0.0)

    def test_ratio_rejects_bad_bases(self):
        for part, base in ((1, 0), (3, 2), (-1, 2)):
            with self.assertRaises(ValueError):
                ps.ratio(part, base)

    def test_fft_cost_is_computed_from_the_grid(self):
        flops, moved = ps.fft2d_pair_cost(256)
        n = 256 * 256
        self.assertEqual(flops, 2 * 5 * n * 16)
        self.assertEqual(moved, 2 * 64 * n)


class SelfTimes(unittest.TestCase):
    def test_union_of_overlapping_intervals(self):
        self.assertEqual(ps.covered([(0, 4), (2, 6), (8, 9)], 0, 10), 7)
        self.assertEqual(ps.covered([(0, 4), (2, 6)], 3, 5), 2)
        self.assertEqual(ps.covered([], 0, 10), 0)

    def test_self_time_subtracts_only_direct_children(self):
        spans = [
            span(0, "job", None, 0, 100),
            span(1, "session", 0, 10, 80),
            span(2, "iteration", 1, 10, 40),
            span(3, "eval", 2, 12, 38),
            span(4, "score", 0, 80, 95),
            span(5, "print_all", 4, 81, 90),
        ]
        selfs = ps.self_times(spans)
        self.assertEqual(selfs[0], 100 - 70 - 15)
        self.assertEqual(selfs[1], 70 - 30)
        self.assertEqual(selfs[2], 30 - 26)
        self.assertEqual(selfs[3], 26)
        self.assertEqual(selfs[4], 15 - 9)

    def test_parallel_children_are_not_double_counted(self):
        spans = [span(0, "eval", None, 0, 10), span(1, "k", 0, 0, 8), span(2, "k", 0, 2, 9)]
        self.assertEqual(ps.self_times(spans)[0], 1)

    def test_layer_metrics_from_spans_and_passes(self):
        spans = [
            span(0, "job", None, 0, 10_000, trace="B1-fast-i1"),
            span(1, "bank", 0, 0, 1_000, trace="B1-fast-i1"),
            span(2, "assemble", 0, 1_000, 2_000, trace="B1-fast-i1"),
            span(3, "session", 0, 2_000, 8_000, trace="B1-fast-i1"),
            span(4, "iteration", 3, 2_500, 7_500, trace="B1-fast-i1"),
            span(5, "eval", 4, 2_500, 5_000, trace="B1-fast-i1"),
            span(6, "eval", 4, 5_000, 7_000, trace="B1-fast-i1"),
            span(7, "score", 0, 8_000, 9_500, trace="B1-fast-i1"),
            span(8, "print_all", 7, 8_000, 9_000, trace="B1-fast-i1"),
        ]
        probe = {"grid": 8, "fft_pair_us": [1.0], "forward_ms": [1.0],
                 "bank_build_ms": [1.0], "print_all_ms": [1.0], "eval_ms": [4.0],
                 "eval_par_ms": [2.0], "checkpoint_save_ms": [1.0], "checkpoint_bytes": 9,
                 "untraced_pass_s": [10.0, 10.4], "traced_pass_s": [10.1, 10.7]}
        m = run.layer_metrics(probe, spans)
        # Traced parts cover 9.5 ms of the 10 ms job.
        self.assertAlmostEqual(m["runtime.job_self_ms"][0], 0.5)
        # Median traced pass 10.4 s minus median untraced pass 10.2 s.
        self.assertAlmostEqual(m["trace.overhead_s"][0], 0.2)
        self.assertEqual(m["core.evals_per_iter"][0], 2)
        self.assertEqual(m["core.par_speedup"][0], 2)
        self.assertAlmostEqual(m["core.session_self_ms"][0], 1.0)
        self.assertAlmostEqual(m["eval.measure_ms"][0], 0.5)


class ServeMix(unittest.TestCase):
    def test_same_seed_same_requests(self):
        self.assertEqual(servemix.generate_mix(7), servemix.generate_mix(7))
        self.assertNotEqual(servemix.generate_mix(7), servemix.generate_mix(8))

    def test_every_key_is_fresh_once_and_clients_share_none(self):
        for seed in range(20):
            mix = servemix.generate_mix(seed)
            fresh = [[k for k, rep in seq if not rep] for seq in mix]
            all_fresh = [k for f in fresh for k in f]
            self.assertEqual(len(all_fresh), len(set(all_fresh)))
            self.assertEqual(len(all_fresh), 10 * 2 * 3)
            self.assertFalse(set(fresh[0]) & set(fresh[1]))

    def test_repeats_name_keys_the_same_client_completed(self):
        for seed in range(20):
            for seq in servemix.generate_mix(seed):
                self.assertFalse(seq[0][1], "first request must be fresh")
                completed = set()
                for key, repeat in seq:
                    if repeat:
                        self.assertIn(key, completed)
                    else:
                        self.assertNotIn(key, completed)
                        completed.add(key)
                self.assertEqual(sum(rep for _, rep in seq), servemix.REPEATS_PER_CLIENT)

    def test_hit_count_does_not_depend_on_the_seed(self):
        counts = {sum(rep for seq in servemix.generate_mix(s) for _, rep in seq)
                  for s in range(50)}
        self.assertEqual(counts, {servemix.CLIENTS * servemix.REPEATS_PER_CLIENT})

    def test_submit_line_is_the_whole_request(self):
        line = servemix.submit_line(("B3", "exact", 4))
        self.assertEqual(line, "submit clip=B3 mode=exact preset=fast grid=128 pixel=8 iterations=4")


def record(key, repeat, job, cached, metrics=None, ends=1):
    r = {"key": key, "repeat": repeat, "ok": True, "job": job, "cached": cached,
         "state": "done", "watch_ends": ends, "t_submit": 0.0, "t_ack": 0.001, "t_end": 0.05}
    if metrics is not None:
        r["metrics"] = metrics
    return r


class RoundChecks(unittest.TestCase):
    M = {"epe_violations": 1, "pvband_nm2": 2.0, "shape_violations": 0, "quality_score": 9.0}

    def rnd(self, records, fetched):
        return {"per_client": [records], "records": records, "fetched": fetched,
                "errors": [], "offset_s": 0.0}

    def test_consistent_round_passes(self):
        recs = [record("k", False, "j1", False, self.M), record("k", True, "j2", True)]
        self.assertEqual(servemix.check_round(self.rnd(recs, {"j2": dict(self.M)})), [])
        self.assertEqual(servemix.fresh_quality(self.rnd(recs, {})), 9.0)

    def test_hit_with_other_metrics_fails(self):
        recs = [record("k", False, "j1", False, self.M), record("k", True, "j2", True)]
        other = dict(self.M, quality_score=10.0)
        self.assertTrue(servemix.check_round(self.rnd(recs, {"j2": other})))

    def test_uncached_repeat_and_missing_watch_end_fail(self):
        recs = [record("k", False, "j1", False, self.M), record("k", True, "j2", False)]
        self.assertTrue(servemix.check_round(self.rnd(recs, {"j2": dict(self.M)})))
        recs = [record("k", False, "j1", False, self.M, ends=0)]
        self.assertTrue(servemix.check_round(self.rnd(recs, {})))

    def test_request_spans_nest_under_the_request(self):
        r = record("k", False, "j1", False, self.M)
        r.update(server_job_start=0.002, server_job_finish=0.04)
        spans = servemix.request_spans(self.rnd([r], {}))
        self.assertEqual([s["name"] for s in spans], ["request", "ack", "queue", "run"])
        self.assertTrue(all(s["parent"] == 0 for s in spans[1:]))
        self.assertAlmostEqual(ps.self_times(spans)[0], 10_000)


if __name__ == "__main__":
    unittest.main()
