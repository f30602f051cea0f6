#!/usr/bin/env python3
"""The benchmark's own tests: python3 bench/selftest.py

Kept out of the Tier-1 pytest collection (pytest only collects tests/).
"""

from __future__ import annotations

import sys
import unittest
from fractions import Fraction
from unittest import mock

from common import REF_US, SRC, nearest_rank, op_rng, ref_kernel, tail_percentile

sys.path.insert(0, str(SRC))

import cli_pipeline  # noqa: E402
import games_desk  # noqa: E402
import hybrid_mixed  # noqa: E402
import kem_noisy  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from prekem import ikem  # noqa: E402
from prekem.source import bsc_source  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertIsNone(tail_percentile(99))
        self.assertEqual(tail_percentile(100), 90)
        self.assertEqual(tail_percentile(999), 90)
        self.assertEqual(tail_percentile(1000), 99)
        self.assertEqual(tail_percentile(9999), 99)
        self.assertEqual(tail_percentile(10000), 99.9)

    def test_nearest_rank_counts_the_samples_beyond(self):
        self.assertEqual(nearest_rank(range(100, 0, -1), 90), (90, 10))
        self.assertEqual(nearest_rank(range(1, 1001), 99), (990, 10))
        self.assertEqual(nearest_rank([5.0], 50), (5.0, 0))


class SelfTime(unittest.TestCase):
    def test_span_minus_union_of_children(self):
        # parent [0, 10]; children overlap ([1, 3] and [2, 5] cover [1, 5]),
        # one sits apart ([7, 8]) and one runs past the parent's end
        # ([9, 12], clipped to [9, 10]); a grandchild inside [2, 5] counts
        # for its own parent only
        starts = [0.0, 2.0, 1.0, 7.0, 9.0, 3.0]
        ends = [10.0, 5.0, 3.0, 8.0, 12.0, 4.0]
        parents = [-1, 0, 0, 0, 0, 1]
        folded = [0.5, 0.0, 0.0, 0.0, 0.0, 0.0]
        got = spans.self_times(starts, ends, parents, folded)
        self.assertAlmostEqual(got[0], 10 - (4 + 1 + 1) - 0.5)
        self.assertAlmostEqual(got[1], 3 - 1)
        self.assertAlmostEqual(got[5], 1)

    def test_traced_calls_nest_and_unwind(self):
        params = kem_noisy.Workload(1).params
        tracer = spans.Tracer()
        original = ikem.decap
        tracer.install()
        try:
            self.assertIsNot(ikem.decap, original)
            rng = op_rng(1, "selftest", 0)
            inst = ikem.gen(params, rng)
            _, c = tracer.op(0, lambda: ikem.encap(params, inst.x, rng,
                                                   inst.public_seed))
        finally:
            tracer.uninstall()
        self.assertIs(ikem.decap, original)
        names = tracer.names
        self.assertEqual(names[:5], ["ikem.gen", "source.sample", "bench.op",
                                     "ikem.encap", "uhash.h_cea"])
        self.assertEqual(list(tracer.parents[:5]), [-1, 0, -1, 2, 3])
        self.assertEqual(tracer.gf2[24][0], 2)
        metrics = spans.layer_metrics(tracer, 1)
        self.assertEqual(metrics["gf2.mul_calls_per_op.m24"], 2)
        self.assertEqual(metrics["uhash.h_cea_calls"], 1)


class ReferenceSpeed(unittest.TestCase):
    def test_op_time_scaled_by_kernel_times_around_it(self):
        class TenMs:
            ops_per_cycle = 2

            def op(self, i):
                return 0.010

        # kernel before op 0, after op 0 (= before op 1), after op 1
        kernel = iter([REF_US, 2 * REF_US, 2 * REF_US])
        with mock.patch.object(run, "ref_us", lambda: next(kernel)):
            loop = run.Loop(TenMs()).run(0, 1)
        self.assertEqual(loop.op_s, [0.010, 0.010])
        self.assertAlmostEqual(loop.slots[0][0], 0.010 * 2 / 3)
        self.assertAlmostEqual(loop.slots[1][0], 0.010 / 2)
        self.assertAlmostEqual(loop.ref_cycle_s[0], 0.010 * (2 / 3 + 1 / 2))

    def test_kernel_is_fixed_work(self):
        self.assertEqual(ref_kernel(), ref_kernel())


class SeededInputs(unittest.TestCase):
    def test_op_streams(self):
        self.assertEqual(op_rng(7, "w", 3).random(), op_rng(7, "w", 3).random())
        self.assertNotEqual(op_rng(7, "w", 3).random(), op_rng(8, "w", 3).random())

    def test_kem_noisy_outcomes_repeat(self):
        def outcomes(seed):
            w = kem_noisy.Workload(seed)
            for i in range(40):
                w.op(i)
            return w.rejects, w.wrong
        self.assertEqual(outcomes(5), outcomes(5))

    def test_hybrid_instance(self):
        a, b = hybrid_mixed.Workload(5), hybrid_mixed.Workload(5)
        self.assertEqual((a.x, a.y), (b.x, b.y))
        self.assertNotEqual(a.x, hybrid_mixed.Workload(6).x)

    def test_game_seeds(self):
        self.assertEqual(games_desk.game_seeds(5), games_desk.game_seeds(5))
        self.assertNotEqual(games_desk.game_seeds(5), games_desk.game_seeds(6))

    def test_cli_seeds(self):
        params = ikem.derive_params_cea(
            bsc_source(Fraction(1, 20), Fraction(1, 2), 24), 0.25, 0, 14, nu=12.0)
        self.assertEqual(cli_pipeline.pick_seeds(5, params),
                         cli_pipeline.pick_seeds(5, params))


if __name__ == "__main__":
    unittest.main()
