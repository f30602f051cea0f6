"""kem-noisy: shared-seed KEM round trips on a noisy binary symmetric source.

The shape of the Tier-1 correctness test: BSC with Bob's flip rate 1/20 and
Eve's 1/2, n=24, t=12, ell=4, nu=12.  The reconciliation set is the radius-2
Hamming ball around y (301 members), so decap time is almost all enumeration
plus h_cea at m=24; dem, hybrid and games sit idle.

One op: gen -> encap -> serialize_ciphertext -> parse_ciphertext -> decap,
each op on its own seeded instance.  A decap may legitimately reject or,
when x falls outside the ball and one wrong member collides, return a wrong
key; both count towards decap_fail_ratio, which must stay within the
scheme's correctness_bound plus three standard deviations.
"""

from __future__ import annotations

import math
import statistics
import time
from fractions import Fraction

from prekem import ikem
from prekem.source import bsc_source

from common import CheckFailed, nearest_rank, op_rng

NAME = "kem-noisy"


class Workload:
    ops_per_cycle = 64

    def __init__(self, seed: int, inproc: bool = False) -> None:
        self.seed = seed
        source = bsc_source(Fraction(1, 20), Fraction(1, 2), 24)
        self.params = ikem.IkemParams(
            mode=ikem.Mode.CEA, source=source, n=24, t=12, ell=4, nu=12.0,
            r=0, w=24, sigma=0.25, q_e=0, q_d=0)
        self.bound = ikem.correctness_bound(self.params)
        self._reset()

    def _reset(self) -> None:
        self.decap_s = []
        self.rejects = 0
        self.wrong = 0

    def warm(self) -> None:
        self.op(-1)
        self._reset()

    def op(self, i: int) -> float:
        p = self.params
        rng = op_rng(self.seed, NAME, i)
        t0 = time.perf_counter()
        inst = ikem.gen(p, rng)
        key, c = ikem.encap(p, inst.x, rng, inst.public_seed)
        wire = ikem.serialize_ciphertext(p, c)
        header = ikem.parse_ciphertext(wire)
        t1 = time.perf_counter()
        got = ikem.decap(p, inst.y, header[4], inst.public_seed)
        t2 = time.perf_counter()
        self.decap_s.append(t2 - t1)
        if header != (p.mode, p.n, p.t, p.w, c):
            raise CheckFailed("ciphertext changed across the wire format")
        if got is None:
            self.rejects += 1
        elif got != key:
            self.wrong += 1
        return t2 - t0

    def fail_ratio(self) -> float:
        return (self.rejects + self.wrong) / len(self.decap_s)

    def finish(self):
        """Run-level checks; returns a list of failures."""
        n = len(self.decap_s)
        limit = self.bound + 3 * math.sqrt(self.bound / n)
        if self.fail_ratio() > limit:
            return [f"decap_fail_ratio {self.fail_ratio():.4f} exceeds "
                    f"correctness_bound + 3 sigma = {limit:.4f}"]
        return []

    def trace_extras(self):
        return {"ikem.decap_fail_ratio": self.fail_ratio()}

    def report(self, op_s):
        """The workload's own end-to-end figures: (name, value, unit, samples)."""
        n = len(self.decap_s)
        rows = [("kem_ops_per_s", len(op_s) / sum(op_s), "1/s", len(op_s)),
                ("decap_ms_p50", statistics.median(self.decap_s) * 1e3, "ms", n),
                ("decap_ms_p90", nearest_rank(self.decap_s, 90)[0] * 1e3, "ms", n)]
        rows.append(("decap_fail_ratio", self.fail_ratio(), "ratio", n))
        rows.append(("decap_wrong_keys", self.wrong, "count", n))
        rows.append(("correctness_bound", self.bound, "ratio", 1))
        return rows

    def close(self) -> None:
        pass
