"""hybrid-mixed: README CCA envelopes over a log-uniform spread of message sizes.

The README's authenticated profile: noiseless BSC, n=1080, t=527, ell=512,
nu=0 (so |R| = 1), with the default DemProfile and the otcca DEM.  The same
ikem/uhash/gf2 layers as kem-noisy are used the opposite way: wide fields
(553/527/1080) with a single reconciliation candidate.  Small messages are
KEM-bound; byte throughput is bound by the GF(2^128) one-time MAC.

One cycle is fifteen messages, one per stratum of the log-uniform law on
64 B .. 256 KiB (sizes at the strata midpoints, so every cycle carries the
same bytes, and an odd count puts the median op inside one size class), with
seeded contents.  One op:
he_encrypt -> serialize_envelope -> parse_envelope -> he_decrypt.  Four of the
fifteen envelopes (fixed size strata) are also opened after a seeded
one-bit flip and must reject; that open is checked but not timed.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

from prekem import hybrid, ikem
from prekem.dem import DemProfile
from prekem.errors import MalformedError
from prekem.source import bsc_source

from common import CheckFailed, nearest_rank, op_rng

NAME = "hybrid-mixed"
SIZES = tuple(round(64 * 4096 ** ((k + 0.5) / 15)) for k in range(15))
FLIPPED = frozenset({1, 5, 9, 13})


class Workload:
    ops_per_cycle = len(SIZES)

    def __init__(self, seed: int, inproc: bool = False) -> None:
        self.seed = seed
        source = bsc_source(Fraction(0), Fraction(1, 2), 1080)
        self.params = ikem.derive_params_cca(
            source, eps=0.01, sigma=2 ** -20, delta=2 ** -10, q_e=0, q_d=1,
            nu=0.0, t=527, ell=512)
        self.scheme = hybrid.HybridScheme.for_params(self.params, DemProfile())
        inst = ikem.gen(self.params, op_rng(seed, NAME, -1))
        self.x, self.y = inst.x, inst.y
        self._reset()

    def _reset(self) -> None:
        self.bytes = 0
        self.flips = 0

    def warm(self) -> None:
        self._roundtrip(op_rng(self.seed, NAME, -2), 64, True)
        self._reset()

    def op(self, i: int) -> float:
        k = i % len(SIZES)
        return self._roundtrip(op_rng(self.seed, NAME, i), SIZES[k], k in FLIPPED)

    def _roundtrip(self, rng, size: int, flip: bool) -> float:
        scheme = self.scheme
        message = rng.randbytes(size)
        t0 = time.perf_counter()
        env = hybrid.he_encrypt(scheme, self.x, message, rng)
        blob = hybrid.serialize_envelope(scheme, env)
        parsed = hybrid.parse_envelope(scheme, blob)
        opened = hybrid.he_decrypt(scheme, self.y, parsed)
        elapsed = time.perf_counter() - t0
        if opened != message:
            raise CheckFailed(f"{size}-byte message did not round-trip")
        self.bytes += size
        if flip:
            bit = rng.randrange(8 * len(blob))
            bad = bytearray(blob)
            bad[bit // 8] ^= 0x80 >> (bit % 8)
            try:
                forged = hybrid.he_decrypt(
                    scheme, self.y, hybrid.parse_envelope(scheme, bytes(bad)))
            except MalformedError:
                forged = None
            if forged is not None:
                raise CheckFailed(f"envelope with bit {bit} flipped was accepted")
            self.flips += 1
        return elapsed

    def finish(self):
        return []

    def trace_extras(self):
        return {}

    def report(self, op_s):
        n = len(op_s)
        rows = [("he_ms_p50", statistics.median(op_s) * 1e3, "ms", n),
                ("he_ms_p90", nearest_rank(op_s, 90)[0] * 1e3, "ms", n)]
        rows.append(("he_mib_per_s", self.bytes / sum(op_s) / 2 ** 20, "MiB/s", n))
        rows.append(("flipped_rejected", self.flips, "count", self.flips))
        rows.append(("decap_fail_ratio", 0.0, "ratio", n))
        return rows

    def close(self) -> None:
        pass
