"""games-desk: one pass of a fixed, seeded security-game suite at desk scale.

The researcher's workload: posterior enumeration, brute-force forgery, the
numpy exact analyzer and the combiner PRFs, on the acceptance tests' toy
BSC(1/4, 1/4) sources at n=4..6.  Fields are tiny (m <= 8, and m=40 for the
information-theoretic PRF) and so is |R|, so this catches gf2/source changes
that help wide or large-|R| cases but slow desk-scale ones.

Each op is one entry of SUITE; a cycle is one pass.  Every pass builds fresh
adversaries and uses the same game seeds, so the checks demand that every
pass reproduces the first one exactly, that no report exceeds its bound,
and that every exact distance sits within distance_bound.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

from prekem import games, ikem
from prekem.dem import DemProfile
from prekem.source import bsc_source

from common import CheckFailed, op_rng

NAME = "games-desk"


def _toy(n: int):
    return bsc_source(Fraction(1, 4), Fraction(1, 4), n)


def _cea(n: int, q_e: int = 0, nu: float = 1.7) -> ikem.IkemParams:
    return ikem.IkemParams(mode=ikem.Mode.CEA, source=_toy(n), n=n, t=2, ell=1,
                           nu=nu, r=0, w=n, sigma=0.5, q_e=q_e, q_d=0)


def _cca(n: int, q_e: int = 0, q_d: int = 1) -> ikem.IkemParams:
    return ikem.IkemParams(mode=ikem.Mode.CCA, source=_toy(n), n=n, t=2, ell=1,
                           nu=1.7, r=2, w=n, sigma=0.5, q_e=q_e, q_d=q_d)


class SpendAllPri:
    """PRF distinguisher that spends its whole query budget on distinct
    one-byte inputs and answers with the parity of the outputs."""

    def distinguish(self, family, oracle, rng):
        acc = 0
        for x in range(oracle.queries_left):
            acc ^= oracle.eval(bytes([x]))
        return acc & 1


# (label, run(seed) -> results); trial counts are set so that every entry
# takes a similar share of a pass, and the it-family PRF has three
# coefficients, so three queries see exactly uniform outputs and its bound
# is 0
EXACT = tuple(_cea(n, q_e=q, nu=1.0)
              for n, q in ((4, 0), (5, 0), (6, 0), (4, 1), (5, 1)))
SUITE = (
    ("pkind-cca", lambda s: games.run_pkind(
        games.GameConfig(atk="cca", trials=100, q_d=1, seed=s, params=_cca(4)),
        games.BayesPkind(probe=True))),
    ("pkind-cea", lambda s: games.run_pkind(
        games.GameConfig(atk="cea", trials=100, q_e=1, seed=s,
                         params=_cea(6, q_e=1)),
        games.BayesPkind())),
    ("kint", lambda s: games.run_kint(
        games.GameConfig(atk="kint", trials=100, q_e=1, q_d=1, seed=s,
                         params=_cca(4, q_e=1)),
        games.BruteForceKint(use_query=True))),
    ("dem-ind", lambda s: games.run_dem_ind(
        games.GameConfig(atk="otcca", trials=1600, q_d=1, seed=s,
                         dem=DemProfile(enc_len=8, mac_bits=8)),
        games.ContrastDemDistinguisher())),
    ("pri-it", lambda s: games.run_pri(
        games.GameConfig(atk="pri", trials=4000, q_e=3, seed=s),
        games.it_prf_family(120, 1, 8), SpendAllPri(), bound=0.0)),
    ("pri-comp", lambda s: games.run_pri(
        games.GameConfig(atk="pri", trials=4000, q_e=3, seed=s),
        games.comp_prf_family(8), SpendAllPri())),
    ("exact-sweep", lambda s: tuple(games.exact_distance(p, p.q_e)
                                    for p in EXACT)),
)


def game_seeds(seed: int):
    """One game seed per suite entry, drawn from the workload seed."""
    rng = op_rng(seed, NAME, -1)
    return tuple(rng.getrandbits(32) for _ in SUITE)


def _check(label: str, result) -> None:
    if label == "exact-sweep":
        for params, distance in zip(EXACT, result):
            bound = ikem.distance_bound(params)
            if float(distance) > bound * (1 + 1e-12):
                raise CheckFailed(f"{label}: n={params.n} q_e={params.q_e} "
                                  f"distance {distance} above bound {bound}")
    elif result.exceeds_bound():
        raise CheckFailed(f"{label}: estimate {result.estimate} exceeds "
                          f"bound {result.bound}")


class Workload:
    ops_per_cycle = len(SUITE)

    def __init__(self, seed: int, inproc: bool = False) -> None:
        self.seeds = game_seeds(seed)
        self.first = {}

    def warm(self) -> None:
        # the smallest exact analysis: loads numpy and fills the source caches
        games.exact_distance(EXACT[0], 0)

    def op(self, i: int) -> float:
        slot = i % len(SUITE)
        label, run = SUITE[slot]
        t0 = time.perf_counter()
        result = run(self.seeds[slot])
        elapsed = time.perf_counter() - t0
        _check(label, result)
        if self.first.setdefault(slot, result) != result:
            raise CheckFailed(f"{label}: pass differs from the first pass")
        return elapsed

    def finish(self):
        return []

    def trace_extras(self):
        return {}

    def report(self, op_s):
        n = len(SUITE)
        passes = [sum(op_s[k:k + n]) for k in range(0, len(op_s) - n + 1, n)]
        return [("games_suite_s", statistics.median(passes), "s", len(passes))]

    def close(self) -> None:
        pass
