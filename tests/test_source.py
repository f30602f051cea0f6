"""Source model tests.

Expected values come from test-local brute force (direct enumeration over
the definition) or hand-derived closed forms noted inline; the package is
never used as its own oracle except for explicitly-marked internal
consistency checks.
"""

import itertools
import math
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prekem.source as source
from prekem.errors import InfeasibleError, MalformedError
from prekem.source import (
    ReconSet,
    SourceSpec,
    avg_min_entropy_given_z,
    bsc_radius,
    bsc_recon_size,
    bsc_source,
    cond_neg_log_prob,
    from_json,
    guess_prob_given_z,
    guessing_log2_mass,
    guessing_mass,
    max_recon_size,
    recon_ints,
    recon_set,
    sample,
    shannon_cond_entropy,
)

# TOY source: X uniform bit, Y = X xor Ber(1/4), Z independent uniform.
TOY_P = 0.25
C_AGREE = -math.log2(0.75)   # 0.4150374992788...
C_FLIP = -math.log2(0.25)    # 2.0


def toy(n):
    return bsc_source(TOY_P, 0.5, n)


def toy_cost(x, y):
    # independent per-symbol cost sum for the TOY source
    return sum(C_AGREE if xi == yi else C_FLIP for xi, yi in zip(x, y))


def bits(k, n):
    return itertools.product(range(k), repeat=n)


def satellite_table(p, q):
    # independent construction of the per-symbol joint, exact Fractions
    p, q = Fraction(p), Fraction(q)
    t = {}
    for x, y, z in bits(2, 3):
        py = (1 - p) if y == x else p
        pz = (1 - q) if z == x else q
        t[(x, y, z)] = Fraction(1, 2) * py * pz
    return t


class TestSample:
    def test_point_mass(self):
        spec = from_json({"alphabet": [2, 2, 2], "n": 5, "pxyz": [[0, 0, 0, 1]]})
        t = sample(spec, random.Random(7))
        assert t.x == t.y == t.z == (0, 0, 0, 0, 0)

    def test_deterministic_under_seed(self):
        spec = toy(32)
        a = sample(spec, random.Random(123))
        b = sample(spec, random.Random(123))
        c = sample(spec, random.Random(124))
        assert a == b
        assert a != c

    def test_law_of_large_numbers(self):
        spec = bsc_source(0.25, 0.25, 100_000)
        t = sample(spec, random.Random(0xABCDEF))
        d_xy = sum(a != b for a, b in zip(t.x, t.y)) / spec.n
        d_xz = sum(a != b for a, b in zip(t.x, t.z)) / spec.n
        assert abs(d_xy - 0.25) < 0.01
        assert abs(d_xz - 0.25) < 0.01
        # x itself is a fair coin
        assert abs(sum(t.x) / spec.n - 0.5) < 0.01


class TestCondNegLogProb:
    def test_noiseless_zero(self):
        spec = bsc_source(0, 0.5, 4)
        assert cond_neg_log_prob(spec, (0, 1, 1, 0), (0, 1, 1, 0)) == 0.0

    def test_toy_distance_one(self):
        spec = toy(4)
        got = cond_neg_log_prob(spec, (0, 0, 0, 1), (0, 0, 0, 0))
        assert got == pytest.approx(3 * C_AGREE + C_FLIP, abs=1e-12)
        assert got == pytest.approx(3.245, abs=5e-4)

    def test_zero_probability_pair(self):
        spec = bsc_source(0, 0.5, 4)
        assert cond_neg_log_prob(spec, (1, 0, 0, 0), (0, 0, 0, 0)) == math.inf

    def test_length_mismatch(self):
        with pytest.raises(MalformedError):
            cond_neg_log_prob(toy(4), (0, 0, 0), (0, 0, 0, 0))


def walk_recon(spec, y, nu):
    """R(y) by the branch-and-bound walk recon_set ran before it became the
    ordered view of recon_ints's member classes; kept as its oracle at
    sizes brute force cannot reach.  Any alphabet.

    A prefix is abandoned as soon as its cost plus the cheapest possible
    completion exceeds nu, with 1e-9 of slack for the running sum's drift.
    Each string reached is scored once, by cond_neg_log_prob's fsum rule,
    kept when its score is at most nu and ordered by (score, x).  More than
    RECON_CAP kept members raises recon_ints's InfeasibleError."""
    if len(y) != spec.n:
        raise MalformedError("y must have length n")
    n = spec.n
    cap = source.RECON_CAP
    rows = [spec.cost[yi] for yi in y]  # rows[i][x] = cost of x at position i
    suffix = [0.0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + min(rows[i])
    budget = nu + 1e-9
    kept = []
    prefix = [0] * n
    # iterative depth-first walk (n can exceed the recursion limit):
    # nxt[i] is the next symbol to try at position i, acc[i] the prefix cost
    nxt = [0] * (n + 1)
    acc = [0.0] * (n + 1)
    i = 0 if suffix[0] <= budget else -1
    while i >= 0:
        if i == n:
            score = math.fsum([r[xi] for r, xi in zip(rows, prefix)])
            if score <= nu:
                kept.append((score, tuple(prefix)))
                if len(kept) > cap:
                    raise InfeasibleError(
                        f"reconciliation set exceeds cap {cap} at nu={nu}")
            i -= 1
            continue
        sym = nxt[i]
        if sym >= spec.nx:
            nxt[i] = 0
            i -= 1
            continue
        nxt[i] = sym + 1
        c = acc[i] + rows[i][sym]
        if c + suffix[i + 1] <= budget:
            prefix[i] = sym
            acc[i + 1] = c
            i += 1
    kept.sort()
    return tuple(x for _, x in kept)


def walked(spec, y, nu):
    """recon_set(spec, y, nu).members, asserted equal to walk_recon's,
    order included; when the walk refuses the set, recon_set must refuse
    it with the same message, and the walk's error is raised."""
    try:
        want = walk_recon(spec, y, nu)
    except InfeasibleError as refused:
        with pytest.raises(InfeasibleError) as got:
            recon_set(spec, y, nu)
        assert str(got.value) == str(refused)
        raise
    got = recon_set(spec, y, nu)
    assert (got.y, got.nu, got.members) == (tuple(y), float(nu), want)
    return got.members


class TestReconSet:
    """recon_set on binary sources; every case also against walk_recon."""

    def test_toy_nu_25(self):
        assert walked(toy(4), (0, 0, 0, 0), 2.5) == ((0, 0, 0, 0),)

    def test_toy_nu_35_is_radius_one_ball(self):
        assert walked(toy(4), (0, 0, 0, 0), 3.5) == (
            (0, 0, 0, 0),
            (0, 0, 0, 1),
            (0, 0, 1, 0),
            (0, 1, 0, 0),
            (1, 0, 0, 0),
        )

    def test_matches_brute_force(self):
        for p, nu in [(0.25, 1.0), (0.25, 3.5), (0.25, 6.0), (0.1, 4.0)]:
            spec = bsc_source(p, 0.5, 4)
            y = (0, 1, 0, 1)
            want = set()
            for x in bits(2, 4):
                d = sum(a != b for a, b in zip(x, y))
                if d * -math.log2(p) + (4 - d) * -math.log2(1 - p) <= nu:
                    want.add(x)
            got = walked(spec, y, nu)
            assert set(got) == want
            costs = [cond_neg_log_prob(spec, x, y) for x in got]
            assert costs == sorted(costs)

    def test_nu_zero_edges(self):
        assert walked(toy(4), (0,) * 4, 0) == ()
        noiseless = bsc_source(0, 0.5, 4)
        assert walked(noiseless, (1, 0, 1, 1), 0) == ((1, 0, 1, 1),)

    def test_cap_exceeded(self, monkeypatch):
        monkeypatch.setattr("prekem.source.RECON_CAP", 3)
        with pytest.raises(InfeasibleError,
                           match="^reconciliation set exceeds cap 3 at nu=3.5$"):
            walked(toy(4), (0,) * 4, 3.5)

    def test_negative_nu_empty(self):
        assert walked(toy(4), (0,) * 4, -1) == ()

    @pytest.mark.parametrize("y", [(-1, 0, 0, 0), (2, 0, 0, 0)])
    def test_y_outside_the_alphabet(self, y):
        # -1 was once read as the row for y = 1, and 2 raised IndexError
        with pytest.raises(MalformedError):
            recon_set(bsc_source(Fraction(1, 4), Fraction(1, 2), 4), y, 3.0)

    def test_whole_space_answers_at_once(self):
        # p = 1/2 prices every string at exactly n bits: at nu = n all 2^24
        # strings are members, past the cap, and 5e-10 under n none is
        rng = random.Random(24)
        start = time.perf_counter()
        with pytest.raises(InfeasibleError,
                           match="^reconciliation set exceeds cap 1048576 "
                                 "at nu=24.0$"):
            recon_set(bsc_source(0.5, 0.5, 24),
                      tuple(rng.getrandbits(1) for _ in range(24)), 24.0)
        assert time.perf_counter() - start < 0.1
        start = time.perf_counter()
        assert recon_set(bsc_source(0.5, 0.5, 18),
                         tuple(rng.getrandbits(1) for _ in range(18)),
                         18 - 5e-10).members == ()
        assert time.perf_counter() - start < 0.1

    def test_cap_counts_members_not_slack(self, monkeypatch):
        # nu 5e-10 under the radius-3 cost: the walk's slack reaches the
        # 2024 distance-3 strings, but only the 301-string radius-2 ball is
        # kept, and cap is measured against that, as bsc_recon_size counts
        p = Fraction(1, 20)
        spec = bsc_source(p, Fraction(1, 2), 24)
        nu = math.fsum([-math.log2(1 / 20)] * 3
                       + [-math.log2(19 / 20)] * 21) - 5e-10
        assert bsc_recon_size(p, 24, nu) == 301
        rng = random.Random(7)
        y = tuple(rng.getrandbits(1) for _ in range(24))
        monkeypatch.setattr("prekem.source.RECON_CAP", 301)
        assert len(walked(spec, y, nu)) == 301
        monkeypatch.setattr("prekem.source.RECON_CAP", 300)
        with pytest.raises(InfeasibleError,
                           match="reconciliation set exceeds cap 300 at nu="):
            walked(spec, y, nu)

    def test_large_n_noiseless(self):
        spec = bsc_source(0, 0.5, 1080)
        rng = random.Random(5)
        y = tuple(rng.getrandbits(1) for _ in range(1080))
        assert walked(spec, y, 0) == (y,)

    @settings(max_examples=60, deadline=None)
    @given(
        p=st.floats(min_value=0.05, max_value=0.5),
        nu=st.floats(min_value=0.0, max_value=8.0),
        n=st.integers(min_value=1, max_value=8),
        data=st.data(),
    )
    def test_membership_iff_cost_within_budget(self, p, nu, n, data):
        spec = bsc_source(p, 0.5, n)
        y = tuple(data.draw(st.integers(0, 1)) for _ in range(n))
        got = set(walked(spec, y, nu))
        want = {x for x in bits(2, n) if cond_neg_log_prob(spec, x, y) <= nu}
        assert got == want
        assert len(got) <= 2 ** nu


class TestEntropies:
    def test_shannon_noiseless(self):
        assert shannon_cond_entropy(bsc_source(0, 0.5, 4)) == pytest.approx(0, abs=1e-15)

    def test_shannon_toy_binary_entropy(self):
        h2 = -(0.25 * math.log2(0.25) + 0.75 * math.log2(0.75))
        assert shannon_cond_entropy(toy(4)) == pytest.approx(h2, abs=1e-12)
        assert h2 == pytest.approx(0.8113, abs=5e-5)

    def test_shannon_independent(self):
        assert shannon_cond_entropy(bsc_source(0.5, 0.5, 4)) == pytest.approx(1.0, abs=1e-12)

    def test_avg_min_entropy_known_points(self):
        assert avg_min_entropy_given_z(bsc_source(0.25, 0, 4)) == pytest.approx(0, abs=1e-15)
        assert avg_min_entropy_given_z(bsc_source(0.25, 0.5, 4)) == pytest.approx(1.0, abs=1e-12)
        got = avg_min_entropy_given_z(bsc_source(0.25, 0.25, 4))
        assert got == pytest.approx(-math.log2(0.75), abs=1e-12)

    def test_guess_prob_exact(self):
        # sum_z max_x P(x,z) = 2 * (1-q)/2 at q = 1/4
        assert guess_prob_given_z(bsc_source(0.25, 0.25, 4)) == Fraction(3, 4)

    def test_min_entropy_additive_over_positions(self):
        q = Fraction(1, 4)
        n = 4
        # test-local n-fold enumeration of E_z max_x over whole strings
        pxz = {(x, z): (1 - q) / 2 if x == z else q / 2 for x, z in bits(2, 2)}
        total = sum(
            max(
                math.prod(pxz[(xi, zi)] for xi, zi in zip(x, z))
                for x in bits(2, n)
            )
            for z in bits(2, n)
        )
        spec = bsc_source(0.25, 0.25, n)
        assert total == guess_prob_given_z(spec) ** n
        assert -math.log2(float(total)) == pytest.approx(
            n * avg_min_entropy_given_z(spec), abs=1e-9)


def brute_masses(table, n, nu):
    """Straight from the definitions, exact Fractions; table maps (x,y,z)."""
    pyz = {}
    pxz = {}
    py = {}
    for (x, y, z), pr in table.items():
        pyz[(y, z)] = pyz.get((y, z), Fraction(0)) + pr
        pxz[(x, z)] = pxz.get((x, z), Fraction(0)) + pr
        py[y] = py.get(y, Fraction(0)) + pr

    def member(x, y):
        c = 0.0
        for xi, yi in zip(x, y):
            pxy = sum(table[(xi, yi, z)] for z in range(2))
            if pxy == 0:
                return False
            c += -math.log2(float(pxy / py[yi]))
        return c <= nu

    def sprob(pair, a, b):
        pr = Fraction(1)
        for ai, bi in zip(a, b):
            pr *= pair.get((ai, bi), Fraction(0))
        return pr

    mass_x = Fraction(0)
    mass_y = Fraction(0)
    for z in bits(2, n):
        mass_x += max(
            sum(sprob(pyz, y, z) for y in bits(2, n) if member(x, y))
            for x in bits(2, n)
        )
        mass_y += max(
            sum(sprob(pxz, x, z) for x in bits(2, n) if member(x, y))
            for y in bits(2, n)
        )
    return mass_x, mass_y


class TestGuessingMass:
    def test_independent_eve_ball_fraction(self):
        # radius-1 ball out of 2^4 strings, Eve blind: both masses 5/16
        mx, my = guessing_mass(toy(4), 3.5)
        assert (mx, my) == (Fraction(5, 16), Fraction(5, 16))

    def test_closed_form_matches_brute_force(self):
        for p, q, nu in [(Fraction(1, 4), Fraction(1, 4), 2.0),
                         (Fraction(1, 4), Fraction(1, 2), 3.5),
                         (Fraction(1, 10), Fraction(1, 3), 1.0)]:
            spec = bsc_source(p, q, 3)
            want = brute_masses(satellite_table(p, q), 3, nu)
            assert guessing_mass(spec, nu) == want

    def test_general_table_path_matches_brute_force(self):
        # same source ingested as an explicit table: no bsc fast path
        t = satellite_table(Fraction(1, 4), Fraction(1, 4))
        doc = {
            "alphabet": [2, 2, 2],
            "n": 3,
            "pxyz": [[x, y, z, str(pr)] for (x, y, z), pr in t.items()],
        }
        spec = from_json(doc)
        assert spec.bsc is None
        for nu in (1.0, 2.0, 4.0):
            assert guessing_mass(spec, nu) == brute_masses(t, 3, nu)

    def test_negative_nu(self):
        assert guessing_mass(toy(4), -1) == (0, 0)

    def test_full_leakage_of_bobs_string(self):
        # Z = Y: guessing x succeeds whenever R(y) is nonempty, so mass 1;
        # guessing y = z then betting on the radius-1 ball around it gives
        # P[d(X, z) <= 1] with agreement 3/4: 189/256.
        rows = []
        for x, y in bits(2, 2):
            pr = Fraction(3, 8) if x == y else Fraction(1, 8)
            rows.append([x, y, y, str(pr)])
        spec = from_json({"alphabet": [2, 2, 2], "n": 4, "pxyz": rows})
        mx, my = guessing_mass(spec, 3.5)
        assert mx == 1
        assert my == Fraction(189, 256)

    def test_enumeration_too_large(self):
        rows = [[0, 0, 0, "0.5"], [1, 1, 1, "0.5"]]
        spec = from_json({"alphabet": [2, 2, 2], "n": 13, "pxyz": rows})
        with pytest.raises(InfeasibleError):
            guessing_mass(spec, 1.0)

    @pytest.mark.parametrize("n", [4, 13])
    def test_non_binary_table_refused(self, n):
        # at n = 13 the 3^13 strings once raised InfeasibleError instead
        spec = from_json({**ASYM, "n": n})
        for mass in (guessing_mass, guessing_log2_mass):
            with pytest.raises(MalformedError, match="binary x and y"):
                mass(spec, 1.0)

    def test_closed_form_large_n_runs(self):
        mx, my = guessing_mass(bsc_source(0.02, 0.5, 1000), 340.0)
        assert 0 < mx < 1 and 0 < my < 1

    def test_log2_mass_matches_linear_masses(self):
        # exact, closed-form float and enumerated general-table sources
        rows = [[x, y, z, str(pr)] for (x, y, z), pr in satellite_table(
            Fraction(1, 4), Fraction(1, 4)).items()]
        table = from_json({"alphabet": [2, 2, 2], "n": 3, "pxyz": rows})
        for spec, nu in [(toy(4), 3.5),
                         (bsc_source(Fraction(1, 10), Fraction(1, 3), 3), 1.0),
                         (table, 2.0),
                         (bsc_source(0.02, 0.5, 1000), 340.0),
                         (bsc_source(0.1, 0.3, 200), 80.0)]:
            want = math.log2(max(guessing_mass(spec, nu)))
            assert guessing_log2_mass(spec, nu) == pytest.approx(
                want, rel=1e-12)
        assert guessing_log2_mass(toy(4), -1) == -math.inf

    def test_log2_mass_below_float_range(self):
        # 2^-1080 underflows a double; its logarithm does not
        assert guessing_log2_mass(bsc_source(0, 0.5, 1080), 0.0) == -1080

    def test_float_masses_at_large_n(self):
        # C(2000, j) times a float once passed the float range.  With
        # q = 1/2 both strategies hit the same ball; q = 0 leaves z = x,
        # so guessing x always succeeds
        mx, my = guessing_mass(bsc_source(0.25, 0.5, 2000), 2500.0)
        assert 0.99 < mx < 1 and my == pytest.approx(mx, rel=1e-12)
        assert guessing_log2_mass(bsc_source(0.25, 0.0, 2000), 2500.0) == \
            pytest.approx(0.0, abs=1e-9)

    def test_masses_stay_probabilities_when_the_tail_holds_all(self):
        # the rounded log-domain sum once came out above 1: mass_x
        # 1.0000000000000056 and log2 mass +8.0e-15
        spec = bsc_source(0.25, 0.0, 2000)
        assert max(guessing_mass(spec, 2500.0)) <= 1
        assert guessing_log2_mass(spec, 2500.0) <= 0


def brute_recon(spec, y, nu):
    """R(y) by scoring every x-string, ordered by (cost, x).  Internal
    consistency oracle: cond_neg_log_prob is the membership rule recon_set
    is specified by, so this checks the member-class walk and its class
    scores, not the cost table (TestCondNegLogProb checks that)."""
    scored = sorted((cond_neg_log_prob(spec, x, y), x)
                    for x in bits(spec.nx, spec.n))
    return tuple(x for c, x in scored if c <= nu)


# 3-ary x and y, binary z, uneven weights; P(x=2, y=0) and P(x=1, y=2)
# vanish.  Reconciliation takes binary x and y only, so it refuses this.
ASYM = {"alphabet": [3, 3, 2], "n": 4, "pxyz": [
    [0, 0, 0, "1/8"], [0, 0, 1, "1/16"], [0, 1, 0, "1/16"], [0, 2, 1, "1/8"],
    [1, 0, 1, "1/16"], [1, 1, 0, "3/16"], [1, 1, 1, "1/16"],
    [2, 1, 0, "1/16"], [2, 2, 0, "1/8"], [2, 2, 1, "1/8"]]}

# binary x and y with uneven weights; P(x=1, y=0) vanishes, so x = 1
# costs inf wherever y = 0
BIN_ASYM = SourceSpec(2, 2, 2, 5, (
    Fraction(1, 4), Fraction(1, 8), Fraction(1, 16), Fraction(1, 16),
    Fraction(0), Fraction(0), Fraction(3, 16), Fraction(5, 16)))


class TestReconSetDifferential:
    """recon_set against brute-force enumeration and walk_recon, order
    included."""

    @pytest.mark.parametrize("p, n, nu", [
        (Fraction(1, 4), 6, 5.0),       # exact mode
        (Fraction(1, 10), 8, 7.0),
        (0, 6, 0.0),                    # noiseless: zero-probability flips
        (0.1, 17, 6.0),                 # n above the exact ceiling: floats
    ])
    def test_bsc(self, p, n, nu):
        spec = bsc_source(p, 0.5, n)
        assert spec.exact == (n <= 16)
        for seed in range(3 if n < 17 else 1):
            rng = random.Random(seed)
            y = tuple(rng.getrandbits(1) for _ in range(n))
            assert walked(spec, y, nu) == brute_recon(spec, y, nu)

    @pytest.mark.parametrize("nu", [0.0, 2.0, 4.5, 7.0, 12.0, math.inf])
    def test_asymmetric_ternary_table(self, nu):
        # ternary y symbols, and binary ones of a ternary table, alike
        spec = from_json(ASYM)
        for y in bits(3, 4):
            with pytest.raises(MalformedError):
                recon_set(spec, y, nu)

    def test_members_exactly_at_nu(self):
        y = (0, 1, 1, 0, 1)
        for x in bits(2, 5):
            nu = cond_neg_log_prob(BIN_ASYM, x, y)
            if nu == math.inf:
                continue
            got = walked(BIN_ASYM, y, nu)
            assert x in got
            assert got == brute_recon(BIN_ASYM, y, nu)

    def test_equal_cost_ties_are_lexicographic(self):
        spec = toy(5)
        y = (1, 0, 1, 1, 0)
        got = walked(spec, y, 6.0)
        assert got == brute_recon(spec, y, 6.0)
        # y itself, then the five distance-1 strings (one cost), then the
        # ten distance-2 strings (another), each block in lexicographic order
        assert got[0] == y and len(got) == 16
        assert list(got[1:6]) == sorted(got[1:6])
        assert list(got[6:]) == sorted(got[6:])

    def test_empty_set(self):
        # y = 1 at every position: the cheapest x, y itself, costs
        # 5 * log2(5/4) > 1
        assert walked(BIN_ASYM, (1,) * 5, 1.0) == ()
        assert brute_recon(BIN_ASYM, (1,) * 5, 1.0) == ()
        with pytest.raises(MalformedError):
            recon_set(from_json(ASYM), (2,) * 4, 1.0)

    def test_cap_plus_one_raises(self, monkeypatch):
        spec = toy(6)
        y = (0,) * 6
        size = len(brute_recon(spec, y, 6.0))
        monkeypatch.setattr("prekem.source.RECON_CAP", size)
        assert len(walked(spec, y, 6.0)) == size
        monkeypatch.setattr("prekem.source.RECON_CAP", size - 1)
        with pytest.raises(InfeasibleError):
            walked(spec, y, 6.0)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_random_tables(self, data):
        # integer weights 0..3 over binary x and y give asymmetric tables,
        # equal costs (ties) and impossible symbols
        weights = data.draw(st.lists(st.integers(0, 3), min_size=4,
                                     max_size=4).filter(any))
        n = data.draw(st.integers(1, 4))
        spec = SourceSpec(2, 2, 1, n, tuple(
            Fraction(w, sum(weights)) for w in weights))
        y = tuple(data.draw(st.integers(0, 1)) for _ in range(n))
        costs = sorted({cond_neg_log_prob(spec, x, y) for x in bits(2, n)})
        nu = data.draw(st.sampled_from(costs) | st.floats(-1.0, 16.0))
        assert walked(spec, y, nu) == brute_recon(spec, y, nu)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_random_non_binary_tables_refused(self, data):
        nx, ny = data.draw(st.tuples(st.integers(1, 3), st.integers(1, 3))
                           .filter(lambda sizes: sizes != (2, 2)))
        weights = data.draw(st.lists(st.integers(0, 3), min_size=nx * ny,
                                     max_size=nx * ny).filter(any))
        n = data.draw(st.integers(1, 4))
        spec = SourceSpec(nx, ny, 1, n, tuple(
            Fraction(w, sum(weights)) for w in weights))
        y = tuple(data.draw(st.integers(0, ny - 1)) for _ in range(n))
        with pytest.raises(MalformedError):
            recon_set(spec, y, data.draw(st.floats(-1.0, 16.0)))


def pack(x):
    """x as an int, first symbol most significant."""
    return int("".join(map(str, x)), 2)


def assert_same_set(spec, y, nu):
    """recon_ints gives walk_recon's members, packed, with no repeats, and
    recon_set gives them in the walk's order; or all three refuse the set
    with the same InfeasibleError."""
    try:
        want = walked(spec, y, nu)
    except InfeasibleError as refused:
        with pytest.raises(InfeasibleError) as got:
            recon_ints(spec, pack(y), nu)
        assert str(got.value) == str(refused)
        return None
    got = recon_ints(spec, pack(y), nu)
    assert sorted(got) == sorted(map(pack, want))
    return len(got)


def distance_costs(p, n):
    """The distinct finite fsum costs of a distance-d string from y,
    d = 0, 1, 2, in ascending order."""
    c0 = -math.log2(1 - p)
    c1 = -math.log2(p) if p else math.inf
    costs = {math.fsum([c1] * d + [c0] * (n - d)) for d in range(min(n, 2) + 1)}
    return sorted(c for c in costs if c < math.inf)


class TestReconIntsDifferential:
    """recon_ints, and recon_set's order, against walk_recon.  They share
    the membership rule, the correctly rounded exact sum of the per-symbol
    costs, so the sets are equal wherever the walk reaches every member.
    The walk prunes on a running float sum with 1e-9 of slack; only at n
    far past these could its drift prune a member the exact rule keeps,
    and there the class rule of recon_ints is the documented one."""

    @pytest.mark.parametrize("n", [1, 5, 16, 17, 24, 64])
    @pytest.mark.parametrize("p", [0, Fraction(1, 20), Fraction(1, 4),
                                   Fraction(1, 2)])
    def test_bsc(self, p, n, monkeypatch):
        # a cap this low lets both sides refuse 2^64 strings quickly
        monkeypatch.setattr("prekem.source.RECON_CAP", 5000)
        spec = bsc_source(p, 0.5, n)
        rng = random.Random(n)
        ys = [tuple(rng.getrandbits(1) for _ in range(n))
              for _ in range(2)] + [(0,) * n, (1,) * n]
        for c in distance_costs(float(p), n):
            # NU_UNDER_R3's shape: 5e-10 either side of a member's cost
            for nu in (0.0, -1.0, c, c - 5e-10, c + 5e-10):
                for y in ys:
                    if p == Fraction(1, 2) and n > 16 and n - 1e-9 < nu < n:
                        # every string costs exactly n, so the walk would
                        # score all 2^n of them through its 1e-9 slack and
                        # keep none
                        assert recon_ints(spec, pack(y), nu) == []
                        assert recon_set(spec, y, nu).members == ()
                    else:
                        assert_same_set(spec, y, nu)

    def test_wide_field(self):
        rng = random.Random(3)
        y = tuple(rng.getrandbits(1) for _ in range(1080))
        assert assert_same_set(bsc_source(0, 0.5, 1080), y, 0.0) == 1
        spec = bsc_source(0.001, 0.5, 200)
        c1 = distance_costs(0.001, 200)[1]
        assert assert_same_set(spec, y[:200], c1) == 201

    @pytest.mark.parametrize("n", [20, 24])
    @pytest.mark.parametrize("weights", [(0.55, 0.05, 0.1, 0.3),
                                         (0.45, 0.0, 0.05, 0.5)])
    def test_float_tables_past_the_exact_ceiling(self, weights, n):
        spec = SourceSpec(2, 2, 1, n, weights)
        assert not spec.exact
        rng = random.Random(n)
        for _ in range(4):
            y = tuple(rng.getrandbits(1) for _ in range(n))
            for flips in range(3):
                x = list(y)
                for i in rng.sample(range(n), flips):
                    x[i] ^= 1
                at = cond_neg_log_prob(spec, tuple(x), y)
                if at < math.inf:
                    for nu in (at, at - 5e-10, at + 5e-10):
                        assert_same_set(spec, y, nu)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_random_binary_tables(self, data):
        # integer weights 0..3 give asymmetric tables, equal costs (ties)
        # and impossible symbols, as Fractions or as floats
        weights = data.draw(st.lists(st.integers(0, 3), min_size=4,
                                     max_size=4).filter(any))
        n = data.draw(st.integers(1, 10))
        exact = data.draw(st.booleans())
        total = sum(weights)
        spec = SourceSpec(2, 2, 1, n, tuple(
            Fraction(w, total) if exact else w / total for w in weights))
        pair = st.tuples(*[st.integers(0, 1)] * n)
        y = data.draw(pair)
        at = cond_neg_log_prob(spec, data.draw(pair), y)
        nu = data.draw(st.sampled_from([at, at - 5e-10, at + 5e-10])
                       | st.floats(-1.0, 3.0 * n))
        assert_same_set(spec, y, nu)

    def test_every_y_of_an_asymmetric_table(self):
        spec = SourceSpec(2, 2, 1, 6, (Fraction(1, 2), Fraction(1, 8),
                                       Fraction(1, 16), Fraction(5, 16)))
        costs = sorted({cond_neg_log_prob(spec, x, y)
                        for x in bits(2, 6) for y in bits(2, 6)})
        for nu in costs[:12]:
            sizes = {assert_same_set(spec, y, nu) for y in bits(2, 6)}
            assert len(sizes) > 1  # |R(y)| moves with y's count of zeros

    def test_empty_and_refused_sets(self, monkeypatch):
        assert recon_ints(toy(4), 0b0110, -1.0) == []
        assert recon_ints(toy(4), 0b0110, 0.0) == []
        monkeypatch.setattr("prekem.source.RECON_CAP", 15)
        with pytest.raises(InfeasibleError,
                           match="^reconciliation set exceeds cap 15 at nu=12.0$"):
            recon_ints(toy(4), 0b0110, 12.0)

    def test_rejects_other_shapes(self):
        with pytest.raises(MalformedError):
            recon_ints(from_json(ASYM), 0, 1.0)
        for yp in (-1, 1 << 4):
            with pytest.raises(MalformedError):
                recon_ints(toy(4), yp, 1.0)


class TestReconClasses:
    """recon_ints finds the member classes once per (nu, zero count of y),
    keeps them on the spec and checks their total against the cap before
    it builds a member."""

    def test_classes_found_once_per_nu_and_zero_count(self, monkeypatch):
        import prekem.source as source
        walks = []
        walk = source._member_classes
        monkeypatch.setattr(source, "_member_classes",
                            lambda spec, nu, zeros: walks.append(
                                (nu, tuple(zeros))) or walk(spec, nu, zeros))
        spec = toy(6)
        for yp in (0b000111, 0b101010, 0b111000, 0b000001, 0b100000):
            recon_ints(spec, yp, 6.0)
        recon_ints(spec, 0b000111, 4.0)
        assert walks == [(6.0, (3,)), (6.0, (5,)), (4.0, (3,))]
        assert set(spec.recon_classes) == {(6.0, 3), (6.0, 5), (4.0, 3)}
        assert spec.recon_classes[(6.0, 3)] == (
            22, [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)])

    def test_cap_checked_before_members_are_built(self, monkeypatch):
        import prekem.source as source
        spec = bsc_source(Fraction(1, 20), Fraction(1, 2), 24)
        nu = distance_costs(1 / 20, 24)[2]
        recon_ints(spec, 0xABCDEF, nu)  # the 301-string ball, kept
        monkeypatch.setattr(source, "_flip_masks", None)  # building fails
        monkeypatch.setattr(source, "RECON_CAP", 300)
        with pytest.raises(InfeasibleError,
                           match="reconciliation set exceeds cap 300 at nu="):
            recon_ints(spec, 0xABCDEF, nu)
        monkeypatch.setattr(source, "RECON_CAP", 1 << 20)
        wide = bsc_source(0.001, 0.5, 1080)
        with pytest.raises(InfeasibleError):  # counted, never built
            recon_ints(wide, 5, 1e4)


TABLES = ("marg_y", "joint_xy", "joint_xz", "joint_yz", "cost", "cumulative",
          "scaled", "cond_cells", "recon_classes", "posteriors")


class TestSpecTables:
    """Derived tables live on the spec instance and never leak into its
    identity."""

    def test_equal_specs_give_equal_tables(self):
        a, b = toy(4), bsc_source(Fraction(1, 4), Fraction(1, 2), 4)
        assert a == b and a is not b
        for name in TABLES:
            assert getattr(a, name) == getattr(b, name), name

    def test_tables_are_built_once(self):
        spec = from_json(ASYM)
        for name in TABLES:
            assert getattr(spec, name) is getattr(spec, name), name

    def test_replace_builds_fresh_tables(self):
        spec = toy(4)
        y4 = (0, 1, 0, 1)
        recon_set(spec, y4, 3.5)
        longer = spec.replace(n=6)
        assert longer == toy(6)
        assert not set(TABLES) & set(vars(longer))
        y6 = (0, 1, 0, 1, 1, 1)
        assert recon_set(longer, y6, 3.5).members == brute_recon(longer, y6, 3.5)
        with pytest.raises(MalformedError):
            recon_set(longer, y4, 3.5)
        noisier = spec.replace(table=bsc_source(0.1, 0.5, 4).table, bsc=None)
        assert noisier == SourceSpec(2, 2, 2, 4, bsc_source(0.1, 0.5, 4).table)
        assert noisier.cost != spec.cost
        assert noisier.cost[0][1] == pytest.approx(-math.log2(0.1))

    def test_identity_unchanged_by_tables(self):
        spec, twin = toy(4), toy(4)
        before = (hash(spec), repr(spec))
        for name in TABLES:
            getattr(spec, name)
        assert (hash(spec), repr(spec)) == before
        assert spec == twin and hash(spec) == hash(twin)
        assert {spec: 1}[twin] == 1

    def test_float_spec_has_no_scaled_table(self):
        spec = toy(17)
        with pytest.raises(InfeasibleError):
            spec.scaled
        assert spec.cost == toy(4).cost


class TestBscRadius:
    def test_toy_radii(self):
        # d=0 costs 1.66, d=1 costs 3.245, d=2 costs 4.83
        assert bsc_radius(0.25, 4, 2.5) == 0
        assert bsc_radius(0.25, 4, 3.5) == 1
        assert bsc_radius(0.25, 4, 5.0) == 2
        assert bsc_radius(0.25, 4, -1.0) == -1

    def test_noiseless(self):
        assert bsc_radius(0, 8, 0.0) == 0
        assert bsc_radius(0, 8, -0.5) == -1

    def test_rejects_biased_flip(self):
        with pytest.raises(MalformedError):
            bsc_radius(0.7, 4, 1.0)

    def test_agrees_with_recon_set_size(self):
        for nu in (0.5, 1.66, 3.3, 5.0, 9.0):
            spec = toy(4)
            d = bsc_radius(0.25, 4, nu)
            size = len(recon_set(spec, (0,) * 4, nu).members)
            want = sum(math.comb(4, j) for j in range(d + 1)) if d >= 0 else 0
            assert size == want

    @staticmethod
    def linear_radius(p, n, nu):
        """Oracle: scan d upwards while the fsum'd cost stays <= nu."""
        p = float(p)
        c0 = -math.log2(1.0 - p)
        c1 = -math.log2(p) if p > 0 else math.inf
        best = -1
        for d in range(n + 1):
            if math.fsum([c1] * d + [c0] * (n - d)) > nu:
                break
            best = d
        return best

    @pytest.mark.parametrize("p, n", [
        (p, n) for n in (1, 2, 3, 24, 100)
        for p in (0, 1e-9, 0.02, 0.05, 0.25, 0.45, 0.5, Fraction(1, 20),
                  Fraction(1, 3), Fraction(1, 2))
    ] + [(0.02, 1080), (Fraction(1, 2), 1080)])
    def test_bisection_matches_linear_scan(self, p, n):
        # every radius cost, one ulp and 1e-9 either side of it, and
        # thresholds below, at and far above the whole range
        pf = float(p)
        c0 = -math.log2(1.0 - pf)
        c1 = -math.log2(pf) if pf > 0 else math.inf
        nus = [-1.0, 0.0, 1e9]
        for d in range(0, n + 1, max(1, n // 5)):
            c = math.fsum([c1] * d + [c0] * (n - d))
            if math.isfinite(c):
                nus += [c, math.nextafter(c, -math.inf),
                        math.nextafter(c, math.inf), c - 1e-9, c + 1e-9]
        for nu in nus:
            assert bsc_radius(p, n, nu) == self.linear_radius(p, n, nu), nu

    @pytest.mark.parametrize("p, n, nu", [
        (0.25, 4, 3.5), (Fraction(1, 20), 24, 12.0), (0.05, 100, 40.0),
        (0.5, 8, 1e9), (0.25, 4, -1.0)])
    def test_recon_size_is_the_ball(self, p, n, nu):
        d = bsc_radius(p, n, nu)
        assert bsc_recon_size(p, n, nu) == sum(math.comb(n, j)
                                               for j in range(d + 1))

    def test_wide_radius_is_fast(self):
        # a linear scan needs ~0.8 s here; the bisection a few fsums
        start = time.perf_counter()
        assert bsc_radius(0.45, 8192, 8100.0) == 3573
        assert bsc_recon_size(0.5, 8192, 1e9) == 1 << 8192
        assert time.perf_counter() - start < 0.2



class TestMaxReconSize:
    """max_recon_size against the largest walk_recon over every y."""

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_random_binary_tables(self, data):
        # n <= 8 keeps the oracle, 2^n sets of up to 2^n members, fast
        weights = data.draw(st.lists(st.integers(0, 3), min_size=8,
                                     max_size=8).filter(any))
        n = data.draw(st.integers(1, 8))
        spec = SourceSpec(2, 2, 2, n, tuple(
            Fraction(w, sum(weights)) for w in weights))
        pair = st.tuples(*[st.integers(0, 1)] * n)
        # thresholds exactly at some string's score, or anywhere
        at = cond_neg_log_prob(spec, data.draw(pair), data.draw(pair))
        nu = data.draw(st.just(at) | st.floats(-1.0, 3.0 * n))
        want = max(len(walk_recon(spec, y, nu)) for y in bits(2, n))
        assert max_recon_size(spec, nu) == want

    def test_symmetric_table_matches_the_ball(self, monkeypatch):
        table = from_json({"alphabet": [2, 2, 2], "n": 40, "pxyz": [
            [x, y, z, "19/80" if x == y else "1/80"]
            for x in (0, 1) for y in (0, 1) for z in (0, 1)]})
        monkeypatch.setattr("prekem.source.RECON_CAP", 1 << 23)
        assert max_recon_size(table, 30.0) == \
            bsc_recon_size(Fraction(1, 20), 40, 30.0) == 4598479

    def test_stops_past_the_cap(self, monkeypatch):
        assert max_recon_size(toy(8), 1e9) == 256
        monkeypatch.setattr("prekem.source.RECON_CAP", 10)
        assert 10 < max_recon_size(toy(8), 1e9) < 256


class TestJson:
    def test_bsc_shorthand(self):
        spec = from_json({"bsc": {"p": 0.25, "q": 0.5, "n": 4}})
        assert spec == toy(4)
        assert spec.exact and spec.bsc == (Fraction(1, 4), Fraction(1, 2))

    def test_float_mode_above_exact_ceiling(self):
        spec = from_json({"bsc": {"p": 0.25, "q": 0.5, "n": 17}})
        assert not spec.exact
        assert isinstance(spec.table[0], float)

    def test_fraction_strings_above_exact_ceiling(self):
        # float() alone rejects "1/20"; the coercion must fall back to Fraction.
        spec = from_json({"bsc": {"p": "1/20", "q": "1/2", "n": 24}})
        assert not spec.exact
        assert spec.bsc == (0.05, 0.5)

    def test_bad_literal_above_exact_ceiling(self):
        with pytest.raises(MalformedError):
            from_json({"bsc": {"p": "one in twenty", "q": "1/2", "n": 24}})

    def test_explicit_table(self):
        spec = from_json({
            "alphabet": [2, 2, 2], "n": 2,
            "pxyz": [[0, 0, 0, "0.5"], [1, 1, 1, "0.5"]],
        })
        assert spec.p(0, 0, 0) == Fraction(1, 2)
        assert spec.p(0, 1, 1) == 0

    @pytest.mark.parametrize("doc", [
        {"alphabet": [2, 2], "n": 2, "pxyz": []},
        {"alphabet": [2, 2, 2], "pxyz": [[0, 0, 0, 1]]},
        {"bsc": {"p": 0.2, "n": 3}},
        {"alphabet": [2, 2, 2], "n": 2, "pxyz": [[0, 0, 2, 1]]},
        {"alphabet": [2, 2, 2], "n": 2, "pxyz": [[0, 0, 0, "0.75"]]},
        {"alphabet": [2, 2, 2], "n": 2, "pxyz": [[0, 0, 0, "-1"], [1, 1, 1, "2"]]},
        "not json {",
        42,
        # integer fields follow the CLI's rule: no bools, no fractions
        {"bsc": {"p": 0, "q": 0.5, "n": 12.7}},
        {"bsc": {"p": 0, "q": 0.5, "n": True}},
        {"alphabet": [2.9, 2, 2], "n": 3, "pxyz": [[0, 0, 0, 1]]},
        {"alphabet": [2, 2, 2], "n": 3.5, "pxyz": [[0, 0, 0, 1]]},
        {"alphabet": [2, 2, 2], "n": 3, "pxyz": [[0.5, 0, 0, 1]]},
        {"alphabet": [2, 2, 2], "n": 3, "pxyz": [[0, False, 0, 1]]},
        {"alphabet": [2, 2, 2], "n": "3.0", "pxyz": [[0, 0, 0, 1]]},
    ])
    def test_malformed(self, doc):
        with pytest.raises(MalformedError):
            from_json(doc)

    @pytest.mark.parametrize("rows, first, second, cell", [
        ([[0, 0, 0, 0.5], [0, 0, 0, 0.5], [1, 1, 1, 0.5]], 0, 1, (0, 0, 0)),
        ([[1, 1, 1, 1], [0, 1, 0, 0], ["1", 1.0, 1, 0]], 0, 2, (1, 1, 1)),
    ])
    def test_repeated_cell_names_both_rows(self, rows, first, second, cell):
        # the last row used to overwrite the first, so the first example
        # built a valid table from rows listing a mass of 3/2
        want = (f"pxyz rows {first} and {second} both give cell "
                f"({cell[0]}, {cell[1]}, {cell[2]})")
        with pytest.raises(MalformedError, match=re.escape(want) + "$"):
            from_json({"alphabet": [2, 2, 2], "n": 3, "pxyz": rows})

    @pytest.mark.parametrize("rows", [None, True, 3, 2.5, "x", {"a": 1}])
    def test_pxyz_must_be_a_list_of_rows(self, rows):
        with pytest.raises(MalformedError):
            from_json({"alphabet": [2, 2, 2], "n": 3, "pxyz": rows})

    def test_integral_numbers_accepted(self):
        assert from_json({"bsc": {"p": 0, "q": 0.5, "n": 12.0}}).n == 12
        spec = from_json({"alphabet": [2.0, "2", 2], "n": "3",
                          "pxyz": [[1.0, 1, "1", 1]]})
        assert (spec.nx, spec.ny, spec.n) == (2, 2, 3)
        assert spec.p(1, 1, 1) == 1

    def test_bad_flip_probability(self):
        with pytest.raises(MalformedError):
            bsc_source(1.5, 0.5, 4)
