"""Source model tests.

Expected values come from test-local brute force (direct enumeration over
the definition) or hand-derived closed forms noted inline; the package is
never used as its own oracle except for explicitly-marked internal
consistency checks.
"""

import dataclasses
import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


class TestReconSet:
    def test_toy_nu_25(self):
        r = recon_set(toy(4), (0, 0, 0, 0), 2.5)
        assert r.members == ((0, 0, 0, 0),)

    def test_toy_nu_35_is_radius_one_ball(self):
        r = recon_set(toy(4), (0, 0, 0, 0), 3.5)
        assert r.members == (
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
            got = recon_set(spec, y, nu)
            assert set(got.members) == want
            costs = [cond_neg_log_prob(spec, x, y) for x in got.members]
            assert costs == sorted(costs)

    def test_nu_zero_edges(self):
        assert recon_set(toy(4), (0,) * 4, 0).members == ()
        noiseless = bsc_source(0, 0.5, 4)
        assert recon_set(noiseless, (1, 0, 1, 1), 0).members == ((1, 0, 1, 1),)

    def test_cap_exceeded(self, monkeypatch):
        monkeypatch.setattr("prekem.source.RECON_CAP", 3)
        with pytest.raises(InfeasibleError):
            recon_set(toy(4), (0,) * 4, 3.5)

    def test_negative_nu_empty(self):
        assert recon_set(toy(4), (0,) * 4, -1).members == ()

    def test_cap_counts_members_not_slack(self, monkeypatch):
        # nu 5e-10 under the radius-3 cost: the walk's slack reaches the
        # 2024 distance-3 strings, but only the 301-string radius-2 ball is
        # kept, and cap is measured against that, as bsc_recon_size counts
        p = Fraction(1, 20)
        spec = bsc_source(p, Fraction(1, 2), 24)
        nu = math.fsum([-math.log2(1 / 20)] * 3
                       + [-math.log2(19 / 20)] * 21) - 5e-10
        assert bsc_recon_size(p, 24, nu) == 301
        y = tuple(random.Random(7).getrandbits(1) for _ in range(24))
        monkeypatch.setattr("prekem.source.RECON_CAP", 301)
        assert len(recon_set(spec, y, nu).members) == 301
        monkeypatch.setattr("prekem.source.RECON_CAP", 300)
        with pytest.raises(InfeasibleError,
                           match="reconciliation set exceeds cap 300 at nu="):
            recon_set(spec, y, nu)

    def test_large_n_noiseless(self):
        spec = bsc_source(0, 0.5, 1080)
        y = tuple(random.Random(5).getrandbits(1) for _ in range(1080))
        assert recon_set(spec, y, 0).members == (y,)

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
        got = set(recon_set(spec, y, nu).members)
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
    is specified by, so this checks the pruned walk and its single scoring
    pass, not the cost table (TestCondNegLogProb checks that)."""
    scored = sorted((cond_neg_log_prob(spec, x, y), x)
                    for x in bits(spec.nx, spec.n))
    return tuple(x for c, x in scored if c <= nu)


# 3-ary x and y, binary z, uneven weights; P(x=2, y=0) and P(x=1, y=2)
# vanish, so those per-symbol costs are infinite
ASYM = {"alphabet": [3, 3, 2], "n": 4, "pxyz": [
    [0, 0, 0, "1/8"], [0, 0, 1, "1/16"], [0, 1, 0, "1/16"], [0, 2, 1, "1/8"],
    [1, 0, 1, "1/16"], [1, 1, 0, "3/16"], [1, 1, 1, "1/16"],
    [2, 1, 0, "1/16"], [2, 2, 0, "1/8"], [2, 2, 1, "1/8"]]}


class TestReconSetDifferential:
    """recon_set against brute-force enumeration, order included."""

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
            y = tuple(random.Random(seed).getrandbits(1) for _ in range(n))
            assert recon_set(spec, y, nu).members == brute_recon(spec, y, nu)

    @pytest.mark.parametrize("nu", [0.0, 2.0, 4.5, 7.0, 12.0, math.inf])
    def test_asymmetric_ternary_table(self, nu):
        spec = from_json(ASYM)
        for y in bits(3, 4):
            assert recon_set(spec, y, nu).members == brute_recon(spec, y, nu)

    def test_members_exactly_at_nu(self):
        spec = from_json(ASYM)
        y = (0, 1, 2, 1)
        for x in bits(3, 4):
            nu = cond_neg_log_prob(spec, x, y)
            if nu == math.inf:
                continue
            got = recon_set(spec, y, nu).members
            assert x in got
            assert got == brute_recon(spec, y, nu)

    def test_equal_cost_ties_are_lexicographic(self):
        spec = toy(5)
        y = (1, 0, 1, 1, 0)
        got = recon_set(spec, y, 6.0).members
        assert got == brute_recon(spec, y, 6.0)
        # y itself, then the five distance-1 strings (one cost), then the
        # ten distance-2 strings (another), each block in lexicographic order
        assert got[0] == y and len(got) == 16
        assert list(got[1:6]) == sorted(got[1:6])
        assert list(got[6:]) == sorted(got[6:])

    def test_empty_set(self):
        spec = from_json(ASYM)
        # y = 2 at every position: cheapest x costs more than nu
        assert recon_set(spec, (2,) * 4, 1.0).members == ()
        assert brute_recon(spec, (2,) * 4, 1.0) == ()

    def test_cap_plus_one_raises(self, monkeypatch):
        spec = toy(6)
        y = (0,) * 6
        size = len(brute_recon(spec, y, 6.0))
        monkeypatch.setattr("prekem.source.RECON_CAP", size)
        assert len(recon_set(spec, y, 6.0).members) == size
        monkeypatch.setattr("prekem.source.RECON_CAP", size - 1)
        with pytest.raises(InfeasibleError):
            recon_set(spec, y, 6.0)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_random_tables(self, data):
        nx, ny = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        weights = data.draw(st.lists(st.integers(0, 3), min_size=nx * ny,
                                     max_size=nx * ny).filter(any))
        n = data.draw(st.integers(1, 4))
        spec = SourceSpec(nx, ny, 1, n, tuple(
            Fraction(w, sum(weights)) for w in weights))
        y = tuple(data.draw(st.integers(0, ny - 1)) for _ in range(n))
        costs = sorted({cond_neg_log_prob(spec, x, y) for x in bits(nx, n)})
        nu = data.draw(st.sampled_from(costs) | st.floats(-1.0, 16.0))
        got = recon_set(spec, y, nu).members
        assert got == brute_recon(spec, y, nu)


TABLES = ("marg_y", "joint_xy", "joint_xz", "joint_yz", "cost", "cumulative",
          "scaled", "cond_cells")


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
        longer = dataclasses.replace(spec, n=6)
        assert not set(TABLES) & set(vars(longer))
        y6 = (0, 1, 0, 1, 1, 1)
        assert recon_set(longer, y6, 3.5).members == brute_recon(longer, y6, 3.5)
        with pytest.raises(MalformedError):
            recon_set(longer, y4, 3.5)
        noisier = dataclasses.replace(spec, table=bsc_source(0.1, 0.5, 4).table,
                                      bsc=None)
        assert noisier.cost != spec.cost
        assert noisier.cost[0][1] == pytest.approx(-math.log2(0.1))

    def test_identity_unchanged_by_tables(self):
        spec, twin = toy(4), toy(4)
        before = (hash(spec), repr(spec), dataclasses.asdict(spec))
        for name in TABLES:
            getattr(spec, name)
        assert (hash(spec), repr(spec), dataclasses.asdict(spec)) == before
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
    """max_recon_size against the largest recon_set over every y."""

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
        want = max(len(recon_set(spec, y, nu).members) for y in bits(2, n))
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
