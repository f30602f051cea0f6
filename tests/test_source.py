"""Source model tests.

Expected values come from test-local brute force (direct enumeration over
the definition) or hand-derived closed forms noted inline; the package is
never used as its own oracle except for explicitly-marked internal
consistency checks.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prekem.errors import InfeasibleError, MalformedError
from prekem.source import (
    DEFAULT_CAP,
    ReconSet,
    SourceSpec,
    avg_min_entropy_given_z,
    bsc_radius,
    bsc_source,
    cond_neg_log_prob,
    from_json,
    guess_prob_given_z,
    guessing_log2_mass,
    guessing_mass,
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

    def test_cap_exceeded(self):
        with pytest.raises(InfeasibleError):
            recon_set(toy(4), (0,) * 4, 3.5, cap=3)

    def test_negative_nu_empty(self):
        assert recon_set(toy(4), (0,) * 4, -1).members == ()

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
        got = set(recon_set(spec, y, nu, cap=1 << n).members)
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


class TestJson:
    def test_bsc_shorthand(self):
        spec = from_json({"bsc": {"p": 0.25, "q": 0.5, "n": 4}})
        assert spec == toy(4)
        assert spec.exact and spec.bsc == (Fraction(1, 4), Fraction(1, 2))

    def test_string_form(self):
        spec = from_json('{"bsc": {"p": 0, "q": 0.5, "n": 3}}')
        assert spec == bsc_source(0, 0.5, 3)

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
    ])
    def test_malformed(self, doc):
        with pytest.raises(MalformedError):
            from_json(doc)

    def test_bad_flip_probability(self):
        with pytest.raises(MalformedError):
            bsc_source(1.5, 0.5, 4)
