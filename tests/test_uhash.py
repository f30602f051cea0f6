"""Hash family tests.

Oracles are test-local: schoolbook carryless arithmetic, an independent
re-evaluation of the two-part polynomial hash, and exact Fraction
statistical distances.  Collision bounds are checked exhaustively at
small widths and by seeded sampling above.
"""

import itertools
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prekem.errors import MalformedError
from prekem.gf2 import FieldCtx, field
from prekem.uhash import (
    ExtractorSeed,
    PaddedSeedVector,
    ReconSeed,
    h_cca,
    h_cca_split,
    h_cea,
    h_cea_split,
    hprime,
    hprime_split,
    mul_add_split,
    piece_count,
    split_preimage,
    split_seed,
    split_table,
    twise_poly,
)

from oracles import block, mul_add, twise_poly_from_zero

# default reduction polynomials for the widths used here; frozen so a
# package-side change of field conventions is caught, not absorbed
POLY = {2: 0b111, 3: 0b1011, 5: 0b100101}


def naive_mul(a, b, m):
    prod = 0
    for i in range(b.bit_length()):
        if (b >> i) & 1:
            prod ^= a << i
    for i in range(prod.bit_length() - 1, m - 1, -1):
        if (prod >> i) & 1:
            prod ^= POLY[m] << (i - m)
    return prod


def naive_pow(a, e, m):
    r = 1
    for _ in range(e):
        r = naive_mul(r, a, m)
    return r


def power_by_power_hash(x, sv, seed):
    # the defining formula term by term, on the package's field arithmetic:
    # a running power of x2 multiplies each piece, 2r + 3 big multiplies
    n, t = seed.n, seed.t
    big, small = field(n - t), field(t)
    x2, x1 = x >> t, x & ((1 << t) - 1)
    p = big.mul(x2, x2)
    acc = 0
    for piece in sv.pieces:
        acc ^= big.mul(piece, p)
        p = big.mul(p, x2)
    acc ^= big.mul(p, x2) ^ big.mul(seed.s2, x2)
    return (block(acc, n - t, 1, t) ^ small.pow(x1, 3)
            ^ small.mul(seed.s1, x1))


def eq_hash(x, pieces, s2, s1, n, t):
    # independent evaluation of the split-seed polynomial hash
    big, small = n - t, t
    x2, x1 = x >> t, x & ((1 << t) - 1)
    acc = naive_pow(x2, len(pieces) + 3, big)
    for i, sp in enumerate(pieces, start=1):
        acc ^= naive_mul(sp, naive_pow(x2, i + 1, big), big)
    acc ^= naive_mul(s2, x2, big)
    bracket = acc >> (big - t)
    return bracket ^ naive_pow(x1, 3, small) ^ naive_mul(s1, x1, small)


class TestHprime:
    def test_zero_seed_annihilates(self):
        seed = ExtractorSeed(0, 3, 2)
        assert all(hprime(x, seed) == 0 for x in range(8))

    def test_known_point(self):
        # 0b010 * 0b011 = 0b110 in GF(2^3); top 2 bits are 0b11
        assert naive_mul(0b010, 0b011, 3) == 0b110
        assert hprime(0b011, ExtractorSeed(0b010, 3, 2)) == 0b11

    def test_matches_naive_everywhere(self):
        for s in range(8):
            seed = ExtractorSeed(s, 3, 2)
            for x in range(8):
                assert hprime(x, seed) == naive_mul(s, x, 3) >> 1

    def test_exhaustive_universality(self):
        # every distinct pair collides for at most 8 * 2^-2 = 2 seeds
        for x, y in itertools.combinations(range(8), 2):
            hits = sum(
                hprime(x, ExtractorSeed(s, 3, 2)) == hprime(y, ExtractorSeed(s, 3, 2))
                for s in range(8)
            )
            assert hits <= 2

    def test_sampled_universality_wide(self):
        n, ell, trials = 16, 8, 100_000
        rng = random.Random(0x5EED)
        p = 2.0 ** -ell
        slack = 3 * math.sqrt(p * (1 - p) / trials)
        for x, y in [(0x1234, 0x8765), (1, 2), (0xFFFF, 0xFFFE)]:
            hits = 0
            for _ in range(trials):
                seed = ExtractorSeed(rng.getrandbits(n), n, ell)
                hits += hprime(x, seed) == hprime(y, seed)
            assert hits / trials <= p + slack

    def test_bad_params(self):
        with pytest.raises(MalformedError):
            ExtractorSeed(8, 3, 2)
        with pytest.raises(MalformedError):
            ExtractorSeed(1, 3, 4)


class TestHcea:
    def test_zero_input(self):
        assert h_cea(0, ReconSeed(0b101, 3, 2)) == 0

    def test_known_point(self):
        assert h_cea(0b011, ReconSeed(0b010, 3, 2)) == 0b11

    def test_exhaustive_universality(self):
        for x, y in itertools.combinations(range(16), 2):
            hits = sum(
                h_cea(x, ReconSeed(s, 4, 2)) == h_cea(y, ReconSeed(s, 4, 2))
                for s in range(16)
            )
            assert hits <= 4

    def test_split_views(self):
        seed = ReconSeed(0b1101, 4, 2)
        assert seed.s2 == 0b11 and seed.s1 == 0b01


def join_seed(sv):
    """The w-bit seed split_seed split: the pieces end to end, with the
    1-padding shifted off."""
    padded = 0
    for p in sv.pieces:
        padded = (padded << sv.piece_width) | p
    return padded >> (sv.r * sv.piece_width - sv.w)


class TestSeedSplitting:
    def test_no_padding_case(self):
        sv = split_seed(0b1101, 4, 2)
        assert sv.pieces == (0b11, 0b01)
        assert sv.r == 2 and sv.w == 4

    def test_padding_fills_tail_with_ones(self):
        # w=4 into width-3 pieces: r=2, two appended 1s land in the tail
        sv = split_seed(0b1001, 4, 3)
        assert sv.pieces == (0b100, 0b111)

    def test_padding_can_reach_second_to_last_piece(self):
        # w=5 into width-4 pieces: r=2, pad=3
        sv = split_seed(0b10110, 5, 4)
        assert sv.pieces == (0b1011, 0b0111)

    def test_r_is_minimal_even(self):
        assert split_seed(0, 1, 4).r == 2
        assert split_seed(0, 8, 4).r == 2
        assert split_seed(0, 9, 4).r == 4
        assert split_seed(0, 16, 4).r == 4
        assert split_seed(0, 17, 4).r == 6

    @settings(max_examples=200, deadline=None)
    @given(w=st.integers(1, 40), pw=st.integers(1, 12), data=st.data())
    def test_round_trip_and_shape(self, w, pw, data):
        sprime = data.draw(st.integers(0, (1 << w) - 1))
        sv = split_seed(sprime, w, pw)
        assert join_seed(sv) == sprime
        assert sv.r % 2 == 0
        assert (sv.r - 2) * pw < w <= sv.r * pw

    def test_piece_count_is_minimal_even(self):
        for w in range(1, 41):
            for pw in range(1, 13):
                want = min(r for r in range(2, 2 * w + 3, 2) if w <= r * pw)
                assert piece_count(w, pw) == want
                assert split_seed(0, w, pw).r == want

    def test_rejects_bad_shapes(self):
        with pytest.raises(MalformedError):
            PaddedSeedVector((1, 2, 3), 2, 5)
        with pytest.raises(MalformedError):
            PaddedSeedVector((1, 2), 2, 5)
        with pytest.raises(MalformedError):
            split_seed(4, 2, 3)


def all_seed_pairs(n, t, w):
    """Every (seed vector, recon seed) combination for the split family."""
    out = []
    for sp in range(1 << w):
        sv = split_seed(sp, w, n - t)
        for s in range(1 << n):
            out.append((sv, ReconSeed(s, n, t)))
    return out


class TestHcca:
    def test_all_zero(self):
        sv = split_seed(0, 4, 2)
        assert h_cca(0, sv, ReconSeed(0, 4, 2)) == 0

    def test_known_point_by_tables(self):
        # x2=0b01, x1=0b10, all seeds zero: bracket [1^5]=0b01, and in
        # GF(4) with x^2+x+1 the cube of the generator 0b10 is 0b01
        sv = split_seed(0, 4, 2)
        x = (0b01 << 2) | 0b10
        mul4 = {(2, 2): 3, (2, 3): 1, (3, 2): 1, (3, 3): 2}
        cube = lambda a: a if a < 2 else mul4[(a, mul4[(a, a)])]
        assert cube(0b10) == 0b01
        assert h_cca(x, sv, ReconSeed(0, 4, 2)) == 0b01 ^ cube(0b10) == 0

    def test_matches_independent_evaluation(self):
        rng = random.Random(0xCCA)
        for _ in range(40):
            sp, s = rng.getrandbits(4), rng.getrandbits(4)
            sv = split_seed(sp, 4, 2)
            seed = ReconSeed(s, 4, 2)
            for x in range(16):
                want = eq_hash(x, sv.pieces, seed.s2, seed.s1, 4, 2)
                assert h_cca(x, sv, seed) == want

    def test_matches_independent_evaluation_asymmetric(self):
        # n=8, t=3: pieces over GF(2^5), tail gets 1-padding (w=8 <= 2*5)
        rng = random.Random(0xCCB)
        for _ in range(20):
            sv = split_seed(rng.getrandbits(8), 8, 5)
            seed = ReconSeed(rng.getrandbits(8), 8, 3)
            for _ in range(30):
                x = rng.getrandbits(8)
                want = eq_hash(x, sv.pieces, seed.s2, seed.s1, 8, 3)
                assert h_cca(x, sv, seed) == want

    @pytest.mark.parametrize("n, t", [(4, 2), (5, 2), (13, 5), (24, 12),
                                      (40, 20), (1080, 527)])
    def test_matches_power_by_power_evaluation(self, n, t):
        # Horner's rule against the formula's own term order, with seed
        # vectors exactly n wide and 7 bits wider (more pieces, padded)
        rng = random.Random(n * 1000 + t)
        for w in (n, n + 7):
            for _ in range(20 if n > 100 else 100):
                sv = split_seed(rng.getrandbits(w), w, n - t)
                seed = ReconSeed(rng.getrandbits(n), n, t)
                x = rng.getrandbits(n)
                assert h_cca(x, sv, seed) == power_by_power_hash(x, sv, seed)

    def test_exhaustive_universality(self):
        pairs = all_seed_pairs(4, 2, 4)
        for x, y in itertools.combinations(range(16), 2):
            hits = sum(h_cca(x, sv, s) == h_cca(y, sv, s) for sv, s in pairs)
            assert hits <= len(pairs) // 4

    def test_rejects_width_mismatch(self):
        with pytest.raises(MalformedError):
            h_cca(0, split_seed(0, 4, 3), ReconSeed(0, 4, 2))
        with pytest.raises(MalformedError):
            h_cca(0, split_seed(0, 4, 1), ReconSeed(0, 4, 3))
        with pytest.raises(MalformedError):
            h_cca(16, split_seed(0, 4, 2), ReconSeed(0, 4, 2))


class TestTwoSeedSolutionCounts:
    """How many inputs can explain two hash values under two seeds.

    The split family admits at most 3(r+1)*2^(n-2t) inputs hashing to any
    (v, v_f) under distinct seeds, and at most (r+3)(r+2)*2^(n-2t) inputs
    x' with prescribed values at x'+e and x' under seeds that differ as
    tuples-with-values.  At n=4, t=2, r=2: bounds 9 and 20.
    """

    def setup_method(self):
        self.pairs = all_seed_pairs(4, 2, 4)
        self.table = [
            tuple(h_cca(x, sv, s) for x in range(16)) for sv, s in self.pairs
        ]
        self.keys = [
            (sv.pieces, s.s2, s.s1) for sv, s in self.pairs
        ]

    def test_same_input_two_seeds(self):
        for a in range(len(self.pairs)):
            for b in range(len(self.pairs)):
                if self.keys[a] == self.keys[b]:
                    continue
                counts = {}
                worst = 0
                for x in range(16):
                    k = (self.table[a][x], self.table[b][x])
                    counts[k] = counts.get(k, 0) + 1
                    worst = max(worst, counts[k])
                assert worst <= 9

    def test_shifted_input_two_seeds_sampled(self):
        rng = random.Random(0x1E6)
        m = len(self.pairs)
        for _ in range(1500):
            a, b = rng.randrange(m), rng.randrange(m)
            for e in range(1, 16):
                counts = {}
                worst = 0
                for x in range(16):
                    v, vf = self.table[a][x ^ e], self.table[b][x]
                    if a == b and v == vf:
                        continue          # identical seed-and-value tuples
                    k = (v, vf)
                    counts[k] = counts.get(k, 0) + 1
                    worst = max(worst, counts[k])
                assert worst <= 20


class TestTwisePoly:
    def test_constant(self):
        for x in range(8):
            assert twise_poly([0b101], x, 3, 3) == 0b101
            assert twise_poly([0b101], x, 3, 1) == 0b1

    def test_zero_key(self):
        assert all(twise_poly([0, 0, 0], x, 3, 2) == 0 for x in range(8))

    def test_matches_naive_sum(self):
        rng = random.Random(3)
        for _ in range(60):
            key = [rng.getrandbits(3) for _ in range(4)]
            x = rng.getrandbits(3)
            want = 0
            for i, a in enumerate(key):
                want ^= naive_mul(a, naive_pow(x, i, 3), 3)
            assert twise_poly(key, x, 3, 3) == want

    def test_three_wise_independence(self):
        outs = []
        for key in itertools.product(range(8), repeat=3):
            outs.append(tuple(twise_poly(key, x, 3, 1) for x in range(8)))
        for xs in itertools.combinations(range(8), 3):
            seen = {}
            for row in outs:
                k = tuple(row[x] for x in xs)
                seen[k] = seen.get(k, 0) + 1
            assert all(seen.get(k, 0) == 64
                       for k in itertools.product((0, 1), repeat=3))

    def test_pairwise_collision_bound(self):
        for x, y in itertools.combinations(range(8), 2):
            hits = sum(
                twise_poly(key, x, 3, 2) == twise_poly(key, y, 3, 2)
                for key in itertools.product(range(8), repeat=3)
            )
            assert hits <= 512 // 4

    def test_bad_params(self):
        with pytest.raises(MalformedError):
            twise_poly([], 1, 3, 1)
        with pytest.raises(MalformedError):
            twise_poly([1], 1, 3, 4)
        with pytest.raises(ValueError, match="not a GF"):
            twise_poly([1], 8, 3, 1)

    @pytest.mark.parametrize("m", [8, 40, 128])
    def test_matches_horner_from_zero(self, m, monkeypatch):
        # d + 1 coefficients take d products, with the same outputs
        products = []
        mul = FieldCtx.mul
        monkeypatch.setattr(FieldCtx, "mul", lambda ctx, a, b:
                            products.append(a) or mul(ctx, a, b))
        rng = random.Random(m)
        for size in range(1, 5):
            for x in (0, 1, (1 << m) - 1, rng.getrandbits(m)):
                key = [rng.getrandbits(m) for _ in range(size)]
                out_bits = rng.randint(1, m)
                products.clear()
                got = twise_poly(key, x, m, out_bits)
                assert len(products) == size - 1
                assert got == twise_poly_from_zero(key, x, m, out_bits)

    @pytest.mark.parametrize("m", [8, 40, 128])
    def test_one_coefficient_refuses_x_outside_the_field(self, m):
        for bad in (-1, 1 << m):
            with pytest.raises(ValueError) as want:
                field(m).check(bad)
            with pytest.raises(ValueError) as got:
                twise_poly([1], bad, m, 1)
            assert str(got.value) == str(want.value)


class TestExtractionDistance:
    """Extractor output joined with seed and leakage must sit within
    half the square root of 2^(ell - residual min-entropy) of uniform."""

    @staticmethod
    def exact_distance(n, ell, q):
        # satellite strings: P(x|z) factors per symbol as 1-q / q
        agree, flip = 1 - Fraction(q), Fraction(q)
        dist = Fraction(0)
        for z in itertools.product((0, 1), repeat=n):
            for sp in range(1 << n):
                seed = ExtractorSeed(sp, n, ell)
                mass = [Fraction(0)] * (1 << ell)
                for x in itertools.product((0, 1), repeat=n):
                    px = math.prod(
                        agree if xi == zi else flip for xi, zi in zip(x, z))
                    xi = int("".join(map(str, x)), 2)
                    mass[hprime(xi, seed)] += px
                sd = sum(abs(m - Fraction(1, 1 << ell)) for m in mass) / 2
                dist += Fraction(1, 1 << (2 * n)) * sd  # z and seed uniform
        return dist

    def test_blind_eve(self):
        got = self.exact_distance(3, 2, Fraction(1, 2))
        # only the zero seed deviates: (1/8) * (1 - 1/4)
        assert got == Fraction(3, 32)
        bound = 0.5 * math.sqrt(2.0 ** (2 - 3))
        assert float(got) <= bound

    def test_correlated_eve(self):
        got = self.exact_distance(3, 1, Fraction(1, 4))
        residual = -3 * math.log2(0.75)
        bound = 0.5 * math.sqrt(2.0 ** (1 - residual))
        assert float(got) <= bound


def split_cases(n, rng):
    """(name, x -> h(x), k -> split pair, split points) for each family at
    width n with random seeds: the linear families at a sweep of k, h_cca
    at its own split point t for t = 1 and t = n/2."""
    out = rng.randint(1, n)
    es = ExtractorSeed(rng.getrandbits(n), n, out)
    rs = ReconSeed(rng.getrandbits(n), n, out)
    ma = rng.getrandbits(n + out)
    ks = sorted({0, 1, n // 2, n - 1, n, rng.randint(0, n)})
    yield ("hprime", lambda x: hprime(x, es),
           lambda k: hprime_split(es, k), ks)
    yield ("h_cea", lambda x: h_cea(x, rs),
           lambda k: h_cea_split(rs, k), ks)
    yield ("mul_add", lambda x: mul_add(x, ma, n, out),
           lambda k: mul_add_split(ma, n, out, k), ks)
    for t in sorted({1, n // 2}):
        sv = split_seed(rng.getrandbits(n), n, n - t)
        seed = ReconSeed(rng.getrandbits(n), n, t)
        yield (f"h_cca t={t}", lambda x, sv=sv, seed=seed: h_cca(x, sv, seed),
               lambda k, sv=sv, seed=seed: h_cca_split(sv, seed), [t])


class TestSplitPairs:
    """Each family's split pair against its per-x hash: the halves at the
    split point, the tabulation over all 2^n inputs and the inverse."""

    @pytest.mark.parametrize("n", [2, 3, 8, 24, 64])
    def test_halves_recombine(self, n):
        rng = random.Random(0x5A17 + n)
        for _ in range(6):
            for name, h, build, ks in split_cases(n, rng):
                xs = ([*range(1 << n)] if n <= 8 else
                      [0, (1 << n) - 1] + [rng.getrandbits(n)
                                           for _ in range(40)])
                for k in ks:
                    top, bottom = build(k)
                    got = [top(x >> k) ^ bottom(x & ((1 << k) - 1))
                           for x in xs]
                    assert got == [h(x) for x in xs], (name, k)

    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_table_and_preimage_match_per_x_hashing(self, n):
        rng = random.Random(0x7AB + n)
        for _ in range(4):
            for name, h, build, ks in split_cases(n, rng):
                want = [h(x) for x in range(1 << n)]
                for k in ks:
                    pair = build(k)
                    assert split_table(pair, n, k) == want, (name, k)
                    values = sorted(set(want))
                    for v in rng.sample(values, min(4, len(values))) + [
                            max(want) + 1]:
                        assert split_preimage(pair, n, k, v) == [
                            x for x, hx in enumerate(want) if hx == v], \
                            (name, k, v)

    def test_preimage_at_n24(self):
        # too wide to enumerate: every returned x hashes to v, and a random
        # x lies in the preimage of its own value
        n, t = 24, 12
        rng = random.Random(0x24)
        for _ in range(2):
            sv = split_seed(rng.getrandbits(n), n, n - t)
            seed = ReconSeed(rng.getrandbits(n), n, t)
            x0 = rng.getrandbits(n)
            v = h_cca(x0, sv, seed)
            got = split_preimage(h_cca_split(sv, seed), n, t, v)
            assert x0 in got
            assert all(h_cca(x, sv, seed) == v for x in got)

    def test_seed_outside_its_field_is_refused_alike(self):
        # stand-in seeds skip the seed classes' own checks, so the family
        # and the pair each meet the out-of-field element themselves
        n, out = 5, 3
        cases = [
            (lambda: hprime(1, SimpleNamespace(sprime=1 << n, width=n,
                                               ell=out)),
             lambda: hprime_split(SimpleNamespace(sprime=1 << n, width=n,
                                                  ell=out), 2)),
            (lambda: h_cea(1, SimpleNamespace(s=1 << n, n=n, t=out)),
             lambda: h_cea_split(SimpleNamespace(s=1 << n, n=n, t=out), 2)),
            (lambda: mul_add(1, 1 << (n + out), n, out),
             lambda: mul_add_split(1 << (n + out), n, out, 2)),
            (lambda: h_cca(0, split_seed(0, 4, 3), ReconSeed(0, 4, 2)),
             lambda: h_cca_split(split_seed(0, 4, 3), ReconSeed(0, 4, 2))),
            (lambda: h_cca(0, split_seed(0, 4, 1), ReconSeed(0, 4, 3)),
             lambda: h_cca_split(split_seed(0, 4, 1), ReconSeed(0, 4, 3))),
        ]
        for family, pair in cases:
            with pytest.raises((ValueError, MalformedError)) as want:
                family()
            with pytest.raises(want.type) as got:
                pair()
            assert str(got.value) == str(want.value)
        for seed in (ExtractorSeed, ReconSeed):
            with pytest.raises(MalformedError, match="outside its field"):
                seed(1 << n, n, out)

    def test_split_point_outside_the_field_is_refused(self):
        seed = ReconSeed(3, 4, 2)
        for k in (-1, 5):
            with pytest.raises(MalformedError, match="split point"):
                h_cea_split(seed, k)
