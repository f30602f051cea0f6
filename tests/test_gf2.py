"""Field arithmetic tests.

The reference oracle here is an independent schoolbook implementation
(naive shift-and-add multiply, bit-by-bit long division) so every fast-path
result is cross-checked against a second route.
"""

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from prekem import gf2
from prekem.gf2 import (
    EXTRA_POLYS,
    POLY_TABLE,
    FieldCtx,
    _irreducible,
    _middle_terms,
    _mod_sparse,
    _poly_gcd,
    _sqr,
    clmul,
    field,
    find_irreducible,
)

from oracles import block, naive_clmul, naive_mul


def inverse(f, a: int) -> int:
    """a^(2^m - 2) by f.pow: a's inverse for every nonzero a, by Fermat."""
    return f.pow(a, (1 << f.m) - 2)


class TestMulOracle:
    def test_full_table_m3(self):
        f = field(3)
        for a in range(8):
            for b in range(8):
                assert f.mul(a, b) == naive_mul(a, b, 3, f.poly)

    def test_full_table_m4(self):
        f = field(4)
        for a in range(16):
            for b in range(16):
                assert f.mul(a, b) == naive_mul(a, b, 4, f.poly)

    def test_spec_values_m3(self):
        f = field(3)
        assert f.poly == 0b1011
        assert f.mul(0b010, 0b011) == 0b110
        assert f.mul(0b010, 0b101) == 0b001
        assert f.pow(0b010, 3) == 0b011

    @given(a=st.integers(0, 2**61 - 1), b=st.integers(0, 2**61 - 1))
    @settings(max_examples=60)
    def test_against_naive_m61(self, a, b):
        f = field(61)
        assert f.mul(a, b) == naive_mul(a, b, 61, f.poly)


WIDE = (24, 40, 128, 527, 553, 1080)


def edge_and_random(m: int, count: int = 24):
    """Operand pairs at width m: the edges (0, 1, all ones, top bit only),
    pairs of very unequal length both ways round, then seeded random pairs."""
    top, ones = 1 << (m - 1), (1 << m) - 1
    edges = (0, 1, 2, ones, top, top | 1)
    pairs = [(a, b) for a in edges for b in edges]
    rng = random.Random(m)
    for _ in range(count):
        a, b = rng.getrandbits(m), rng.getrandbits(rng.randrange(1, m + 1))
        pairs += [(a, b), (b, a)]
    return pairs


class TestWindowedClmul:
    @pytest.mark.parametrize("m", range(1, 9))
    def test_exhaustive_small(self, m):
        for a in range(1 << m):
            for b in range(1 << m):
                assert clmul(a, b) == naive_clmul(a, b), (a, b)

    @pytest.mark.parametrize("m", WIDE)
    def test_edges_and_random_wide(self, m):
        for a, b in edge_and_random(m):
            assert clmul(a, b) == naive_clmul(a, b), (m, a, b)

    def test_operands_of_any_length(self):
        # clmul is plain polynomial arithmetic: no width bound applies
        a, b = (1 << 2000) | 0xDEADBEEF, 0b1011
        assert clmul(a, b) == clmul(b, a) == naive_clmul(a, b)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_field_mul_exhaustive_small(self, m):
        f = field(m)
        for a in range(1 << m):
            for b in range(1 << m):
                assert f.mul(a, b) == naive_mul(a, b, m, f.poly)

    @pytest.mark.parametrize("m", WIDE)
    def test_field_mul_wide(self, m):
        f = field(m)
        for a, b in edge_and_random(m, count=8):
            assert f.mul(a, b) == naive_mul(a, b, m, f.poly)


# every tabled width that multiplies by windows rather than log tables
TABLED_WIDE = sorted(m for m in set(POLY_TABLE) | set(EXTRA_POLYS)
                     if m > gf2.LOG_WIDTH)


class TestMulBy:
    @pytest.mark.parametrize("m", range(1, 9))
    def test_exhaustive_small(self, m):
        f = field(m)
        for k in range(1 << m):
            times_k = f.mul_by(k)
            assert [times_k(x) for x in range(1 << m)] == \
                [f.mul(k, x) for x in range(1 << m)], k

    @pytest.mark.parametrize("m", TABLED_WIDE)
    def test_random_wide(self, m):
        f = field(m)
        for k, x in edge_and_random(m, count=12):
            assert f.mul_by(k)(x) == f.mul(k, x) == naive_mul(k, x, m, f.poly)

    def test_closure_is_reusable(self):
        f = field(128)
        times_k = f.mul_by(0x1234567890ABCDEF << 60)
        xs = [random.Random(i).getrandbits(128) for i in range(20)]
        assert [times_k(x) for x in xs] == [times_k(x) for x in xs]
        assert [times_k(x) for x in xs] == [f.mul(x, times_k(1)) for x in xs]

    @pytest.mark.parametrize("m", [1, 8] + TABLED_WIDE)
    def test_out_of_range_rejected_like_mul(self, m):
        f = field(m)
        for bad in (-1, 1 << m, 1 << (m + 9)):
            with pytest.raises(ValueError) as want:
                f.mul(bad, 1)
            with pytest.raises(ValueError) as got:
                f.mul_by(bad)
            assert str(got.value) == str(want.value)
            with pytest.raises(ValueError) as want:
                f.mul(1, bad)
            with pytest.raises(ValueError) as got:
                f.mul_by(1)(bad)
            assert str(got.value) == str(want.value)


def packed(xs, m):
    """xs in 2m-bit lanes, xs[i] in lane i from the bottom."""
    return sum(x << (2 * m * i) for i, x in enumerate(xs))


def by_lanes(f, k, lanes, xs):
    """k*x for every x in xs through lanes_by(k, lanes), `lanes` elements to
    a packed int, the last int part-filled when lanes does not divide."""
    times_k, m = f.lanes_by(k, lanes), f.m
    out = []
    for i in range(0, len(xs), lanes):
        chunk = xs[i:i + lanes]
        got = times_k(packed(chunk, m))
        out += [(got >> (2 * m * j)) & f._mask for j in range(len(chunk))]
        assert got >> (2 * m * len(chunk)) == 0
    return out


# lane counts: one lane, an odd count just under the MAC's 256 streams, and
# 256 itself
LANE_COUNTS = (1, 255, 256)


class TestMulByTableWidths:
    """The two fixed-multiplicand maps, mul_by and lanes_by's packed lanes,
    at every small width and at wide ones with an odd nibble count or a
    part-filled top byte, must give the schoolbook product for lane counts
    that fill, split or undershoot the elements, and refuse what mul
    refuses."""

    @pytest.mark.parametrize("lanes", LANE_COUNTS)
    @pytest.mark.parametrize("m", range(1, 9))
    def test_exhaustive_small(self, m, lanes):
        f = field(m)
        xs = list(range(1 << m))
        for k in range(1 << m):
            want = [naive_mul(k, x, m, f.poly) for x in xs]
            times_k = f.mul_by(k)
            assert [times_k(x) for x in xs] == want, k
            assert by_lanes(f, k, lanes, xs) == want, k

    # 12, 20 and 553 have an odd number of nibbles, 13 a part-filled top byte
    @pytest.mark.parametrize("lanes", LANE_COUNTS)
    @pytest.mark.parametrize("m", (12, 13, 20, 24, 72, 128, 256, 527, 553,
                                   1080))
    def test_random_wide(self, m, lanes):
        f = field(m)
        rng = random.Random(m * 7919 + lanes)
        top = (1 << m) - 1
        for k in [0, 1, top, rng.getrandbits(m)]:
            times_k = f.mul_by(k)
            # enough elements to fill 256 lanes and spill into a second int
            xs = [0, 1, 1 << (m - 1), top] + \
                [rng.getrandbits(m) for _ in range(min(lanes, 256) + 2)]
            want = [naive_mul(k, x, m, f.poly) for x in xs]
            assert [times_k(x) for x in xs] == want, k
            assert by_lanes(f, k, lanes, xs) == want, k

    @pytest.mark.parametrize("m", [1, 8, 13, 128])
    def test_out_of_range_rejected_alike(self, m):
        f = field(m)
        for bad in (-1, 1 << m, 1 << (m + 9)):
            with pytest.raises(ValueError) as want:
                f.mul(bad, 1)
            with pytest.raises(ValueError) as as_k:
                f.mul_by(bad)
            with pytest.raises(ValueError) as as_x:
                f.mul_by(1)(bad)
            with pytest.raises(ValueError) as as_lane_k:
                f.lanes_by(bad, 4)
            assert str(as_k.value) == str(as_x.value) == \
                str(as_lane_k.value) == str(want.value)


class TestLogTables:
    """Up to LOG_WIDTH, mul and mul_by read discrete-log tables, built by
    the first product; each must give the clmul reference's product,
    refuse what it refused, and stay out of the context's value."""

    @pytest.mark.parametrize("m", range(1, gf2.LOG_WIDTH + 1))
    def test_exhaustive_against_clmul(self, m):
        f = FieldCtx(m)
        assert f._clmul_mask == -1
        elements = range(1 << m)
        for k in elements:
            want = [_mod_sparse(clmul(k, x), m, f._tail_terms, f._mask)
                    for x in elements]
            assert [f.mul(k, x) for x in elements] == want, k
            times_k = f.mul_by(k)
            assert [times_k(x) for x in elements] == want, k

    @pytest.mark.parametrize("m", range(1, gf2.LOG_WIDTH + 1))
    def test_generator_has_full_order(self, m):
        exp, log = FieldCtx(m)._log_tables
        order = (1 << m) - 1
        powers = exp[:order]
        assert sorted(powers) == list(range(1, 1 << m))
        assert exp[order:2 * order] == powers and exp[order] == 1
        assert [log[e] for e in powers] == list(range(order))
        assert exp[2 * order:] == [0] * (2 * order + 1)
        assert log[0] == 2 * order

    def test_x_is_not_a_generator_under_the_aes_polynomial(self):
        f = FieldCtx(8)
        assert f.poly == 0x11B and f.pow(2, 51) == 1
        assert f._log_tables[0][1] == 3

    @pytest.mark.parametrize("m", range(1, gf2.LOG_WIDTH + 1))
    def test_out_of_range_keeps_its_error(self, m):
        f = FieldCtx(m)
        for bad in (-1, 1 << m, 1 << (m + 9)):
            text = f"0x{bad:x} is not a GF(2^{m}) element"
            for call in (lambda: f.mul(bad, 1), lambda: f.mul(1, bad),
                         lambda: f.mul(bad, -2), lambda: f.mul_by(bad),
                         lambda: f.mul_by(1)(bad)):
                with pytest.raises(ValueError) as got:
                    call()
                assert str(got.value) == text
        assert "_log_tables" in vars(f)  # mul_by(1) built them
        # a refused first product builds none
        f = FieldCtx(m)
        with pytest.raises(ValueError):
            f.mul(1 << m, 1)
        assert "_log_tables" not in vars(f)
        assert f.mul(1, 1) == 1
        with pytest.raises(ValueError) as got:
            f.mul(1, 1 << m)
        assert str(got.value) == f"0x{1 << m:x} is not a GF(2^{m}) element"

    def test_tables_wait_for_the_first_product(self):
        f = FieldCtx(8)
        f.check(0xFF)
        f.pow(0x53, 0)
        assert "_log_tables" not in vars(f)
        assert f.mul(0x53, 0xCA) == 1
        assert "_log_tables" in vars(f)

    def test_nine_bits_take_clmul(self, monkeypatch):
        calls = []
        monkeypatch.setattr(gf2, "clmul", lambda a, b: calls.append((a, b))
                            or clmul(a, b))
        f = FieldCtx(9)
        assert f._clmul_mask == f._mask == 511
        assert f.mul(0x1FF, 0x155) == naive_mul(0x1FF, 0x155, 9, f.poly)
        assert calls == [(0x1FF, 0x155)]
        # mul_by(k) builds the windows of k*x^4 and of k once; each product
        # walks x against them, through neither clmul nor mul
        built, muls = [], []
        windows, mul = gf2._windows, FieldCtx.mul
        monkeypatch.setattr(gf2, "_windows", lambda a: built.append(a)
                            or windows(a))
        monkeypatch.setattr(FieldCtx, "mul", lambda ctx, a, b:
                            muls.append((ctx.m, a, b)) or mul(ctx, a, b))
        times_k = f.mul_by(0x1FF)
        assert built == [0x1FF << 4, 0x1FF]
        xs = (0, 1, 0x155, 0x1FF)
        assert [times_k(x) for x in xs] == \
            [naive_mul(0x1FF, x, 9, f.poly) for x in xs]
        assert built == [0x1FF << 4, 0x1FF]
        assert muls == []
        assert calls == [(0x1FF, 0x155)]
        assert "_log_tables" not in vars(f)
        small = FieldCtx(8)
        small.mul(3, 7)
        calls.clear()
        assert small.mul(0xFF, 0x55) == naive_mul(0xFF, 0x55, 8, small.poly)
        assert calls == []

    def test_value_does_not_see_the_tables(self):
        built, fresh = FieldCtx(8), FieldCtx(8)
        built.mul(3, 7)
        built.mul_by(5)
        assert "_log_tables" in vars(built)
        assert "_log_tables" not in vars(fresh)
        assert built == fresh == field(8) and hash(built) == hash(fresh)
        assert repr(built) == repr(fresh) == "FieldCtx(m=8)"
        assert built != FieldCtx(9)


class TestInverse:
    def test_exhaustive_search_m3(self):
        f = field(3)
        for a in range(1, 8):
            # independent route: scan for the inverse
            inverses = [b for b in range(8) if naive_mul(a, b, 3, f.poly) == 1]
            assert inverses == [inverse(f, a)]

    @pytest.mark.parametrize("m", [1, 2, 5, 8])
    def test_all_inverses(self, m):
        f = field(m)
        for a in range(1, 1 << m):
            assert f.mul(a, inverse(f, a)) == 1

    def test_inv_one(self):
        assert inverse(field(7), 1) == 1

    def test_inv_zero_rejected(self):
        # 0 has no inverse, and the power route gives 0 for it
        f = field(7)
        assert all(f.mul(0, b) == 0 for b in range(1 << 7))
        assert inverse(f, 0) == 0


class TestFieldLaws:
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_exhaustive_ring_laws(self, m):
        f = field(m)
        els = range(1 << m)
        for a in els:
            for b in els:
                assert f.mul(a, b) == f.mul(b, a)
                for c in els:
                    assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
                    assert f.mul(a, b ^ c) == f.mul(a, b) ^ f.mul(a, c)

    @given(
        a=st.integers(0, 2**16 - 1),
        b=st.integers(0, 2**16 - 1),
        c=st.integers(0, 2**16 - 1),
    )
    @settings(max_examples=60)
    def test_property_laws_m16(self, a, b, c):
        f = field(16)
        assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
        assert f.mul(a, b ^ c) == f.mul(a, b) ^ f.mul(a, c)
        assert f.mul(a, 1) == a

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_pow_matches_iterated_mul(self, m):
        f = field(m)
        for a in range(1 << m):
            acc = 1
            for e in range(17):
                assert f.pow(a, e) == acc
                acc = f.mul(acc, a)

    def test_pow_identities(self):
        f = field(9)
        assert f.pow(0x1AB, 0) == 1
        assert f.pow(0x1AB, 1) == 0x1AB


class TestBlock:
    def test_full_range(self):
        assert block(0b1101, 4, 1, 4) == 0b1101

    def test_msb_first(self):
        assert block(0b1101, 4, 1, 2) == 0b11
        assert block(0b1101, 4, 3, 4) == 0b01

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            block(0b1101, 4, 0, 2)
        with pytest.raises(ValueError):
            block(0b1101, 4, 3, 5)
        with pytest.raises(ValueError):
            block(0b10000, 4, 1, 2)

    @given(x=st.integers(0, 2**12 - 1), t=st.integers(1, 12))
    @settings(max_examples=50)
    def test_truncation_idempotent(self, x, t):
        head = block(x, 12, 1, t)
        # zero-extend back to 12 bits, truncate again
        assert block(head << (12 - t), 12, 1, t) == head


class TestContexts:
    def test_fe_operators(self):
        f = field(3)
        a, b = 0b010, 0b011
        assert a ^ b == 0b001
        assert f.mul(a, b) == 0b110
        assert f.pow(a, 3) == 0b011
        assert inverse(f, a) == 0b101

    def test_out_of_range_element(self):
        with pytest.raises(ValueError):
            field(3).mul(8, 1)

    @pytest.mark.parametrize("m", [1, 3, 8, 527])
    def test_context_from_width_alone(self, m):
        f = FieldCtx(m)
        assert f.poly == find_irreducible(m) and f.poly.bit_length() == m + 1
        assert f == field(m)


class TestPolyTable:
    def test_known_anchors(self):
        # published low-weight values: AES field, GCM field
        assert POLY_TABLE[8] == 0x11B
        assert POLY_TABLE[128] == (1 << 128) | 0x87

    def test_table_polys_irreducible_sympy(self):
        from sympy.polys.domains import ZZ
        from sympy.polys.galoistools import gf_irreducible_p

        for m in (2, 3, 8, 16, 31, 32, 48, 64, 80, 96, 128, 256):
            f = POLY_TABLE[m]
            coeffs = [ZZ((f >> i) & 1) for i in range(m, -1, -1)]
            assert gf_irreducible_p(coeffs, 2, ZZ), m

    def test_extra_polys_irreducible_frobenius(self):
        # Independent route (Rabin's criterion with this file's own schoolbook
        # arithmetic): x^(2^m) == x mod f, and gcd(x^(2^(m/p)) + x, f) = 1 for
        # every prime p | m.
        def sq_mod(r, f, m):
            prod = 0
            for i in range(r.bit_length()):
                if (r >> i) & 1:
                    prod ^= r << i
            for i in range(prod.bit_length() - 1, m - 1, -1):
                if (prod >> i) & 1:
                    prod ^= f << (i - m)
            return prod

        def poly_gcd(a, b):
            while b:
                while a.bit_length() >= b.bit_length() and a:
                    a ^= b << (a.bit_length() - b.bit_length())
                a, b = b, a
            return a

        def primes(m):
            out, d = set(), 2
            while d * d <= m:
                while m % d == 0:
                    out.add(d)
                    m //= d
                d += 1
            if m > 1:
                out.add(m)
            return out

        for m, f in EXTRA_POLYS.items():
            assert f.bit_length() - 1 == m
            r, chain = 2, {0: 2}
            for k in range(1, m + 1):
                r = sq_mod(r, f, m)
                chain[k] = r
            assert chain[m] == 2, f"x^(2^{m}) != x"
            for p in primes(m):
                assert poly_gcd(f, chain[m // p] ^ 2) == 1, f"subfield gcd at {m}/{p}"

    def test_table_minimality_small(self):
        # no irreducible candidate below the table entry at equal or lower weight
        for m in (4, 8, 12):
            entry = POLY_TABLE[m]
            weight = bin(entry).count("1")
            for cand in range((1 << m) + 1, entry, 2):
                if cand.bit_length() - 1 != m:
                    continue
                if _trial_irreducible(cand):
                    assert bin(cand).count("1") > weight, (m, bin(cand))

    def test_irreducible_matches_trial_division(self):
        # every polynomial of degree 1..12, constant term or not
        mismatches = [f for f in range(2, 1 << 13)
                      if _irreducible(f) != _trial_irreducible(f)]
        assert mismatches == []

    @pytest.mark.parametrize("m", [8, 16])
    def test_no_trinomial_irreducible_at_multiples_of_8(self, m):
        # Swan's theorem, which lets the search skip trinomials at these m
        assert not any(_trial_irreducible((1 << m) | (1 << k) | 1)
                       for k in range(1, m))

    def test_search_for_gap_width(self):
        # a width outside the table: search result must be irreducible per an
        # independent route and usable as a context
        from sympy.polys.domains import ZZ
        from sympy.polys.galoistools import gf_irreducible_p

        f = find_irreducible(66)
        assert f.bit_length() - 1 == 66
        coeffs = [ZZ((f >> i) & 1) for i in range(66, -1, -1)]
        assert gf_irreducible_p(coeffs, 2, ZZ)
        ctx = field(66)
        assert ctx.mul(3, inverse(ctx, 3)) == 1


def _rabin_irreducible(f: int) -> bool:
    """Rabin's test, as the search used before Ben-Or's: x^(2^m) == x mod f,
    and gcd(x^(2^(m/p)) - x, f) = 1 for every prime p | m."""
    m = f.bit_length() - 1
    if m < 1:
        return False
    if m == 1:
        return True
    if not (f & 1):
        return False
    mask = (1 << m) - 1
    tail = f ^ (1 << m)
    terms = tuple(i for i in range(tail.bit_length()) if (tail >> i) & 1)
    primes, rest, d = set(), m, 2
    while d * d <= rest:
        while rest % d == 0:
            primes.add(d)
            rest //= d
        d += 1
    if rest > 1:
        primes.add(rest)
    r, k = 2, 0
    for cp in sorted(m // p for p in primes):
        while k < cp:
            r = _mod_sparse(_sqr(r), m, terms, mask)
            k += 1
        if _poly_gcd(f, r ^ 2) != 1:
            return False
    while k < m:
        r = _mod_sparse(_sqr(r), m, terms, mask)
        k += 1
    return r == 2


def _rabin_search(m: int) -> int:
    """The lowest-weight, then lowest-value, irreducible of degree m by
    Rabin's test, trying every weight (no skip of trinomials)."""
    for extra in range(1, m, 2):
        for v in _middle_terms(m, extra):
            if _rabin_irreducible((1 << m) | v | 1):
                return (1 << m) | v | 1


class TestSearch:
    """find_irreducible with the built-in tables bypassed, so every width
    runs the Ben-Or search."""

    @pytest.fixture(autouse=True)
    def no_tables(self, monkeypatch):
        monkeypatch.setattr(gf2, "POLY_TABLE", {})
        monkeypatch.setattr(gf2, "EXTRA_POLYS", {})

    def test_matches_rabin_oracle(self):
        mismatches = [m for m in range(2, 97)
                      if find_irreducible(m) != _rabin_search(m)]
        assert mismatches == []

    def test_reproduces_the_tables(self):
        want = {m: f for m, f in POLY_TABLE.items() if m >= 2}
        want.update((m, EXTRA_POLYS[m]) for m in (527, 553))
        assert {m: find_irreducible(m) for m in want} == want

    def test_width_1000_within_seconds(self):
        start = time.perf_counter()
        f = find_irreducible(1000)
        assert time.perf_counter() - start < 5.0
        assert f.bit_length() == 1001 and _irreducible(f)


def _trial_irreducible(f: int) -> bool:
    """Trial division by every polynomial of degree 1..m/2."""
    m = f.bit_length() - 1
    if m < 1:
        return False
    for d in range(2, 1 << (m // 2 + 1)):
        if d.bit_length() - 1 < 1 or d.bit_length() - 1 > m // 2:
            continue
        r = f
        while r.bit_length() >= d.bit_length():
            r ^= d << (r.bit_length() - d.bit_length())
        if r == 0:
            return False
    return True
