"""Field arithmetic tests.

The reference oracle here is an independent schoolbook implementation
(naive shift-and-add multiply, bit-by-bit long division) so every fast-path
result is cross-checked against a second route.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from prekem.gf2 import (
    BYTE_TABLE_USES,
    EXTRA_POLYS,
    POLY_TABLE,
    FieldCtx,
    _irreducible_rabin,
    block,
    clmul,
    field,
    find_irreducible,
)


def naive_clmul(a: int, b: int) -> int:
    """Schoolbook carryless multiply: one shifted copy of a per set bit of b."""
    prod = 0
    for i in range(b.bit_length()):
        if (b >> i) & 1:
            prod ^= a << i
    return prod


def naive_mul(a: int, b: int, m: int, poly: int) -> int:
    """Schoolbook carryless multiply then bit-by-bit reduction."""
    prod = naive_clmul(a, b)
    for i in range(prod.bit_length() - 1, m - 1, -1):
        if (prod >> i) & 1:
            prod ^= poly << (i - m)
    return prod


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


class TestMulBy:
    @pytest.mark.parametrize("m", range(1, 9))
    def test_exhaustive_small(self, m):
        f = field(m)
        for k in range(1 << m):
            times_k = f.mul_by(k)
            assert [times_k(x) for x in range(1 << m)] == \
                [f.mul(k, x) for x in range(1 << m)], k

    @pytest.mark.parametrize("m", WIDE + (16, 61))
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

    @pytest.mark.parametrize("m", [1, 8, 13, 128])
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


# a use count on each side of the switch from nibble to byte tables
TABLE_USES = (1, BYTE_TABLE_USES - 1, BYTE_TABLE_USES, 1 << 20)


class TestMulByTableWidths:
    """mul_by(k, uses) picks nibble or byte tables by uses; every width
    must give the schoolbook product and refuse what mul refuses."""

    @pytest.mark.parametrize("uses", TABLE_USES)
    @pytest.mark.parametrize("m", range(1, 9))
    def test_exhaustive_small(self, m, uses):
        f = field(m)
        for k in range(1 << m):
            times_k = f.mul_by(k, uses)
            assert [times_k(x) for x in range(1 << m)] == \
                [naive_mul(k, x, m, f.poly) for x in range(1 << m)], k

    # 12, 20 and 553 have an odd number of nibbles, 13 a part-filled top byte
    @pytest.mark.parametrize("uses", TABLE_USES)
    @pytest.mark.parametrize("m", (12, 13, 20, 24, 128, 527, 553, 1080))
    def test_random_wide(self, m, uses):
        f = field(m)
        rng = random.Random(m * 7919 + uses)
        ks = [0, 1, (1 << m) - 1] + [rng.getrandbits(m) for _ in range(3)]
        for k in ks:
            times_k = f.mul_by(k, uses)
            for x in [0, 1, 1 << (m - 1), (1 << m) - 1] + \
                    [rng.getrandbits(m) for _ in range(6)]:
                assert times_k(x) == naive_mul(k, x, m, f.poly), (k, x)

    @pytest.mark.parametrize("m", [1, 8, 13, 128])
    def test_out_of_range_rejected_alike(self, m):
        f = field(m)
        for bad in (-1, 1 << m, 1 << (m + 9)):
            with pytest.raises(ValueError) as want:
                f.mul(bad, 1)
            for uses in TABLE_USES:
                with pytest.raises(ValueError) as as_k:
                    f.mul_by(bad, uses)
                with pytest.raises(ValueError) as as_x:
                    f.mul_by(1, uses)(bad)
                assert str(as_k.value) == str(as_x.value) == str(want.value)


class TestInverse:
    def test_exhaustive_search_m3(self):
        f = field(3)
        for a in range(1, 8):
            # independent route: scan for the inverse
            inverses = [b for b in range(8) if naive_mul(a, b, 3, f.poly) == 1]
            assert inverses == [f.inv(a)]

    @pytest.mark.parametrize("m", [1, 2, 5, 8])
    def test_all_inverses(self, m):
        f = field(m)
        for a in range(1, 1 << m):
            assert f.mul(a, f.inv(a)) == 1

    def test_inv_one(self):
        assert field(7).inv(1) == 1

    def test_inv_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            field(7).inv(0)


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
        assert f.inv(a) == 0b101

    def test_out_of_range_element(self):
        with pytest.raises(ValueError):
            field(3).mul(8, 1)

    @pytest.mark.parametrize("m", [1, 3, 8, 527])
    def test_context_from_width_alone(self, m):
        f = FieldCtx(m)
        assert f.poly == find_irreducible(m) and f.poly.bit_length() == m + 1
        assert f == field(m)


class TestSerialization:
    @pytest.mark.parametrize("m", [3, 8, 13, 61])
    def test_round_trip(self, m):
        f = field(m)
        for a in (0, 1, (1 << m) - 1, 0b1010101 % (1 << m)):
            data = f.to_bytes(a)
            assert len(data) == (m + 7) // 8
            assert f.from_bytes(data) == a

    def test_big_endian(self):
        assert field(16).to_bytes(0x0102) == b"\x01\x02"

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            field(16).from_bytes(b"\x01")


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

    def test_rabin_matches_trial_division(self):
        # every polynomial of degree 1..12, constant term or not
        mismatches = [f for f in range(2, 1 << 13)
                      if _irreducible_rabin(f) != _trial_irreducible(f)]
        assert mismatches == []

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
        assert ctx.mul(3, ctx.inv(3)) == 1


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
