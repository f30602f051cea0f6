"""Exact arithmetic in binary extension fields GF(2^m).

Elements are non-negative Python ints below 2^m, read as polynomials over
GF(2) with bit i holding the coefficient of x^i.  Rendered as an m-bit
string, the most-significant bit comes first, so "bit 1" of the string is
the coefficient of x^(m-1).  The hash families' truncations (the top t
bits of a product) index in that MSB-first convention.

Each width has one reduction polynomial: the lowest-weight irreducible of
that degree (minimal number of terms, ties broken by smallest integer
encoding), read from a built-in table or found by a search that tests
each candidate with Ben-Or's irreducibility test.

Multiplication is table-driven, by a path each context fixes from m.  Up to
LOG_WIDTH = 8 bits, a product is two reads of discrete-log tables over a
generator g of GF(2^m)*: a*b = exp[log a + log b], with exp stored twice
over so the sum needs no mod.  The tables are built by the context's first
mul or mul_by, so a context that never multiplies never builds them.  Wider
fields take the generic product (clmul), which forms the 16 multiples of
one operand and walks the other a 4-bit window at a time, then reduces by
the sparse tail of the polynomial; clmul is also the tests' reference for
the tables.  Two maps serve a fixed multiplicand k.  FieldCtx.mul_by(k) is
one log read and one exp read up to LOG_WIDTH.  Wider, it builds k's 16
window multiples, and their copies shifted by 4, once; each product then
walks x a byte at a time with one read from each table and no shift of
the multiples, and reduces as mul does.  FieldCtx.lanes_by(k, lanes)
multiplies many elements by k at once: they sit in 2m-bit lanes of one
int, whose clmul by k is reduced in every lane together by shifts and
masks.
"""

from __future__ import annotations

import functools

from .value import Value, set_field, set_fields

# Lowest-weight irreducible polynomial of degree m, encoded with bit m set.
# Each entry m >= 2 is what find_irreducible's search returns (see tests),
# cross-checked by trial division (m <= 24) and by an independent
# computer-algebra system.  Matches the widely published
# low-weight tables (e.g. 0x11b at m=8, x^128+x^7+x^2+x+1 at m=128).
POLY_TABLE = {
    1: 0x2,
    2: 0x7,
    3: 0xB,
    4: 0x13,
    5: 0x25,
    6: 0x43,
    7: 0x83,
    8: 0x11B,
    9: 0x203,
    10: 0x409,
    11: 0x805,
    12: 0x1009,
    13: 0x201B,
    14: 0x4021,
    15: 0x8003,
    16: 0x1002B,
    17: 0x20009,
    18: 0x40009,
    19: 0x80027,
    20: 0x100009,
    21: 0x200005,
    22: 0x400003,
    23: 0x800021,
    24: 0x100001B,
    25: 0x2000009,
    26: 0x400001B,
    27: 0x8000027,
    28: 0x10000003,
    29: 0x20000005,
    30: 0x40000003,
    31: 0x80000009,
    32: 0x10000008D,
    33: 0x200000401,
    34: 0x400000081,
    35: 0x800000005,
    36: 0x1000000201,
    37: 0x2000000053,
    38: 0x4000000063,
    39: 0x8000000011,
    40: 0x10000000039,
    41: 0x20000000009,
    42: 0x40000000081,
    43: 0x80000000059,
    44: 0x100000000021,
    45: 0x20000000001B,
    46: 0x400000000003,
    47: 0x800000000021,
    48: 0x100000000002D,
    49: 0x2000000000201,
    50: 0x400000000001D,
    51: 0x800000000004B,
    52: 0x10000000000009,
    53: 0x20000000000047,
    54: 0x40000000000201,
    55: 0x80000000000081,
    56: 0x100000000000095,
    57: 0x200000000000011,
    58: 0x400000000080001,
    59: 0x800000000000095,
    60: 0x1000000000000003,
    61: 0x2000000000000027,
    62: 0x4000000020000001,
    63: 0x8000000000000003,
    64: 0x1000000000000001B,
    80: 0x100000000000000000215,
    96: 0x1000000000000000000000641,
    128: 0x100000000000000000000000000000087,
    256: 0x10000000000000000000000000000000000000000000000000000000000000425,
}

# Frozen results of find_irreducible for the widths the shipped parameter
# profiles use, so instantiating them does not re-run the search.  Each value
# is exactly what the search returns (sympy-verified; see tests).
EXTRA_POLYS = {
    527: (1 << 527) | (1 << 47) | 1,
    553: (1 << 553) | (1 << 39) | 1,
    1080: (1 << 1080) | (1 << 15) | (1 << 9) | (1 << 6) | 1,
}

# Widths beyond this are refused outright; the constructions never need them.
# Off the tables, the search takes seconds up to m ~ 3000 (about 5 s at 1536
# and 2048, 3 s at 3000 on a 2-vCPU VM), 37-44 s at 4096, unmeasured at 8192.
MAX_WIDTH = 8192

# Widths up to this multiply by discrete-log tables, of 2^m and 4*2^m entries.
LOG_WIDTH = 8


def _windows(a: int):
    """The 16 multiples a*w, for w of degree below 4, indexed by w: the
    table that clmul and mul_by's wide map read each nibble's multiple
    from."""
    a2 = a << 1
    a3 = a2 ^ a
    a4 = a << 2
    a8 = a << 3
    a5, a6, a7 = a4 ^ a, a4 ^ a2, a4 ^ a3
    return (0, a, a2, a3, a4, a5, a6, a7,
            a8, a8 ^ a, a8 ^ a2, a8 ^ a3, a8 ^ a4, a8 ^ a5, a8 ^ a6, a8 ^ a7)


def clmul(a: int, b: int) -> int:
    """Carryless (GF(2)[x]) product of two int-encoded polynomials.

    4-bit windowed: the 16 multiples of the larger operand are formed once,
    then the smaller one is walked from the top a byte, i.e. two nibbles, at
    a time.  A smaller operand of one nibble needs only its own multiple.
    """
    if a < b:
        a, b = b, a
    if b < 16:
        return ((a if b & 1 else 0) ^ (a << 1 if b & 2 else 0)
                ^ (a << 2 if b & 4 else 0) ^ (a << 3 if b & 8 else 0))
    tab = _windows(a)
    acc = 0
    for c in b.to_bytes((b.bit_length() + 7) >> 3, "big"):
        acc = (acc << 8) ^ (tab[c >> 4] << 4) ^ tab[c & 15]
    return acc


def _poly_mod(a: int, b: int) -> int:
    db = b.bit_length()
    while a.bit_length() >= db:
        a ^= b << (a.bit_length() - db)
    return a


def _poly_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, _poly_mod(a, b)
    return a


def _sqr(a: int) -> int:
    """Square of a GF(2)[x] polynomial: interleave a zero after every bit."""
    if a < 2:
        return a
    return int("0".join(bin(a)[2:]) + "0", 2) >> 1


def _mod_sparse(a: int, m: int, tail_terms, mask: int) -> int:
    """a mod f where f = x^m + tail; tail_terms are the tail's exponents."""
    while True:
        hi = a >> m
        if not hi:
            return a
        a &= mask
        for e in tail_terms:
            a ^= hi << e
        if not tail_terms:
            return a


def _irreducible(f: int) -> bool:
    """Ben-Or's test: f of degree m >= 1 is irreducible iff it shares no
    factor with x^(2^i) - x, the product of the irreducibles of degree
    dividing i, for any i = 1..m/2.  Reducible f mostly fail at small i."""
    m = f.bit_length() - 1
    mask = (1 << m) - 1
    tail = f ^ (1 << m)
    terms = tuple(i for i in range(tail.bit_length()) if (tail >> i) & 1)
    r = 2
    for _ in range(m // 2):
        r = _mod_sparse(_sqr(r), m, terms, mask)
        if _poly_gcd(f, r ^ 2) != 1:
            return False
    return True


def find_irreducible(m: int) -> int:
    """Lowest-weight, then lowest-value, irreducible polynomial of degree m.

    Used for widths outside POLY_TABLE (the constructions build GF(2^n) for
    whatever sample length n the source declares).
    """
    if m in POLY_TABLE:
        return POLY_TABLE[m]
    if m in EXTRA_POLYS:
        return EXTRA_POLYS[m]
    if not 1 <= m <= MAX_WIDTH:
        raise ValueError(f"field width {m} out of range 1..{MAX_WIDTH}")
    top = 1 << m
    # Swan (1962): no trinomial of degree m = 0 mod 8 is irreducible
    for extra in range(3 if m % 8 == 0 else 1, m, 2):  # odd weight, x^0 set
        for v in _middle_terms(m, extra):
            if _irreducible(top | v | 1):
                return top | v | 1
    raise ValueError(f"no irreducible polynomial found for m={m}")  # unreachable


def _middle_terms(m: int, count: int, lo: int = 1):
    """Sums of `count` distinct powers 2^p, lo <= p < m, ascending by value."""
    if count == 0:
        yield 0
        return
    for p in range(lo + count - 1, m):  # highest position dominates the value
        for rest in _middle_terms(p, count - 1, lo):
            yield (1 << p) | rest


class FieldCtx(Value):
    """Immutable GF(2^m) context; its poly is find_irreducible(m).

    m is the one field; poly, the reduction data derived from it and, up
    to LOG_WIDTH, the log tables and their product live in the instance
    __dict__.
    """

    __slots__ = ("m", "__dict__")

    def __init__(self, m: int) -> None:
        set_fields(self, m)
        set_field(self, "poly", find_irreducible(m))
        # Precompute the sparse reduction tail x^m = poly - x^m.
        set_field(self, "_mask", (1 << m) - 1)
        tail = self.poly ^ (1 << m)
        terms = tuple(i for i in range(tail.bit_length()) if (tail >> i) & 1)
        set_field(self, "_tail_terms", terms)
        # the operands mul hands to clmul: none up to LOG_WIDTH
        set_field(self, "_clmul_mask", -1 if m <= LOG_WIDTH else self._mask)

    # -- int-level arithmetic ------------------------------------------------

    def check(self, a: int) -> int:
        if not 0 <= a <= self._mask:
            raise ValueError(f"0x{a:x} is not a GF(2^{self.m}) element")
        return a

    def mul(self, a: int, b: int) -> int:
        # the range test is the dispatch: up to LOG_WIDTH it fails for every
        # operand, so wider fields pay no width test
        mask = self._clmul_mask
        if 0 <= a <= mask and 0 <= b <= mask:
            return _mod_sparse(clmul(a, b), self.m, self._tail_terms, mask)
        return self._log_product(a, b)

    def _log_product(self, a: int, b: int) -> int:
        """mul's product for operands clmul does not take.  One outside the
        field is refused; otherwise m <= LOG_WIDTH, and this first product
        builds the log tables' product, which takes this method's place on
        the instance, so later ones go straight to it."""
        self.check(a)
        self.check(b)
        exp, log = self._log_tables
        mask, check = self._mask, self.check

        def product(a: int, b: int) -> int:
            if not (0 <= a <= mask and 0 <= b <= mask):
                check(a)
                check(b)
            return exp[log[a] + log[b]]
        set_field(self, "_log_product", product)
        return product(a, b)

    @functools.cached_property
    def _log_tables(self):
        """(exp, log) over a generator g of GF(2^m)*, whose order is
        N = 2^m - 1: exp[i] = g^(i mod N) for i < 2N and log[g^i] = i, so
        a*b = exp[log[a] + log[b]] with no mod.  log[0] is 2N and exp is 0
        from there to 4N, so a zero operand reads 0.  g is the least
        element of order N (x itself is not one under 0x11B, at m = 8).
        Not a field: equality, hashing and repr see m only."""
        m, terms, n = self.m, self._tail_terms, self._mask
        for g in range(1, n + 1):
            powers, e = [1], g
            while e != 1:
                powers.append(e)
                e = _mod_sparse(clmul(e, g), m, terms, n)
            if len(powers) == n:
                break
        log = [2 * n] * (n + 1)
        for i, e in enumerate(powers):
            log[e] = i
        return powers * 2 + [0] * (2 * n + 1), log

    def mul_by(self, k: int):
        """The map x -> k*x for a fixed k, refusing k and x as mul does.

        Up to LOG_WIDTH it is a closure over the log tables, and k*x is
        exp[log k + log x].  Wider, k's 16 window multiples and their
        copies shifted by 4 are built here, once.  Each x is walked from
        the top a byte at a time, reading its high nibble's multiple from
        the shifted copies and its low nibble's from the others, and the
        product is reduced by the polynomial's sparse tail.
        """
        check = self.check
        check(k)
        mask = self._mask
        if self.m > LOG_WIDTH:
            m, terms = self.m, self._tail_terms
            high, low = _windows(k << 4), _windows(k)

            def times_k(x: int) -> int:
                if not 0 <= x <= mask:
                    check(x)
                acc = 0
                for c in x.to_bytes((x.bit_length() + 7) >> 3, "big"):
                    acc = (acc << 8) ^ high[c >> 4] ^ low[c & 15]
                return _mod_sparse(acc, m, terms, mask)
            return times_k
        exp, log = self._log_tables
        shift = log[k]

        def times_k(x: int) -> int:
            if not 0 <= x <= mask:
                check(x)
            return exp[shift + log[x]]
        return times_k

    def lanes_by(self, k: int, lanes: int):
        """The map x -> k*x in every lane of a packed int, as one closure.

        The packed int holds up to `lanes` elements, lane i in bits
        [2m*i, 2m*i + m) with the lane's upper m bits clear.  The closure
        takes the carryless product of the whole int and k (clmul: 4-bit
        windows of k, each a shifted multiple of the int), which stays
        inside each lane since a lane's product has degree at most 2m-2.
        It then folds every lane's bits from m up back onto its low bits by
        the polynomial's tail, all lanes per shift and mask.  Each fold
        lowers the top degree by m minus the tail's degree, so the fold
        count is fixed here.  The result holds the reduced products in the
        same layout.  Packed ints are not checked: the caller lays them out.
        """
        m, terms = self.m, self._tail_terms
        self.check(k)
        top, folds = 2 * m - 2, 0
        while top >= m:
            top -= m - max(terms)
            folds += 1
        low, n = self._mask, 1  # the low m bits of every lane
        while n < lanes:
            low |= low << (2 * m * n)
            n *= 2

        def times_k(x: int) -> int:
            acc = clmul(x, k)
            for _ in range(folds):
                hi = (acc >> m) & low
                acc &= low
                for e in terms:
                    acc ^= hi << e
            return acc

        return times_k

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            raise ValueError("negative exponent")
        self.check(a)
        result = 1
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result


@functools.lru_cache(maxsize=None)
def field(m: int) -> FieldCtx:
    """Shared context for GF(2^m)."""
    return FieldCtx(m)

