"""Exact arithmetic in binary extension fields GF(2^m).

Elements are non-negative Python ints below 2^m, read as polynomials over
GF(2) with bit i holding the coefficient of x^i.  Rendered as an m-bit
string, the most-significant bit comes first, so "bit 1" of the string is
the coefficient of x^(m-1).  The block operator below indexes in that
MSB-first convention.

Each width has one reduction polynomial: the lowest-weight irreducible of
that degree (minimal number of terms, ties broken by smallest integer
encoding), read from a built-in table or found by a Rabin-test search.

Multiplication is table-driven.  The generic product (clmul) forms the 16
multiples of one operand and walks the other a 4-bit window at a time, then
reduces by the sparse tail of the polynomial.  FieldCtx.mul_by(k, uses)
serves a fixed multiplicand: its closure reads k*x from tables of reduced
products, with no reduction step.  The tables are per nibble of x, or per
byte once the caller expects at least BYTE_TABLE_USES products, where the
byte tables' larger build is paid back by one read per byte instead of two.
Tables are built per call and never cached.

Serialization is big-endian, ceil(m/8) bytes, zero-padded at the top.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

# Lowest-weight irreducible polynomial of degree m, encoded with bit m set.
# Generated by minimal-weight/minimal-value search with a Rabin
# irreducibility test, cross-checked by trial division (m <= 24) and by an
# independent computer-algebra system.  Matches the widely published
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

# Widths beyond this are refused outright; the constructions never need them
# and irreducibility search would dominate runtime.
MAX_WIDTH = 8192

# From this many expected products on, mul_by builds byte tables.  They take
# about six times as long to build as nibble tables, and a product then reads
# one entry per byte of x instead of two; on a 2-vCPU x86 VM the two broke
# even at 170-245 products for m = 64, 128 and 256.
BYTE_TABLE_USES = 256


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
    a2 = a << 1
    a3 = a2 ^ a
    a4 = a << 2
    a8 = a << 3
    a5, a6, a7 = a4 ^ a, a4 ^ a2, a4 ^ a3
    tab = (0, a, a2, a3, a4, a5, a6, a7,
           a8, a8 ^ a, a8 ^ a2, a8 ^ a3, a8 ^ a4, a8 ^ a5, a8 ^ a6, a8 ^ a7)
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


def _prime_factors(m: int) -> set[int]:
    out = set()
    d = 2
    while d * d <= m:
        while m % d == 0:
            out.add(d)
            m //= d
        d += 1
    if m > 1:
        out.add(m)
    return out


def _irreducible_rabin(f: int) -> bool:
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
    # Single squaring chain with early-abort gcd checks at m/p for each prime
    # divisor p of m (checked in ascending exponent order so most reducible
    # candidates die cheaply), then the x^(2^m) == x test at the end.
    checkpoints = sorted(m // p for p in _prime_factors(m))
    r = 2
    k = 0
    for cp in checkpoints:
        while k < cp:
            r = _mod_sparse(_sqr(r), m, terms, mask)
            k += 1
        if _poly_gcd(f, r ^ 2) != 1:
            return False
    while k < m:
        r = _mod_sparse(_sqr(r), m, terms, mask)
        k += 1
    return r == 2


@functools.lru_cache(maxsize=None)
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
    for extra in range(1, m, 2):  # odd total weight, constant term forced
        for v in _middle_terms(m, extra):
            if _irreducible_rabin(top | v | 1):
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


@dataclass(frozen=True)
class FieldCtx:
    """Immutable GF(2^m) context; its poly is find_irreducible(m)."""

    m: int

    def __post_init__(self):
        object.__setattr__(self, "poly", find_irreducible(self.m))
        # Precompute the sparse reduction tail x^m = poly - x^m.
        object.__setattr__(self, "_mask", (1 << self.m) - 1)
        tail = self.poly ^ (1 << self.m)
        terms = tuple(i for i in range(tail.bit_length()) if (tail >> i) & 1)
        object.__setattr__(self, "_tail_terms", terms)

    # -- int-level arithmetic ------------------------------------------------

    def check(self, a: int) -> int:
        if not 0 <= a <= self._mask:
            raise ValueError(f"0x{a:x} is not a GF(2^{self.m}) element")
        return a

    def mul(self, a: int, b: int) -> int:
        mask = self._mask
        if not (0 <= a <= mask and 0 <= b <= mask):
            self.check(a)
            self.check(b)
        return _mod_sparse(clmul(a, b), self.m, self._tail_terms, mask)

    def mul_by(self, k: int, uses: int = 1):
        """The map x -> k*x for a fixed k, as a closure over product tables.

        Multiplying by k is GF(2)-linear, so k*x is the xor over the
        nibbles x_j of x of the reduced products x_j * x^(4j) * k.  Those
        come from ceil(m/4) tables of 16 entries, built once here, so a
        product costs a table read per nibble and no reduction (Shoup's
        method, as used for GHASH in GCM).  uses is the number of products
        the caller expects: from BYTE_TABLE_USES on, each pair of nibble
        tables is composed into one 256-entry table per byte of x, and a
        product costs a read per byte.  Both widths give the same products,
        and the closure checks x as mul does.
        """
        m, poly, mask, check = self.m, self.poly, self._mask, self.check
        check(k)

        def times_x(v):
            v <<= 1
            return v ^ poly if v >> m else v

        tables = []
        b1 = k
        for _ in range((m + 3) // 4):
            b2 = times_x(b1)
            b4 = times_x(b2)
            b8 = times_x(b4)
            b3 = b2 ^ b1
            b5, b6, b7 = b4 ^ b1, b4 ^ b2, b4 ^ b3
            tables.append((0, b1, b2, b3, b4, b5, b6, b7, b8, b8 ^ b1,
                           b8 ^ b2, b8 ^ b3, b8 ^ b4, b8 ^ b5, b8 ^ b6, b8 ^ b7))
            b1 = times_x(b8)
        # (low, high) nibble tables per little-endian byte of x; the high
        # nibble past the top of an odd count is always 0
        pairs = tuple(zip(tables[0::2], tables[1::2] + [(0,) * 16]))
        nbytes = len(pairs)

        if uses >= BYTE_TABLE_USES:
            # entry c of a byte's table is lo[c & 15] ^ hi[c >> 4]
            byte_tables = tuple([lo_k ^ hi_k for hi_k in hi for lo_k in lo]
                                 for lo, hi in pairs)

            def times_k(x: int) -> int:
                if not 0 <= x <= mask:
                    check(x)
                acc = 0
                for table, c in zip(byte_tables, x.to_bytes(nbytes, "little")):
                    acc ^= table[c]
                return acc

            return times_k

        def times_k(x: int) -> int:
            if not 0 <= x <= mask:
                check(x)
            acc = 0
            for (lo, hi), c in zip(pairs, x.to_bytes(nbytes, "little")):
                acc ^= lo[c & 15] ^ hi[c >> 4]
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

    def inv(self, a: int) -> int:
        if self.check(a) == 0:
            raise ZeroDivisionError("0 has no inverse")
        # a^(2^m - 2) by square-and-multiply.
        return self.pow(a, (1 << self.m) - 2)

    # -- serialization -------------------------------------------------------

    @property
    def byte_len(self) -> int:
        return (self.m + 7) // 8

    def to_bytes(self, a: int) -> bytes:
        return self.check(a).to_bytes(self.byte_len, "big")

    def from_bytes(self, data: bytes) -> int:
        if len(data) != self.byte_len:
            raise ValueError(f"expected {self.byte_len} bytes, got {len(data)}")
        v = int.from_bytes(data, "big")
        return self.check(v)


@functools.lru_cache(maxsize=None)
def field(m: int) -> FieldCtx:
    """Shared context for GF(2^m)."""
    return FieldCtx(m)


def block(x: int, width: int, i: int, j: int) -> int:
    """Bits i..j (inclusive, 1-based) of the width-bit string x, MSB-first.

    block(x, width, 1, t) is therefore the t most-significant bits.
    """
    if not 1 <= i <= j <= width:
        raise ValueError(f"block range {i}..{j} out of 1..{width}")
    if not 0 <= x < (1 << width):
        raise ValueError(f"0x{x:x} does not fit in {width} bits")
    return (x >> (width - j)) & ((1 << (j - i + 1)) - 1)
