"""Reference functions the tests share, kept beside them rather than in the
package, which has no caller for them.

  - cond_neg_log_prob: a string's cost given y, scored symbol by symbol
    and summed by fsum, the membership rule R(y) is defined by;
  - mul_add: the multiply-add family per x, composed from its split pair;
  - block: bits i..j of a width-bit string, MSB-first, the convention the
    hash families' truncations follow;
  - twise_poly_from_zero: the polynomial PRF's Horner from an accumulator
    of 0, whose first product is 0*x;
  - naive_clmul and naive_mul: schoolbook carryless multiply, then
    bit-by-bit reduction;
  - naive_prf_it and naive_prf_comp: the combiner's two PRFs from their
    definitions, sharing no code with the package's: the key split by bit
    string, the input framed by struct, the polynomial summed term by term
    with naive powers, and the CMAC blocks from `cryptography` directly;
  - bsc_radius and bsc_recon_size: a satellite source's ball radius and
    size at the flip probability's own doubles, -log2(1 - p) and
    -log2(p), rather than at a table's derived costs.
"""

import math
import struct

from cryptography.hazmat.primitives.ciphers import algorithms
from cryptography.hazmat.primitives.cmac import CMAC

from prekem.errors import MalformedError
from prekem.gf2 import field
from prekem.source import ball_size
from prekem.uhash import mul_add_split, whole


def cond_neg_log_prob(spec, x, y):
    """Sum of per-symbol -log2 P(x_i|y_i); inf when any factor is zero."""
    if len(x) != spec.n or len(y) != spec.n:
        raise MalformedError("strings must have length n")
    cost = spec.cost
    return math.fsum(cost[yi][xi] for xi, yi in zip(x, y))


def mul_add(x, seed, n, out_bits):
    """Strongly universal multiply-add family: top bits of a*x, xor b.

    seed packs (a, b) as a || b with a an n-bit field element and b an
    out_bits-bit mask.
    """
    return whole(mul_add_split(seed, n, out_bits, n))(x)


def block(x: int, width: int, i: int, j: int) -> int:
    """Bits i..j (inclusive, 1-based) of the width-bit string x, MSB-first.

    block(x, width, 1, t) is therefore the t most-significant bits.
    """
    if not 1 <= i <= j <= width:
        raise ValueError(f"block range {i}..{j} out of 1..{width}")
    if not 0 <= x < (1 << width):
        raise ValueError(f"0x{x:x} does not fit in {width} bits")
    return (x >> (width - j)) & ((1 << (j - i + 1)) - 1)


def twise_poly_from_zero(key, x, m, out_bits):
    """twise_poly's sum of key[i] * x^i by Horner from acc = 0, truncated to
    its top out_bits bits."""
    ctx = field(m)
    acc = 0
    for a in reversed(key):
        acc = ctx.mul(acc, x) ^ ctx.check(a)
    return block(acc, m, 1, out_bits)


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


def naive_prf_it(bits, key_bits, q_d, x, out_bits, poly):
    """The top out_bits bits of sum_i a_i * u^i over GF(2^m), m the width
    of poly: a_0 .. a_(q_d+1) are the key_bits-bit key's m-bit slices, a_0
    the top one, and u is x after its u32 length, read big-endian.  None
    when that frame is wider than m."""
    m = poly.bit_length() - 1
    assert key_bits == (q_d + 2) * m
    text = format(bits, f"0{key_bits}b")
    coeffs = [int(text[i:i + m], 2) for i in range(0, key_bits, m)]
    framed = struct.pack(">I", len(x)) + x
    if 8 * len(framed) > m:
        return None
    u, total, power = int.from_bytes(framed, "big"), 0, 1
    for a in coeffs:
        total ^= naive_mul(a, power, m, poly)
        power = naive_mul(power, u, m, poly)
    return total >> (m - out_bits)


def naive_prf_comp(raw, x, out_bits):
    """The top out_bits bits of CMAC-AES(raw) over u32 counter || x, one
    fresh MAC per 128-bit block."""
    stream = b""
    for i in range(-(-out_bits // 128)):
        mac = CMAC(algorithms.AES(raw))
        mac.update(struct.pack(">I", i) + x)
        stream += mac.finalize()
    return int.from_bytes(stream, "big") >> (8 * len(stream) - out_bits)


def bsc_radius(p, n, nu):
    """Largest d with fsum(d costs -log2(p), n - d costs -log2(1 - p))
    <= nu, -1 if none, for p <= 1/2.  That sum cannot fall as d grows, so
    the radius is bisected."""
    p = float(p)
    if not 0 <= p <= 0.5:
        raise MalformedError("closed forms need flip probability <= 1/2")
    c0 = -math.log2(1.0 - p)
    c1 = -math.log2(p) if p > 0 else math.inf
    lo, hi = -1, n  # cost(lo) <= nu, or lo = -1; the answer is in lo..hi
    while lo < hi:
        d = (lo + hi + 1) // 2
        if math.fsum([c1] * d + [c0] * (n - d)) <= nu:
            lo = d
        else:
            hi = d - 1
    return lo


def bsc_recon_size(p, n, nu):
    """|R(y)| for flip probability p <= 1/2 at its own costs: ball_size."""
    return ball_size(n, bsc_radius(p, n, nu))
