"""Reference functions the tests share, kept beside them rather than in the
package, which has no caller for them.

  - cond_neg_log_prob: a string's cost given y, scored symbol by symbol
    and summed by fsum, the membership rule R(y) is defined by;
  - mul_add: the multiply-add family per x, composed from its split pair;
  - twise_poly_from_zero: the polynomial PRF's Horner from an accumulator
    of 0, whose first product is 0*x;
  - bsc_radius and bsc_recon_size: a satellite source's ball radius and
    size at the flip probability's own doubles, -log2(1 - p) and
    -log2(p), rather than at a table's derived costs.
"""

import math

from prekem.errors import MalformedError
from prekem.gf2 import block, field
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


def twise_poly_from_zero(key, x, m, out_bits):
    """twise_poly's sum of key[i] * x^i by Horner from acc = 0, truncated to
    its top out_bits bits."""
    ctx = field(m)
    acc = 0
    for a in reversed(key):
        acc = ctx.mul(acc, x) ^ ctx.check(a)
    return block(acc, m, 1, out_bits)


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
