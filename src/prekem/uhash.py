"""Universal hash families.

Three families cover all keying needs:

  - hprime / h_cea: multiply-then-truncate over a binary field.  The seed
    is a field element; the output is the top slice of seed*input.  The
    collision probability over a uniform seed is at most 2^-out_bits.
  - h_cca: a two-part polynomial family over GF(2^(n-t)) x GF(2^t) whose
    algebraic structure additionally limits how many inputs can explain
    two hash values under two different seeds (the property the
    authenticated decapsulation mode relies on).
  - twise_poly: degree-d polynomial evaluation, giving (d+1)-wise
    independent outputs for the information-theoretic PRF.

Field elements travel as plain ints; bit slices are MSB-first (bit 1 is
the most significant of the declared width).  Degenerate zero seeds are
legal members of every family.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from .errors import MalformedError
from .gf2 import block, field
from .value import Value, set_fields

__all__ = [
    "ExtractorSeed",
    "ReconSeed",
    "PaddedSeedVector",
    "piece_count",
    "split_seed",
    "hprime",
    "h_cea",
    "h_cca",
    "twise_poly",
]


class ExtractorSeed(Value):
    """Key-extractor seed: a field element plus the output length."""

    __slots__ = ("sprime", "width", "ell")

    def __init__(self, sprime: int, width: int, ell: int) -> None:
        set_fields(self, sprime, width, ell)
        if width < 1 or not 0 <= sprime < (1 << width):
            raise MalformedError("seed outside its field")
        if not 1 <= ell <= width:
            raise MalformedError("output length must be in 1..width")


class ReconSeed(Value):
    """Reconciliation-hash seed: n bits with output length t.

    The one-shot family uses s whole over GF(2^n); the split family views
    the same bits as s2 || s1 with s2 the top n-t bits and s1 the bottom t.
    """

    __slots__ = ("s", "n", "t")

    def __init__(self, s: int, n: int, t: int) -> None:
        set_fields(self, s, n, t)
        if n < 1 or not 0 <= s < (1 << n):
            raise MalformedError("seed outside its field")
        if not 1 <= t <= n:
            raise MalformedError("output length must be in 1..n")

    @property
    def s2(self) -> int:
        return self.s >> self.t

    @property
    def s1(self) -> int:
        return self.s & ((1 << self.t) - 1)


class PaddedSeedVector(Value):
    """A w-bit seed split MSB-first into r pieces of piece_width bits.

    r is even and minimal with w <= r*piece_width; the final pieces are
    filled out with appended 1 bits.
    """

    __slots__ = ("pieces", "piece_width", "w")

    def __init__(self, pieces: Tuple[int, ...], piece_width: int,
                 w: int) -> None:
        set_fields(self, pieces, piece_width, w)
        r = len(pieces)
        if r < 2 or r % 2:
            raise MalformedError("piece count must be even and at least 2")
        if not (r - 2) * piece_width < w <= r * piece_width:
            raise MalformedError("piece count inconsistent with seed width")
        if any(not 0 <= p < (1 << piece_width) for p in pieces):
            raise MalformedError("piece outside its field")

    @property
    def r(self) -> int:
        return len(self.pieces)


def piece_count(w: int, piece_width: int) -> int:
    """The minimal even r >= 2 with w <= r * piece_width."""
    r = -(-w // piece_width)
    return max(r + r % 2, 2)


def split_seed(sprime: int, w: int, piece_width: int) -> PaddedSeedVector:
    """Split a w-bit seed into the minimal even number of pieces."""
    if w < 1 or piece_width < 1 or not 0 <= sprime < (1 << w):
        raise MalformedError("bad seed or widths")
    r = piece_count(w, piece_width)
    pad = r * piece_width - w
    padded = (sprime << pad) | ((1 << pad) - 1)
    mask = (1 << piece_width) - 1
    pieces = tuple(
        (padded >> ((r - 1 - i) * piece_width)) & mask for i in range(r)
    )
    return PaddedSeedVector(pieces, piece_width, w)


def hprime(x: int, seed: ExtractorSeed) -> int:
    """Multiply-then-truncate extractor: top ell bits of sprime*x."""
    ctx = field(seed.width)
    return block(ctx.mul(seed.sprime, x), seed.width, 1, seed.ell)


def h_cea(x: int, seed: ReconSeed) -> int:
    """Reconciliation hash for the shared-seed mode: top t bits of s*x."""
    ctx = field(seed.n)
    return block(ctx.mul(seed.s, x), seed.n, 1, seed.t)


def h_cca(x: int, sv: PaddedSeedVector, seed: ReconSeed) -> int:
    """Two-part polynomial hash over the split input x = x2 || x1.

    Output: [x2^(r+3) + sum_i sv_i * x2^(i+1) + s2*x2]_(top t) xor
    x1^3 xor s1*x1, with the bracket over GF(2^(n-t)) and the rest over
    GF(2^t).  Requires t <= n/2.
    """
    n, t = seed.n, seed.t
    if 2 * t > n:
        raise MalformedError("split family needs t <= n/2")
    if sv.piece_width != n - t:
        raise MalformedError(
            f"piece width {sv.piece_width} != n - t = {n - t}")
    if not 0 <= x < (1 << n):
        raise MalformedError("input outside GF(2^n)")
    big = field(n - t)
    small = field(t)
    x2 = x >> t
    x1 = x & ((1 << t) - 1)
    # Horner: acc ends at x2^(r+1) + sum_i sv_i * x2^(i-1)
    acc = x2
    for piece in reversed(sv.pieces):
        acc = big.mul(acc, x2) ^ piece
    acc = big.mul(big.mul(acc, x2) ^ seed.s2, x2)
    bracket = block(acc, n - t, 1, t)
    return bracket ^ small.mul(x1, small.mul(x1, x1) ^ seed.s1)


def twise_poly(key: Sequence[int], x: int, m: int, out_bits: int) -> int:
    """Evaluate the polynomial with coefficients key (a_0 first) at the
    GF(2^m) element x, which ctx.mul checks.

    Uniform keys of length d+1 make outputs (d+1)-wise independent; the
    result is truncated to its top out_bits bits.
    """
    ctx = field(m)
    if not key:
        raise MalformedError("key needs at least one coefficient")
    if not 1 <= out_bits <= m:
        raise MalformedError("output length must be in 1..m")
    acc = 0
    for a in reversed(key):
        acc = ctx.mul(acc, x) ^ ctx.check(a)
    return block(acc, m, 1, out_bits)
