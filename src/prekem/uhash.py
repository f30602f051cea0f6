"""Universal hash families.

Three families cover all keying needs:

  - hprime / h_cea: multiply-then-truncate over a binary field.  The seed
    is a field element; the output is the top slice of seed*input.  The
    collision probability over a uniform seed is at most 2^-out_bits.
    The multiply-add family, which exists only as its split pair
    mul_add_split, xors a second seed part onto that slice, for the
    comparison mode's strongly universal hashes.
  - h_cca: a two-part polynomial family over GF(2^(n-t)) x GF(2^t) whose
    algebraic structure additionally limits how many inputs can explain
    two hash values under two different seeds (the property the
    authenticated decapsulation mode relies on).
  - twise_poly: degree-d polynomial evaluation, giving (d+1)-wise
    independent outputs for the information-theoretic PRF.  Its Horner
    loop, horner, is shared with the PRF, whose keys are checked once.

Field elements travel as plain ints; bit slices are MSB-first (bit 1 is
the most significant of the declared width).  Degenerate zero seeds are
legal members of every family.

Each family but twise_poly is a split pair (F, G) at a split point k:
for x = x2 || x1 with x1 the low k bits, h(x) = F(x2) xor G(x1), the one
form the KEM and the games hash through.  The multiply families are
GF(2)-linear in x (multiply-add up to its xor of b), so they split at any k,
with "top bits of s*x" written once, in _product_split; h_cca's bracket
reads only x2 and the rest only x1, so it splits at t.  A pair is built
once per seed, with its family's checks; the per-x functions hprime,
h_cea and h_cca compose it, and whole makes a multiply pair at k = width
one product per x.
split_table tabulates h from 2^(n-k) values of F and 2^k of G, and
split_preimage inverts h through G's inverse.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple

from .errors import MalformedError
from .gf2 import field
from .value import Value, set_fields

__all__ = [
    "ExtractorSeed",
    "ReconSeed",
    "PaddedSeedVector",
    "piece_count",
    "split_seed",
    "SplitPair",
    "hprime",
    "h_cea",
    "h_cca",
    "hprime_split",
    "h_cea_split",
    "h_cca_split",
    "mul_add_split",
    "whole",
    "split_table",
    "split_preimage",
    "twise_poly",
    "horner",
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
    return whole(hprime_split(seed, seed.width))(x)


def h_cea(x: int, seed: ReconSeed) -> int:
    """Reconciliation hash for the shared-seed mode: top t bits of s*x."""
    return whole(h_cea_split(seed, seed.n))(x)


def h_cca(x: int, sv: PaddedSeedVector, seed: ReconSeed) -> int:
    """Two-part polynomial hash over the split input x = x2 || x1.

    Output: [x2^(r+3) + sum_i sv_i * x2^(i+1) + s2*x2]_(top t) xor
    x1^3 xor s1*x1, with the bracket over GF(2^(n-t)) and the rest over
    GF(2^t).  Requires t <= n/2.
    """
    top, bottom = h_cca_split(sv, seed)
    if not 0 <= x < (1 << seed.n):
        raise MalformedError("input outside GF(2^n)")
    return top(x >> seed.t) ^ bottom(x & ((1 << seed.t) - 1))


# ---------------------------------------------------------------------------
# split pairs: h(x) = F(x >> k) xor G(x & (2^k - 1))

SplitPair = Tuple[Callable[[int], int], Callable[[int], int]]


def _product_split(s: int, width: int, out_bits: int, k: int,
                   b: int = 0) -> SplitPair:
    """The pair at k of x -> (top out_bits bits of s*x over GF(2^width))
    xor b.  s*x = (s*X^k)*x2 + s*x1, so F multiplies by s*X^k and adds b,
    and G multiplies by s, each through its multiplier's mul_by map."""
    if not 0 <= k <= width:
        raise MalformedError(f"split point {k} outside 0..{width}")
    ctx = field(width)
    times_s, drop = ctx.mul_by(s), width - out_bits
    if k < width:
        times_high = ctx.mul_by(times_s(1 << k))
        top = lambda x2: (times_high(x2) >> drop) ^ b
    else:  # x2 is 0, so F is b alone and takes no product
        top = lambda x2: b
    return top, lambda x1: times_s(x1) >> drop


def whole(pair: SplitPair) -> Callable[[int], int]:
    """x -> h(x) from a multiply pair at k = width, where x2 = 0: F(0), which
    is b with no product, is read once, and each x costs G's one product,
    which checks x."""
    top, bottom = pair
    b = top(0)
    return lambda x: bottom(x) ^ b


def hprime_split(seed: ExtractorSeed, k: int) -> SplitPair:
    """hprime's pair at split point k."""
    return _product_split(seed.sprime, seed.width, seed.ell, k)


def h_cea_split(seed: ReconSeed, k: int) -> SplitPair:
    """h_cea's pair at split point k."""
    return _product_split(seed.s, seed.n, seed.t, k)


def mul_add_split(seed: int, n: int, out_bits: int, k: int) -> SplitPair:
    """The strongly universal multiply-add family's pair at split point k:
    h(x) = (top out_bits bits of a*x) xor b, where seed packs (a, b) as
    a || b with a an n-bit field element and b an out_bits-bit mask.  F
    carries the xor of b."""
    return _product_split(seed >> out_bits, n, out_bits, k,
                          seed & ((1 << out_bits) - 1))


def h_cca_split(sv: PaddedSeedVector, seed: ReconSeed) -> SplitPair:
    """h_cca's pair at split point t: F is the bracket over GF(2^(n-t)),
    G is x1^3 xor s1*x1 over GF(2^t)."""
    n, t = seed.n, seed.t
    if 2 * t > n:
        raise MalformedError("split family needs t <= n/2")
    if sv.piece_width != n - t:
        raise MalformedError(
            f"piece width {sv.piece_width} != n - t = {n - t}")
    big, small = field(n - t).mul, field(t).mul
    pieces, s2, s1, drop = sv.pieces[::-1], seed.s2, seed.s1, n - 2 * t

    def top(x2: int) -> int:
        # Horner: acc ends at x2^(r+1) + sum_i sv_i * x2^(i-1)
        acc = x2
        for piece in pieces:
            acc = big(acc, x2) ^ piece
        return big(big(acc, x2) ^ s2, x2) >> drop

    def bottom(x1: int) -> int:
        return small(x1, small(x1, x1) ^ s1)
    return top, bottom


def split_table(pair: SplitPair, n: int, k: int) -> List[int]:
    """h(x) for every n-bit x in ascending order: the outer xor of F over
    the 2^(n-k) tops and G over the 2^k bottoms."""
    top, bottom = pair
    lows = [bottom(x1) for x1 in range(1 << k)]
    return [high ^ low for high in map(top, range(1 << (n - k)))
            for low in lows]


def split_preimage(pair: SplitPair, n: int, k: int, v: int) -> List[int]:
    """S(v) = {x : h(x) = v} over n-bit x, ascending: G is inverted once
    over the 2^k bottoms, then each top x2 reads off the x1 with
    G(x1) = v xor F(x2)."""
    top, bottom = pair
    inverse: dict = {}
    for x1 in range(1 << k):
        inverse.setdefault(bottom(x1), []).append(x1)
    return [(x2 << k) | x1 for x2 in range(1 << (n - k))
            for x1 in inverse.get(v ^ top(x2), ())]


def twise_poly(key: Sequence[int], x: int, m: int, out_bits: int) -> int:
    """Evaluate the polynomial with coefficients key (a_0 first) at the
    GF(2^m) element x.

    Horner starts from the top coefficient, so a key of d+1 coefficients
    takes d products; x is checked first, even when d is 0, then the
    coefficients all at once, the first one outside the field named from
    the top.  Uniform keys of length d+1 make outputs (d+1)-wise
    independent; the result is truncated to its top out_bits bits.
    """
    ctx = field(m)
    if not key:
        raise MalformedError("key needs at least one coefficient")
    if not 1 <= out_bits <= m:
        raise MalformedError("output length must be in 1..m")
    if x < 0 or x >> m:
        ctx.check(x)
    if min(key) < 0 or max(key) >> m:
        for a in reversed(key):
            ctx.check(a)
    return horner(key, x, ctx.mul) >> (m - out_bits)


def horner(key: Sequence[int], x: int, mul: Callable[[int, int], int]) -> int:
    """The polynomial with coefficients key (a_0 first, at least one) at x,
    by Horner from the top coefficient under the field product mul: d
    products for d+1 coefficients.  Nothing is checked; twise_poly checks,
    and prf_it's key was checked when it was built."""
    coeffs = reversed(key)
    acc = next(coeffs)
    for a in coeffs:
        acc = mul(acc, x) ^ a
    return acc
