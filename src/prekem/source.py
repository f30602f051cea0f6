"""Correlated-randomness sources.

A source is an n-fold i.i.d. product of a per-symbol joint distribution
P_XYZ.  A trusted sampler hands the x-string to Alice, the y-string to Bob
and the z-string to Eve; all security and correctness statements are
relative to that distribution.

Conventions:
  - symbol strings are tuples of ints, one symbol per position;
  - probabilities are Fractions in exact mode (every alphabet <= 4 and
    n <= 16) and doubles otherwise, with a 2^-40 validation tolerance;
    a float table's marginals are math.fsum's correctly rounded sums of
    its cells, so they do not depend on the order the cells are added in;
  - log-probability costs are always doubles (math.fsum of per-symbol
    terms), so membership decisions are order-independent.

The reconciliation set R(y) = {x : -log2 P(x|y) <= nu} is found one way,
for binary x and y only: _member_classes walks the classes of members by
how many of y's zeros and ones x flips to the dearer symbol.  recon_ints
gives the members as packed ints, which decap, guessing_mass and the
games' forger read; recon_set is their ordered tuple view.

The binary satellite scenario is the main concrete instance: X is a
uniform bit, Y = X xor Ber(p), Z = X xor Ber(q).  q = 1/2 makes Eve's
string independent.  With p <= 1/2 its two cost rows mirror each other,
so every R(y) is y's Hamming ball of one radius, bsc_radius; the closed
forms at any n (max_recon_size's ball, miss_probability and the
guessing masses) read that radius, and live here alone.
"""

from __future__ import annotations

import bisect
import itertools
import math
from fractions import Fraction
from functools import cache, cached_property
from types import SimpleNamespace
from typing import Optional, Tuple, Union

from .errors import InfeasibleError, MalformedError
from .value import Value, set_fields

Number = Union[Fraction, float]

EXACT_ALPHABET_MAX = 4
# Widest alphabet: material files write one hex digit per symbol.
ALPHABET_MAX = 16
EXACT_N_MAX = 16
SUM_TOL = 2.0 ** -40
# Most members a reconciliation set may have: recon_ints counts the members
# of its classes before it builds any.  A larger set raises InfeasibleError.
RECON_CAP = 1 << 20

# Work ceiling for exhaustive guessing-mass enumeration: largest
# per-coordinate string count we are willing to iterate over.
ENUM_STRINGS_MAX = 1 << 12


class SourceSpec(Value):
    """An i.i.d. product source: per-symbol joint table plus repetition count.

    table is flat in lexicographic (x, y, z) order: index (x*ny + y)*nz + z.
    bsc carries (p, q) when the spec was built by bsc_source, enabling
    closed-form large-n evaluation; None for general tables.
    """

    __slots__ = ("nx", "ny", "nz", "n", "table", "bsc", "__dict__")

    def __init__(self, nx: int, ny: int, nz: int, n: int,
                 table: Tuple[Number, ...],
                 bsc: Optional[Tuple[Number, Number]] = None) -> None:
        set_fields(self, nx, ny, nz, n, table, bsc)
        if min(nx, ny, nz) < 1 or n < 1:
            raise MalformedError("alphabet sizes and n must be positive")
        if len(table) != nx * ny * nz:
            raise MalformedError("table length does not match alphabet sizes")
        if any(p < 0 for p in table):
            raise MalformedError("negative probability")
        total = sum(table)
        if self.exact:
            if total != 1:
                raise MalformedError(f"probabilities sum to {total}, not 1")
        elif abs(total - 1.0) > SUM_TOL:
            raise MalformedError(f"probabilities sum to {total}, not 1")

    @property
    def exact(self) -> bool:
        return isinstance(self.table[0], Fraction)

    def p(self, x: int, y: int, z: int) -> Number:
        return self.table[(x * self.ny + y) * self.nz + z]

    # Derived per-symbol tables, each computed on first use and kept in the
    # instance __dict__.  They are not fields, so equality, hashing, repr and
    # the JSON form see only the table they derive from, and replace starts
    # a fresh instance with none of them.

    def _sum(self, cells) -> Number:
        """The cells' total: exact for an exact table, else fsum's correctly
        rounded sum, the same whatever order the cells come in."""
        return sum(cells) if self.exact else math.fsum(cells)

    @cached_property
    def marg_y(self) -> Tuple[Number, ...]:
        return tuple(self._sum(self.p(x, y, z) for x in range(self.nx)
                               for z in range(self.nz))
                     for y in range(self.ny))

    @cached_property
    def joint_xy(self) -> Tuple[Tuple[Number, ...], ...]:
        return tuple(tuple(self._sum(self.p(x, y, z) for z in range(self.nz))
                           for y in range(self.ny)) for x in range(self.nx))

    @cached_property
    def joint_xz(self) -> Tuple[Tuple[Number, ...], ...]:
        return tuple(tuple(self._sum(self.p(x, y, z) for y in range(self.ny))
                           for z in range(self.nz)) for x in range(self.nx))

    @cached_property
    def joint_yz(self) -> Tuple[Tuple[Number, ...], ...]:
        return tuple(tuple(self._sum(self.p(x, y, z) for x in range(self.nx))
                           for z in range(self.nz)) for y in range(self.ny))

    @cached_property
    def cost(self) -> Tuple[Tuple[float, ...], ...]:
        """cost[y][x] = -log2 P(x|y) as a double; inf for zero probability."""
        py, pxy = self.marg_y, self.joint_xy
        return tuple(
            tuple(math.inf if py[y] == 0 or pxy[x][y] == 0
                  else -math.log2(float(pxy[x][y] / py[y]))
                  for x in range(self.nx))
            for y in range(self.ny))

    @cached_property
    def cumulative(self) -> Tuple[Tuple[float, ...], Tuple[tuple, ...]]:
        """(running sums, cells) over the positive (x, y, z) cells, for
        inverse-CDF sampling; the last sum is pinned to 1.0."""
        cells = [(x, y, z) for x in range(self.nx) for y in range(self.ny)
                 for z in range(self.nz) if float(self.p(x, y, z)) > 0]
        cums = list(itertools.accumulate(float(self.p(*c)) for c in cells))
        cums[-1] = 1.0
        return tuple(cums), tuple(cells)

    @cached_property
    def scaled(self) -> Tuple[int, Tuple[int, ...]]:
        """(denominator, table * denominator): the exact table's denominators
        cleared, so the integer weights sum to the denominator."""
        if not self.exact:
            raise InfeasibleError("exact analysis needs an exact-mode source")
        denom = math.lcm(*(p.denominator for p in self.table))
        return denom, tuple(int(p * denom) for p in self.table)

    @cached_property
    def cond_cells(self) -> Tuple[Tuple[tuple, tuple, int], ...]:
        """Per z-symbol (cumulative integer weights, (x, y) cells, total) over
        the cells of positive scaled weight, for sampling given z."""
        _, scaled = self.scaled
        out = []
        for z in range(self.nz):
            cells = [(x, y) for x in range(self.nx) for y in range(self.ny)
                     if scaled[(x * self.ny + y) * self.nz + z]]
            cums = tuple(itertools.accumulate(
                scaled[(x * self.ny + y) * self.nz + z] for x, y in cells))
            out.append((cums, tuple(cells), cums[-1] if cums else 0))
        return tuple(out)

    @cached_property
    def recon_classes(self) -> dict:
        """The class count's memo, which recon_ints and max_recon_size share:
        (nu, a) -> (|R(y)|, member classes (i, j)) for the y with a zeros,
        kept only when R(y) is within the cap."""
        return {}

    @cached_property
    def posteriors(self) -> SimpleNamespace:
        """The games' memo of Eve's posterior, filled as they run: entries
        maps (z, joint) to the (x, y, weight) pairs given z when joint, else
        packed x -> weight; size counts the pairs and weights kept."""
        return SimpleNamespace(entries={}, size=0)


class SampleTriple(Value):
    """One draw from the n-fold source: Alice's, Bob's and Eve's strings."""

    __slots__ = ("x", "y", "z")

    def __init__(self, x: Tuple[int, ...], y: Tuple[int, ...],
                 z: Tuple[int, ...]) -> None:
        set_fields(self, x, y, z)


class ReconSet(Value):
    """R(y) for binary x and y: every x-string whose conditional surprisal
    given y is at most nu bits.

    members holds recon_ints's members as strings, sorted by ascending cost
    (the fsum of the per-symbol costs spec.cost[y_i][x_i]) then
    lexicographically, so iteration order is reproducible across runs and
    implementations.
    """

    __slots__ = ("y", "nu", "members")

    def __init__(self, y: Tuple[int, ...], nu: float,
                 members: Tuple[Tuple[int, ...], ...]) -> None:
        set_fields(self, y, nu, members)


def integer(value) -> int:
    """value read as an integer field of a JSON document: an int, an
    integral float or an integer string; bools and fractional floats raise
    ValueError, other types TypeError."""
    if isinstance(value, bool) or (
            isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


_KIND_NAMES = {int: "an integer", float: "a number", str: "a string",
               bool: "a boolean", dict: "an object", list: "a list"}


def read_field(doc: dict, key: str, where: str, kind: type, *default):
    """doc[key] read as kind: int by integer's rule, a finite float with
    bools refused, or a str, bool, dict or list as it stands; kind object
    takes any value, for the probability literals _coerce checks.  A
    missing or null field gives default when one is given.  Every other
    case raises MalformedError with a one-line message naming where and
    key."""
    value = doc.get(key)
    if value is None:
        if default:
            return default[0]
        raise MalformedError(f"{where} is missing the '{key}' field")
    try:
        if kind is int:
            return integer(value)
        if kind is float:
            # a JSON true is no number, and neither is NaN or an infinity
            number = float(value)
            if not isinstance(value, bool) and math.isfinite(number):
                return number
        elif isinstance(value, kind):
            return value
    except (TypeError, ValueError, OverflowError):
        pass
    raise MalformedError(
        f"{where} field '{key}' must be {_KIND_NAMES[kind]}, got {value!r}")


def _coerce(v, exact: bool) -> Number:
    try:
        if isinstance(v, bool):  # a JSON true is no probability
            raise ValueError
        if exact:
            if isinstance(v, (Fraction, int)):
                return Fraction(v)
            # str() round-trips the decimal literal the caller had in mind
            # (0.25 -> 1/4) instead of the exact binary expansion of the
            # double.
            return Fraction(str(v))
        try:
            return float(v)
        except ValueError:
            # "1/20"-style strings are valid in exact mode; accept them here
            return float(Fraction(v))
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise MalformedError(f"bad probability literal {v!r}") from None


def bsc_source(p, q, n: int) -> SourceSpec:
    """Binary satellite source: X uniform, Y = X xor Ber(p), Z = X xor Ber(q)."""
    exact = n <= EXACT_N_MAX
    pc, qc = _coerce(p, exact), _coerce(q, exact)
    if not (0 <= pc <= 1 and 0 <= qc <= 1):
        raise MalformedError("flip probabilities must lie in [0, 1]")
    half = Fraction(1, 2) if exact else 0.5
    table = []
    for x in (0, 1):
        for y in (0, 1):
            for z in (0, 1):
                py = (1 - pc) if y == x else pc
                pz = (1 - qc) if z == x else qc
                table.append(half * py * pz)
    return SourceSpec(2, 2, 2, n, tuple(table), bsc=(pc, qc))


def from_json(doc: dict) -> SourceSpec:
    """Build a SourceSpec from a parsed JSON document.

    Accepted shapes:
      {"bsc": {"p": ..., "q": ..., "n": ...}}
      {"alphabet": [nx, ny, nz], "n": ..., "pxyz": [[x, y, z, prob], ...]}
    Omitted (x, y, z) cells are zero; a cell given by two rows is refused.
    """
    if not isinstance(doc, dict):
        raise MalformedError("source document must be a JSON object")
    if "bsc" in doc:
        b = read_field(doc, "bsc", "source", dict)
        return bsc_source(read_field(b, "p", "bsc", object),
                          read_field(b, "q", "bsc", object),
                          read_field(b, "n", "bsc", int))
    alphabet = read_field(doc, "alphabet", "source", list)
    if len(alphabet) != 3:
        raise MalformedError(
            f"source field 'alphabet' must list 3 sizes, got {alphabet!r}")
    sizes = dict(zip(("nx", "ny", "nz"), alphabet))
    nx, ny, nz = (read_field(sizes, k, "alphabet", int) for k in sizes)
    n = read_field(doc, "n", "source", int)
    rows = read_field(doc, "pxyz", "source", list)
    if max(nx, ny, nz) > ALPHABET_MAX:
        raise MalformedError(f"alphabets wider than {ALPHABET_MAX} symbols "
                             f"are not supported")
    exact = max(nx, ny, nz) <= EXACT_ALPHABET_MAX and n <= EXACT_N_MAX
    zero = Fraction(0) if exact else 0.0
    table = [zero] * (nx * ny * nz)
    first_row = {}
    for index, row in enumerate(rows):
        where = f"pxyz row {index}"
        if not isinstance(row, list) or len(row) != 4:
            raise MalformedError(
                f"{where} must be [x, y, z, probability], got {row!r}")
        cell = dict(zip(("x", "y", "z", "prob"), row))
        x, y, z = (read_field(cell, k, where, int) for k in "xyz")
        if not (0 <= x < nx and 0 <= y < ny and 0 <= z < nz):
            raise MalformedError(f"{where} {row!r} is outside the alphabet")
        cell_at = (x * ny + y) * nz + z
        first = first_row.setdefault(cell_at, index)
        if first != index:
            raise MalformedError(f"pxyz rows {first} and {index} both give "
                                 f"cell ({x}, {y}, {z})")
        table[cell_at] = _coerce(
            read_field(cell, "prob", where, object), exact)
    return SourceSpec(nx, ny, nz, n, tuple(table))


# ---------------------------------------------------------------------------
# sampling

def sample(spec: SourceSpec, rng) -> SampleTriple:
    """Draw one n-fold triple; rng is a random.Random-style handle."""
    cums, cells = spec.cumulative
    xs, ys, zs = [], [], []
    for _ in range(spec.n):
        i = bisect.bisect_right(cums, rng.random())
        x, y, z = cells[min(i, len(cells) - 1)]
        xs.append(x)
        ys.append(y)
        zs.append(z)
    return SampleTriple(tuple(xs), tuple(ys), tuple(zs))


# ---------------------------------------------------------------------------
# surprisal and the reconciliation set

_BIT_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_DIGIT_BITS = bytes.maketrans(b"01", b"\x00\x01")


def pack_bits(bits) -> int:
    """First symbol becomes the most significant bit.

    The symbols become one byte each and then the digits of a base-2
    literal, so the work runs in C.  Anything but the ints 0 and 1 (2, -1,
    256, 1.0, None) raises MalformedError.
    """
    try:
        # a tuple or list goes straight to bytes(); anything else is listed
        # first, so a multi-byte buffer is read per item, not per byte
        raw = bytes(bits if isinstance(bits, (tuple, list)) else list(bits))
    except (TypeError, ValueError):
        raise MalformedError("packing needs binary symbols") from None
    if raw.strip(b"\x00\x01"):
        raise MalformedError("packing needs binary symbols")
    return int(raw.translate(_BIT_DIGITS), 2) if raw else 0


def unpack_bits(v: int, n: int) -> Tuple[int, ...]:
    """pack_bits's inverse at length n, by the same route through a base-2
    literal: the digits of v with a 1 set above them, less that 1."""
    if not 0 <= v < (1 << n):
        raise MalformedError("value does not fit in n bits")
    return tuple(bin(v | 1 << n)[3:].encode().translate(_DIGIT_BITS))


def require_binary(spec: SourceSpec, use: str) -> None:
    """MalformedError unless x and y are bits, the only strings use takes."""
    if spec.nx != 2 or spec.ny != 2:
        raise MalformedError(f"{use} needs binary x and y alphabets")


# ---------------------------------------------------------------------------
# entropy quantities

def shannon_cond_entropy(spec: SourceSpec) -> float:
    """Per-symbol H(X|Y) in bits."""
    py, pxy = spec.marg_y, spec.joint_xy
    terms = []
    for x in range(spec.nx):
        for y in range(spec.ny):
            p = pxy[x][y]
            if p > 0:
                terms.append(float(p) * (math.log2(float(py[y])) - math.log2(float(p))))
    return math.fsum(terms)


def guess_prob_given_z(spec: SourceSpec) -> Number:
    """Per-symbol E_z max_x P(x|z) = sum_z max_x P(x,z); exact in exact mode."""
    pxz = spec.joint_xz
    return sum(max(pxz[x][z] for x in range(spec.nx)) for z in range(spec.nz))


def avg_min_entropy_given_z(spec: SourceSpec) -> float:
    """Per-symbol average conditional min-entropy of X given Z, in bits.

    Additive over i.i.d. positions, so the n-fold value is n times this.
    """
    return -math.log2(float(guess_prob_given_z(spec)))


# ---------------------------------------------------------------------------
# guessing masses: the two seed-forging strategies' success probabilities

def ball_size(n: int, d: int) -> int:
    """The n-bit strings within Hamming distance d of one; 0 for d < 0."""
    total, term = 0, 1
    for j in range(d + 1):
        total += term
        term = term * (n - j) // (j + 1)  # C(n, j + 1)
    return total


def _scorer(costs):
    """counts -> the fsum score of a string with counts[k] symbols of cost
    costs[k]: the rounded exact sum of the count * cost terms, here
    integers over a power-of-two denominator; inf where a counted cost is
    infinite."""
    ratios = [c.as_integer_ratio() if c < math.inf else None for c in costs]
    den = max(r[1] for r in ratios if r)
    nums = [None if r is None else r[0] * (den // r[1]) for r in ratios]

    def score(counts):
        if any(k and m is None for k, m in zip(counts, nums)):
            return math.inf
        return sum(k * m for k, m in zip(counts, nums) if k) / den
    return score


def bsc_radius(spec: SourceSpec, nu: float) -> Optional[int]:
    """The radius of every R(y) of a satellite source with p <= 1/2, None
    for any other table: the largest d whose distance-d strings score at
    most nu at decap's costs, spec.cost, by _scorer as the class walk
    scores them; -1 when R(y) is empty.  The two cost rows mirror each
    other, so R(y) is y's Hamming ball of this radius, and a score that
    cannot fall as d grows is bisected."""
    if spec.bsc is None or float(spec.bsc[0]) > 0.5:
        return None
    score = _scorer(spec.cost[0])  # (kept, flipped) cost at a y symbol 0
    lo, hi = -1, spec.n  # score(lo) <= nu, or lo = -1; the answer is in lo..hi
    while lo < hi:
        d = (lo + hi + 1) // 2
        if score((spec.n - d, d)) <= nu:
            lo = d
        else:
            hi = d - 1
    return lo


def _member_classes(spec: SourceSpec, nu: float, zeros):
    """Yield (a, i, j) for each class of reconciliation-set members, binary
    x and y only: y has a zeros, for each a in zeros, and x takes the
    dearer symbol at i of them and at j of the other n - a positions.
    Classes come in zeros' order of a, then ascending i, then j.

    A member's score is _scorer's over the four (x, y) symbol counts, and
    it rises with i and j, so each scan stops at its first score above nu.
    """
    n = spec.n
    # cheaper, then dearer, cost per y symbol
    score = _scorer([c for row in spec.cost for c in sorted(row)])
    for a in zeros:
        for i in range(a + 1):
            j = 0
            while j <= n - a and score((a - i, i, n - a - j, j)) <= nu:
                yield a, i, j
                j += 1
            if j == 0:
                break


def _recon_count(spec: SourceSpec, nu: float, a: int):
    """(|R(y)|, [(i, j), ...]) for the y with a zeros: the member classes
    and their total, counted until the total passes RECON_CAP.  A total
    within the cap is kept on the spec; one past it is partial and is
    counted again on the next call, as the cap may have changed."""
    memo = spec.recon_classes
    entry = memo.get((nu, a))
    if entry is None or entry[0] > RECON_CAP:
        size, classes = 0, []
        for _, i, j in _member_classes(spec, nu, (a,)):
            size += math.comb(a, i) * math.comb(spec.n - a, j)
            classes.append((i, j))
            if size > RECON_CAP:
                return size, classes
        entry = memo[nu, a] = size, classes
    return entry


def max_recon_size(spec: SourceSpec, nu: float) -> int:
    """max over y of |R(y)| for binary x and y, the count decap's recon_ints
    compares with RECON_CAP: a satellite source's ball at bsc_radius, else
    the partial count of the first y whose set passes the cap.  |R(y)|
    depends only on y's count a of zeros."""
    d = bsc_radius(spec, nu)
    if d is not None:
        return ball_size(spec.n, d)
    largest = 0
    for a in range(spec.n + 1):
        size = _recon_count(spec, nu, a)[0]
        if size > RECON_CAP:
            return size
        largest = max(largest, size)
    return largest


def _flip_masks(v: int, most: int):
    """masks[k] lists every int made of k of v's set bits, k = 0..most."""
    bits = []
    while v and most:
        low = v & -v
        bits.append(low)
        v ^= low
    return [list(map(sum, itertools.combinations(bits, k)))
            for k in range(most + 1)]


def recon_ints(spec: SourceSpec, yp: int, nu: float) -> list:
    """The members of R(y) as packed ints, first symbol most significant,
    in no particular order; binary x and y only, and yp is y packed the
    same way.

    This is the one walk of R(y): decap, recon_set, guessing_mass and the
    forger take its members, max_recon_size its count of classes, and
    miss_mass walks the same classes in _member_classes.  Every member is
    the cheapest x for y with the dearer symbol taken at i of y's zeros and
    at j of its ones, over the classes (i, j) of y's count a of zeros.  The
    classes and their total are found once per (nu, a) and kept on the
    spec, the count max_recon_size reads, so params and decap refuse at
    the same size; a total above RECON_CAP raises InfeasibleError before
    any member is built.
    """
    n = spec.n
    require_binary(spec, "reconciliation")
    if yp < 0 or yp >> n:
        raise MalformedError("y does not fit in n bits")
    size, classes = _recon_count(spec, nu, n - yp.bit_count())
    if size > RECON_CAP:
        raise InfeasibleError(
            f"reconciliation set exceeds cap {RECON_CAP} at nu={nu}")
    if not classes:
        return []
    # the cheaper x for each y symbol; on a tie the classes take every
    # count of that symbol's flips or none, so either x will do
    zeros = yp ^ ((1 << n) - 1)
    cost = spec.cost
    base = ((zeros if cost[0][1] < cost[0][0] else 0)
            | (yp if cost[1][1] < cost[1][0] else 0))
    if len(classes) == 1:  # (0, 0), the cheapest x alone
        return [base]
    heads = _flip_masks(zeros, classes[-1][0])
    tails = _flip_masks(yp, max(j for _, j in classes))
    members = []
    for i, j in classes:
        for head in heads[i]:
            members += map((base ^ head).__xor__, tails[j])
    return members


def recon_set(spec: SourceSpec, y: Tuple[int, ...], nu: float) -> ReconSet:
    """R(y) as strings: recon_ints's members, ordered by score, then
    lexicographically; binary x and y only.

    A member's score is its class's, _scorer's over how many of its
    symbols are 1 at y's zeros and at y's ones, so it equals the fsum of
    its per-symbol costs without an fsum per member.
    """
    if len(y) != spec.n:
        raise MalformedError("y must have length n")
    n, yp = spec.n, pack_bits(y)
    a = n - yp.bit_count()
    # (y, x) symbol order: the counts below are x = 0, 1 at y's zeros, then
    # x = 0, 1 at its ones
    score = cache(_scorer([c for row in spec.cost for c in row]))

    def rank(xp):
        i, j = (xp & ~yp).bit_count(), (xp & yp).bit_count()
        return score((a - i, i, n - a - j, j)), xp

    members = sorted(recon_ints(spec, yp, nu), key=rank)
    return ReconSet(tuple(y), float(nu),
                    tuple(unpack_bits(xp, n) for xp in members))


def miss_mass(spec: SourceSpec, nu: float) -> Fraction:
    """P[x not in R(y)] for binary x and y, exact in the table's values:
    the total mass less that of every member class."""
    n = spec.n
    pxy = spec.joint_xy
    # P(x, y) per symbol in _member_classes's order: per y symbol, the
    # cheaper x, then the dearer (sorted's tie order; tied costs give
    # every class of a tie the same membership)
    cells = [Fraction(pxy[x][b]) for b in (0, 1)
             for x in sorted((0, 1), key=spec.cost[b].__getitem__)]
    hit = Fraction(0)
    for a, i, j in _member_classes(spec, nu, range(n + 1)):
        hit += (math.comb(n, a) * math.comb(a, i) * math.comb(n - a, j)
                * cells[0] ** (a - i) * cells[1] ** i
                * cells[2] ** (n - a - j) * cells[3] ** j)
    return sum(cells) ** n - hit


def _binom_tail_leq(n: int, d: int, flip: Number) -> Number:
    """P[Binomial(n, flip) <= d]: exact for a Fraction flip, from the log
    domain for a float one."""
    if not isinstance(flip, Fraction):
        return 2.0 ** _log2_binom_tail_leq(n, d, flip)
    if d < 0:
        return Fraction(0)
    if d >= n:
        return Fraction(1)
    return sum(math.comb(n, j) * flip ** j * (1 - flip) ** (n - j)
               for j in range(d + 1))


def _log2(x: Number) -> float:
    """log2 of a mass, -inf at zero; a Fraction never passes through a
    float, so tiny exact masses do not underflow."""
    if x == 0:
        return -math.inf
    if isinstance(x, Fraction):
        return math.log2(x.numerator) - math.log2(x.denominator)
    return math.log2(x)


def _log2_binom_sum(n: int, js, flip: float) -> float:
    """log2 of the sum over j in js of P[Binomial(n, flip) = j], for a float
    flip strictly between 0 and 1.  The sum is taken in the log domain,
    where terms such as 2^-1080 stay representable and C(n, j) never
    becomes a float.  The result is capped at 0: when the terms hold all
    the mass, the rounded sum can land just above 1."""
    lf, lg = math.log2(flip), math.log2(1.0 - flip)
    terms = [math.log2(math.comb(n, j)) + j * lf + (n - j) * lg for j in js]
    top = max(terms)
    return min(top + math.log2(math.fsum(2.0 ** (v - top) for v in terms)),
               0.0)


def _log2_binom_tail_leq(n: int, d: int, flip: Number) -> float:
    """log2 P[Binomial(n, flip) <= d]; float sums are taken in the log
    domain."""
    if isinstance(flip, Fraction):
        return _log2(_binom_tail_leq(n, d, flip))
    if d < 0:
        return -math.inf
    if d >= n or flip == 0:
        return 0.0
    if flip == 1:  # all the mass sits at j = n > d
        return -math.inf
    return _log2_binom_sum(n, range(d + 1), flip)


def _log2_binom_tail_gt(n: int, d: int, flip: float) -> float:
    """log2 P[Binomial(n, flip) > d] for a float flip below 1, in the log
    domain; summing the upper tail itself keeps a tiny tail from
    cancelling against 1."""
    if d < 0:
        return 0.0
    if flip == 0 or d >= n:
        return -math.inf
    return _log2_binom_sum(n, range(d + 1, n + 1), flip)


def miss_probability(spec: SourceSpec, nu: float) -> float:
    """P[x not in R(y)], decap's miss rate at nu, as a float: for a
    satellite source the binomial tail past bsc_radius, at any n; for any
    other binary table float(miss_mass), kept to small n."""
    d = bsc_radius(spec, nu)
    if d is None:
        if spec.n > 12:
            raise InfeasibleError("miss probability limited to n <= 12 "
                                  "for general tables")
        return float(miss_mass(spec, nu))
    p = spec.bsc[0]
    if isinstance(p, Fraction):
        return float(1 - _binom_tail_leq(spec.n, d, p))
    # C(n, j) * p^j would pass the float range at large n
    return 2.0 ** _log2_binom_tail_gt(spec.n, d, p)


def _bsc_masses(spec: SourceSpec, nu: float, tail) -> Optional[Tuple]:
    """(mass_x, mass_y) as tail(n, bsc_radius, flip) of both flip rates for
    a satellite source with p, q <= 1/2; None for any other table."""
    d = bsc_radius(spec, nu)
    if d is None or float(spec.bsc[1]) > 0.5:
        return None
    p, q = spec.bsc
    # Both maxima are met by centering the radius-d ball on z: given z, Y
    # flips per symbol with probability p*q' convolution and X with q, both
    # <= 1/2 here, so the ball at the mode carries the most mass.
    yz_flip = p * (1 - q) + q * (1 - p)
    return tail(spec.n, d, yz_flip), tail(spec.n, d, q)


def _z_weights(pair_table, z: Tuple[int, ...], one) -> list:
    """P(s, z) for every binary string s, indexed by s packed; each product
    is taken left to right from one."""
    weights = [one]
    for zi in z:
        w0, w1 = pair_table[0][zi], pair_table[1][zi]
        weights = [w for v in weights for w in (v * w0, v * w1)]
    return weights


def guessing_mass(spec: SourceSpec, nu: float) -> Tuple[Number, Number]:
    """Success probabilities of the two optimal guessing strategies.

    mass_x: guess Alice's string x outright and hope it reconciles with the
    unseen y; per z this is max_x of the P(y'|z)-mass of {y' : x in R(y')}.
    mass_y: guess Bob's string y and submit a member of R(y); per z this is
    max_y of the P(x'|z)-mass of R(y).  Both are averaged over z.

    Binary x and y only.  Satellite sources with p, q <= 1/2 use
    closed-form binomial sums at any n; general tables are enumerated
    exhaustively (small n only), from recon_ints's members of every R(y).
    Only sorted z are visited, each weighted by its count of orderings:
    permuting the positions of x, y and z together maps each R(y) onto
    R(y permuted) and keeps every product weight, so every ordering of a
    z has the same two maxima.
    """
    require_binary(spec, "guessing-mass enumeration")
    masses = _bsc_masses(spec, nu, _binom_tail_leq)
    if masses:
        return masses
    n, nz = spec.n, spec.nz
    if max(spec.nx, spec.ny, nz) ** n > ENUM_STRINGS_MAX:
        raise InfeasibleError("source too large for exhaustive guessing-mass")
    pairs = spec.joint_yz, spec.joint_xz
    if spec.exact:  # weights over one denominator, as ints: far faster
        scale = math.lcm(*(p.denominator for t in pairs for r in t for p in r))
        pairs = [[[int(p * scale) for p in r] for r in t] for t in pairs]
        one, unit = 1, Fraction(1, scale ** n)
    else:
        one = unit = 1.0
    members = [recon_ints(spec, yp, nu) for yp in range(1 << n)]
    mass_x = mass_y = one * 0
    for z in itertools.combinations_with_replacement(range(nz), n):
        py_z, px_z = (_z_weights(t, z, one) for t in pairs)
        hits = [one * 0] * (1 << n)  # per x, P(y', z) over R(y') holding x
        best_y = one * 0
        for yp, xs in enumerate(members):
            if py_z[yp]:
                for xp in xs:
                    hits[xp] += py_z[yp]
            best_y = max(best_y, sum(map(px_z.__getitem__, xs)))
        orderings = math.factorial(n)
        for symbol in range(nz):
            orderings //= math.factorial(z.count(symbol))
        mass_x += orderings * max(hits)
        mass_y += orderings * best_y
    return mass_x * unit, mass_y * unit


def guessing_log2_mass(spec: SourceSpec, nu: float) -> float:
    """log2 of the larger of the two guessing masses; -inf when both are 0.

    The forgery bounds need only this.  Closed-form satellite sums are taken
    in the log domain, so at large n a mass such as 2^-1080 keeps its value
    instead of underflowing to zero.
    """
    masses = _bsc_masses(spec, nu, _log2_binom_tail_leq)
    return max(masses) if masses else _log2(max(guessing_mass(spec, nu)))
