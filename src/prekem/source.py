"""Correlated-randomness sources.

A source is an n-fold i.i.d. product of a per-symbol joint distribution
P_XYZ.  A trusted sampler hands the x-string to Alice, the y-string to Bob
and the z-string to Eve; all security and correctness statements are
relative to that distribution.

Conventions:
  - symbol strings are tuples of ints, one symbol per position;
  - probabilities are Fractions in exact mode (every alphabet <= 4 and
    n <= 16) and doubles otherwise, with a 2^-40 validation tolerance;
  - log-probability costs are always doubles (math.fsum of per-symbol
    terms), so membership decisions are order-independent.

The binary satellite scenario is the main concrete instance: X is a
uniform bit, Y = X xor Ber(p), Z = X xor Ber(q).  q = 1/2 makes Eve's
string independent.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Tuple, Union

from .errors import InfeasibleError, MalformedError

Number = Union[Fraction, float]

EXACT_ALPHABET_MAX = 4
# Widest alphabet: material files write one hex digit per symbol.
ALPHABET_MAX = 16
EXACT_N_MAX = 16
SUM_TOL = 2.0 ** -40
# Most members recon_set will keep; a larger reconciliation set raises
# InfeasibleError.
RECON_CAP = 1 << 20

# Work ceiling for exhaustive guessing-mass enumeration: largest
# per-coordinate string count we are willing to iterate over.
ENUM_STRINGS_MAX = 1 << 12


@dataclass(frozen=True)
class SourceSpec:
    """An i.i.d. product source: per-symbol joint table plus repetition count.

    table is flat in lexicographic (x, y, z) order: index (x*ny + y)*nz + z.
    bsc carries (p, q) when the spec was built by bsc_source, enabling
    closed-form large-n evaluation; None for general tables.
    """

    nx: int
    ny: int
    nz: int
    n: int
    table: Tuple[Number, ...]
    bsc: Optional[Tuple[Number, Number]] = None

    def __post_init__(self) -> None:
        if min(self.nx, self.ny, self.nz) < 1 or self.n < 1:
            raise MalformedError("alphabet sizes and n must be positive")
        if len(self.table) != self.nx * self.ny * self.nz:
            raise MalformedError("table length does not match alphabet sizes")
        if any(p < 0 for p in self.table):
            raise MalformedError("negative probability")
        total = sum(self.table)
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

    # Derived per-symbol tables, each computed on first use and kept on the
    # instance.  They are not fields, so equality, hashing, repr and the JSON
    # form see only the table they derive from, and dataclasses.replace
    # starts a fresh instance with none of them.

    @cached_property
    def marg_y(self) -> Tuple[Number, ...]:
        return tuple(sum(self.p(x, y, z) for x in range(self.nx)
                         for z in range(self.nz)) for y in range(self.ny))

    @cached_property
    def joint_xy(self) -> Tuple[Tuple[Number, ...], ...]:
        return tuple(tuple(sum(self.p(x, y, z) for z in range(self.nz))
                           for y in range(self.ny)) for x in range(self.nx))

    @cached_property
    def joint_xz(self) -> Tuple[Tuple[Number, ...], ...]:
        return tuple(tuple(sum(self.p(x, y, z) for y in range(self.ny))
                           for z in range(self.nz)) for x in range(self.nx))

    @cached_property
    def joint_yz(self) -> Tuple[Tuple[Number, ...], ...]:
        return tuple(tuple(sum(self.p(x, y, z) for x in range(self.nx))
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


@dataclass(frozen=True)
class SampleTriple:
    """One draw from the n-fold source: Alice's, Bob's and Eve's strings."""

    x: Tuple[int, ...]
    y: Tuple[int, ...]
    z: Tuple[int, ...]


@dataclass(frozen=True)
class ReconSet:
    """All x-strings whose conditional surprisal given y is at most nu bits.

    members is materialized, sorted by ascending cost (cond_neg_log_prob's
    fsum of per-symbol costs) then lexicographically, so iteration order is
    reproducible across runs and implementations.
    """

    y: Tuple[int, ...]
    nu: float
    members: Tuple[Tuple[int, ...], ...]


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
    """doc[key] read as kind: int by integer's rule, float with bools
    refused, or a str, bool, dict or list as it stands; kind object takes
    any value, for the probability literals _coerce checks.  A missing or
    null field gives default when one is given.  Every other case raises
    MalformedError with a one-line message naming where and key."""
    value = doc.get(key)
    if value is None:
        if default:
            return default[0]
        raise MalformedError(f"{where} is missing the '{key}' field")
    try:
        if kind is int:
            return integer(value)
        if kind is float:
            if not isinstance(value, bool):  # a JSON true is no number
                return float(value)
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
    Omitted (x, y, z) cells are zero.
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
    for index, row in enumerate(rows):
        where = f"pxyz row {index}"
        if not isinstance(row, list) or len(row) != 4:
            raise MalformedError(
                f"{where} must be [x, y, z, probability], got {row!r}")
        cell = dict(zip(("x", "y", "z", "prob"), row))
        x, y, z = (read_field(cell, k, where, int) for k in "xyz")
        if not (0 <= x < nx and 0 <= y < ny and 0 <= z < nz):
            raise MalformedError(f"{where} {row!r} is outside the alphabet")
        table[(x * ny + y) * nz + z] = _coerce(
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

def cond_neg_log_prob(spec: SourceSpec, x: Tuple[int, ...], y: Tuple[int, ...]) -> float:
    """Sum of per-symbol -log2 P(x_i|y_i); inf when any factor is zero."""
    if len(x) != spec.n or len(y) != spec.n:
        raise MalformedError("strings must have length n")
    cost = spec.cost
    return math.fsum(cost[yi][xi] for xi, yi in zip(x, y))


def recon_set(spec: SourceSpec, y: Tuple[int, ...], nu: float) -> ReconSet:
    """All x with cond_neg_log_prob(x, y) <= nu, cost-then-lex ordered.

    Branch and bound over positions: a prefix is abandoned as soon as its
    cost plus the cheapest possible completion exceeds nu.  Every surviving
    internal node has at least one member below it, so the search does
    O(n * |alphabet|) work per member.  Each string the walk reaches is
    scored once, by the fsum rule of cond_neg_log_prob, kept when its score
    is at most nu and ordered by (score, x).  More than RECON_CAP kept
    members raises InfeasibleError, so the cap counts exactly what
    bsc_recon_size does.
    """
    if len(y) != spec.n:
        raise MalformedError("y must have length n")
    n = spec.n
    cap = RECON_CAP
    rows = [spec.cost[yi] for yi in y]  # rows[i][x] = cost of x at position i
    suffix = [0.0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + min(rows[i])
    # tiny slack absorbs rounding drift of the running sum; membership is
    # decided at each leaf by the fsum score
    budget = nu + 1e-9
    kept = []
    prefix = [0] * n
    # iterative depth-first walk (n can exceed the recursion limit):
    # nxt[i] is the next symbol to try at position i, acc[i] the prefix cost
    nxt = [0] * (n + 1)
    acc = [0.0] * (n + 1)
    i = 0 if suffix[0] <= budget else -1
    while i >= 0:
        if i == n:
            score = math.fsum([r[xi] for r, xi in zip(rows, prefix)])
            if score <= nu:
                kept.append((score, tuple(prefix)))
                if len(kept) > cap:
                    raise InfeasibleError(
                        f"reconciliation set exceeds cap {cap} at nu={nu}")
            i -= 1
            continue
        sym = nxt[i]
        if sym >= spec.nx:
            nxt[i] = 0
            i -= 1
            continue
        nxt[i] = sym + 1
        c = acc[i] + rows[i][sym]
        if c + suffix[i + 1] <= budget:
            prefix[i] = sym
            acc[i + 1] = c
            i += 1
    kept.sort()
    return ReconSet(tuple(y), float(nu), tuple(x for _, x in kept))


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

def bsc_radius(p, n: int, nu: float) -> int:
    """Largest d with cost of a distance-d string <= nu; -1 if none.

    For flip probability p <= 1/2 the reconciliation set of y is exactly the
    Hamming ball of this radius around y.  Costs are fsum'd doubles, the
    same rule recon_set membership uses; a correctly rounded sum of
    c1 >= c0 terms cannot fall as d grows, so the radius is bisected.
    """
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


def bsc_recon_size(p, n: int, nu: float) -> int:
    """|R(y)| at every y for flip probability p <= 1/2: the Hamming ball of
    bsc_radius; 0 when even y itself costs more than nu.  This is the count
    recon_set compares with RECON_CAP."""
    total, term = 0, 1
    for d in range(bsc_radius(p, n, nu) + 1):
        total += term
        term = term * (n - d) // (d + 1)  # C(n, d + 1)
    return total


def _member_classes(spec: SourceSpec, nu: float):
    """Yield (a, i, j) for each class of reconciliation-set members, binary
    x and y only: y has a zeros, and x takes the dearer symbol at i of them
    and at j of the other n - a positions.  Classes come in ascending a,
    then i, then j.

    A member's fsum score is the rounded exact sum of four count * cost
    terms, here integers over a power-of-two denominator, and it rises with
    i and j, so each scan stops at its first score above nu.
    """
    n = spec.n
    # cheaper, then dearer, cost per y symbol; None where x is impossible
    ratios = [c.as_integer_ratio() if c < math.inf else None
              for row in spec.cost for c in sorted(row)]
    den = max(r[1] for r in ratios if r)
    nums = [None if r is None else r[0] * (den // r[1]) for r in ratios]

    def score(counts):
        if any(k and m is None for k, m in zip(counts, nums)):
            return math.inf
        return sum(k * m for k, m in zip(counts, nums) if k) / den

    for a in range(n + 1):
        for i in range(a + 1):
            j = 0
            while j <= n - a and score((a - i, i, n - a - j, j)) <= nu:
                yield a, i, j
                j += 1
            if j == 0:
                break


def max_recon_size(spec: SourceSpec, nu: float) -> int:
    """max over y of |R(y)| for binary x and y, counted until it passes
    RECON_CAP, the count recon_set compares with the cap.  |R(y)| depends
    only on y's count a of zeros."""
    sizes = [0] * (spec.n + 1)
    for a, i, j in _member_classes(spec, nu):
        sizes[a] += math.comb(a, i) * math.comb(spec.n - a, j)
        if sizes[a] > RECON_CAP:
            return sizes[a]
    return max(sizes)


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
    for a, i, j in _member_classes(spec, nu):
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
    """log2 P[Binomial(n, flip) > d] for a float flip below 1 and d >= 0,
    in the log domain; summing the upper tail itself keeps a tiny tail
    from cancelling against 1."""
    if flip == 0 or d >= n:
        return -math.inf
    return _log2_binom_sum(n, range(d + 1, n + 1), flip)


def _bsc_closed_form(spec: SourceSpec) -> bool:
    return (spec.bsc is not None and float(spec.bsc[0]) <= 0.5
            and float(spec.bsc[1]) <= 0.5)


def _bsc_masses(spec: SourceSpec, nu: float, tail) -> Tuple:
    """(mass_x, mass_y) as tail(n, d, flip) of the two flip rates."""
    p, q = spec.bsc
    d = bsc_radius(p, spec.n, nu)
    # Both maxima are met by centering the radius-d ball on z: given z, Y
    # flips per symbol with probability p*q' convolution and X with q, both
    # <= 1/2 here, so the ball at the mode carries the most mass.
    yz_flip = p * (1 - q) + q * (1 - p)
    return tail(spec.n, d, yz_flip), tail(spec.n, d, q)


def _all_strings(k: int, n: int):
    return itertools.product(range(k), repeat=n)


def _string_prob(pair_table, a: Tuple[int, ...], b: Tuple[int, ...], one):
    p = one
    for ai, bi in zip(a, b):
        p = p * pair_table[ai][bi]
        if p == 0:
            break
    return p


def guessing_mass(spec: SourceSpec, nu: float) -> Tuple[Number, Number]:
    """Success probabilities of the two optimal guessing strategies.

    mass_x: guess Alice's string x outright and hope it reconciles with the
    unseen y; per z this is max_x of the P(y'|z)-mass of {y' : x in R(y')}.
    mass_y: guess Bob's string y and submit a member of R(y); per z this is
    max_y of the P(x'|z)-mass of R(y).  Both are averaged over z.

    Satellite sources with p, q <= 1/2 use closed-form binomial sums at any
    n; general tables are enumerated exhaustively (small n only).
    """
    if _bsc_closed_form(spec):
        return _bsc_masses(spec, nu, _binom_tail_leq)
    if max(spec.nx, spec.ny, spec.nz) ** spec.n > ENUM_STRINGS_MAX:
        raise InfeasibleError("source too large for exhaustive guessing-mass")
    one = Fraction(1) if spec.exact else 1.0
    pyz, pxz = spec.joint_yz, spec.joint_xz
    ys = list(_all_strings(spec.ny, spec.n))
    xs = list(_all_strings(spec.nx, spec.n))
    members = {y: frozenset(recon_set(spec, y, nu).members) for y in ys}
    mass_x = one * 0
    mass_y = one * 0
    for z in _all_strings(spec.nz, spec.n):
        py_z = {y: _string_prob(pyz, y, z, one) for y in ys}
        px_z = {x: _string_prob(pxz, x, z, one) for x in xs}
        best_x = max(
            (sum(py_z[y] for y in ys if x in members[y]) for x in xs),
            default=one * 0)
        best_y = max(
            (sum(px_z[x] for x in members[y]) for y in ys), default=one * 0)
        mass_x += best_x
        mass_y += best_y
    return mass_x, mass_y


def guessing_log2_mass(spec: SourceSpec, nu: float) -> float:
    """log2 of the larger of the two guessing masses; -inf when both are 0.

    The forgery bounds need only this.  Closed-form satellite sums are taken
    in the log domain, so at large n a mass such as 2^-1080 keeps its value
    instead of underflowing to zero.
    """
    if _bsc_closed_form(spec):
        return max(_bsc_masses(spec, nu, _log2_binom_tail_leq))
    return _log2(max(guessing_mass(spec, nu)))
