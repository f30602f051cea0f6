"""Information-theoretic KEMs over correlated randomness.

Three modes share one parameter object and wire format.  Each fixes
which seeds are fresh and how wide they are (ell is the key length):

  mode      public seed   s on the wire   w, the width of s'
  CEA       n bits        0 bits          n
  CCA       none          n bits          n
  BASELINE  none          n + t bits      n + ell

  CEA       shared-seed mode: the reconciliation seed s is sampled once at
            instance setup, published out of band, and reused by every
            encapsulation; the wire carries only (v, s').
  CCA       authenticated mode: both seeds are fresh per encapsulation and
            travel on the wire; the reconciliation hash is the split-seed
            polynomial family whose two-seed solution counts bound forgery.
  BASELINE  comparison mode: as CEA but with per-encapsulation fresh seeds
            and strongly universal (multiply-add) families for both hashes.

Each ciphertext hashes under one map x -> v that _recon_hash builds from
its mode's seed (the published seed in CEA, the wire's s otherwise, and
in CCA the split of s' too), and extracts keys under one map x -> bits
that _extractor builds from s'.  Encapsulation applies both to Alice's
packed x; decapsulation runs the hash over Bob's reconciliation set,
packed ints from its member classes (source.recon_ints), and accepts iff
exactly one member hashes to v.  None is the rejection value; a set
larger than source.RECON_CAP raises InfeasibleError before any member is
built (an operational failure, never a protocol answer).

The derive_params_* engines turn a source plus security targets
(sigma: key indistinguishability, eps: correctness, delta: forgery) into
maximal key lengths; length bounds are also exposed directly as floats.

Wire layout: "IKEM" || version u8 || mode u8 || n, t, w as u16 || v || s'
|| s, each field big-endian in whole bytes with its padding bits zero.
"""

from __future__ import annotations

import enum
import math
import struct
from fractions import Fraction
from typing import Callable, Optional, Tuple

from . import source as _source  # RECON_CAP is read when a check runs
from .errors import InfeasibleError, MalformedError
from .gf2 import MAX_WIDTH, block, field
from .source import (
    SourceSpec,
    _binom_tail_leq,
    _log2_binom_tail_gt,
    avg_min_entropy_given_z,
    bsc_radius,
    bsc_recon_size,
    guessing_log2_mass,
    max_recon_size,
    miss_mass,
    pack_bits,
    recon_ints,
    require_binary,
    sample,
    shannon_cond_entropy,
    unpack_bits,
)
from .uhash import (ExtractorSeed, ReconSeed, h_cca, h_cea, hprime,
                    piece_count, split_seed)
from .value import Value, set_fields

__all__ = [
    "Mode",
    "IkemParams",
    "IkemKey",
    "IkemCiphertext",
    "IkemInstance",
    "pack_bits",
    "unpack_bits",
    "gen",
    "encap",
    "decap",
    "derive_params_cea",
    "derive_params_cca",
    "derive_params_baseline",
    "cea_length_bound",
    "cca_length_bound",
    "baseline_length_bound",
    "nu_for_correctness",
    "check_enumerable",
    "correctness_bound",
    "distance_bound",
    "forgery_bound",
    "serialize_ciphertext",
    "parse_ciphertext",
    "parse_ciphertext_for",
]

WIRE_MAGIC = b"IKEM"
WIRE_VERSION = 1
_HEADER = struct.Struct(">4sBBHHH")

# slack for comparing a requested integer length against a float bound
_BOUND_TOL = 1e-9


class Mode(enum.IntEnum):
    """The wire code of each mode, and its seed widths."""

    CEA = 1
    CCA = 2
    BASELINE = 3

    @classmethod
    def from_name(cls, value) -> "Mode":
        """The mode named 'cea', 'cca' or 'baseline'."""
        for mode in cls:
            if isinstance(value, str) and value == mode.name.lower():
                return mode
        raise MalformedError(f"unknown mode {value!r}")

    def s_bits(self, n: int, t: int) -> int:
        """Width of the fresh reconciliation seed s; 0 when s is the
        published seed and the wire carries none."""
        if self is Mode.BASELINE:
            return n + t
        return n if self is Mode.CCA else 0

    def seed_width(self, n: int, ell: int) -> int:
        """Width w of the extractor seed s'."""
        if self is Mode.BASELINE:
            return n + ell
        return n


class IkemParams(Value):
    """Everything a deployed instance needs, plus its security targets.

    sigma bounds key distinguishability, eps decapsulation failure, delta
    forgery; q_e and q_d are the adversary's query budgets the targets are
    stated for.  nu is the reconciliation threshold in bits.
    """

    __slots__ = ("mode", "source", "n", "t", "ell", "nu", "r", "w", "sigma",
                 "q_e", "q_d", "eps", "delta")

    def __init__(self, mode: Mode, source: SourceSpec, n: int, t: int,
                 ell: int, nu: float, r: int, w: int, sigma: float, q_e: int,
                 q_d: int, eps: Optional[float] = None,
                 delta: Optional[float] = None) -> None:
        set_fields(self, mode, source, n, t, ell, nu, r, w, sigma, q_e, q_d,
                   eps, delta)
        _checked_nu(source, nu, sigma, q_e, q_d, eps, delta)
        if n != source.n:
            raise MalformedError("n must equal the source repetition count")
        if n > MAX_WIDTH:  # GF(2^n) must be a field encap can build
            raise InfeasibleError(f"n = {n} exceeds the widest "
                                  f"supported field ({MAX_WIDTH} bits)")
        if not 1 <= t:
            raise MalformedError("t must be positive")
        if not 1 <= ell <= n:
            raise MalformedError("ell must be in 1..n")
        need = mode.seed_width(n, ell)
        if w != need:
            raise MalformedError(f"{mode.name} mode needs w = {need}")
        if mode is Mode.CCA:
            if 2 * t > n:
                raise MalformedError("authenticated mode needs t <= n/2")
            if r != piece_count(w, n - t):
                raise MalformedError("piece count inconsistent with w")
        elif r != 0:
            raise MalformedError(f"{mode.name} mode needs r = 0")
        elif t > n:
            raise MalformedError("t must be at most n")


def _checked_nu(source: SourceSpec, nu: Optional[float], sigma: float,
                q_e: int, q_d: int = 0, eps: Optional[float] = None,
                delta: Optional[float] = None) -> float:
    """nu, or when None the nu_for_correctness of eps, once the source has
    binary x and y and sigma, eps, delta and the query budgets are in
    range: derivations take their logarithms."""
    require_binary(source, "encapsulation")
    for name, v in (("sigma", sigma), ("eps", eps), ("delta", delta)):
        if v is not None and not 0 < v <= 1:
            raise MalformedError(f"{name} must be in (0, 1]")
    if q_e < 0 or q_d < 0:
        raise MalformedError("query budgets must be non-negative")
    if nu is None:
        if eps is None:
            raise MalformedError("need nu or eps to fix the threshold")
        nu = nu_for_correctness(source, eps)
    return nu


class IkemKey(Value):
    __slots__ = ("bits", "ell")

    def __init__(self, bits: int, ell: int) -> None:
        set_fields(self, bits, ell)
        if not 0 <= bits < (1 << ell):
            raise MalformedError("key outside its declared length")

    def to_bytes(self) -> bytes:
        return self.bits.to_bytes((self.ell + 7) // 8, "big")


class IkemCiphertext(Value):
    """Hash value plus seeds; s is None in CEA mode (published out of band)."""

    __slots__ = ("v", "sprime", "s")

    def __init__(self, v: int, sprime: int, s: Optional[int]) -> None:
        set_fields(self, v, sprime, s)


class IkemInstance(Value):
    """Private strings from setup plus the CEA-mode public seed."""

    __slots__ = ("x", "y", "z", "public_seed")

    def __init__(self, x: Tuple[int, ...], y: Tuple[int, ...],
                 z: Tuple[int, ...], public_seed: Optional[int]) -> None:
        set_fields(self, x, y, z, public_seed)


# ---------------------------------------------------------------------------
# the protocol

def _su_hash(x: int, seed: int, n: int, out_bits: int) -> int:
    """Strongly universal multiply-add family: top bits of a*x, xor b.

    seed packs (a, b) as a || b with a an n-bit field element and b an
    out_bits-bit mask.
    """
    a = seed >> out_bits
    b = seed & ((1 << out_bits) - 1)
    return block(field(n).mul(a, x), n, 1, out_bits) ^ b


def gen(params: IkemParams, rng) -> IkemInstance:
    """Sample private strings; CEA mode also fixes the shared public seed."""
    trip = sample(params.source, rng)
    pub = rng.getrandbits(params.n) if params.mode is Mode.CEA else None
    return IkemInstance(trip.x, trip.y, trip.z, pub)


def _recon_hash(params: IkemParams, sprime: int, s: Optional[int],
                public_seed: Optional[int]) -> Callable[[int], int]:
    """x -> v for a ciphertext with seeds (s', s): under the published seed
    in shared-seed mode, whose wire carries none, else under s.  The seed
    is checked, and in CCA s' split, once here rather than per hashed x."""
    n, t = params.n, params.t
    if params.mode is Mode.BASELINE:
        return lambda xp: _su_hash(xp, s, n, t)
    if params.mode is Mode.CEA:
        if public_seed is None:
            raise MalformedError("shared-seed mode needs the public seed")
        seed = ReconSeed(public_seed, n, t)
        return lambda xp: h_cea(xp, seed)
    sv = split_seed(sprime, params.w, n - t)
    seed = ReconSeed(s, n, t)
    return lambda xp: h_cca(xp, sv, seed)


def _extractor(params: IkemParams, sprime: int) -> Callable[[int], int]:
    """x -> key bits under seed s', built and checked once, not per x."""
    n, ell = params.n, params.ell
    if params.mode is Mode.BASELINE:
        return lambda xp: _su_hash(xp, sprime, n, ell)
    seed = ExtractorSeed(sprime, params.w, ell)
    return lambda xp: hprime(xp, seed)


def encap(params: IkemParams, x, rng,
          public_seed: Optional[int] = None) -> Tuple[IkemKey, IkemCiphertext]:
    """Derive a fresh key and ciphertext from Alice's string x.

    Seed draw order is fixed for reproducibility: s' first, then (where
    fresh) s, each as getrandbits of its width.
    """
    if len(x) != params.n:
        raise MalformedError("x must have length n")
    xp = pack_bits(x)
    sprime = rng.getrandbits(params.w)
    s_bits = params.mode.s_bits(params.n, params.t)
    s = rng.getrandbits(s_bits) if s_bits else None
    v = _recon_hash(params, sprime, s, public_seed)(xp)
    return (IkemKey(_extractor(params, sprime)(xp), params.ell),
            IkemCiphertext(v, sprime, s))


def _check_ciphertext(params: IkemParams, c: IkemCiphertext) -> None:
    if not 0 <= c.v < (1 << params.t):
        raise MalformedError("hash value outside t bits")
    if not 0 <= c.sprime < (1 << params.w):
        raise MalformedError("seed outside w bits")
    s_bits = params.mode.s_bits(params.n, params.t)
    if s_bits == 0 and c.s is not None:
        raise MalformedError("shared-seed mode carries no s")
    if s_bits and (c.s is None or not 0 <= c.s < (1 << s_bits)):
        raise MalformedError("reconciliation seed missing or too wide")


def decap(params: IkemParams, y, c: IkemCiphertext,
          public_seed: Optional[int] = None) -> Optional[IkemKey]:
    """Return the key iff exactly one reconciliation candidate explains v.

    None means reject: zero candidates or an ambiguous tie.  A candidate
    set too large to enumerate raises InfeasibleError instead, and a y of
    any symbol but 0 and 1 MalformedError.
    """
    if len(y) != params.n:
        raise MalformedError("y must have length n")
    yp = pack_bits(y)
    _check_ciphertext(params, c)
    h = _recon_hash(params, c.sprime, c.s, public_seed)
    match: Optional[int] = None
    for xp in recon_ints(params.source, yp, params.nu):
        if h(xp) == c.v:
            if match is not None:
                return None
            match = xp
    if match is None:
        return None
    return IkemKey(_extractor(params, c.sprime)(match), params.ell)


# ---------------------------------------------------------------------------
# parameter engine

def nu_for_correctness(source: SourceSpec, eps: float) -> float:
    """Reconciliation threshold giving eps-correct decapsulation.

    nu = n H(X|Y) + sqrt(n) log2(|X|+3) sqrt(log2(sqrt(n)/((sqrt(n)-1) eps))).
    """
    if not 0 < eps <= 1:
        raise MalformedError("eps must be in (0, 1]")
    n = source.n
    if n < 2:
        raise InfeasibleError("correctness recipe needs n >= 2")
    rn = math.sqrt(n)
    spread = math.sqrt(math.log2(rn / ((rn - 1) * eps)))
    return n * shannon_cond_entropy(source) + rn * math.log2(source.nx + 3) * spread


def cea_length_bound(source: SourceSpec, sigma: float, q_e: int, t: int) -> float:
    """Largest key length (in bits, real-valued) for the shared-seed mode."""
    n = source.n
    return (n * avg_min_entropy_given_z(source)
            + 2 * math.log2(sigma) + 2 - t) / (q_e + 1)


def baseline_length_bound(source: SourceSpec, sigma: float, q_e: int, t: int) -> float:
    """Prior fresh-seed bound; the query-leakage term vanishes at q_e = 0."""
    n = source.n
    leak = math.log2(q_e / sigma) if q_e > 0 else 0.0
    return (n * avg_min_entropy_given_z(source)
            + 2 * math.log2(sigma) + 2) / (q_e + 1) - t - leak


def cca_length_bound(source: SourceSpec, sigma: float, delta: float,
                     q_e: int, q_d: int, nu: float, t: int) -> float:
    """Authenticated-mode key length: min of the secrecy and forgery bounds."""
    n = source.n
    secrecy = (n * avg_min_entropy_given_z(source)
               + 2 * math.log2(sigma) + 2) / (q_e + 1) - t
    if q_d == 0:
        return secrecy
    # min over the two negative logs = -log of the larger mass
    log_best = guessing_log2_mass(source, nu)
    if log_best == -math.inf:
        return secrecy
    r = piece_count(n, n - t)
    forgery = (t - log_best - n
               - math.log2(q_d * (r + 3) * (r + 2) / delta))
    return min(secrecy, forgery)


def _settle_length(bound: float, ell: Optional[int], n: int) -> int:
    # n caps the length structurally: the extractor output cannot exceed
    # its field width
    if ell is None:
        ell = min(math.floor(bound) if bound < n else n, n)
    if ell < 1:
        raise InfeasibleError(f"no usable key length (bound {bound:.3f})")
    if ell > n:
        raise InfeasibleError("key cannot exceed n bits")
    if ell > bound + _BOUND_TOL:
        raise InfeasibleError(f"requested ell {ell} exceeds bound {bound:.3f}")
    return ell


def derive_params_cea(source: SourceSpec, sigma: float, q_e: int, t: int, *,
                      nu: Optional[float] = None, eps: Optional[float] = None,
                      ell: Optional[int] = None) -> IkemParams:
    """Shared-seed instance with the longest key the secrecy bound allows.

    nu is a free knob here; when omitted it is filled from eps via
    nu_for_correctness, and one of the two must be given.
    """
    nu = _checked_nu(source, nu, sigma, q_e, eps=eps)
    ell = _settle_length(cea_length_bound(source, sigma, q_e, t), ell, source.n)
    return IkemParams(
        mode=Mode.CEA, source=source, n=source.n, t=t, ell=ell, nu=nu,
        r=0, w=Mode.CEA.seed_width(source.n, ell), sigma=sigma, q_e=q_e,
        q_d=0, eps=eps)


def derive_params_cca(source: SourceSpec, eps: float, sigma: float,
                      delta: float, q_e: int, q_d: int, *,
                      nu: Optional[float] = None, t: Optional[int] = None,
                      ell: Optional[int] = None) -> IkemParams:
    """Authenticated instance; nu and minimal t default to the correctness
    recipe, and the key length to the secrecy/forgery minimum."""
    n = source.n
    nu = _checked_nu(source, nu, sigma, q_e, q_d, eps, delta)
    if t is None:
        t = math.ceil(nu + math.log2(math.sqrt(n) / eps))
    if t < 1 or 2 * t > n:
        raise InfeasibleError(f"t = {t} outside 1..n/2")
    ell = _settle_length(
        cca_length_bound(source, sigma, delta, q_e, q_d, nu, t), ell, n)
    return IkemParams(
        mode=Mode.CCA, source=source, n=n, t=t, ell=ell, nu=nu,
        r=piece_count(n, n - t), w=Mode.CCA.seed_width(n, ell), sigma=sigma,
        q_e=q_e, q_d=q_d, eps=eps, delta=delta)


def derive_params_baseline(source: SourceSpec, sigma: float, q_e: int, t: int, *,
                           nu: Optional[float] = None,
                           eps: Optional[float] = None,
                           ell: Optional[int] = None) -> IkemParams:
    """Comparison instance under the prior fresh-seed length bound."""
    nu = _checked_nu(source, nu, sigma, q_e, eps=eps)
    ell = _settle_length(
        baseline_length_bound(source, sigma, q_e, t), ell, source.n)
    return IkemParams(
        mode=Mode.BASELINE, source=source, n=source.n, t=t, ell=ell, nu=nu,
        r=0, w=Mode.BASELINE.seed_width(source.n, ell), sigma=sigma,
        q_e=q_e, q_d=0, eps=eps)


# ---------------------------------------------------------------------------
# analytic guarantees for a parameter set

def _satellite_flip(src: SourceSpec):
    """The flip probability of a satellite source with p <= 1/2, where
    R(y) is a Hamming ball of closed-form radius; None otherwise."""
    if src.bsc is not None and float(src.bsc[0]) <= 0.5:
        return src.bsc[0]
    return None


def check_enumerable(params: IkemParams) -> None:
    """Raise InfeasibleError when decap would refuse to enumerate R(y).

    The derivations stay analytic (the paper's instances have sets far
    beyond any cap); this is the check for an instance that will run.  For
    a satellite source every R(y) has bsc_recon_size members; for any other
    table max_recon_size counts the largest R(y) over the member classes of
    source.recon_ints, the one R(y) walk, which decap and recon_set share.
    Either count is what that walk compares with source.RECON_CAP.
    """
    p = _satellite_flip(params.source)
    size = (bsc_recon_size(p, params.n, params.nu) if p is not None
            else max_recon_size(params.source, params.nu))
    cap = _source.RECON_CAP
    if size > cap:
        raise InfeasibleError(f"reconciliation set of {size} strings "
                              f"exceeds cap {cap}")


def correctness_bound(params: IkemParams) -> float:
    """Upper bound on the decapsulation failure probability.

    Failure is covered by two events: the true x falls outside the
    reconciliation set, or some other member collides with it under the
    t-bit hash (at most |R| * 2^-t).  Satellite sources use the closed
    form; other tables sum their miss mass over the count classes of
    source.miss_mass, kept to the small n the tests check exhaustively.
    """
    src = params.source
    p = _satellite_flip(src)
    if p is not None:
        d = bsc_radius(p, params.n, params.nu)
        if d < 0:
            return 1.0
        if isinstance(p, Fraction):
            miss = float(1 - _binom_tail_leq(params.n, d, p))
        else:  # C(n, j) * p^j would pass the float range at large n
            miss = 2.0 ** _log2_binom_tail_gt(params.n, d, p)
        ball = bsc_recon_size(p, params.n, params.nu)
        collision = ball / 2 ** params.t if ball < 2 ** params.t else 1.0
        return min(1.0, miss + collision)
    if src.n > 12:
        raise InfeasibleError("correctness bound limited to n <= 12 "
                              "for general tables")
    return min(1.0, float(miss_mass(src, params.nu))
               + max_recon_size(src, params.nu) * 2.0 ** -params.t)


def distance_bound(params: IkemParams) -> float:
    """Half the root of 2^(exponent): the key-vs-uniform distance bound.

    Exponent per mode: shared-seed (q_e+1)ell + t - nH; authenticated
    (q_e+1)(ell+t) - nH; comparison (q_e+1)(ell+t+leak) - nH, with
    nH the n-fold residual min-entropy given z.
    """
    nh = params.n * avg_min_entropy_given_z(params.source)
    q1 = params.q_e + 1
    if params.mode is Mode.CEA:
        expo = q1 * params.ell + params.t - nh
    elif params.mode is Mode.CCA:
        expo = q1 * (params.ell + params.t) - nh
    else:
        leak = math.log2(params.q_e / params.sigma) if params.q_e > 0 else 0.0
        expo = q1 * (params.ell + params.t + leak) - nh
    return 0.5 * math.sqrt(2.0 ** expo)


def forgery_bound(params: IkemParams) -> float:
    """Acceptance probability bound for q_d forged ciphertexts."""
    if params.mode is not Mode.CCA:
        raise MalformedError("forgery bound applies to the authenticated mode")
    if params.q_d == 0:
        return 0.0
    log_best = guessing_log2_mass(params.source, params.nu)
    scale = params.q_d * (params.r + 3) * (params.r + 2)
    # the mass joins the exponent before the power is taken, and scale >= 1
    # makes any exponent >= 0 a bound of 1, so 2^(n + ell - t) never
    # overflows at large n
    expo = params.n + params.ell - params.t + log_best
    return min(1.0, scale * 2.0 ** min(expo, 0.0))


# ---------------------------------------------------------------------------
# wire format

def serialize_ciphertext(params: IkemParams, c: IkemCiphertext) -> bytes:
    _check_ciphertext(params, c)
    out = _HEADER.pack(WIRE_MAGIC, WIRE_VERSION, int(params.mode),
                       params.n, params.t, params.w)
    out += c.v.to_bytes((params.t + 7) // 8, "big")
    out += c.sprime.to_bytes((params.w + 7) // 8, "big")
    s_bits = params.mode.s_bits(params.n, params.t)
    if s_bits:
        out += c.s.to_bytes((s_bits + 7) // 8, "big")
    return out


def parse_ciphertext(data: bytes) -> Tuple[Mode, int, int, int, IkemCiphertext]:
    """Strict parse: magic, version, mode, exact length, zero padding bits."""
    if len(data) < _HEADER.size:
        raise MalformedError("ciphertext shorter than its header")
    magic, ver, mode_code, n, t, w = _HEADER.unpack_from(data)
    if magic != WIRE_MAGIC:
        raise MalformedError("bad magic")
    if ver != WIRE_VERSION:
        raise MalformedError(f"unsupported version {ver}")
    try:
        mode = Mode(mode_code)
    except ValueError:
        raise MalformedError(f"unknown mode {mode_code}") from None
    if n < 1 or t < 1 or w < 1:
        raise MalformedError("degenerate header widths")
    s_bits = mode.s_bits(n, t)
    vlen, plen, slen = (t + 7) // 8, (w + 7) // 8, (s_bits + 7) // 8
    if len(data) != _HEADER.size + vlen + plen + slen:
        raise MalformedError("ciphertext length mismatch")
    pos = _HEADER.size
    v = int.from_bytes(data[pos:pos + vlen], "big")
    pos += vlen
    sprime = int.from_bytes(data[pos:pos + plen], "big")
    pos += plen
    s = int.from_bytes(data[pos:], "big") if slen else None
    if (v >= (1 << t) or sprime >= (1 << w)
            or s is not None and s >= (1 << s_bits)):
        raise MalformedError("nonzero padding bits")
    return mode, n, t, w, IkemCiphertext(v, sprime, s)


def parse_ciphertext_for(params: IkemParams, data: bytes) -> IkemCiphertext:
    """Strict parse whose header must name params' mode and widths."""
    mode, n, t, w, c = parse_ciphertext(data)
    if (mode, n, t, w) != (params.mode, params.n, params.t, params.w):
        raise MalformedError("ciphertext header does not match the parameters")
    return c
