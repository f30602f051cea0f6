"""Executable security games and exact small-instance analyzers.

Monte-Carlo runners estimate distinguishing advantages and forgery rates
for the encapsulation, DEM and PRF layers; exact analyzers compute the
same quantities by enumeration at desk scale, so every estimate can be
checked against an independent reference and against the closed-form
bounds of the parameter engine.  Both hash a ciphertext and answer a
receiver y as decap does, through ikem's one memoized reader of its split
pair and ikem's one rule: accept iff exactly one member of R(y) hashes to v.

Estimation protocol: two independent arms, one per challenge bit (kint has
one), each running config.trials trials in order on one rng stream seeded
by (seed, arm).  The report carries |p0 - p1| and the per-arm 99% Hoeffding
half-width sqrt(ln(2/0.01) / (2N)); an estimate within the half-width of
zero is statistically indistinguishable from a zero-advantage adversary.

Oracles enforce the game rules by raising GameRuleError: query budgets,
the bar on handing the challenge ciphertext to a decapsulation or
decryption oracle, the forgery game's replay exclusion, and the PRF
game's distinct-query rule.  A rule violation means a broken adversary,
not a lost trial.

Exact analyzers clear the source table's common denominator and work on
integer-scaled probabilities throughout, so their results are Fractions
with no float rounding anywhere in the accounting.  Seed, trial count and
trial order fix a game's tallies, byte for byte on every run and platform.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
import random
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional, Tuple

from .combiner import (CompPrfKey, ItPrfKey, it_key_width, prf_comp,
                       prf_it)
from .dem import (
    DemCiphertext,
    DemKey,
    DemProfile,
    decrypt_ot,
    decrypt_otcca,
    encrypt_ot,
    encrypt_otcca,
    mac_forgery_bound,
)
from .errors import GameRuleError, InfeasibleError, MalformedError
from .ikem import (
    IkemCiphertext,
    IkemInstance,
    IkemKey,
    IkemParams,
    Mode,
    _extractor,
    _hashes,
    _receiver,
    _recon_hash,
    decap,
    distance_bound,
    encap,
    forgery_bound,
    gen,
    pack_bits,
    unpack_bits,
)
from .source import SourceSpec, recon_ints, require_binary
from .uhash import (PaddedSeedVector, ReconSeed, h_cca_split, split_preimage,
                    split_table)
from .value import Value, set_fields

__all__ = [
    "GameConfig",
    "AdvantageReport",
    "EveView",
    "ForgeryResult",
    "PrfFamily",
    "hoeffding_halfwidth",
    "run_pkind",
    "run_kint",
    "run_dem_ind",
    "run_pri",
    "brute_force_forger",
    "exact_distance",
    "exact_pri_advantage",
    "count_solutions_lemma6",
    "RandomGuessPkind",
    "CheatingPkind",
    "BayesPkind",
    "RandomCiphertextForger",
    "FixedForger",
    "BruteForceKint",
    "ContrastDemDistinguisher",
    "RandomGuessPri",
    "identity_dem_encrypt",
    "identity_dem_decrypt",
    "it_prf_family",
    "comp_prf_family",
]

PKIND_ATTACKS = ("ot", "cea", "cca")
DEM_ATTACKS = ("ot", "otcca")

# Enumeration ceilings: candidate (x, y) pairs for posterior analysis, the
# inner-product count of the distance enumeration, and the entries of one
# block of its challenge selector or product.
PAIR_MAX = 1 << 13
FLOP_MAX = 1 << 35
SELECT_MAX = 1 << 18
COUNT_N_MAX = 16
# Most pairs and x weights one spec's posterior memo keeps (about 40 MiB of
# pairs); a posterior past it is rebuilt on every call.
POSTERIOR_MEMO_MAX = 1 << 18

# Confidence of each arm's Hoeffding radius, and how many radii past its
# bound an estimate must sit before a report says the bound is exceeded.
CONFIDENCE = 0.99
BOUND_SLACK = 2.0


# ---------------------------------------------------------------------------
# configuration and reports

class GameConfig(Value):
    """What to run: attack flavor, sample size, budgets, rng seed.

    params carries the encapsulation instance parameters (pkind and kint
    games), dem the profile for the DEM game.  target optionally pins
    Eve's string: trials then resample the private strings from the
    conditional source distribution, which is how an adversary's exact
    conditional success probability is checked by simulation.  leak hands
    the adversary Alice's string and exists only for calibration
    fixtures.
    """

    __slots__ = ("atk", "trials", "q_e", "q_d", "seed", "params", "dem",
                 "target", "leak")

    def __init__(self, atk: str, trials: int, q_e: int = 0, q_d: int = 0,
                 seed: int = 0, params: Optional[IkemParams] = None,
                 dem: Optional[DemProfile] = None,
                 target: Optional[Tuple[int, ...]] = None,
                 leak: bool = False) -> None:
        set_fields(self, atk, trials, q_e, q_d, seed, params, dem, target,
                   leak)
        if trials < 1:
            raise MalformedError("trials must be positive")
        if q_e < 0 or q_d < 0:
            raise MalformedError("query budgets must be non-negative")
        if target is not None and params is not None:
            if len(target) != params.n:
                raise MalformedError("target string must have length n")


class AdvantageReport(Value):
    """Two-arm estimate with its confidence radius and the declared bound.

    estimate is |p0 - p1|; halfwidth applies to each arm separately.
    bound is the closed-form comparison value, or None when no closed
    form covers the configuration.
    """

    __slots__ = ("game", "atk", "estimate", "halfwidth", "bound", "n_trials",
                 "p0", "p1")

    def __init__(self, game: str, atk: str, estimate: float,
                 halfwidth: float, bound: Optional[float], n_trials: int,
                 p0: float, p1: float) -> None:
        set_fields(self, game, atk, estimate, halfwidth, bound, n_trials, p0,
                   p1)

    def to_json_line(self) -> str:
        return json.dumps({
            "game": self.game,
            "atk": self.atk,
            "estimate": self.estimate,
            "halfwidth": self.halfwidth,
            "bound": self.bound,
            "n_trials": self.n_trials,
        })

    def exceeds_bound(self) -> bool:
        """True when the estimate is beyond bound plus BOUND_SLACK
        half-widths."""
        if self.bound is None:
            return False
        return self.estimate > self.bound + BOUND_SLACK * self.halfwidth


class EveView(Value):
    """What the adversary legitimately sees at the start of a trial."""

    __slots__ = ("z", "public_seed", "x")

    def __init__(self, z: Tuple[int, ...], public_seed: Optional[int],
                 x: Optional[Tuple[int, ...]] = None) -> None:
        set_fields(self, z, public_seed, x)


def hoeffding_halfwidth(trials: int) -> float:
    """Per-arm radius h with P(|p_hat - p| >= h) <= 1 - CONFIDENCE."""
    if trials < 1:
        raise MalformedError("trials must be positive")
    return math.sqrt(math.log(2.0 / (1.0 - CONFIDENCE)) / (2.0 * trials))


def _arm_trials(config: GameConfig, arm: str):
    """One arm's one rng, once per trial; string seeding hashes the label,
    so the stream is stable across platforms."""
    return itertools.repeat(random.Random(f"{config.seed}:{arm}"),
                            config.trials)


def _two_arm_report(config: GameConfig, game: str, arm: str,
                    trial: Callable[[int, Any], int],
                    bound: Callable[[], Optional[float]]) -> AdvantageReport:
    """Run trial(b, rng) on every trial of arms arm0 and arm1, where b is
    the challenge bit and the result the distinguisher's bit; bound() is
    read once the trials are done."""
    rates = []
    for b in (0, 1):
        ones = 0
        for rng in _arm_trials(config, f"{arm}{b}"):
            guess = trial(b, rng)
            if guess not in (0, 1):
                raise GameRuleError("distinguisher must output a bit")
            ones += guess
        rates.append(ones / config.trials)
    return AdvantageReport(game, config.atk, abs(rates[0] - rates[1]),
                           hoeffding_halfwidth(config.trials), bound(),
                           config.trials, rates[0], rates[1])


# ---------------------------------------------------------------------------
# sampling and enumeration given Eve's string

def _gen_conditioned(params: IkemParams, z: Tuple[int, ...], rng) -> IkemInstance:
    """Sample (x, y) from the source conditioned on Eve's pinned string."""
    table = params.source.cond_cells
    xs, ys = [], []
    for zi in z:
        if not 0 <= zi < params.source.nz:
            raise MalformedError("target symbol outside the z alphabet")
        cums, cells, total = table[zi]
        if total == 0:
            raise MalformedError("target string has zero probability")
        x, y = cells[bisect.bisect_right(cums, rng.randrange(total))]
        xs.append(x)
        ys.append(y)
    pub = rng.getrandbits(params.n) if params.mode is Mode.CEA else None
    return IkemInstance(tuple(xs), tuple(ys), tuple(z), pub)


def _posterior(spec: SourceSpec, z, joint: bool):
    """Eve's posterior given z in integer weights, memoized on the spec:
    every bit-packed (x, y, weight) pair when joint, else packed x -> the
    sum of its pairs' weights, which is the product of its per-position
    sums over y.

    Zero-weight branches are pruned as the product is extended position by
    position, so the size tracks the posterior support, not 4^n.  Both
    forms count the pair support at each prefix and refuse it above
    PAIR_MAX.  The memo keeps at most POSTERIOR_MEMO_MAX pairs and weights.
    """
    z = tuple(z)
    memo = spec.posteriors
    if (z, joint) in memo.entries:
        return memo.entries[z, joint]
    if len(z) != spec.n:
        raise MalformedError("z must have length n")
    require_binary(spec, "pair enumeration")
    _, scaled = spec.scaled
    acc: list = [(0, 0, 1)] if joint else [(0, 1)]
    support = 1
    for zi in z:
        if not 0 <= zi < spec.nz:
            raise MalformedError("symbol outside the z alphabet")
        cells = [(x, y, w) for x in (0, 1) for y in (0, 1)
                 if (w := scaled[(x * 2 + y) * spec.nz + zi])]
        support *= len(cells)
        if support > PAIR_MAX:
            raise InfeasibleError("posterior support exceeds the pair ceiling")
        if joint:
            acc = [((xp << 1) | x, (yp << 1) | y, wt * w)
                   for xp, yp, wt in acc for x, y, w in cells]
        else:
            per_x = [0, 0]
            for x, _, w in cells:
                per_x[x] += w
            acc = [((xp << 1) | x, wt * w)
                   for xp, wt in acc for x, w in enumerate(per_x) if w]
    if not acc:
        raise MalformedError("target string has zero probability")
    result = tuple(acc) if joint else dict(acc)
    if memo.size + len(result) <= POSTERIOR_MEMO_MAX:
        memo.entries[z, joint] = result
        memo.size += len(result)
    return result


def _enumerate_pairs(spec: SourceSpec, z) -> Tuple[Tuple[int, int, int], ...]:
    """All (x, y) bit-packed pairs with their integer weights given z."""
    return _posterior(spec, z, True)


def _x_weights(spec: SourceSpec, z) -> Dict[int, int]:
    """Packed x -> its posterior weight given z, the sum of its pairs'
    weights, without building the pairs.  The dict is the memo's own:
    read it, never change it."""
    return _posterior(spec, z, False)


def _need_params(config: GameConfig) -> IkemParams:
    if config.params is None:
        raise MalformedError("this game needs config.params")
    return config.params


# ---------------------------------------------------------------------------
# encapsulation-layer oracles

class PkemOracle:
    """Encapsulation/decapsulation oracle pair with hard budgets.

    atk selects which oracles exist; the forgery game gets both.  Once
    the challenge is set, it is barred from decapsulation.  Every
    encapsulation output is recorded so the forgery game can apply its
    replay exclusion.
    """

    def __init__(self, params: IkemParams, instance: IkemInstance, atk: str,
                 q_e: int, q_d: int, rng) -> None:
        self._params = params
        self._inst = instance
        self._atk = atk
        self._rng = rng
        self.encaps_left = q_e if atk in ("cea", "cca", "kint") else 0
        self.decaps_left = q_d if atk in ("cca", "kint") else 0
        self.encap_outputs: List[IkemCiphertext] = []
        self._barred: Optional[IkemCiphertext] = None

    def bar(self, c: IkemCiphertext) -> None:
        self._barred = c

    def encap(self) -> Tuple[IkemKey, IkemCiphertext]:
        if self._atk not in ("cea", "cca", "kint"):
            raise GameRuleError(f"no encapsulation oracle under atk={self._atk}")
        if self.encaps_left <= 0:
            raise GameRuleError("encapsulation budget exhausted")
        self.encaps_left -= 1
        k, c = encap(self._params, self._inst.x, self._rng,
                     self._inst.public_seed)
        self.encap_outputs.append(c)
        return k, c

    def decap(self, c: IkemCiphertext) -> Optional[IkemKey]:
        if self._atk not in ("cca", "kint"):
            raise GameRuleError(f"no decapsulation oracle under atk={self._atk}")
        if self.decaps_left <= 0:
            raise GameRuleError("decapsulation budget exhausted")
        if self._barred is not None and c == self._barred:
            raise GameRuleError("challenge ciphertext is barred from decapsulation")
        self.decaps_left -= 1
        return decap(self._params, self._inst.y, c, self._inst.public_seed)


def _pkem_trial(params: IkemParams, config: GameConfig, rng):
    """(instance, oracle, Eve's view) at the start of an encapsulation-layer
    trial; the instance is conditioned on the pinned target, if any."""
    if config.target is not None:
        inst = _gen_conditioned(params, tuple(config.target), rng)
    else:
        inst = gen(params, rng)
    oracle = PkemOracle(params, inst, config.atk, config.q_e, config.q_d, rng)
    view = EveView(inst.z, inst.public_seed, inst.x if config.leak else None)
    return inst, oracle, view


def _explains(params: IkemParams, transcript, pub) -> Callable[[int], bool]:
    """Packed x -> whether it explains every (key, ciphertext) of the
    transcript, a None key leaving the hash value alone to check.  One
    reader serves each hashing seed (in CEA, the published seed of every
    entry), one extractor each key, and hash values are checked first."""
    readers: Dict[object, Callable[[int], int]] = {}
    hashes = []
    for _, c in transcript:
        seeds = None if params.mode is Mode.CEA else (c.sprime, c.s)
        if seeds not in readers:
            readers[seeds] = _hashes(params, c.sprime, c.s, pub)
        hashes.append((c.v, readers[seeds]))
    keys = [(k.bits, _extractor(params, c.sprime))
            for k, c in transcript if k is not None]

    def explains(xp: int) -> bool:
        for v, h in hashes:
            if h(xp) != v:
                return False
        for bits, extract in keys:
            if extract(xp) != bits:
                return False
        return True
    return explains


def _honest_redraw(params: IkemParams, xp: int, avoid, rng, pub):
    """An honest encapsulation under packed x other than avoid, or None
    when 64 draws all return avoid."""
    x = unpack_bits(xp, params.n)
    for _ in range(64):
        _, c = encap(params, x, rng, pub)
        if c != avoid:
            return c
    return None


# ---------------------------------------------------------------------------
# key indistinguishability

def _pkind_bound(params: IkemParams, config: GameConfig) -> Optional[float]:
    if config.atk == "ot":
        return distance_bound(params.replace(q_e=0))
    if config.atk == "cea":
        return distance_bound(params.replace(q_e=config.q_e))
    if params.mode is Mode.CCA:
        # chosen-ciphertext advantage via the composition route: twice the
        # per-query forgery bound plus the passive-query distance
        forged = forgery_bound(params.replace(q_d=config.q_d))
        return min(1.0, 2.0 * config.q_d * forged
                   + distance_bound(params.replace(q_e=config.q_e)))
    return None


def run_pkind(config: GameConfig, adversary) -> AdvantageReport:
    """Two-arm key-indistinguishability experiment.

    Each trial draws a fresh instance (or one conditioned on the pinned
    target), lets the adversary query its phase-1 oracle, encapsulates
    the challenge, hands over either the real or a uniform key by arm,
    and records the adversary's bit.
    """
    params = _need_params(config)
    if config.atk not in PKIND_ATTACKS:
        raise MalformedError(f"pkind attack must be one of {PKIND_ATTACKS}")

    def trial(b, rng):
        inst, oracle, view = _pkem_trial(params, config, rng)
        st = adversary.phase1(params, view, oracle, rng)
        k_star, c_star = encap(params, inst.x, rng, inst.public_seed)
        if b == 0:
            k_b = k_star
        else:
            k_b = IkemKey(rng.getrandbits(params.ell), params.ell)
        oracle.bar(c_star)
        return adversary.phase2(params, view, st, c_star, k_b, oracle, rng)

    return _two_arm_report(config, "pkind", "pkind", trial,
                           lambda: _pkind_bound(params, config))


class RandomGuessPkind:
    """Zero-advantage reference: ignores everything, flips a coin."""

    def phase1(self, params, view, oracle, rng):
        return None

    def phase2(self, params, view, st, c_star, k_b, oracle, rng):
        return rng.getrandbits(1)


class CheatingPkind:
    """Calibration fixture: reads Alice's string through the leak and
    recomputes the real key.  Needs GameConfig.leak."""

    def phase1(self, params, view, oracle, rng):
        if view.x is None:
            raise GameRuleError("cheating fixture needs the leak enabled")
        return None

    def phase2(self, params, view, st, c_star, k_b, oracle, rng):
        xp = pack_bits(view.x)
        return 0 if _extractor(params, c_star.sprime)(xp) == k_b.bits else 1


class BayesPkind:
    """Exact-posterior distinguisher: the desk-scale optimal adversary.

    Conditions on everything its oracles reveal: Eve's string, the public
    seed, every query transcript, and the challenge ciphertext.  With
    probe=True and decapsulation budget it additionally spends one query
    on an honest encapsulation of the runner-up candidate and conditions
    on the answer.  The final decision compares the posterior mass of the
    observed key against the uniform benchmark in integer arithmetic.
    Without a probe the posterior is taken over x alone; only the probe
    needs the (x, y) pairs.
    """

    def __init__(self, probe: bool = False) -> None:
        self.probe = probe

    def phase1(self, params, view, oracle, rng):
        transcript = []
        while oracle.encaps_left > 0:
            transcript.append(oracle.encap())
        return transcript

    def phase2(self, params, view, transcript, c_star, k_b, oracle, rng):
        prior = _x_weights(params.source, view.z)
        pub = view.public_seed
        explains = _explains(params, transcript + [(None, c_star)], pub)
        extract = _extractor(params, c_star.sprime)
        chal_key = {xp: extract(xp) for xp in prior if explains(xp)}
        weight = {xp: prior[xp] for xp in chal_key}
        if self.probe and oracle.decaps_left > 0 and weight:
            weight = self._probe(params, view.z, weight, c_star, pub, oracle,
                                 rng)
        mass = sum(wt for xp, wt in weight.items() if chal_key[xp] == k_b.bits)
        return 0 if (mass << params.ell) > sum(weight.values()) else 1

    def _probe(self, params, z, weight, c_star, pub, oracle, rng):
        """The x-weights of weight's pairs whose receiver answers an honest
        encapsulation under the runner-up x as the oracle does."""
        ranked = sorted(weight, key=lambda xp: (-weight[xp], xp))
        target = ranked[1] if len(ranked) > 1 else ranked[0]
        probe_c = _honest_redraw(params, target, c_star, rng, pub)
        if probe_c is None:
            return weight
        answer = oracle.decap(probe_c)
        keep = [p for p in _enumerate_pairs(params.source, z)
                if p[0] in weight]
        receive = _receiver(params, probe_c, pub)
        verdict = {yp: receive(recon_ints(params.source, yp, params.nu))
                   for yp in {p[1] for p in keep}}
        kept: Dict[int, int] = {}
        for xp, yp, wt in keep:
            if verdict[yp] == answer:
                kept[xp] = kept.get(xp, 0) + wt
        return kept


# ---------------------------------------------------------------------------
# ciphertext integrity

def run_kint(config: GameConfig, adversary) -> AdvantageReport:
    """Forgery-rate experiment: single arm, one encapsulation query.

    The adversary's output never wins when it replays an oracle output.
    The reported bound is the closed-form forgery bound of the params'
    declared budgets (None outside the authenticated mode).
    """
    params = _need_params(config)
    if config.atk != "kint":
        raise MalformedError("run_kint needs atk='kint'")
    if config.q_e != 1:
        raise MalformedError(
            "the integrity game is analyzed at exactly one encapsulation query")
    wins = 0
    for rng in _arm_trials(config, "kint"):
        inst, oracle, view = _pkem_trial(params, config, rng)
        forged = adversary.forge(params, view, oracle, rng)
        if not isinstance(forged, IkemCiphertext):
            raise GameRuleError("forger must output a ciphertext")
        if any(forged == c for c in oracle.encap_outputs):
            continue
        if decap(params, inst.y, forged, inst.public_seed) is not None:
            wins += 1
    rate = wins / config.trials
    bound = forgery_bound(params) if params.mode is Mode.CCA else None
    return AdvantageReport("kint", "kint", rate,
                           hoeffding_halfwidth(config.trials), bound,
                           config.trials, rate, 0.0)


class RandomCiphertextForger:
    """Submits a fresh uniformly random well-formed ciphertext."""

    def forge(self, params, view, oracle, rng):
        v = rng.getrandbits(params.t)
        sprime = rng.getrandbits(params.w)
        s_bits = params.mode.s_bits(params.n, params.t)
        return IkemCiphertext(v, sprime,
                              rng.getrandbits(s_bits) if s_bits else None)


class FixedForger:
    """Replays one precomputed forgery every trial (conditional-rate probe)."""

    def __init__(self, ciphertext: IkemCiphertext) -> None:
        self.ciphertext = ciphertext

    def forge(self, params, view, oracle, rng):
        return self.ciphertext


class BruteForceKint:
    """Runs the exhaustive forger on each trial's Eve view under a
    z-derived rng, so the chosen forgery does not depend on trial order.

    Without the query, forgeries are memoized per z.  With use_query each
    trial's forgery depends on its own query transcript, so the forger
    runs every trial; only the posterior pairs, memoized per z on the
    source, are reused.
    """

    def __init__(self, use_query: bool = False) -> None:
        self.use_query = use_query
        self._cache: Dict[Tuple[int, ...], IkemCiphertext] = {}

    def forge(self, params, view, oracle, rng):
        if self.use_query:
            k, c = oracle.encap()
            result = brute_force_forger(params, view.z,
                                        random.Random(f"forge:{view.z}"),
                                        key=k, ciphertext=c,
                                        public_seed=view.public_seed)
            return result.ciphertext
        if view.z not in self._cache:
            result = brute_force_forger(params, view.z,
                                        random.Random(f"forge:{view.z}"),
                                        public_seed=view.public_seed)
            self._cache[view.z] = result.ciphertext
        return self._cache[view.z]


class ForgeryResult(Value):
    """Chosen forgery plus its exact acceptance probability.

    score_x / score_y are the two guessing strategies' figures of merit
    (joint posterior mass of the acceptance region); p_success is the
    true acceptance probability of the emitted ciphertext against the
    posterior, decided by running the actual decapsulation.
    """

    __slots__ = ("ciphertext", "p_success", "score_x", "score_y", "strategy",
                 "x_forged")

    def __init__(self, ciphertext: IkemCiphertext, p_success: Fraction,
                 score_x: Fraction, score_y: Fraction, strategy: str,
                 x_forged: Tuple[int, ...]) -> None:
        set_fields(self, ciphertext, p_success, score_x, score_y, strategy,
                   x_forged)


def brute_force_forger(params: IkemParams, z, rng,
                       key: Optional[IkemKey] = None,
                       ciphertext: Optional[IkemCiphertext] = None,
                       public_seed: Optional[int] = None) -> ForgeryResult:
    """Best forgery under the two exhaustive guessing strategies.

    Strategy one guesses Alice's string outright, weighting each
    candidate by the posterior mass of the receivers that would accept
    it.  Strategy two guesses Bob's string and submits its likeliest
    acceptable candidate.  The emitted ciphertext is an honest
    encapsulation of the winning guess (never equal to a supplied query
    ciphertext), and p_success is its exact acceptance probability.
    """
    spec = params.source
    z = tuple(z)
    if (key is None) != (ciphertext is None):
        raise MalformedError("a query transcript needs both key and ciphertext")
    pairs = _enumerate_pairs(spec, z)
    if key is not None:
        explains = _explains(params, [(key, ciphertext)], public_seed)
        good = {xp for xp in {p[0] for p in pairs} if explains(xp)}
        pairs = [p for p in pairs if p[0] in good]
        if not pairs:
            raise MalformedError("transcript inconsistent with the source")
    total = sum(wt for _, _, wt in pairs)
    members = {yp: frozenset(recon_ints(spec, yp, params.nu))
               for yp in {p[1] for p in pairs}}
    score_x: Dict[int, int] = {xp: 0 for xp in {p[0] for p in pairs}}
    score_y: Dict[int, int] = {yp: 0 for yp in members}
    pair_wt: Dict[Tuple[int, int], int] = {}
    for xp, yp, wt in pairs:
        pair_wt[(xp, yp)] = pair_wt.get((xp, yp), 0) + wt
        if xp in members[yp]:
            score_x[xp] += wt
            score_y[yp] += wt
    x_star = min(score_x, key=lambda xp: (-score_x[xp], xp))
    y_star = min(score_y, key=lambda yp: (-score_y[yp], yp))
    from_y = [xp for xp in members[y_star] if (xp, y_star) in pair_wt]
    if from_y:
        x_from_y = min(from_y, key=lambda xp: (-pair_wt[(xp, y_star)], xp))
    else:
        x_from_y = x_star
    if score_x[x_star] >= score_y[y_star]:
        strategy, x_f = "x", x_star
    else:
        strategy, x_f = "y", x_from_y
    forged = _honest_redraw(params, x_f, ciphertext, rng, public_seed)
    if forged is None:
        raise InfeasibleError("could not draw a forgery distinct from the query")
    receive = _receiver(params, forged, public_seed)
    accepted = {yp for yp, r_y in members.items() if receive(r_y) is not None}
    won = sum(wt for _, yp, wt in pairs if yp in accepted)
    return ForgeryResult(forged, Fraction(won, total),
                         Fraction(score_x[x_star], total),
                         Fraction(score_y[y_star], total),
                         strategy, unpack_bits(x_f, params.n))


# ---------------------------------------------------------------------------
# exact key-uniformity distance

def exact_distance(params: IkemParams, q_e: int) -> Fraction:
    """Exact statistical distance of the session key from uniform.

    Enumerates Eve's full passive view after q_e encapsulation queries plus
    the challenge, in two parts.  The query cell is what she sees before
    the challenge: the published seed's hash value (shared-seed mode), then
    per query its hash value (fresh seeds only) and its key.  The challenge
    shows its key, plus its hash value where seeds are fresh.  One
    selector, a row per (shown value, challenge seed), marks the x showing
    that value; for each grouping of x into query cells, |2^ell M - tot| is
    summed over the key digit.  Arithmetic is integer-scaled end to end.
    """
    if q_e < 0:
        raise MalformedError("q_e must be non-negative")
    spec = params.source
    denom, _ = spec.scaled
    n, t = params.n, params.t
    X, Z = 1 << n, spec.nz ** n
    out = 1 << params.ell
    # G published seeds (shared-seed mode), NQ seed pairs sigma = (s', s)
    # per ciphertext, packed as s' * 2^s_bits + s
    shared = params.mode is Mode.CEA
    s_bits = params.mode.s_bits(n, t)
    G, NQ = (X if shared else 1), 1 << (params.w + s_bits)
    shown_bits = params.ell if shared else t + params.ell
    cells_cap = min(X, 1 << (t + q_e * shown_bits))
    n_seeds = G * NQ ** (q_e + 1)
    if n_seeds * out * X * cells_cap * Z > FLOP_MAX:
        raise InfeasibleError("view enumeration exceeds the work ceiling")
    if 2 * out * denom ** n * NQ >= 1 << 52:
        raise InfeasibleError("scaled masses overflow exact float accounting")
    import numpy as np  # loaded here, so only an exact analysis pays for it

    # W[x, z]: scaled mass, the n-fold Kronecker product of the per-symbol
    # table, first symbol the most significant index digit on both axes
    W = np.ones((1, 1))
    sym = np.array([[p * denom for p in row] for row in spec.joint_xz],
                   dtype=float)
    for _ in range(n):
        W = np.kron(W, sym)
    # code[sigma][x]: the shown value; base[g][x]: the cell before queries;
    # key rows map the extractor, hash rows tabulate split pairs at t
    code = np.repeat(np.array([list(map(_extractor(params, sp), range(X)))
                               for sp in range(1 << params.w)]),
                     1 << s_bits, axis=0)
    seeds = ([(0, None, g) for g in range(G)] if shared
             else [(*divmod(sigma, 1 << s_bits), None) for sigma in range(NQ)])
    V = np.array([split_table(_recon_hash(params, *a), n, t) for a in seeds])
    base, code = ((V, code) if shared
                  else (V[:1] * 0, code + (V << params.ell)))

    total, xs = 0, np.arange(X)
    step = max(1, SELECT_MAX // ((1 << shown_bits) * max(X, cells_cap * Z)))
    for lo in range(0, NQ, step):
        block = code[lo:lo + step]
        sel = np.zeros((len(block) << shown_bits, X))
        sel[np.arange(len(block))[:, None] << shown_bits | block, xs] = 1.0
        for cell0 in base:
            for qseeds in itertools.product(range(NQ), repeat=q_e):
                cell = cell0
                for sigma in qseeds:
                    cell = cell << shown_bits | code[sigma]
                _, inv = np.unique(cell, return_inverse=True)
                B = np.zeros((X, inv.max() + 1, Z))
                B[xs, inv] = W
                T = (sel @ B.reshape(X, -1)).reshape(-1, out, B[0].size)
                tot = T.sum(axis=1, keepdims=True)
                total += int(round(np.abs(T * out - tot).sum()))
    return Fraction(total, 2 * out * denom ** n * n_seeds)


# ---------------------------------------------------------------------------
# solution counting for the split polynomial hash

def _check_seed_tuple(n: int, t: int,
                      seed) -> Tuple[PaddedSeedVector, ReconSeed]:
    """The split hash's seed for a (pieces, s2, s1) tuple, as h_cca_split
    takes it.  The pieces' count and range are PaddedSeedVector's to check;
    s2 and s1 are checked here, since an s1 too wide spills into s2's bits
    where ReconSeed cannot see it."""
    try:
        pieces, s2, s1 = seed
        pieces = tuple(int(p) for p in pieces)
        s2, s1 = int(s2), int(s1)
    except (TypeError, ValueError) as e:
        raise MalformedError(f"seed tuple must be (pieces, s2, s1): {e!r}") from None
    sv = PaddedSeedVector(pieces, n - t, len(pieces) * (n - t))
    if not 0 <= s2 < 1 << (n - t):
        raise MalformedError("s2 outside GF(2^(n-t))")
    if not 0 <= s1 < 1 << t:
        raise MalformedError("s1 outside GF(2^t)")
    return sv, ReconSeed((s2 << t) | s1, n, t)


def count_solutions_lemma6(n: int, t: int, seed, seed_f, v: int, v_f: int,
                           part: str, e: Optional[int] = None) -> int:
    """Exhaustive count of inputs explaining two hash targets at once.

    part 'i': inputs x with h(x, seed) = v and h(x, seed_f) = v_f, for
    two distinct seed tuples.  part 'ii': inputs x with
    h(x xor e, seed) = v and h(x, seed_f) = v_f for a nonzero offset e,
    where the forged (value, seed) tuple differs from the original.
    Seed tuples are (pieces, s2, s1) with r = len(pieces).
    """
    if part not in ("i", "ii"):
        raise MalformedError("part must be 'i' or 'ii'")
    if not 1 <= t or 2 * t > n:
        raise MalformedError("the split family needs 1 <= t <= n/2")
    if n > COUNT_N_MAX:
        raise InfeasibleError("exhaustive counting capped at n <= 16")
    a = _check_seed_tuple(n, t, seed)
    b = _check_seed_tuple(n, t, seed_f)
    if a[0].r != b[0].r:
        raise MalformedError("seed tuples must share the piece count")
    if not (0 <= v < (1 << t) and 0 <= v_f < (1 << t)):
        raise MalformedError("targets outside GF(2^t)")
    if part == "i":
        if e is not None:
            raise MalformedError("part 'i' takes no offset")
        if a == b:
            raise MalformedError("part 'i' needs distinct seed tuples")
        e = 0
    else:
        if e is None or not 0 < e < (1 << n):
            raise MalformedError("part 'ii' needs a nonzero n-bit offset")
        if (v, a) == (v_f, b):
            raise MalformedError(
                "part 'ii' needs the forged tuple to differ from the original")
    # x counts iff x xor e is in S_a(v) and x is in S_b(v_f)
    shifted = {x ^ e for x in split_preimage(h_cca_split(*a), n, t, v)}
    return len(shifted.intersection(split_preimage(h_cca_split(*b), n, t,
                                                   v_f)))


# ---------------------------------------------------------------------------
# DEM indistinguishability

class DemOracle:
    """Decryption oracle for the one-time chosen-ciphertext row."""

    def __init__(self, atk: str, decrypt_fn: Callable, q_d: int,
                 barred: DemCiphertext) -> None:
        self._atk = atk
        self._fn = decrypt_fn
        self.queries_left = q_d if atk == "otcca" else 0
        self._barred = barred

    def decrypt(self, c: DemCiphertext) -> Optional[bytes]:
        if self._atk != "otcca":
            raise GameRuleError(f"no decryption oracle under atk={self._atk}")
        if self.queries_left <= 0:
            raise GameRuleError("decryption budget exhausted")
        if c == self._barred:
            raise GameRuleError("challenge ciphertext is barred from decryption")
        self.queries_left -= 1
        return self._fn(c)


def run_dem_ind(config: GameConfig, adversary,
                encrypt: Optional[Callable] = None,
                decrypt: Optional[Callable] = None) -> AdvantageReport:
    """Two-arm DEM distinguishing experiment (one-time rows only).

    encrypt/decrypt default to the real one-time scheme of the configured
    profile and attack row; injectable stand-ins (such as the identity
    stub) exist for calibrating the harness.  The reported bound is 0 for
    the passive row and the chosen-ciphertext row's forgery bound scaled
    by the query budget otherwise.
    """
    if config.dem is None:
        raise MalformedError("this game needs config.dem")
    profile = config.dem
    if config.atk not in DEM_ATTACKS:
        raise MalformedError(f"dem attack must be one of {DEM_ATTACKS}")
    otcca = config.atk == "otcca"
    key_bits = profile.otcca_key_bits if otcca else profile.ot_key_bits
    if encrypt is None:
        encrypt = ((lambda key, m: encrypt_otcca(key, m, profile)) if otcca
                   else (lambda key, m: encrypt_ot(key, m, profile)))
    if decrypt is None:
        decrypt = ((lambda key, c: decrypt_otcca(key, c, profile)) if otcca
                   else (lambda key, c: decrypt_ot(key, c, profile)))
    longest = 0

    def trial(b, rng):
        nonlocal longest
        kbits = rng.getrandbits(key_bits)
        m0, m1, st = adversary.choose(profile, rng)
        if not (isinstance(m0, bytes) and isinstance(m1, bytes)
                and len(m0) == len(m1)):
            raise GameRuleError(
                "challenge messages must be equal-length byte strings")
        longest = max(longest, len(m0))
        c_star = encrypt(DemKey(kbits, key_bits), (m0, m1)[b])
        oracle = DemOracle(config.atk,
                           lambda c: decrypt(DemKey(kbits, key_bits), c),
                           config.q_d, c_star)
        return adversary.distinguish(profile, st, c_star, oracle, rng)

    return _two_arm_report(
        config, "dem-ind", "dem", trial,
        lambda: min(1.0, config.q_d * mac_forgery_bound(profile, longest))
        if otcca else 0.0)


class ContrastDemDistinguisher:
    """Submits 16 zero bytes vs 16 0xff bytes and matches the challenge
    body."""

    M0, M1 = bytes(16), b"\xff" * 16

    def choose(self, profile, rng):
        return self.M0, self.M1, None

    def distinguish(self, profile, st, c_star, oracle, rng):
        if c_star.body == self.M0:
            return 0
        if c_star.body == self.M1:
            return 1
        return rng.getrandbits(1)


def identity_dem_encrypt(key: DemKey, m: bytes) -> DemCiphertext:
    """Deliberately broken stand-in: the ciphertext is the message."""
    return DemCiphertext(bytes(m), None)


def identity_dem_decrypt(key: DemKey, c: DemCiphertext) -> Optional[bytes]:
    return bytes(c.body)


# ---------------------------------------------------------------------------
# PRF real-vs-random

class PrfFamily(Value):
    """A keyed function family plus how to draw its key."""

    __slots__ = ("name", "out_bits", "sample_key", "evaluate")

    def __init__(self, name: str, out_bits: int,
                 sample_key: Callable[[Any], Any],
                 evaluate: Callable[[Any, bytes], int]) -> None:
        set_fields(self, name, out_bits, sample_key, evaluate)


def it_prf_family(key_bits: int, q_d: int, out_bits: int) -> PrfFamily:
    """Polynomial-evaluation family keyed by a (q_d+2)-way key split."""
    # checked before any key is drawn, which a huge key_bits would overflow
    it_key_width(key_bits, q_d)

    def sample(rng):
        return ItPrfKey.from_kem_key(IkemKey(rng.getrandbits(key_bits),
                                             key_bits), q_d)
    return PrfFamily("prf-it", out_bits, sample,
                     lambda key, x: prf_it(key, x, out_bits))


def comp_prf_family(out_bits: int) -> PrfFamily:
    """Block-cipher MAC family under a 256-bit key."""
    def sample(rng):
        return CompPrfKey.from_kem_key(IkemKey(rng.getrandbits(256), 256))
    return PrfFamily("prf-comp", out_bits, sample,
                     lambda key, x: prf_comp(key, x, out_bits))


class PriOracle:
    """Evaluation oracle with the distinct-query rule and a hard budget."""

    def __init__(self, family: PrfFamily, key, b: int, budget: int, rng) -> None:
        self._family = family
        self._key = key
        self._b = b
        self.queries_left = budget
        self._rng = rng
        self._seen = set()

    def eval(self, x: bytes) -> int:
        if not isinstance(x, bytes):
            raise GameRuleError("queries are byte strings")
        if x in self._seen:
            raise GameRuleError("repeated query")
        if self.queries_left <= 0:
            raise GameRuleError("query budget exhausted")
        self._seen.add(x)
        self.queries_left -= 1
        if self._b == 0:
            return self._family.evaluate(self._key, x)
        return self._rng.getrandbits(self._family.out_bits)


def run_pri(config: GameConfig, family: PrfFamily, adversary,
            bound: Optional[float] = None) -> AdvantageReport:
    """Two-arm real-vs-random experiment; q_e is the evaluation budget."""
    if config.atk != "pri":
        raise MalformedError("run_pri needs atk='pri'")

    def trial(b, rng):
        oracle = PriOracle(family, family.sample_key(rng), b, config.q_e, rng)
        return adversary.distinguish(family, oracle, rng)

    return _two_arm_report(config, "pri", "pri", trial, lambda: bound)


class RandomGuessPri:
    def distinguish(self, family, oracle, rng):
        return rng.getrandbits(1)


def exact_pri_advantage(keys, evaluate: Callable[[Any, Any], int],
                        queries, out_bits: int) -> Fraction:
    """Optimal distinguishing advantage for a fixed non-adaptive query set.

    Enumerates the whole key space, tabulates the joint output tuple
    distribution, and returns its statistical distance from uniform;
    zero certifies perfect independence at this query count.
    """
    queries = list(queries)
    if not queries:
        raise MalformedError("need at least one query point")
    counts: Dict[Tuple[int, ...], int] = {}
    nkeys = 0
    for key in keys:
        nkeys += 1
        outs = tuple(evaluate(key, x) for x in queries)
        counts[outs] = counts.get(outs, 0) + 1
    if nkeys == 0:
        raise MalformedError("empty key space")
    space = (1 << out_bits) ** len(queries)
    uniform = Fraction(1, space)
    dist = sum(abs(Fraction(c, nkeys) - uniform) for c in counts.values())
    dist += (space - len(counts)) * uniform
    return dist / 2
