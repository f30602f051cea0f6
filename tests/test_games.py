"""Security-game harness tests.

Every exact analyzer is checked against an independently coded oracle in
this file: the key-uniformity distance against a dictionary-of-views
enumeration in plain Fractions, the solution counter against a schoolbook
carry-less hash reimplementation, and the exhaustive forger against a
direct decapsulation sweep over the posterior.  Monte-Carlo runners are
checked against those exact values at frozen seeds, within the reported
confidence radius.
"""

import itertools
import random
import tracemalloc
from collections import defaultdict
from dataclasses import replace
from fractions import Fraction

import pytest

from prekem import games
from prekem.dem import DemCiphertext, DemProfile, decrypt_otcca
from prekem.errors import GameRuleError, InfeasibleError, MalformedError
from prekem.games import (
    AdvantageReport,
    BayesPkind,
    BruteForceKint,
    CheatingPkind,
    ContrastDemDistinguisher,
    FixedForger,
    GameConfig,
    RandomCiphertextForger,
    RandomGuessPkind,
    RandomGuessPri,
    _enumerate_pairs,
    _gen_conditioned,
    _split_hash,
    _trial_rng,
    brute_force_forger,
    comp_prf_family,
    count_solutions_lemma6,
    exact_distance,
    exact_pri_advantage,
    hoeffding_halfwidth,
    identity_dem_decrypt,
    identity_dem_encrypt,
    it_prf_family,
    run_dem_ind,
    run_kint,
    run_pkind,
    run_pri,
)
from prekem.ikem import (
    IkemCiphertext,
    IkemParams,
    Mode,
    _extract,
    _recon_value,
    decap,
    encap,
    forgery_bound,
)
from prekem.source import bsc_source, from_json, guess_prob_given_z
from prekem.uhash import twise_poly


def toy_source(n):
    return bsc_source(Fraction(1, 4), Fraction(1, 4), n)


def cea_params(n=4, t=2, ell=1, nu=1.7, **kw):
    return IkemParams(mode=Mode.CEA, source=toy_source(n), n=n, t=t, ell=ell,
                      nu=nu, r=0, w=n, sigma=0.5, q_e=0, q_d=0, **kw)


def cca_params(n=4, t=2, ell=1, nu=1.7, q_d=1, source=None, w=None):
    src = toy_source(n) if source is None else source
    return IkemParams(mode=Mode.CCA, source=src, n=n, t=t, ell=ell, nu=nu,
                      r=2, w=n if w is None else w, sigma=0.5, q_e=0, q_d=q_d)


# ---------------------------------------------------------------------------
# independent oracles

def _pxz(spec, xs, zs):
    wt = Fraction(1)
    for xi, zi in zip(xs, zs):
        wt *= sum(spec.p(xi, y, zi) for y in range(spec.ny))
    return wt


def view_distance_shared_seed(params, q_e):
    """Key-uniformity distance by literal view bookkeeping, shared seed.

    Accumulates the real-key and uniform-key view distributions into two
    dictionaries keyed by the full transcript tuple and takes half the L1
    difference.  Same quantity as exact_distance, organized completely
    differently.
    """
    spec, n, w, ell = params.source, params.n, params.w, params.ell
    d_real = defaultdict(Fraction)
    d_unif = defaultdict(Fraction)
    seedw = Fraction(1, (2 ** n) * (2 ** w) ** (q_e + 1))
    for zs in itertools.product(range(spec.nz), repeat=n):
        for xs in itertools.product(range(2), repeat=n):
            wt = _pxz(spec, xs, zs)
            if not wt:
                continue
            xp = int("".join(map(str, xs)), 2)
            for g in range(2 ** n):
                v = _recon_value(params, xp, 0, g)
                for sps in itertools.product(range(2 ** w), repeat=q_e):
                    ks = tuple(_extract(params, xp, sp) for sp in sps)
                    for sp_star in range(2 ** w):
                        k_star = _extract(params, xp, sp_star)
                        view = (zs, g, sps, ks, v, sp_star)
                        d_real[view + (k_star,)] += wt * seedw
                        for kc in range(2 ** ell):
                            d_unif[view + (kc,)] += wt * seedw / (2 ** ell)
    keys = set(d_real) | set(d_unif)
    return sum(abs(d_real[k] - d_unif[k]) for k in keys) / 2


def view_distance_fresh_seed(params, q_e):
    """Same bookkeeping for the modes that draw both seeds per ciphertext."""
    spec, n, w, ell = params.source, params.n, params.w, params.ell
    sb = n + (params.t if params.mode is Mode.BASELINE else 0)
    d_real = defaultdict(Fraction)
    d_unif = defaultdict(Fraction)
    sigmas = [(sp, s) for sp in range(2 ** w) for s in range(2 ** sb)]
    seedw = Fraction(1, len(sigmas) ** (q_e + 1))
    for zs in itertools.product(range(spec.nz), repeat=n):
        for xs in itertools.product(range(2), repeat=n):
            wt = _pxz(spec, xs, zs)
            if not wt:
                continue
            xp = int("".join(map(str, xs)), 2)
            for qs in itertools.product(sigmas, repeat=q_e):
                hist = tuple((sp, s, _recon_value(params, xp, sp, s),
                              _extract(params, xp, sp)) for sp, s in qs)
                for sp_star, s_star in sigmas:
                    v_star = _recon_value(params, xp, sp_star, s_star)
                    k_star = _extract(params, xp, sp_star)
                    view = (zs, hist, sp_star, s_star, v_star)
                    d_real[view + (k_star,)] += wt * seedw
                    for kc in range(2 ** ell):
                        d_unif[view + (kc,)] += wt * seedw / (2 ** ell)
    keys = set(d_real) | set(d_unif)
    return sum(abs(d_real[k] - d_unif[k]) for k in keys) / 2


def clmul(a, b, width, poly):
    """Schoolbook carry-less multiply with bitwise reduction."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
        if a >> width:
            a ^= poly
    return acc


def schoolbook_split_hash(n, t, pieces, s2, s1, x, poly_big, poly_small):
    big_w = n - t
    x2, x1 = x >> t, x & ((1 << t) - 1)

    def pw(base, e):
        out = 1
        for _ in range(e):
            out = clmul(out, base, big_w, poly_big)
        return out

    acc = pw(x2, len(pieces) + 3)
    for i, sp in enumerate(pieces):
        acc ^= clmul(sp, pw(x2, i + 2), big_w, poly_big)
    acc ^= clmul(s2, x2, big_w, poly_big)
    small = clmul(x1, clmul(x1, x1, t, poly_small), t, poly_small)
    small ^= clmul(s1, x1, t, poly_small)
    return (acc >> (big_w - t)) ^ small


def posterior_accept_prob(params, z, ciphertext):
    """Direct decapsulation sweep over the conditional source."""
    spec = params.source
    tot = Fraction(0)
    win = Fraction(0)
    for xs in itertools.product(range(2), repeat=params.n):
        for ys in itertools.product(range(2), repeat=params.n):
            wt = Fraction(1)
            for xi, yi, zi in zip(xs, ys, z):
                wt *= spec.p(xi, yi, zi)
            if not wt:
                continue
            tot += wt
            if decap(params, ys, ciphertext) is not None:
                win += wt
    return win / tot


# ---------------------------------------------------------------------------
# scripted adversaries for rule enforcement

class ScriptedPkind:
    def __init__(self, phase1=None, phase2=None, guess=0):
        self._p1 = phase1
        self._p2 = phase2
        self._guess = guess

    def phase1(self, params, view, oracle, rng):
        if self._p1:
            self._p1(oracle)
        return None

    def phase2(self, params, view, st, c_star, k_b, oracle, rng):
        if self._p2:
            self._p2(oracle, c_star)
        return self._guess


class ScriptedDem:
    def __init__(self, script=None, m0=b"\x00" * 8, m1=b"\xff" * 8):
        self._script = script
        self._m0 = m0
        self._m1 = m1

    def choose(self, profile, rng):
        return self._m0, self._m1, None

    def distinguish(self, profile, st, c_star, oracle, rng):
        if self._script:
            self._script(c_star, oracle)
        return 0


class ScriptedPri:
    def __init__(self, script):
        self._script = script

    def distinguish(self, family, oracle, rng):
        self._script(oracle)
        return 0


class ParityPri:
    """Spends the whole budget on distinct one-byte inputs and answers with
    the parity of the outputs, as the games-desk PRF entries do."""

    def distinguish(self, family, oracle, rng):
        acc = 0
        for x in range(oracle.queries_left):
            acc ^= oracle.eval(bytes([x]))
        return acc & 1


# ---------------------------------------------------------------------------

class TestHoeffdingHalfwidth:
    def test_reference_value_at_ten_thousand(self):
        assert hoeffding_halfwidth(10_000) == pytest.approx(0.0162762363, abs=1e-9)

    def test_shrinks_with_sample_size(self):
        assert hoeffding_halfwidth(4000) < hoeffding_halfwidth(1000)

    def test_rejects_bad_arguments(self):
        with pytest.raises(MalformedError):
            hoeffding_halfwidth(0)


class TestAdvantageReport:
    def test_json_line_layout(self):
        rep = AdvantageReport("pkind", "ot", 0.125, 0.05, None, 100, 0.5, 0.375)
        assert rep.to_json_line() == (
            '{"game": "pkind", "atk": "ot", "estimate": 0.125,'
            ' "halfwidth": 0.05, "bound": null, "n_trials": 100}')

    # one seeded run per games-desk benchmark entry, at small trial counts:
    # a change to the source tables, the hashes or the trial streams that
    # moves any tally shows here
    @pytest.mark.parametrize("game, want", [
        ("pkind-cca", '{"game": "pkind", "atk": "cca", '
         '"estimate": 0.42500000000000004, "halfwidth": 0.25734989232919925, '
         '"bound": 1.0, "n_trials": 40}'),
        ("pkind-cea", '{"game": "pkind", "atk": "cea", '
         '"estimate": 0.22499999999999998, "halfwidth": 0.25734989232919925, '
         '"bound": 0.8437500000000001, "n_trials": 40}'),
        ("kint", '{"game": "kint", "atk": "kint", "estimate": 0.55, '
         '"halfwidth": 0.25734989232919925, "bound": 1.0, "n_trials": 40}'),
        ("dem-ind", '{"game": "dem-ind", "atk": "otcca", '
         '"estimate": 0.034999999999999976, "halfwidth": 0.11509037065006823, '
         '"bound": 0.06640625, "n_trials": 200}'),
        ("pri-it", '{"game": "pri", "atk": "pri", '
         '"estimate": 0.015000000000000013, "halfwidth": 0.11509037065006823, '
         '"bound": 0.0, "n_trials": 200}'),
        ("pri-comp", '{"game": "pri", "atk": "pri", '
         '"estimate": 0.030000000000000027, "halfwidth": 0.11509037065006823, '
         '"bound": null, "n_trials": 200}'),
    ])
    def test_seeded_reports_are_pinned(self, game, want):
        def params(mode, n, q_e=0, q_d=0):
            return IkemParams(mode=mode, source=toy_source(n), n=n, t=2,
                              ell=1, nu=1.7, r=2 if mode is Mode.CCA else 0,
                              w=n, sigma=0.5, q_e=q_e, q_d=q_d)

        runs = {
            "pkind-cca": lambda: run_pkind(GameConfig(
                atk="cca", trials=40, q_d=1, seed=3,
                params=params(Mode.CCA, 4, q_d=1)), BayesPkind(probe=True)),
            "pkind-cea": lambda: run_pkind(GameConfig(
                atk="cea", trials=40, q_e=1, seed=3,
                params=params(Mode.CEA, 6, q_e=1)), BayesPkind()),
            "kint": lambda: run_kint(GameConfig(
                atk="kint", trials=40, q_e=1, q_d=1, seed=3,
                params=params(Mode.CCA, 4, q_e=1, q_d=1)),
                BruteForceKint(use_query=True)),
            "dem-ind": lambda: run_dem_ind(GameConfig(
                atk="otcca", trials=200, q_d=1, seed=3,
                dem=DemProfile(enc_len=8, mac_bits=8)),
                ContrastDemDistinguisher()),
            "pri-it": lambda: run_pri(GameConfig(
                atk="pri", trials=200, q_e=3, seed=3),
                it_prf_family(120, 1, 8), ParityPri(), bound=0.0),
            "pri-comp": lambda: run_pri(GameConfig(
                atk="pri", trials=200, q_e=3, seed=3),
                comp_prf_family(8), ParityPri()),
        }
        assert runs[game]().to_json_line() == want

    @pytest.mark.parametrize("q_e, want", [(0, Fraction(2397, 8192)),
                                           (1, Fraction(47025, 131072))])
    def test_exact_distance_is_pinned(self, q_e, want):
        params = IkemParams(mode=Mode.CEA, source=toy_source(4), n=4, t=2,
                            ell=1, nu=1.0, r=0, w=4, sigma=0.5, q_e=q_e, q_d=0)
        assert exact_distance(params, q_e) == want

    def test_bound_serializes_as_number(self):
        rep = AdvantageReport("kint", "kint", 0.5, 0.1, 0.25, 50, 0.5, 0.0)
        assert '"bound": 0.25' in rep.to_json_line()

    def test_exceeds_bound_uses_slack(self):
        # the slack is two half-widths: 0.25 + 2 * 0.1 = 0.45
        rep = AdvantageReport("kint", "kint", 0.5, 0.1, 0.25, 50, 0.5, 0.0)
        assert rep.exceeds_bound()
        assert not replace(rep, estimate=0.44).exceeds_bound()
        free = AdvantageReport("pkind", "cca", 0.9, 0.1, None, 50, 0.9, 0.0)
        assert not free.exceeds_bound()


class TestTrialStreams:
    def test_same_label_same_stream(self):
        a = _trial_rng(7, "arm", 3).random()
        b = _trial_rng(7, "arm", 3).random()
        assert a == b

    def test_labels_separate_streams(self):
        draws = {_trial_rng(7, arm, i).random()
                 for arm in ("a", "b") for i in range(50)}
        assert len(draws) == 100


class TestGameConfigValidation:
    def test_rejects_zero_trials(self):
        with pytest.raises(MalformedError):
            GameConfig(atk="ot", trials=0)

    def test_rejects_negative_budgets(self):
        with pytest.raises(MalformedError):
            GameConfig(atk="ot", trials=1, q_e=-1)

    def test_rejects_target_length_mismatch(self):
        with pytest.raises(MalformedError):
            GameConfig(atk="ot", trials=1, params=cea_params(), target=(0, 1))


class TestConditionedSampling:
    def test_pinned_string_is_respected(self):
        params = cea_params()
        z = (0, 1, 1, 0)
        inst = _gen_conditioned(params, z, random.Random(1))
        assert inst.z == z
        assert inst.public_seed is not None

    def test_conditional_frequencies(self):
        params = cea_params(n=2, t=1, ell=1, nu=1.2)
        rng = random.Random(42)
        counts = defaultdict(int)
        n_draws = 4000
        for _ in range(n_draws):
            inst = _gen_conditioned(params, (0, 1), rng)
            counts[inst.x] += 1
        # per-position P(x=z_i | z_i) = 3/4 for this source
        expected = {(0, 0): Fraction(3, 16), (0, 1): Fraction(9, 16),
                    (1, 0): Fraction(1, 16), (1, 1): Fraction(3, 16)}
        for xs, frac in expected.items():
            assert abs(counts[xs] / n_draws - float(frac)) < 0.04

    def test_zero_probability_string_rejected(self):
        det = from_json({"alphabet": [2, 2, 2], "n": 2, "pxyz": [[0, 0, 0, 1]]})
        params = IkemParams(mode=Mode.CEA, source=det, n=2, t=1, ell=1, nu=2.0,
                            r=0, w=2, sigma=0.5, q_e=0, q_d=0)
        with pytest.raises(MalformedError):
            _gen_conditioned(params, (1, 1), random.Random(0))


class TestPairEnumeration:
    def test_weights_sum_to_scaled_string_probability(self):
        spec = toy_source(3)
        z = (0, 1, 0)
        pairs = _enumerate_pairs(spec, z)
        total = sum(wt for _, _, wt in pairs)
        denom = 1
        for frac in spec.table:
            denom = denom * frac.denominator // _gcd(denom, frac.denominator)
        p_z = Fraction(1)
        for zi in z:
            p_z *= sum(spec.p(x, y, zi) for x in range(2) for y in range(2))
        assert Fraction(total, denom ** 3) == p_z

    def test_prunes_impossible_pairs(self):
        spec = bsc_source(0, 0, 3)
        pairs = _enumerate_pairs(spec, (1, 0, 1))
        assert len(pairs) == 1
        assert pairs[0][0] == pairs[0][1] == 0b101

    def test_rejects_wrong_length(self):
        with pytest.raises(MalformedError):
            _enumerate_pairs(toy_source(3), (0, 1))


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


class TestPkemOracleRules:
    def _run(self, atk, adversary, q_e=0, q_d=0):
        mode_params = cca_params() if atk in ("cca",) else cea_params()
        cfg = GameConfig(atk=atk, trials=1, q_e=q_e, q_d=q_d, seed=0,
                         params=mode_params)
        return run_pkind(cfg, adversary)

    def test_no_oracles_in_passive_game(self):
        adv = ScriptedPkind(phase1=lambda o: o.encap())
        with pytest.raises(GameRuleError):
            self._run("ot", adv)

    def test_encap_budget_enforced(self):
        adv = ScriptedPkind(phase1=lambda o: (o.encap(), o.encap()))
        with pytest.raises(GameRuleError):
            self._run("cea", adv, q_e=1)

    def test_no_decap_oracle_under_encap_only_attack(self):
        adv = ScriptedPkind(
            phase2=lambda o, c: o.decap(IkemCiphertext(0, 0, None)))
        with pytest.raises(GameRuleError):
            self._run("cea", adv, q_e=1)

    def test_challenge_barred_from_decap(self):
        adv = ScriptedPkind(phase2=lambda o, c: o.decap(c))
        with pytest.raises(GameRuleError):
            self._run("cca", adv, q_d=2)

    def test_decap_budget_enforced(self):
        def two(o, c):
            other = IkemCiphertext(0, 0, 0)
            o.decap(other)
            o.decap(other)
        with pytest.raises(GameRuleError):
            self._run("cca", ScriptedPkind(phase2=two), q_d=1)

    def test_guess_must_be_a_bit(self):
        with pytest.raises(GameRuleError):
            self._run("ot", ScriptedPkind(guess=2))


class TestRunPkind:
    def test_random_guess_within_halfwidth(self):
        cfg = GameConfig(atk="ot", trials=300, seed=7, params=cea_params())
        rep = run_pkind(cfg, RandomGuessPkind())
        assert rep.estimate <= rep.halfwidth
        assert rep.game == "pkind" and rep.atk == "ot"
        assert rep.bound is not None

    def test_leaked_string_breaks_the_game(self):
        spec = bsc_source(0, 0, 8)
        params = IkemParams(mode=Mode.CEA, source=spec, n=8, t=2, ell=4,
                            nu=0.5, r=0, w=8, sigma=0.5, q_e=0, q_d=0)
        cfg = GameConfig(atk="ot", trials=400, seed=3, params=params, leak=True)
        rep = run_pkind(cfg, CheatingPkind())
        assert rep.estimate > 0.9

    def test_cheating_fixture_requires_the_leak(self):
        cfg = GameConfig(atk="ot", trials=1, seed=3, params=cea_params())
        with pytest.raises(GameRuleError):
            run_pkind(cfg, CheatingPkind())

    @pytest.mark.parametrize("q_e", [0, 1])
    def test_bayes_adversary_meets_exact_distance(self, q_e):
        params = cea_params()
        dist = float(exact_distance(params, q_e))
        cfg = GameConfig(atk="cea", trials=3000, q_e=q_e, seed=11,
                         params=params)
        rep = run_pkind(cfg, BayesPkind())
        assert abs(rep.estimate - dist) <= rep.halfwidth

    def test_reports_are_deterministic(self):
        cfg = GameConfig(atk="cea", trials=200, q_e=1, seed=5,
                         params=cea_params())
        assert run_pkind(cfg, BayesPkind()) == run_pkind(cfg, BayesPkind())

    def test_rejects_unknown_attack(self):
        with pytest.raises(MalformedError):
            run_pkind(GameConfig(atk="kint", trials=1, params=cea_params()),
                      RandomGuessPkind())

    def test_requires_params(self):
        with pytest.raises(MalformedError):
            run_pkind(GameConfig(atk="ot", trials=1), RandomGuessPkind())


class TestRunKint:
    def test_requires_single_encap_budget(self):
        cfg = GameConfig(atk="kint", trials=1, q_e=0, q_d=1,
                         params=cca_params())
        with pytest.raises(MalformedError):
            run_kint(cfg, RandomCiphertextForger())

    def test_requires_kint_attack_label(self):
        cfg = GameConfig(atk="cca", trials=1, q_e=1, q_d=1,
                         params=cca_params())
        with pytest.raises(MalformedError):
            run_kint(cfg, RandomCiphertextForger())

    def test_replayed_query_output_never_wins(self):
        class Replay:
            def forge(self, params, view, oracle, rng):
                _, c = oracle.encap()
                return c

        cfg = GameConfig(atk="kint", trials=200, q_e=1, q_d=1, seed=2,
                         params=cca_params())
        rep = run_kint(cfg, Replay())
        assert rep.estimate == 0.0

    def test_encap_budget_enforced(self):
        class Greedy:
            def forge(self, params, view, oracle, rng):
                oracle.encap()
                oracle.encap()

        cfg = GameConfig(atk="kint", trials=1, q_e=1, q_d=1,
                         params=cca_params())
        with pytest.raises(GameRuleError):
            run_kint(cfg, Greedy())

    def test_forger_must_output_a_ciphertext(self):
        class Lazy:
            def forge(self, params, view, oracle, rng):
                return None

        cfg = GameConfig(atk="kint", trials=1, q_e=1, q_d=1,
                         params=cca_params())
        with pytest.raises(GameRuleError):
            run_kint(cfg, Lazy())

    def test_fixed_forgery_rate_matches_exact_acceptance(self):
        params = cca_params()
        z = (0, 1, 0, 0)
        result = brute_force_forger(params, z, random.Random(5))
        cfg = GameConfig(atk="kint", trials=4000, q_e=1, q_d=1, seed=9,
                         params=params, target=z)
        rep = run_kint(cfg, FixedForger(result.ciphertext))
        assert abs(rep.estimate - float(result.p_success)) <= rep.halfwidth

    def test_random_forger_stays_under_the_bound(self):
        spec = bsc_source(0, Fraction(1, 2), 20)
        params = IkemParams(mode=Mode.CCA, source=spec, n=20, t=10, ell=2,
                            nu=0.0, r=2, w=20, sigma=0.5, q_e=0, q_d=1)
        cfg = GameConfig(atk="kint", trials=1500, q_e=1, q_d=1, seed=25,
                         params=params)
        rep = run_kint(cfg, RandomCiphertextForger())
        assert rep.bound == forgery_bound(params)
        assert rep.estimate <= rep.bound + rep.halfwidth
        assert not rep.exceeds_bound()


class TestBruteForceForger:
    def test_certain_posterior_always_accepted(self):
        # noiseless wiring: Eve's string equals both private strings
        spec = bsc_source(0, 0, 4)
        params = cca_params(source=spec, nu=0.5)
        res = brute_force_forger(params, (1, 0, 1, 1), random.Random(3))
        assert res.p_success == 1
        assert res.x_forged == (1, 0, 1, 1)

    def test_empty_reconciliation_sets_never_accept(self):
        # nu below the cheapest explanation cost, so every set is empty
        params = cca_params(nu=0.1)
        res = brute_force_forger(params, (0, 1, 0, 0), random.Random(3))
        assert res.p_success == 0

    def test_acceptance_probability_double_entry(self):
        params = cca_params()
        z = (0, 1, 0, 0)
        res = brute_force_forger(params, z, random.Random(5))
        assert res.p_success == posterior_accept_prob(params, z, res.ciphertext)
        assert res.strategy in ("x", "y")
        assert 0 <= res.score_x <= 1 and 0 <= res.score_y <= 1

    def test_conditioned_forgery_down_weights_inconsistent_strings(self):
        params = cca_params()
        z = (0, 0, 1, 0)
        rng = random.Random(8)
        inst = _gen_conditioned(params, z, rng)
        key, c = encap(params, inst.x, rng)
        res = brute_force_forger(params, z, rng, key=key, ciphertext=c)
        assert res.ciphertext != c
        # oracle: same sweep, but the posterior keeps only strings that
        # reproduce the observed hash value and key
        spec = params.source
        tot = Fraction(0)
        win = Fraction(0)
        for xs in itertools.product(range(2), repeat=4):
            xp = int("".join(map(str, xs)), 2)
            if (_recon_value(params, xp, c.sprime, c.s) != c.v
                    or _extract(params, xp, c.sprime) != key.bits):
                continue
            for ys in itertools.product(range(2), repeat=4):
                wt = Fraction(1)
                for xi, yi, zi in zip(xs, ys, z):
                    wt *= spec.p(xi, yi, zi)
                if not wt:
                    continue
                tot += wt
                if decap(params, ys, res.ciphertext) is not None:
                    win += wt
        assert res.p_success == win / tot

    def test_transcript_needs_both_halves(self):
        params = cca_params()
        with pytest.raises(MalformedError):
            brute_force_forger(params, (0, 0, 0, 0), random.Random(0),
                               key=None, ciphertext=IkemCiphertext(0, 0, 0))

    def test_deterministic_under_fixed_rng(self):
        params = cca_params()
        a = brute_force_forger(params, (0, 1, 1, 0), random.Random(12))
        b = brute_force_forger(params, (0, 1, 1, 0), random.Random(12))
        assert a == b


class TestExactDistance:
    def _tiny(self, mode, w=2, **kw):
        cca = mode is Mode.CCA
        return IkemParams(mode=mode, source=toy_source(2), n=2, t=1, ell=1,
                          nu=1.2, r=2 if cca else 0, w=w, sigma=0.5, q_e=0,
                          q_d=1 if cca else 0, **kw)

    @pytest.mark.parametrize("q_e", [0, 1])
    def test_shared_seed_matches_view_enumeration(self, q_e):
        params = self._tiny(Mode.CEA)
        assert exact_distance(params, q_e) == view_distance_shared_seed(params, q_e)

    @pytest.mark.parametrize("q_e", [0, 1])
    def test_shared_seed_asymmetric_source(self, q_e):
        doc = {"alphabet": [2, 2, 2], "n": 2, "pxyz": [
            [0, 0, 0, "3/8"], [0, 1, 1, "1/8"], [1, 1, 0, "1/4"],
            [1, 0, 1, "1/8"], [1, 1, 1, "1/8"]]}
        params = IkemParams(mode=Mode.CEA, source=from_json(doc), n=2, t=1,
                            ell=1, nu=2.0, r=0, w=2, sigma=0.5, q_e=0, q_d=0)
        assert exact_distance(params, q_e) == view_distance_shared_seed(params, q_e)

    @pytest.mark.parametrize("q_e", [0, 1])
    def test_authenticated_mode_matches_view_enumeration(self, q_e):
        params = self._tiny(Mode.CCA)
        assert exact_distance(params, q_e) == view_distance_fresh_seed(params, q_e)

    def test_baseline_mode_matches_view_enumeration(self):
        params = self._tiny(Mode.BASELINE, w=3)
        assert exact_distance(params, 0) == view_distance_fresh_seed(params, 0)

    @pytest.mark.parametrize("mode, n, q_e, want", [
        (Mode.CCA, 4, 0, Fraction(303389, 1048576)),
        (Mode.CCA, 4, 1, Fraction(121906285, 268435456)),
        (Mode.BASELINE, 3, 0, Fraction(283, 1024)),
    ])
    def test_fresh_seed_distance_is_pinned(self, mode, n, q_e, want):
        if mode is Mode.CCA:
            params = cca_params(n=n)
        else:
            params = IkemParams(mode=mode, source=toy_source(n), n=n, t=1,
                                ell=1, nu=1.7, r=0, w=n + 1, sigma=0.5,
                                q_e=0, q_d=0)
        assert exact_distance(params, q_e) == want

    @pytest.mark.parametrize("mode", [Mode.CEA, Mode.CCA])
    def test_selector_blocks_add_up(self, monkeypatch, mode):
        # a ceiling of 2^6 entries splits the challenge seeds into blocks
        # of two (shared seed) and one (fresh seeds)
        params = self._tiny(mode)
        monkeypatch.setattr(games, "SELECT_MAX", 1 << 6)
        oracle = (view_distance_shared_seed if mode is Mode.CEA
                  else view_distance_fresh_seed)
        assert exact_distance(params, 1) == oracle(params, 1)

    def test_selector_blocks_bound_memory(self):
        params = cca_params(n=5)
        tracemalloc.start()
        try:
            exact_distance(params, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 << 20

    def test_known_string_leaves_only_the_uniform_mass(self):
        det = from_json({"alphabet": [2, 2, 2], "n": 3, "pxyz": [[0, 0, 0, 1]]})
        params = IkemParams(mode=Mode.CEA, source=det, n=3, t=1, ell=2, nu=2.0,
                            r=0, w=3, sigma=0.5, q_e=0, q_d=0)
        assert exact_distance(params, 0) == Fraction(3, 4)

    def test_work_ceiling(self):
        params = cea_params(n=6, t=2, ell=1, nu=2.5)
        with pytest.raises(InfeasibleError):
            exact_distance(params, 3)

    def test_needs_exact_source(self):
        spec = bsc_source(0.25, 0.25, 20)
        params = IkemParams(mode=Mode.CEA, source=spec, n=20, t=2, ell=1,
                            nu=2.0, r=0, w=20, sigma=0.5, q_e=0, q_d=0)
        with pytest.raises(InfeasibleError):
            exact_distance(params, 0)

    @pytest.mark.parametrize("n,q_e", [(2, 0), (2, 1), (4, 0), (4, 1)])
    def test_distance_within_entropy_bound(self, n, q_e):
        # 4 * dist^2 <= 2^((q_e+1) ell + t) * g^n, checked in Fractions
        params = cea_params(n=n, t=2, ell=1, nu=1.7) if n == 4 else \
            self._tiny(Mode.CEA)
        dist = exact_distance(params, q_e)
        g = guess_prob_given_z(params.source)
        rhs = Fraction(2) ** ((q_e + 1) * params.ell + params.t) * g ** params.n
        assert 4 * dist * dist <= rhs


class TestCountSolutions:
    CONFIGS = [(4, 2, 0b111, 0b111), (6, 3, 0b1011, 0b1011),
               (6, 2, 0b10011, 0b111)]

    def _random_seed_tuple(self, rng, n, t):
        big, small = 1 << (n - t), 1 << t
        return ((rng.randrange(big), rng.randrange(big)),
                rng.randrange(big), rng.randrange(small))

    @pytest.mark.parametrize("n,t,pb,ps", CONFIGS)
    def test_hash_matches_schoolbook(self, n, t, pb, ps):
        rng = random.Random(77)
        for _ in range(150):
            pieces, s2, s1 = self._random_seed_tuple(rng, n, t)
            x = rng.randrange(1 << n)
            assert _split_hash(n, t, pieces, s2, s1, x) == \
                schoolbook_split_hash(n, t, pieces, s2, s1, x, pb, ps)

    def test_counts_match_schoolbook_sweep(self):
        n, t, pb, ps = 4, 2, 0b111, 0b111
        rng = random.Random(31)
        nonzero = 0
        for _ in range(60):
            sa = self._random_seed_tuple(rng, n, t)
            sb = self._random_seed_tuple(rng, n, t)
            if sa == sb:
                continue
            v, vf = rng.randrange(4), rng.randrange(4)
            want = sum(
                1 for x in range(16)
                if schoolbook_split_hash(n, t, *sa, x, pb, ps) == v
                and schoolbook_split_hash(n, t, *sb, x, pb, ps) == vf)
            got = count_solutions_lemma6(n, t, sa, sb, v, vf, "i")
            assert got == want
            nonzero += got > 0
        assert nonzero > 0

    def test_offset_counts_match_schoolbook_sweep(self):
        n, t, pb, ps = 4, 2, 0b111, 0b111
        rng = random.Random(32)
        nonzero = 0
        for _ in range(60):
            sa = self._random_seed_tuple(rng, n, t)
            sb = self._random_seed_tuple(rng, n, t)
            v, vf = rng.randrange(4), rng.randrange(4)
            e = rng.randrange(1, 16)
            if (v, sa) == (vf, sb):
                continue
            want = sum(
                1 for x in range(16)
                if schoolbook_split_hash(n, t, *sa, x ^ e, pb, ps) == v
                and schoolbook_split_hash(n, t, *sb, x, pb, ps) == vf)
            got = count_solutions_lemma6(n, t, sa, sb, v, vf, "ii", e=e)
            assert got == want
            nonzero += got > 0
        assert nonzero > 0

    def test_two_seed_count_bound(self):
        # r = 2: at most 3 (r + 1) 2^(n - 2t) = 9 solutions
        n, t = 6, 3
        rng = random.Random(33)
        for _ in range(250):
            sa = self._random_seed_tuple(rng, n, t)
            sb = self._random_seed_tuple(rng, n, t)
            if sa == sb:
                continue
            c = count_solutions_lemma6(n, t, sa, sb, rng.randrange(8),
                                       rng.randrange(8), "i")
            assert c <= 9

    def test_offset_count_bound(self):
        # r = 2: at most (r + 3)(r + 2) 2^(n - 2t) = 20 solutions
        n, t = 6, 3
        rng = random.Random(34)
        for _ in range(250):
            sa = self._random_seed_tuple(rng, n, t)
            sb = self._random_seed_tuple(rng, n, t)
            v, vf = rng.randrange(8), rng.randrange(8)
            e = rng.randrange(1, 1 << n)
            if (v, sa) == (vf, sb):
                continue
            assert count_solutions_lemma6(n, t, sa, sb, v, vf, "ii", e=e) <= 20

    def test_identical_seed_tuples_rejected_without_offset(self):
        sa = ((1, 2), 1, 1)
        with pytest.raises(MalformedError):
            count_solutions_lemma6(4, 2, sa, sa, 0, 1, "i")

    def test_zero_offset_rejected(self):
        sa, sb = ((1, 2), 1, 1), ((2, 1), 0, 3)
        with pytest.raises(MalformedError):
            count_solutions_lemma6(4, 2, sa, sb, 0, 1, "ii", e=0)

    def test_equal_value_seed_pair_rejected_with_offset(self):
        sa = ((1, 2), 1, 1)
        with pytest.raises(MalformedError):
            count_solutions_lemma6(4, 2, sa, sa, 3, 3, "ii", e=5)

    def test_same_seeds_different_values_allowed_with_offset(self):
        sa = ((1, 2), 1, 1)
        c = count_solutions_lemma6(4, 2, sa, sa, 0, 3, "ii", e=5)
        assert 0 <= c <= 20

    def test_odd_piece_count_rejected(self):
        with pytest.raises(MalformedError):
            count_solutions_lemma6(4, 2, ((1, 2, 3), 1, 1), ((2, 1, 0), 0, 1),
                                   0, 1, "i")

    def test_unknown_part_rejected(self):
        with pytest.raises(MalformedError):
            count_solutions_lemma6(4, 2, ((1, 2), 1, 1), ((2, 1), 1, 1),
                                   0, 1, "iii")


class TestRunDemInd:
    def test_identity_stub_is_fully_distinguishable(self):
        cfg = GameConfig(atk="otcca", trials=150, q_d=1, seed=4,
                         dem=DemProfile())
        rep = run_dem_ind(cfg, ContrastDemDistinguisher(),
                          encrypt=identity_dem_encrypt,
                          decrypt=identity_dem_decrypt)
        assert rep.estimate == 1.0
        assert rep.exceeds_bound()

    def test_real_scheme_hides_the_messages(self):
        cfg = GameConfig(atk="ot", trials=500, seed=6, dem=DemProfile())
        rep = run_dem_ind(cfg, ContrastDemDistinguisher())
        assert rep.estimate <= 2 * rep.halfwidth
        assert rep.bound == 0.0

    def test_passive_row_has_no_decryption_oracle(self):
        probe = ScriptedDem(script=lambda c, o: o.decrypt(c))
        cfg = GameConfig(atk="ot", trials=1, seed=0, dem=DemProfile())
        with pytest.raises(GameRuleError):
            run_dem_ind(cfg, probe)

    def test_challenge_barred_from_decryption(self):
        probe = ScriptedDem(script=lambda c, o: o.decrypt(c))
        cfg = GameConfig(atk="otcca", trials=1, q_d=2, seed=0,
                         dem=DemProfile())
        with pytest.raises(GameRuleError):
            run_dem_ind(cfg, probe)

    def test_decryption_budget_enforced(self):
        def two(c_star, oracle):
            oracle.decrypt(DemCiphertext(c_star.body, c_star.tag ^ 1))
            oracle.decrypt(DemCiphertext(c_star.body + b"x", c_star.tag))

        cfg = GameConfig(atk="otcca", trials=1, q_d=1, seed=0,
                         dem=DemProfile())
        with pytest.raises(GameRuleError):
            run_dem_ind(cfg, ScriptedDem(script=two))

    def test_tampered_tag_rejected_through_the_oracle(self):
        answers = []

        def tamper(c_star, oracle):
            bad = DemCiphertext(c_star.body, c_star.tag ^ 1)
            answers.append(oracle.decrypt(bad))

        cfg = GameConfig(atk="otcca", trials=1, q_d=1, seed=1,
                         dem=DemProfile())
        run_dem_ind(cfg, ScriptedDem(script=tamper))
        # one probe per arm, both rejected
        assert answers == [None, None]

    def test_unequal_message_lengths_rejected(self):
        cfg = GameConfig(atk="ot", trials=1, seed=0, dem=DemProfile())
        with pytest.raises(GameRuleError):
            run_dem_ind(cfg, ScriptedDem(m0=b"abc", m1=b"abcd"))

    def test_requires_profile(self):
        with pytest.raises(MalformedError):
            run_dem_ind(GameConfig(atk="ot", trials=1),
                        ContrastDemDistinguisher())

    def test_rejects_unknown_attack(self):
        with pytest.raises(MalformedError):
            run_dem_ind(GameConfig(atk="cca", trials=1, dem=DemProfile()),
                        ContrastDemDistinguisher())


class TestRunPri:
    def test_repeated_query_rejected(self):
        probe = ScriptedPri(lambda o: (o.eval(b"a"), o.eval(b"a")))
        cfg = GameConfig(atk="pri", trials=1, q_e=5, seed=0)
        with pytest.raises(GameRuleError):
            run_pri(cfg, it_prf_family(80, 0, 13), probe)

    def test_query_budget_enforced(self):
        probe = ScriptedPri(lambda o: (o.eval(b"a"), o.eval(b"b")))
        cfg = GameConfig(atk="pri", trials=1, q_e=1, seed=0)
        with pytest.raises(GameRuleError):
            run_pri(cfg, it_prf_family(80, 0, 13), probe)

    def test_queries_must_be_bytes(self):
        probe = ScriptedPri(lambda o: o.eval("a"))
        cfg = GameConfig(atk="pri", trials=1, q_e=1, seed=0)
        with pytest.raises(GameRuleError):
            run_pri(cfg, it_prf_family(80, 0, 13), probe)

    def test_random_guess_within_halfwidth(self):
        cfg = GameConfig(atk="pri", trials=400, q_e=2, seed=15)
        rep = run_pri(cfg, it_prf_family(80, 0, 13), RandomGuessPri())
        assert rep.estimate <= rep.halfwidth
        assert rep.game == "pri"

    def test_constant_family_is_detected(self):
        from prekem.games import PrfFamily
        family = PrfFamily("const", 8, lambda rng: 0, lambda key, x: 0)

        class Probe:
            def distinguish(self, fam, oracle, rng):
                return 0 if oracle.eval(b"q") == 0 else 1

        cfg = GameConfig(atk="pri", trials=300, q_e=1, seed=16)
        rep = run_pri(cfg, family, Probe())
        assert rep.estimate > 0.9

    def test_block_cipher_family_smoke(self):
        fam = comp_prf_family(16)
        key = fam.sample_key(random.Random(1))
        assert fam.evaluate(key, b"abc") == fam.evaluate(key, b"abc")
        assert 0 <= fam.evaluate(key, b"abc") < (1 << 16)

    def test_requires_pri_attack_label(self):
        cfg = GameConfig(atk="ot", trials=1, q_e=1)
        with pytest.raises(MalformedError):
            run_pri(cfg, it_prf_family(80, 0, 13), RandomGuessPri())


class TestExactPriAdvantage:
    """Polynomial family over a 3-bit field, whole key space enumerated."""

    KEYS = list(itertools.product(range(8), repeat=3))

    @staticmethod
    def _eval(key, x):
        return twise_poly(key, x, 3, 3)

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_perfectly_independent_up_to_coefficient_count(self, q):
        points = [i + 1 for i in range(q)]
        assert exact_pri_advantage(self.KEYS, self._eval, points, 3) == 0

    def test_dependence_appears_past_the_coefficient_count(self):
        points = [i + 1 for i in range(4)]
        assert exact_pri_advantage(self.KEYS, self._eval, points, 3) > 0

    def test_truncated_output_stays_independent(self):
        points = [i + 1 for i in range(3)]
        adv = exact_pri_advantage(self.KEYS,
                                  lambda k, x: twise_poly(k, x, 3, 2), points, 2)
        assert adv == 0

    def test_rejects_empty_inputs(self):
        with pytest.raises(MalformedError):
            exact_pri_advantage(self.KEYS, self._eval, [], 3)
        with pytest.raises(MalformedError):
            exact_pri_advantage([], self._eval, [1], 3)


class TestCompositionConsistency:
    def test_chosen_ciphertext_advantage_is_explained(self):
        """Measured active advantage vs the forgery-plus-passive budget.

        The active distinguisher's edge must not exceed twice the
        query-budget-weighted forgery rate plus the passive edge, up to
        three confidence radii.
        """
        params = cca_params()
        n_trials = 1500
        cca = run_pkind(GameConfig(atk="cca", trials=n_trials, q_e=0, q_d=1,
                                   seed=21, params=params),
                        BayesPkind(probe=True))
        kint = run_kint(GameConfig(atk="kint", trials=n_trials, q_e=1, q_d=1,
                                   seed=22, params=params),
                        BruteForceKint())
        cea = run_pkind(GameConfig(atk="cea", trials=n_trials, q_e=0, seed=23,
                                   params=params),
                        BayesPkind())
        slack = 3 * hoeffding_halfwidth(n_trials)
        assert cca.estimate <= 2 * 1 * kint.estimate + cea.estimate + slack

    def test_brute_force_conditioning_helps(self):
        params = cca_params()
        plain = run_kint(GameConfig(atk="kint", trials=300, q_e=1, q_d=1,
                                    seed=24, params=params),
                         BruteForceKint())
        informed = run_kint(GameConfig(atk="kint", trials=300, q_e=1, q_d=1,
                                       seed=24, params=params),
                            BruteForceKint(use_query=True))
        assert informed.estimate >= plain.estimate - 2 * plain.halfwidth
