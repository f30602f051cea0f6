"""Acceptance gate: one test per shipped claim, at its stated tolerance.

Each criterion is a separate test so a verbose run prints one pass/fail
line per claim.  Exact claims run in Fractions end to end; Monte-Carlo
claims pin their seeds, so a pass is reproducible bit for bit.  Stated
runtime ceilings are asserted with a monotonic clock.
"""

import itertools
import json
import math
import random
import time
from collections import Counter
from fractions import Fraction

from prekem import combiner
from prekem.cli import main as cli_main, params_to_doc
from prekem.combiner import CombinedKem, IkemComponent
from prekem.combiner import test_double_kem as make_double_kem
from prekem.dem import DemProfile
from prekem.errors import MalformedError
from prekem.games import (
    BayesPkind,
    BruteForceKint,
    FixedForger,
    GameConfig,
    _split_hash,
    brute_force_forger,
    count_solutions_lemma6,
    exact_distance,
    exact_pri_advantage,
    hoeffding_halfwidth,
    run_kint,
    run_pkind,
)
from prekem.hybrid import (
    HybridScheme,
    he_decrypt,
    he_encrypt,
    parse_envelope,
    serialize_envelope,
)
from prekem.ikem import (
    IkemParams,
    Mode,
    baseline_length_bound,
    cea_length_bound,
    correctness_bound,
    decap,
    encap,
    forgery_bound,
    gen,
)
from prekem.source import bsc_radius, bsc_source, from_json, guess_prob_given_z
from prekem.uhash import twise_poly

HALF = Fraction(1, 2)

ASYM_DOC = {"alphabet": [2, 2, 2], "pxyz": [
    [0, 0, 0, "3/8"], [0, 1, 1, "1/8"], [1, 1, 0, "1/4"],
    [1, 0, 1, "1/8"], [1, 1, 1, "1/8"]]}


def _report(tag, ok, detail):
    print(f"[{tag}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{tag}: {detail}"


def toy_source(n):
    return bsc_source(Fraction(1, 4), Fraction(1, 4), n)


def cea_toy(n, t=2, ell=1, q_e=0):
    return IkemParams(mode=Mode.CEA, source=toy_source(n), n=n, t=t, ell=ell,
                      nu=1.7, r=0, w=n, sigma=0.5, q_e=q_e, q_d=0)


def cca_toy(n, q_e=0, q_d=1):
    return IkemParams(mode=Mode.CCA, source=toy_source(n), n=n, t=2, ell=1,
                      nu=1.7, r=2, w=n, sigma=0.5, q_e=q_e, q_d=q_d)


class _ScriptedRng:
    """Hands out queued getrandbits values; used to enumerate seed draws."""

    def __init__(self, values):
        self._values = list(values)

    def getrandbits(self, bits):
        value = self._values.pop(0)
        assert value < (1 << bits)
        return value


def test_01_split_hash_family_is_universal():
    start = time.monotonic()
    n, t, r = 4, 2, 2
    pw = n - t
    seeds = [(pieces, s2, s1)
             for pieces in itertools.product(range(1 << pw), repeat=r)
             for s2 in range(1 << t)
             for s1 in range(1 << t)]
    table = {sd: [_split_hash(n, t, sd[0], sd[1], sd[2], x)
                  for x in range(1 << n)] for sd in seeds}
    worst = Fraction(0)
    for x in range(1 << n):
        for y in range(x + 1, 1 << n):
            hits = sum(1 for sd in seeds if table[sd][x] == table[sd][y])
            worst = max(worst, Fraction(hits, len(seeds)))
    elapsed = time.monotonic() - start
    _report("01 universality", worst <= Fraction(1, 4) and elapsed < 10.0,
            f"max collision {worst} <= 1/4 over {len(seeds)} seeds, "
            f"{elapsed:.2f}s")


def test_02_forgery_solution_counts_stay_bounded():
    start = time.monotonic()
    n, t = 4, 2
    rng = random.Random(0x10C2)

    def draw_seed():
        return (tuple(rng.randrange(4) for _ in range(2)),
                rng.randrange(4), rng.randrange(4))

    seen_i, max_i = set(), 0
    while len(seen_i) < 1000:
        seed, seed_f = draw_seed(), draw_seed()
        if seed == seed_f:
            continue
        v, v_f = rng.randrange(4), rng.randrange(4)
        if (seed, seed_f, v, v_f) in seen_i:
            continue
        seen_i.add((seed, seed_f, v, v_f))
        count = count_solutions_lemma6(n, t, seed, seed_f, v, v_f, "i")
        assert count <= 9, (seed, seed_f, v, v_f, count)
        max_i = max(max_i, count)

    seen_ii, max_ii = set(), 0
    while len(seen_ii) < 1000:
        seed, seed_f = draw_seed(), draw_seed()
        v, v_f = rng.randrange(4), rng.randrange(4)
        e = rng.randrange(1, 16)
        if (v, seed) == (v_f, seed_f) or (seed, seed_f, v, v_f, e) in seen_ii:
            continue
        seen_ii.add((seed, seed_f, v, v_f, e))
        count = count_solutions_lemma6(n, t, seed, seed_f, v, v_f, "ii", e=e)
        assert count <= 20, (seed, seed_f, v, v_f, e, count)
        max_ii = max(max_ii, count)

    elapsed = time.monotonic() - start
    _report("02 counting", elapsed < 60.0,
            f"1000+1000 distinct tuples, max counts {max_i} <= 9 and "
            f"{max_ii} <= 20, {elapsed:.2f}s")


def test_03_correctness_bound_holds_on_binary_symmetric_source():
    start = time.monotonic()
    p, n, nu, t = Fraction(1, 20), 24, 12.0, 12
    source = bsc_source(p, Fraction(1, 2), n)
    params = IkemParams(mode=Mode.CEA, source=source, n=n, t=t, ell=4,
                        nu=nu, r=0, w=n, sigma=0.25, q_e=0, q_d=0)
    d_max = bsc_radius(p, n, nu)
    assert d_max == 2

    tail = 1 - sum(math.comb(n, j) * p ** j * (1 - p) ** (n - j)
                   for j in range(d_max + 1))
    ball = sum(math.comb(n, j) for j in range(d_max + 1))
    bound = float(tail) + ball * 2.0 ** -t
    assert abs(correctness_bound(params) - bound) <= 1e-12

    trials = 10_000
    rng = random.Random(0xC0FFEE)
    failures = 0
    for _ in range(trials):
        inst = gen(params, rng)
        key, c = encap(params, inst.x, rng, inst.public_seed)
        got = decap(params, inst.y, c, inst.public_seed)
        failures += got is None or got != key
    rate = failures / trials
    limit = bound + 3 * math.sqrt(bound / trials)
    elapsed = time.monotonic() - start
    _report("03 correctness", rate <= limit and elapsed < 120.0,
            f"rate {rate:.4f} <= {bound:.4f} + slack (= {limit:.4f}), "
            f"ball {ball}, {elapsed:.2f}s")


def test_04_key_distance_within_entropy_budget():
    start = time.monotonic()
    cases = []
    for n in range(2, 7):
        cases.append((toy_source(n), n, 0))
        if n <= 5:
            cases.append((toy_source(n), n, 1))
    for n in (2, 3, 4):
        skew = bsc_source(Fraction(1, 8), Fraction(3, 8), n)
        cases.append((skew, n, 0))
        cases.append((skew, n, 1))
    for n in (2, 3):
        asym = from_json({**ASYM_DOC, "n": n})
        cases.append((asym, n, 0))
        cases.append((asym, n, 1))

    checked = 0
    for source, n, q_e in cases:
        params = IkemParams(mode=Mode.CEA, source=source, n=n, t=2, ell=1,
                            nu=1.0, r=0, w=n, sigma=0.5, q_e=q_e, q_d=0)
        delta = exact_distance(params, q_e)
        g = guess_prob_given_z(source)
        # squared form of delta <= (1/2) sqrt(2^((q_e+1)ell + t) g^n),
        # kept in Fractions so the comparison is exact
        assert 4 * delta * delta <= Fraction(2) ** ((q_e + 1) * 1 + 2) * g ** n, \
            (n, q_e, delta)
        checked += 1
    elapsed = time.monotonic() - start
    _report("04 uniformity", checked == len(cases) and elapsed < 300.0,
            f"{checked} exact cases across three sources, zero tolerance, "
            f"{elapsed:.2f}s")


def test_05_forger_exact_success_and_monte_carlo_rate():
    start = time.monotonic()
    worst = Fraction(0)
    swept = 0
    for n in (4, 5):
        params = cca_toy(n, q_e=1, q_d=1)
        limit = min(1.0, forgery_bound(params))
        for z in itertools.product(range(2), repeat=n):
            result = brute_force_forger(params, z, random.Random(3))
            assert float(result.p_success) <= limit, (n, z, result.p_success)
            worst = max(worst, result.p_success)
            swept += 1

    params = cca_toy(5, q_e=1, q_d=1)
    z0 = (0, 1, 0, 0, 1)
    fixed = brute_force_forger(params, z0, random.Random(7))
    trials = 10_000
    report = run_kint(
        GameConfig(atk="kint", trials=trials, q_e=1, q_d=1, seed=41,
                   params=params, target=z0),
        FixedForger(fixed.ciphertext))
    gap = abs(report.estimate - float(fixed.p_success))
    hw = hoeffding_halfwidth(trials)
    elapsed = time.monotonic() - start
    _report("05 integrity", gap <= hw and elapsed < 300.0,
            f"{swept} observer strings <= bound (max exact {worst}), "
            f"MC gap {gap:.4f} <= {hw:.4f} at N={trials}, {elapsed:.2f}s")


def test_06_active_advantage_explained_by_forgery_plus_passive():
    start = time.monotonic()
    params = cca_toy(4, q_e=0, q_d=1)
    trials = 2500
    cca = run_pkind(GameConfig(atk="cca", trials=trials, q_e=0, q_d=1,
                               seed=31, params=params), BayesPkind(probe=True))
    kint = run_kint(GameConfig(atk="kint", trials=trials, q_e=1, q_d=1,
                               seed=32, params=params), BruteForceKint())
    cea = run_pkind(GameConfig(atk="cea", trials=trials, q_e=0, seed=33,
                               params=params), BayesPkind())
    budget = 2 * 1 * kint.estimate + cea.estimate + 3 * hoeffding_halfwidth(trials)
    elapsed = time.monotonic() - start
    _report("06 composition", cca.estimate <= budget and elapsed < 300.0,
            f"active {cca.estimate:.4f} <= 2*q_d*forge {kint.estimate:.4f} "
            f"+ passive {cea.estimate:.4f} + slack (= {budget:.4f}), "
            f"{elapsed:.2f}s")


def test_07_shared_seed_length_beats_fresh_seed_length():
    start = time.monotonic()
    checked = 0
    for p in (Fraction(0), Fraction(1, 8), Fraction(1, 4)):
        for q in (Fraction(1, 8), Fraction(1, 4), Fraction(3, 8)):
            for n in (16, 24, 32):
                source = bsc_source(p, q, n)
                for sigma in (0.25, 0.0625):
                    for q_e in (1, 2, 3):
                        for t in (2, 4):
                            new = cea_length_bound(source, sigma, q_e, t)
                            old = baseline_length_bound(source, sigma, q_e, t)
                            assert new >= old, (p, q, n, sigma, q_e, t)
                            checked += 1
    elapsed = time.monotonic() - start
    _report("07 length gain", checked >= 100 and elapsed < 10.0,
            f"{checked} (source, sigma, q_e, t) tuples, shared-seed length "
            f">= fresh-seed length in all, {elapsed:.2f}s")


def test_08_combiner_robustness(monkeypatch):
    start = time.monotonic()
    # broken second component leaves the first component's key law intact:
    # enumerate every extractor seed and compare exact key histograms
    params = IkemParams(mode=Mode.CEA, source=toy_source(8), n=8, t=2, ell=8,
                        nu=1.0, r=0, w=8, sigma=0.5, q_e=0, q_d=0)
    inst = gen(params, random.Random(42))
    first = IkemComponent(params, inst)
    broken = make_double_kem(8, random.Random(43), broken=True)
    kem = CombinedKem(first, broken, core="xor")
    component, combined = Counter(), Counter()
    for sp in range(1 << params.w):
        key, _ = encap(params, inst.x, _ScriptedRng([sp]), inst.public_seed)
        component[key.bits] += 1
        ckey, cc = kem.enc(_ScriptedRng([sp]))
        combined[ckey.bits] += 1
        # receiver side mirrors the bare component exactly, rejections too
        got, bare = kem.dec(cc), first.dec(cc.c1)
        assert (got is None) == (bare is None)
        assert got is None or got.bits == bare.bits
    assert combined == component

    # the polynomial PRF is touched at most once per decapsulation
    f1_calls, real = [], combiner.prf_it
    monkeypatch.setattr(combiner, "prf_it",
                        lambda *a: f1_calls.append(a) or real(*a))
    rng = random.Random(11)
    ptx = CombinedKem(make_double_kem(1054, rng), make_double_kem(256, rng),
                      core="ptx", q_d=0)
    for _ in range(1000):
        key, c = ptx.enc(rng)
        before = len(f1_calls)
        assert ptx.dec(c) == key
        assert len(f1_calls) - before <= 1

    # q_d + 2 = 3 coefficients over GF(2^3): 3-wise independence is exact
    keys = list(itertools.product(range(8), repeat=3))
    adv = exact_pri_advantage(keys, lambda k, x: twise_poly(k, x, 3, 3),
                              [1, 2, 3], 3)
    elapsed = time.monotonic() - start
    _report("08 combiner", adv == 0 and elapsed < 120.0,
            f"key law preserved over {1 << params.w} seeds, f1 <= 1 per "
            f"decapsulation over 1000, 3-wise advantage {adv}, {elapsed:.2f}s")


def test_09_hybrid_round_trips_and_tamper_sweep():
    start = time.monotonic()
    source = bsc_source(Fraction(0), Fraction(1, 2), 96)
    params = IkemParams(mode=Mode.CCA, source=source, n=96, t=45, ell=40,
                        nu=0.0, r=2, w=96, sigma=0.25, q_e=0, q_d=1)
    scheme = HybridScheme.for_params(params, DemProfile(enc_len=8, mac_bits=16))
    rng = random.Random(0x9E)
    inst = gen(params, rng)

    mismatches = rejects = 0
    for _ in range(1000):
        message = rng.randbytes(11)
        blob = serialize_envelope(scheme, he_encrypt(scheme, inst.x, message,
                                                     rng))
        out = he_decrypt(scheme, inst.y, parse_envelope(scheme, blob))
        if out is None:
            rejects += 1
        elif out != message:
            mismatches += 1
    assert mismatches == 0
    assert rejects == 0  # noiseless reconciliation never rejects honestly

    blob = serialize_envelope(scheme, he_encrypt(scheme, inst.x,
                                                 rng.randbytes(11), rng))
    assert len(blob) == 64
    accepted = []
    for bit in range(8 * len(blob)):
        raw = bytearray(blob)
        raw[bit // 8] ^= 1 << (bit % 8)
        try:
            env = parse_envelope(scheme, bytes(raw))
            out = he_decrypt(scheme, inst.y, env)
        except MalformedError:
            continue
        if out is not None:
            accepted.append(bit)
    elapsed = time.monotonic() - start
    _report("09 hybrid", not accepted and elapsed < 120.0,
            f"1000 round trips clean, all {8 * len(blob)} single-bit tampers "
            f"rejected, {elapsed:.2f}s")


def test_10_seeded_commands_are_byte_identical(tmp_path, capsys):
    params = IkemParams(mode=Mode.CEA,
                        source=bsc_source(Fraction(0), Fraction(1, 2), 14),
                        n=14, t=4, ell=8, nu=0.0, r=0, w=14, sigma=0.25,
                        q_e=0, q_d=0)
    params_file = tmp_path / "params.json"
    params_file.write_text(json.dumps(
        params_to_doc(params, DemProfile(enc_len=8, mac_bits=8))) + "\n")
    message = tmp_path / "message.bin"
    message.write_bytes(bytes(range(64)))
    games = tmp_path / "games.json"
    games.write_text(json.dumps({
        "game": "pkind", "atk": "cea", "adversary": "random", "trials": 60,
        "params": params_to_doc(cea_toy(4))}) + "\n")

    outputs = {}
    game_stdout = {}
    for run in ("a", "b"):
        base = tmp_path / run
        base.mkdir()
        mat = base / "mat"
        assert cli_main(["sample", "--config", str(params_file), "--seed",
                         "1f", "--out-dir", str(mat)]) == 0
        assert cli_main(["encap", "--config", str(params_file), "--x",
                         str(mat / "x.json"), "--public",
                         str(mat / "public.json"), "--seed", "2e", "--out",
                         str(base / "ct.bin"), "--key-out",
                         str(base / "key.json")]) == 0
        assert cli_main(["he-encrypt", "--config", str(params_file), "--x",
                         str(mat / "x.json"), "--public",
                         str(mat / "public.json"), "--seed", "3c", "--in",
                         str(message), "--out", str(base / "env.bin")]) == 0
        assert cli_main(["combine", "--config", str(params_file), "--x",
                         str(mat / "x.json"), "--y", str(mat / "y.json"),
                         "--public", str(mat / "public.json"), "--seed", "4d",
                         "--out", str(base / "cmb.bin"), "--key-out",
                         str(base / "ckey.json")]) == 0
        capsys.readouterr()
        assert cli_main(["game", "--config", str(games), "--seed", "2a",
                         "--out", str(base / "report.jsonl")]) == 0
        game_stdout[run] = capsys.readouterr().out
        outputs[run] = {
            rel: (base / rel).read_bytes()
            for rel in ("mat/x.json", "mat/y.json", "mat/z.json",
                        "mat/public.json", "ct.bin", "key.json", "env.bin",
                        "cmb.bin", "ckey.json", "report.jsonl")}

    same_files = outputs["a"] == outputs["b"]
    same_stdout = game_stdout["a"] == game_stdout["b"]
    _report("10 determinism", same_files and same_stdout,
            f"{len(outputs['a'])} artifacts from 5 seeded commands identical "
            f"across two runs")
