"""KEM construction and parameter engine tests.

Golden encapsulation values were computed by schoolbook evaluation of the
hash formulas before the package existed; formula examples are recomputed
test-locally.  Round trips and tamper sweeps run the real protocol.
"""

import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prekem.errors import InfeasibleError, MalformedError
from prekem.ikem import (
    IkemCiphertext,
    IkemKey,
    IkemParams,
    Mode,
    baseline_length_bound,
    cca_length_bound,
    check_enumerable,
    cea_length_bound,
    correctness_bound,
    decap,
    derive_params_baseline,
    derive_params_cca,
    derive_params_cea,
    distance_bound,
    encap,
    forgery_bound,
    gen,
    nu_for_correctness,
    pack_bits,
    parse_ciphertext,
    parse_ciphertext_for,
    serialize_ciphertext,
    unpack_bits,
)
from prekem.ikem import _check_ciphertext, _extractor, _recon_hash, _su_hash
from prekem.source import (SourceSpec, bsc_radius, bsc_source,
                           cond_neg_log_prob, from_json, miss_mass,
                           recon_ints, recon_set)
from prekem.uhash import ReconSeed, h_cca, h_cea, piece_count, split_seed


def exhaustive_correctness(params):
    """(miss mass, correctness bound) by walking all 4^n (x, y) pairs: the
    oracle for correctness_bound on general binary tables."""
    src = params.source
    miss = Fraction(0) if src.exact else 0.0
    worst = 0
    pxy = src.joint_xy
    for y in itertools.product(range(2), repeat=src.n):
        members = set(recon_set(src, y, params.nu).members)
        worst = max(worst, len(members))
        for x in itertools.product(range(2), repeat=src.n):
            if x not in members:
                miss += math.prod((pxy[a][b] for a, b in zip(x, y)),
                                  start=Fraction(1) if src.exact else 1.0)
    return miss, min(1.0, float(miss) + worst * 2.0 ** -params.t)


def toy_params(mode, n=4, t=2, ell=1, nu=2.5, p=0.25, q=0.5, **kw):
    src = bsc_source(p, q, n)
    w = n + ell if mode is Mode.BASELINE else n
    r = 2 if mode is Mode.CCA else 0
    defaults = dict(mode=mode, source=src, n=n, t=t, ell=ell, nu=nu, r=r,
                    w=w, sigma=0.5, q_e=1, q_d=1)
    defaults.update(kw)
    return IkemParams(**defaults)


def shaped(mode, source, t, ell, nu):
    """Parameters of any shape, without derive_params_*'s bounds."""
    n = source.n
    w = n + ell if mode is Mode.BASELINE else n
    r = piece_count(w, n - t) if mode is Mode.CCA else 0
    return IkemParams(mode=mode, source=source, n=n, t=t, ell=ell, nu=nu,
                      r=r, w=w, sigma=0.5, q_e=0, q_d=0)


def recon_set_decap(params, y, c, public_seed=None):
    """decap as it was before it walked member classes, hashing each of
    recon_set's members packed one by one: (the key or None, how many
    members explain v).  The oracle for decap's matching and ties;
    test_source checks recon_set's members against the branch-and-bound
    walk it once ran."""
    if len(y) != params.n:
        raise MalformedError("y must have length n")
    _check_ciphertext(params, c)
    h = _recon_hash(params, c.sprime, c.s, public_seed)
    members = recon_set(params.source, tuple(y), params.nu).members
    found = [xp for xp in map(pack_bits, members) if h(xp) == c.v]
    if len(found) != 1:
        return None, len(found)
    return IkemKey(_extractor(params, c.sprime)(found[0]), params.ell), 1


class TestPacking:
    def test_msb_first(self):
        assert pack_bits((1, 0, 1, 1)) == 0b1011
        assert unpack_bits(0b1011, 4) == (1, 0, 1, 1)
        assert unpack_bits(0b1011, 6) == (0, 0, 1, 0, 1, 1)

    def test_round_trip(self):
        rng = random.Random(1)
        for _ in range(20):
            bits = tuple(rng.getrandbits(1) for _ in range(11))
            assert unpack_bits(pack_bits(bits), 11) == bits

    def test_rejects(self):
        with pytest.raises(MalformedError):
            pack_bits((0, 2, 1))
        with pytest.raises(MalformedError):
            unpack_bits(16, 4)


def loop_pack_bits(bits):
    """The per-bit loop pack_bits replaced, kept as its oracle."""
    v = 0
    for b in bits:
        if b not in (0, 1):
            raise MalformedError("packing needs binary symbols")
        v = (v << 1) | b
    return v


class TestPackBitsAgainstLoop:
    @pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 24, 1080, 8192])
    def test_matches_loop(self, n):
        rng = random.Random(n)
        shapes = [tuple(rng.getrandbits(1) for _ in range(n)),
                  (0,) * n, (1,) * n, (1,) + (0,) * n, (0,) * n + (1,)]
        for bits in shapes:
            want = loop_pack_bits(bits)
            assert pack_bits(bits) == want
            assert pack_bits(list(bits)) == want
            assert pack_bits(iter(bits)) == want
            assert pack_bits(b for b in bits) == want

    @pytest.mark.parametrize("bad", [2, -1, 256, None, 1.0, 0.0, "1", b"0"])
    def test_non_binary_symbols_rejected(self, bad):
        for bits in [(bad,), (0, bad, 1), [1] * 30 + [bad]]:
            with pytest.raises(MalformedError):
                pack_bits(bits)

    def test_non_sequences_rejected(self):
        # bytes(5) would be five zero symbols, and "01" is text, not bits
        for bits in (5, "01", None):
            with pytest.raises(MalformedError):
                pack_bits(bits)


class TestGen:
    def test_point_mass_source(self):
        src = from_json({"alphabet": [2, 2, 2], "n": 4, "pxyz": [[0, 0, 0, 1]]})
        params = toy_params(Mode.CEA).replace(source=src, nu=0.0)
        assert params == toy_params(Mode.CEA, source=src, nu=0.0)
        inst = gen(params, random.Random(3))
        assert inst.x == inst.y == (0, 0, 0, 0)
        k, c = encap(params, inst.x, random.Random(4), inst.public_seed)
        assert decap(params, inst.y, c, inst.public_seed) == k

    def test_seed_presence_by_mode(self):
        assert gen(toy_params(Mode.CEA), random.Random(0)).public_seed is not None
        assert gen(toy_params(Mode.CCA), random.Random(0)).public_seed is None
        assert gen(toy_params(Mode.BASELINE), random.Random(0)).public_seed is None

    def test_deterministic(self):
        params = toy_params(Mode.CEA)
        assert gen(params, random.Random(9)) == gen(params, random.Random(9))


class TestEncapDecap:
    @pytest.mark.parametrize("mode", list(Mode))
    def test_noiseless_round_trip(self, mode):
        params = toy_params(mode, n=8, t=3, ell=2, nu=0.0, p=0)
        inst = gen(params, random.Random(11))
        assert inst.x == inst.y
        k, c = encap(params, inst.x, random.Random(12), inst.public_seed)
        assert decap(params, inst.y, c, inst.public_seed) == k
        assert k.ell == 2

    @pytest.mark.parametrize("mode", list(Mode))
    def test_noisy_round_trip_when_reconcilable(self, mode):
        # nu = 2.5 keeps only the zero-distance candidate, so y = x decaps
        params = toy_params(mode)
        rng = random.Random(21)
        x = (0, 1, 1, 0)
        k, c = encap(params, x, rng, 0b1001 if mode is Mode.CEA else None)
        pub = 0b1001 if mode is Mode.CEA else None
        assert decap(params, x, c, pub) == k

    def test_golden_vector(self):
        # frozen from schoolbook evaluation: seed 0x60DE draws s'=0b0101
        # then s=0b0001; x=0110 hashes to v=0b10 and extracts k=1
        params = toy_params(Mode.CCA)
        k, c = encap(params, (0, 1, 1, 0), random.Random(0x60DE))
        assert (c.sprime, c.s, c.v, k.bits) == (0b0101, 0b0001, 0b10, 1)
        assert serialize_ciphertext(params, c) == (
            b"IKEM\x01\x02\x00\x04\x00\x02\x00\x04\x02\x05\x01")

    def test_cea_reuses_public_hash_value(self):
        params = toy_params(Mode.CEA, n=12, t=5, ell=3)
        inst = gen(params, random.Random(31))
        rng = random.Random(32)
        k1, c1 = encap(params, inst.x, rng, inst.public_seed)
        k2, c2 = encap(params, inst.x, rng, inst.public_seed)
        assert c1.v == c2.v            # same x, same shared seed
        assert c1.sprime != c2.sprime  # fresh extractor seed

    @pytest.mark.parametrize("mode", [Mode.CCA, Mode.BASELINE])
    def test_fresh_seeds_differ(self, mode):
        params = toy_params(mode, n=12, t=5, ell=3)
        x = (0, 0, 1, 1) * 3
        rng = random.Random(33)
        _, c1 = encap(params, x, rng)
        _, c2 = encap(params, x, rng)
        assert (c1.sprime, c1.s) != (c2.sprime, c2.s)

    def test_empty_recon_set_rejects(self):
        params = toy_params(Mode.CCA, nu=-1.0)
        k, c = encap(params, (0, 1, 1, 0), random.Random(41))
        assert decap(params, (0, 1, 1, 0), c) is None

    @pytest.mark.parametrize("mode", list(Mode))
    def test_single_bit_tamper_rejected_noiseless(self, mode):
        # R = {y}: flipping any v bit can only miss the unique candidate
        params = toy_params(mode, p=0, nu=0.0)
        for ybits in range(16):
            y = unpack_bits(ybits, 4)
            rng = random.Random(100 + ybits)
            pub = 0b0111 if mode is Mode.CEA else None
            k, c = encap(params, y, rng, pub)
            for bit in range(2):
                bad = IkemCiphertext(c.v ^ (1 << bit), c.sprime, c.s)
                assert decap(params, y, bad, pub) is None

    def test_ambiguous_tie_rejects(self):
        # nu = 12 admits all 16 candidates; t = 1 forces collisions
        params = toy_params(Mode.CEA, t=1, nu=12.0)
        x = (0, 1, 1, 0)
        k, c = encap(params, x, random.Random(51), 0b1011)
        assert decap(params, x, c, 0b1011) is None

    def test_injective_seed_survives_full_recon_set(self):
        # t = n with an invertible shared seed: the hash is a bijection,
        # so even a 16-member candidate set has a unique match
        params = toy_params(Mode.CEA, t=4, nu=12.0)
        x = (1, 0, 0, 1)
        k, c = encap(params, x, random.Random(52), 0b0011)
        assert decap(params, x, c, 0b0011) == k

    def test_cea_needs_public_seed(self):
        params = toy_params(Mode.CEA)
        with pytest.raises(MalformedError):
            encap(params, (0, 0, 0, 0), random.Random(0))
        k, c = encap(params, (0, 0, 0, 0), random.Random(0), 0b1)
        with pytest.raises(MalformedError):
            decap(params, (0, 0, 0, 0), c)

    def test_decap_validates_ciphertext(self):
        params = toy_params(Mode.CCA)
        with pytest.raises(MalformedError):
            decap(params, (0, 0, 0, 0), IkemCiphertext(4, 0, 0))
        with pytest.raises(MalformedError):
            decap(params, (0, 0, 0, 0), IkemCiphertext(0, 0, None))

    @pytest.mark.parametrize("y", [(2, 0, 0, 0, 0), (0, -1, -1, 0, -1)])
    @pytest.mark.parametrize("mode", list(Mode))
    def test_decap_refuses_non_binary_y(self, mode, y):
        params = toy_params(mode, n=5, nu=12.0)
        pub = 0b10110 if mode is Mode.CEA else None
        _, c = encap(params, (0, 1, 1, 0, 1), random.Random(5), pub)
        with pytest.raises(MalformedError, match="binary symbols"):
            decap(params, y, c, pub)

    def test_decap_cap_is_operational_error(self, monkeypatch):
        monkeypatch.setattr("prekem.source.RECON_CAP", 3)
        params = toy_params(Mode.CCA, nu=12.0)
        k, c = encap(params, (0, 1, 1, 0), random.Random(61))
        with pytest.raises(InfeasibleError):
            decap(params, (0, 1, 1, 0), c)



# kem-noisy's channel: every R(y) is the radius-2 Hamming ball, 301 strings
NOISY24 = bsc_source(Fraction(1, 20), Fraction(1, 2), 24)
NU_UNDER_R3 = math.fsum([-math.log2(1 / 20)] * 3
                        + [-math.log2(19 / 20)] * 21) - 5e-10


def decap_inputs(params, rng, draws):
    """(y, ciphertext, public seed) for each of draws seeded instances: the
    honest ciphertext, the same with v's low bit flipped, and the honest
    one under a random other y."""
    for _ in range(draws):
        inst = gen(params, rng)
        pub = inst.public_seed
        _, c = encap(params, inst.x, rng, pub)
        other = tuple(rng.getrandbits(1) for _ in range(params.n))
        yield inst.y, c, pub
        yield inst.y, IkemCiphertext(c.v ^ 1, c.sprime, c.s), pub
        yield other, c, pub


# SHA-256 over every seeded decap result of decap_digest, recorded with
# the decap that enumerated recon_set's members
DECAP_DIGEST = \
    "0fc4bdf19cf1a579aa5baf545da99cd54f320c25edd347fb880521b0f938e0f7"


def decap_digest():
    """Seeded decaps of decap_inputs on kem-noisy's channel (t = 12, and
    t = 3 for ties), games-desk's toy sources at n = 4..6 and the README's
    authenticated n = 1080 profile, in every mode where the shape allows;
    each result is fed to a SHA-256 as the key bits or "-" for a reject."""
    toy = [bsc_source(Fraction(1, 4), Fraction(1, 4), n) for n in (4, 5, 6)]
    cases = [(shaped(m, NOISY24, t, 4, 12.0), 16) for m in Mode
             for t in (12, 3)]
    cases += [(shaped(m, src, 2, 1, nu), 2 ** src.n) for m in Mode
              for src in toy for nu in (1.0, 1.7, 4.5)]
    cases.append((derive_params_cca(
        bsc_source(Fraction(0), Fraction(1, 2), 1080), eps=0.01,
        sigma=2 ** -20, delta=2 ** -10, q_e=0, q_d=1, nu=0.0, t=527,
        ell=512), 6))
    h = hashlib.sha256()
    rng = random.Random(0x5EED)
    for params, draws in cases:
        for y, c, pub in decap_inputs(params, rng, draws):
            got = decap(params, y, c, pub)
            h.update(b"-;" if got is None else b"%x;" % got.bits)
    return h.hexdigest()


class TestDecapAgainstReconSet:
    """decap's class walk against recon_set_decap, and the seeded pin."""

    def test_seeded_results_unchanged(self):
        assert decap_digest() == DECAP_DIGEST

    @pytest.mark.parametrize("mode", list(Mode))
    def test_matches_the_recon_set_decap(self, mode):
        asym = SourceSpec(2, 2, 1, 6, (Fraction(1, 2), Fraction(1, 8),
                                       Fraction(1, 16), Fraction(5, 16)))
        cases = [shaped(mode, NOISY24, t, 4, nu) for t in (12, 3)
                 for nu in (12.0, NU_UNDER_R3)]
        cases += [shaped(mode, bsc_source(Fraction(1, 4), Fraction(1, 4), n),
                         t, 1, nu)
                  for n in (4, 5, 6) for t in (1, 2) for nu in (1.7, 4.5)]
        cases += [shaped(mode, asym, t, 1, nu)
                  for t in (1, 3) for nu in (2.0, 4.3, 7.0)]
        rng = random.Random(int(mode))
        outcomes = {"accept": 0, "none": 0, "tie": 0}
        for params in cases:
            for y, c, pub in decap_inputs(params, rng, 8):
                want, found = recon_set_decap(params, y, c, pub)
                assert decap(params, y, c, pub) == want
                outcomes[("none", "accept", "tie")[min(found, 2)]] += 1
        assert min(outcomes.values()) > 10, outcomes


class TestReconHash:
    """_recon_hash against the uhash families on the seeds each mode
    hashes under, and the seed built once per ciphertext."""

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("n, t, ell", [(4, 2, 1), (7, 3, 2), (24, 12, 4)])
    def test_matches_the_family_on_its_seed(self, mode, n, t, ell):
        params = shaped(mode, bsc_source(Fraction(1, 4), Fraction(1, 2), n),
                        t, ell, 1.0)
        s_bits = mode.s_bits(n, t)
        rng = random.Random(n * 10 + int(mode))
        seeds = [(0, 0, 0)] + [
            (rng.getrandbits(params.w), rng.getrandbits(s_bits),
             rng.getrandbits(n)) for _ in range(6)]
        xs = [0, 1, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(10)]
        for sprime, s, pub in seeds:
            if mode is Mode.CEA:
                # the wire's seeds play no part: only the published one
                h = _recon_hash(params, sprime, None, pub)
                want = [h_cea(x, ReconSeed(pub, n, t)) for x in xs]
            elif mode is Mode.CCA:
                h = _recon_hash(params, sprime, s, pub)
                want = [h_cca(x, split_seed(sprime, params.w, n - t),
                              ReconSeed(s, n, t)) for x in xs]
            else:
                h = _recon_hash(params, sprime, s, pub)
                want = [_su_hash(x, s, n, t) for x in xs]
            assert [h(x) for x in xs] == want

    def test_shared_seed_mode_needs_the_public_seed(self):
        params = toy_params(Mode.CEA)
        x = (0, 1, 1, 0)
        with pytest.raises(MalformedError,
                           match="^shared-seed mode needs the public seed$"):
            encap(params, x, random.Random(3))
        _, c = encap(params, x, random.Random(3), 0b1001)
        with pytest.raises(MalformedError,
                           match="^shared-seed mode needs the public seed$"):
            decap(params, x, c)

    def test_one_seed_per_decap(self, monkeypatch):
        params = shaped(Mode.CEA, NOISY24, 12, 4, 12.0)
        inst = gen(params, random.Random(4))
        _, c = encap(params, inst.x, random.Random(5), inst.public_seed)
        assert len(recon_ints(NOISY24, pack_bits(inst.y), 12.0)) == 301
        built = []

        class CountedSeed(ReconSeed):
            def __init__(self, s, n, t):
                built.append(s)
                super().__init__(s, n, t)

        monkeypatch.setattr("prekem.ikem.ReconSeed", CountedSeed)
        decap(params, inst.y, c, inst.public_seed)
        assert built == [inst.public_seed]


class TestCheckEnumerable:
    """check_enumerable refuses a satellite instance whose R(y) decap would
    refuse to enumerate, and passes one it can."""

    @pytest.mark.parametrize("derive", [derive_params_cea,
                                        derive_params_baseline])
    def test_verdict_matches_decap(self, derive, monkeypatch):
        monkeypatch.setattr("prekem.source.RECON_CAP", 300)
        with pytest.raises(InfeasibleError,
                           match="301 strings exceeds cap 300"):
            check_enumerable(derive(NOISY24, 0.25, 0, 14, nu=12.0))
        # nu sits 5e-10 under the radius-3 cost: the 301-string ball
        monkeypatch.setattr("prekem.source.RECON_CAP", 301)
        params = derive(NOISY24, 0.25, 0, 14, nu=NU_UNDER_R3)
        check_enumerable(params)
        inst = gen(params, random.Random(8))
        key, c = encap(params, inst.x, random.Random(9), inst.public_seed)
        decap(params, inst.y, c, inst.public_seed)  # within cap: no raise

    def test_decap_counts_classes_before_building_members(self, monkeypatch):
        import prekem.source as source
        params = derive_params_cea(NOISY24, 0.25, 0, 14, nu=12.0)
        inst = gen(params, random.Random(8))
        _, c = encap(params, inst.x, random.Random(9), inst.public_seed)
        monkeypatch.setattr(source, "RECON_CAP", 301)
        check_enumerable(params)
        decap(params, inst.y, c, inst.public_seed)
        # over the cap, building any member would fail
        monkeypatch.setattr(source, "_flip_masks", None)
        monkeypatch.setattr(source, "RECON_CAP", 300)
        with pytest.raises(InfeasibleError,
                           match="301 strings exceeds cap 300"):
            check_enumerable(params)
        with pytest.raises(InfeasibleError,
                           match="^reconciliation set exceeds cap 300 at nu=12.0$"):
            decap(params, inst.y, c, inst.public_seed)
        monkeypatch.setattr(source, "RECON_CAP", 1 << 20)
        src = bsc_source(Fraction(1, 1000), Fraction(1, 2), 1080)
        params = derive_params_cca(src, 0.01, 2.0 ** -20, 2.0 ** -10, 0, 0,
                                   nu=40.0, t=527)
        inst = gen(params, random.Random(10))
        _, c = encap(params, inst.x, random.Random(11))
        with pytest.raises(InfeasibleError, match="exceeds cap 1048576"):
            decap(params, inst.y, c)  # 209952901 strings, counted only

    def test_cca_over_default_cap(self):
        src = bsc_source(Fraction(1, 1000), Fraction(1, 2), 1080)
        check_enumerable(derive_params_cca(
            src, 0.01, 2.0 ** -20, 2.0 ** -10, 0, 0, nu=20.0, t=100))
        # the derivation itself stays analytic
        params = derive_params_cca(src, 0.01, 2.0 ** -20, 2.0 ** -10, 0, 0,
                                   nu=40.0, t=100)
        with pytest.raises(InfeasibleError,
                           match="209952901 strings exceeds cap 1048576"):
            check_enumerable(params)

    def test_general_tables_left_to_decap(self, monkeypatch):
        monkeypatch.setattr("prekem.source.RECON_CAP", 1)
        src = from_json({"alphabet": [2, 2, 2], "n": 4,
                         "pxyz": [[0, 0, 0, "1/2"], [1, 1, 1, "1/2"]]})
        params = toy_params(Mode.CEA).replace(source=src, nu=100.0)
        assert params == toy_params(Mode.CEA, source=src, nu=100.0)
        check_enumerable(params)


class TestDeriveCea:
    def test_formula_examples(self):
        src = bsc_source(0.25, 0.5, 100)   # one residual bit per symbol
        assert cea_length_bound(src, 2.0 ** -10, 0, 0) == pytest.approx(82.0)
        assert cea_length_bound(src, 1.0, 0, 0) == pytest.approx(102.0)
        assert cea_length_bound(src, 2.0 ** -10, 1, 4) == pytest.approx(39.0)

    def test_derive_settles_max_length(self):
        src = bsc_source(0.25, 0.5, 100)
        params = derive_params_cea(src, 2.0 ** -10, 0, 4, nu=2.5)
        assert params.ell == 78 and params.mode is Mode.CEA
        assert params.w == 100 and params.q_d == 0

    def test_explicit_shorter_length(self):
        src = bsc_source(0.25, 0.5, 100)
        params = derive_params_cea(src, 2.0 ** -10, 0, 4, nu=2.5, ell=40)
        assert params.ell == 40

    def test_infeasible(self):
        small = bsc_source(0.25, 0.5, 8)
        with pytest.raises(InfeasibleError):
            derive_params_cea(small, 2.0 ** -10, 0, 7, nu=2.5)
        src = bsc_source(0.25, 0.5, 100)
        with pytest.raises(InfeasibleError):
            derive_params_cea(src, 2.0 ** -10, 0, 4, nu=2.5, ell=90)

    def test_needs_threshold(self):
        with pytest.raises(MalformedError):
            derive_params_cea(bsc_source(0.25, 0.5, 8), 0.5, 0, 2)

    def test_length_capped_at_n(self):
        # bound exceeds n at tiny t and sigma = 1; the field width caps it
        src = bsc_source(0.25, 0.5, 8)
        params = derive_params_cea(src, 1.0, 0, 1, nu=2.5)
        assert params.ell == 8


class TestDeriveCca:
    def test_satellite_example(self):
        src = bsc_source(0.02, 0.5, 1000)
        # test-local recomputation of the threshold recipe
        n, eps = 1000, 0.01
        h = -(0.02 * math.log2(0.02) + 0.98 * math.log2(0.98))
        rn = math.sqrt(n)
        nu = n * h + rn * math.log2(5) * math.sqrt(
            math.log2(rn / ((rn - 1) * eps)))
        assert nu_for_correctness(src, eps) == pytest.approx(nu, abs=1e-9)
        assert nu == pytest.approx(331.36, abs=0.05)
        t = math.ceil(nu + math.log2(rn / eps))
        assert t == 343
        params = derive_params_cca(src, eps, 2.0 ** -40, 0.5, 0, 0)
        assert (params.t, params.ell) == (343, 579)
        assert params.r == 2

    def test_full_leakage_infeasible(self):
        with pytest.raises(InfeasibleError):
            derive_params_cca(bsc_source(0.02, 0, 1000), 0.01, 2.0 ** -40,
                              0.5, 0, 0)

    def test_nu_monotone_in_eps(self):
        src = bsc_source(0.02, 0.5, 1000)
        grid = [nu_for_correctness(src, e) for e in (0.01, 0.1, 0.5, 1.0)]
        assert grid == sorted(grid, reverse=True)
        # at eps = 1 only the vanishing concentration margin remains
        margin = math.sqrt(1000) * math.log2(5) * math.sqrt(
            math.log2(math.sqrt(1000) / (math.sqrt(1000) - 1)))
        want = 1000 * -(0.02 * math.log2(0.02) + 0.98 * math.log2(0.98))
        assert grid[-1] == pytest.approx(want + margin, abs=1e-9)

    def test_high_noise_pushes_t_past_half_n(self):
        with pytest.raises(InfeasibleError):
            derive_params_cca(bsc_source(0.5, 0.5, 100), 0.01, 0.5, 0.5, 0, 0)

    def test_forgery_bound_can_govern(self):
        # noiseless source, blind z: both guessing masses are 2^-16
        src = bsc_source(0, 0.5, 16)
        secrecy = cca_length_bound(src, 0.5, 0.5, 0, 0, 0.0, 8)
        assert secrecy == pytest.approx(8.0)
        with_qd = cca_length_bound(src, 0.5, 0.5, 0, 4, 0.0, 8)
        want = 8 + 16 - 16 - math.log2(4 * 5 * 4 / 0.5)
        assert with_qd == pytest.approx(want)
        assert with_qd < secrecy

    def test_forgery_term_at_readme_profile(self):
        # both guessing masses are 2^-1080: the forgery term must neither
        # vanish from the length bound nor overflow the forgery bound
        src = bsc_source(Fraction(0), Fraction(1, 2), 1080)
        bound = cca_length_bound(src, 2.0 ** -20, 2.0 ** -10, 0, 1, 0.0, 527)
        assert bound == pytest.approx(527 - math.log2(20 * 2 ** 10))
        params = derive_params_cca(src, 0.01, 2.0 ** -20, 2.0 ** -10, 0, 1,
                                   nu=0.0, t=527)
        assert params.ell == 512
        assert forgery_bound(params) == pytest.approx(20 * 2.0 ** -15)

    def test_derive_with_overrides(self):
        src = bsc_source(0, 0.5, 16)
        params = derive_params_cca(src, 0.9, 0.5, 0.9, 0, 0, nu=0.0, t=8)
        assert params.nu == 0.0 and params.t == 8
        assert params.ell == 8 and params.delta == 0.9


class TestDeriveBaseline:
    def test_matches_shared_seed_mode_at_zero_queries(self):
        src = bsc_source(0.25, 0.5, 100)
        assert baseline_length_bound(src, 2.0 ** -10, 0, 8) == pytest.approx(
            cea_length_bound(src, 2.0 ** -10, 0, 8))

    def test_query_leakage_term(self):
        src = bsc_source(0.25, 0.5, 100)
        got = baseline_length_bound(src, 2.0 ** -10, 2, 8)
        want = (100 - 20 + 2) / 3 - 8 - math.log2(2 / 2.0 ** -10)
        assert got == pytest.approx(want)

    def test_never_beats_shared_seed_mode(self):
        src = bsc_source(0.25, 0.5, 100)
        for sigma in (2.0 ** -10, 2.0 ** -20):
            for q_e in (1, 2, 3):
                for t in (8, 16):
                    assert (cea_length_bound(src, sigma, q_e, t)
                            >= baseline_length_bound(src, sigma, q_e, t))

    def test_derive(self):
        src = bsc_source(0.25, 0.5, 100)
        params = derive_params_baseline(src, 2.0 ** -10, 0, 8, nu=2.5)
        assert params.mode is Mode.BASELINE
        assert params.ell == 74          # (100 - 20 + 2) - 8
        assert params.w == 100 + 74


class TestAnalyticBounds:
    def test_correctness_noiseless(self):
        params = toy_params(Mode.CCA, n=8, t=3, ell=2, nu=0.0, p=0)
        assert correctness_bound(params) == pytest.approx(2.0 ** -3)

    def test_correctness_closed_form_matches_local(self):
        # p=1/4, n=12, nu=9: ball radius 2; local recomputation
        src = bsc_source(0.25, 0.5, 12)
        params = IkemParams(mode=Mode.CEA, source=src, n=12, t=10, ell=2,
                            nu=9.0, r=0, w=12, sigma=0.5, q_e=0, q_d=0)
        p = Fraction(1, 4)
        miss = 1 - sum(math.comb(12, j) * p ** j * (1 - p) ** (12 - j)
                       for j in range(3))
        ball = 1 + 12 + 66
        assert correctness_bound(params) == pytest.approx(
            float(miss) + ball * 2.0 ** -10, abs=1e-12)

    def test_correctness_float_source_at_large_n(self):
        # C(2000, j) * p^j once passed the float range; the ball also
        # exceeds 2^1000, so the collision term is clamped
        src = bsc_source(0.25, 0.5, 2000)
        params = IkemParams(mode=Mode.CEA, source=src, n=2000, t=1000,
                            ell=1, nu=2500.0, r=0, w=2000, sigma=0.25,
                            q_e=0, q_d=0)
        bound = correctness_bound(params)
        assert isinstance(bound, float) and 0.0 <= bound <= 1.0
        assert bound == 1.0

    @pytest.mark.parametrize("n, p, nu, t", [(24, "1/20", 12.0, 12),
                                             (40, "1/10", 30.0, 30),
                                             (200, "1/4", 194.0, 199),
                                             (1100, "1/20", 420.0, 1000)])
    def test_correctness_float_source_matches_exact_sum(self, n, p, nu, t):
        # n > 16 keeps the flip a float; for that same float a/b the miss
        # is 1 - P[Bin <= d], exact over the common denominator b^n
        src = bsc_source(p, "1/2", n)
        params = IkemParams(mode=Mode.CEA, source=src, n=n, t=t, ell=1,
                            nu=nu, r=0, w=n, sigma=0.25, q_e=0, q_d=0)
        a, b = src.bsc[0].as_integer_ratio()
        d = bsc_radius(src.bsc[0], n, nu)
        hit = sum(math.comb(n, j) * a ** j * (b - a) ** (n - j)
                  for j in range(d + 1))
        miss = Fraction(b ** n - hit, b ** n)
        ball = sum(math.comb(n, j) for j in range(d + 1))
        want = min(1.0, float(miss + Fraction(ball, 2 ** t)))
        assert correctness_bound(params) == pytest.approx(want, rel=1e-12, abs=0)

    def test_correctness_tiny_float_miss_survives(self):
        # 1 - P[Bin <= 0] cancels to 0 in floats; the upper tail does not
        src = bsc_source(1e-30, 0.5, 2000)
        params = IkemParams(mode=Mode.CEA, source=src, n=2000, t=1000,
                            ell=1, nu=0.0, r=0, w=2000, sigma=0.25,
                            q_e=0, q_d=0)
        assert correctness_bound(params) == pytest.approx(2000e-30, rel=1e-9, abs=0)

    def test_correctness_empirical_within_bound(self):
        src = bsc_source(0.25, 0.5, 12)
        params = IkemParams(mode=Mode.CEA, source=src, n=12, t=10, ell=2,
                            nu=9.0, r=0, w=12, sigma=0.5, q_e=0, q_d=0)
        bound = correctness_bound(params)
        rng = random.Random(0xE95)
        fails = 0
        trials = 2000
        for _ in range(trials):
            inst = gen(params, rng)
            k, c = encap(params, inst.x, rng, inst.public_seed)
            if decap(params, inst.y, c, inst.public_seed) != k:
                fails += 1
        rate = fails / trials
        assert rate <= bound + 3 * math.sqrt(bound * (1 - bound) / trials)

    def test_correctness_general_table_path(self):
        # same satellite law fed as an explicit table must agree
        src = bsc_source(Fraction(1, 4), Fraction(1, 2), 4)
        rows = []
        for xyz in range(8):
            x, y, z = (xyz >> 2) & 1, (xyz >> 1) & 1, xyz & 1
            pr = (Fraction(1, 2) * (Fraction(3, 4) if y == x else Fraction(1, 4))
                  * Fraction(1, 2))
            rows.append([x, y, z, str(pr)])
        tabled = from_json({"alphabet": [2, 2, 2], "n": 4, "pxyz": rows})
        a = IkemParams(mode=Mode.CEA, source=src, n=4, t=3, ell=1, nu=3.5,
                       r=0, w=4, sigma=0.5, q_e=0, q_d=0)
        b = IkemParams(mode=Mode.CEA, source=tabled, n=4, t=3, ell=1, nu=3.5,
                       r=0, w=4, sigma=0.5, q_e=0, q_d=0)
        assert correctness_bound(a) == pytest.approx(correctness_bound(b))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_general_table_matches_exhaustive_oracle(self, data):
        # weights 0..3 give zero cells, impossible (x, y) pairs and tied
        # costs; n <= 7 keeps the 4^n oracle fast
        weights = data.draw(st.lists(st.integers(0, 3), min_size=8,
                                     max_size=8).filter(any))
        n = data.draw(st.integers(1, 7))
        src = SourceSpec(2, 2, 2, n, tuple(
            Fraction(w, sum(weights)) for w in weights))
        pair = st.tuples(*[st.integers(0, 1)] * n)
        # thresholds exactly at some string's score, or anywhere
        at = cond_neg_log_prob(src, data.draw(pair), data.draw(pair))
        nu = data.draw(st.just(at) | st.floats(-1.0, 3.0 * n))
        params = IkemParams(mode=Mode.CEA, source=src, n=n, t=1, ell=1,
                            nu=nu, r=0, w=n, sigma=0.5, q_e=0, q_d=0)
        miss, bound = exhaustive_correctness(params)
        assert miss_mass(src, nu) == miss
        assert correctness_bound(params) == bound

    def test_float_table_matches_exhaustive_oracle(self):
        # five z symbols put the table in float mode; x and y asymmetric
        pxy = {(0, 0): 0.5, (0, 1): 0.1, (1, 0): 0.15, (1, 1): 0.25}
        rows = [[x, y, z, pr / 2] for (x, y), pr in pxy.items()
                for z in (0, 1)]
        src = from_json({"alphabet": [2, 2, 5], "n": 6, "pxyz": rows})
        assert not src.exact
        for nu in (0.0, 1.5, 4.0, 9.0):
            params = IkemParams(mode=Mode.CEA, source=src, n=6, t=5, ell=1,
                                nu=nu, r=0, w=6, sigma=0.5, q_e=0, q_d=0)
            miss, bound = exhaustive_correctness(params)
            assert float(miss_mass(src, nu)) == pytest.approx(miss, rel=1e-12)
            assert correctness_bound(params) == pytest.approx(bound,
                                                              rel=1e-12)

    def test_distance_bound_shapes(self):
        src = bsc_source(0.25, 0.5, 8)
        cea = IkemParams(mode=Mode.CEA, source=src, n=8, t=2, ell=2, nu=2.5,
                         r=0, w=8, sigma=0.5, q_e=1, q_d=0)
        cca = IkemParams(mode=Mode.CCA, source=src, n=8, t=2, ell=2, nu=2.5,
                         r=2, w=8, sigma=0.5, q_e=1, q_d=1)
        assert distance_bound(cea) == pytest.approx(
            0.5 * math.sqrt(2.0 ** (2 * 2 + 2 - 8)))
        assert distance_bound(cca) == pytest.approx(
            0.5 * math.sqrt(2.0 ** (2 * 4 - 8)))

    def test_forgery_bound_value(self):
        src = bsc_source(0, 0.5, 16)
        params = IkemParams(mode=Mode.CCA, source=src, n=16, t=8, ell=2,
                            nu=0.0, r=2, w=16, sigma=0.5, q_e=1, q_d=2)
        # both guessing masses are P[Bin(16, 1/2) = 0] = 2^-16 here
        want = 2 * 5 * 4 * 2.0 ** (16 + 2 - 8) * 2.0 ** -16
        assert forgery_bound(params) == pytest.approx(want)
        assert forgery_bound(params) < 1
        cea = toy_params(Mode.CEA)
        with pytest.raises(MalformedError):
            forgery_bound(cea)

    def test_forgery_bound_saturates_past_double_range(self):
        # Eve holds x (q = 0), so the mass is 1 and 2^(n + ell - t) = 2^3064
        # is no double: the bound is 1, not an OverflowError
        src = bsc_source(0, 0, 2048)
        params = IkemParams(mode=Mode.CCA, source=src, n=2048, t=8,
                            ell=1024, nu=0.0, r=2, w=2048, sigma=0.5, q_e=0,
                            q_d=1)
        assert forgery_bound(params) == 1.0


class TestWire:
    @pytest.mark.parametrize("mode", list(Mode))
    def test_round_trip(self, mode):
        params = toy_params(mode, n=12, t=5, ell=3, nu=2.5)
        pub = 0b1 if mode is Mode.CEA else None
        k, c = encap(params, tuple([0, 1] * 6), random.Random(7), pub)
        blob = serialize_ciphertext(params, c)
        m2, n2, t2, w2, c2 = parse_ciphertext(blob)
        assert (m2, n2, t2, w2) == (mode, 12, 5, params.w)
        assert c2 == c

    def test_header_layout(self):
        params = toy_params(Mode.CEA, n=8, t=2, ell=1, nu=2.5)
        c = IkemCiphertext(0b01, 0xAB, None)
        blob = serialize_ciphertext(params, c)
        assert blob == b"IKEM\x01\x01\x00\x08\x00\x02\x00\x08\x01\xab"

    @pytest.mark.parametrize("mangle", [
        lambda b: b"JKEM" + b[4:],                      # magic
        lambda b: b[:4] + b"\x02" + b[5:],              # version
        lambda b: b[:5] + b"\x07" + b[6:],              # mode
        lambda b: b[:-1],                               # truncated
        lambda b: b + b"\x00",                          # trailing
        lambda b: b[:12] + bytes([b[12] | 0x80]) + b[13:],  # v padding bit
    ])
    def test_strict_parse(self, mangle):
        params = toy_params(Mode.CEA, n=8, t=2, ell=1, nu=2.5)
        blob = serialize_ciphertext(params, IkemCiphertext(0b01, 0xAB, None))
        with pytest.raises(MalformedError):
            parse_ciphertext(mangle(blob))

    def test_serialize_checks_mode_consistency(self):
        params = toy_params(Mode.CEA)
        with pytest.raises(MalformedError):
            serialize_ciphertext(params, IkemCiphertext(0, 0, 0))

    # n=13, t=5: s pads 3 bits in CCA (13 in 2 bytes), 6 in BASELINE (18 in 3)
    S_BITS = {Mode.CEA: 0, Mode.CCA: 13, Mode.BASELINE: 18}

    def wide_s_blob(self, mode):
        params = toy_params(mode, n=13, t=5, ell=3, nu=2.5)
        _, c = encap(params, tuple([1, 0] * 6 + [1]), random.Random(11),
                     0x1ABC if mode is Mode.CEA else None)
        return params, c, serialize_ciphertext(params, c)

    @pytest.mark.parametrize("mode", list(Mode))
    def test_blob_length_per_mode(self, mode):
        params, c, blob = self.wide_s_blob(mode)
        s_bits = self.S_BITS[mode]
        assert len(blob) == (12 + -(-5 // 8) + -(-params.w // 8)
                             + -(-s_bits // 8))
        assert parse_ciphertext(blob) == (mode, 13, 5, params.w, c)

    @pytest.mark.parametrize("mode", [Mode.CCA, Mode.BASELINE])
    def test_s_padding_bit_rejected(self, mode):
        _, _, blob = self.wide_s_blob(mode)
        s_len = -(-self.S_BITS[mode] // 8)
        start = len(blob) - s_len
        top_pad = 0x80  # the first s byte's top bit is padding in both modes
        bad = blob[:start] + bytes([blob[start] | top_pad]) + blob[start + 1:]
        with pytest.raises(MalformedError):
            parse_ciphertext(bad)
        lowest_pad = 1 << (7 - (8 * s_len - self.S_BITS[mode] - 1))
        bad = (blob[:start] + bytes([blob[start] | lowest_pad])
               + blob[start + 1:])
        with pytest.raises(MalformedError):
            parse_ciphertext(bad)

    @pytest.mark.parametrize("mode", list(Mode))
    def test_serialize_rejects_wrong_s(self, mode):
        params, c, _ = self.wide_s_blob(mode)
        s_bits = self.S_BITS[mode]
        # CEA: an extra s; otherwise a missing, a too-wide and a negative s
        bad = [0, 1] if s_bits == 0 else [None, 1 << s_bits, -1]
        for s in bad:
            with pytest.raises(MalformedError):
                serialize_ciphertext(params, c.replace(s=s))
            assert c.replace(s=s) == IkemCiphertext(c.v, c.sprime, s)

    def test_parse_for_params_checks_header(self):
        cea = toy_params(Mode.CEA, n=8, t=2)
        cca = toy_params(Mode.CCA, n=8, t=2, r=2)
        blob = serialize_ciphertext(cea, IkemCiphertext(0b01, 0xAB, None))
        assert parse_ciphertext_for(cea, blob) == IkemCiphertext(1, 0xAB, None)
        for other in (cca, toy_params(Mode.CEA, n=8, t=3)):
            with pytest.raises(MalformedError):
                parse_ciphertext_for(other, blob)


class TestMode:
    @pytest.mark.parametrize("name, mode", [
        ("cea", Mode.CEA), ("cca", Mode.CCA), ("baseline", Mode.BASELINE)])
    def test_from_name(self, name, mode):
        assert Mode.from_name(name) is mode

    @pytest.mark.parametrize("value", [
        "CEA", "ot", "", None, True, 1, 2.0, ["cea"], {"cea": 1}])
    def test_from_name_rejects(self, value):
        with pytest.raises(MalformedError):
            Mode.from_name(value)

    def test_widths(self):
        assert [m.s_bits(13, 5) for m in Mode] == [0, 13, 18]
        assert [m.seed_width(13, 3) for m in Mode] == [13, 13, 16]

    @pytest.mark.parametrize("mode", list(Mode))
    def test_draws_s_prime_then_s(self, mode):
        params = toy_params(mode, n=13, t=5, ell=3, nu=2.5)
        pub = 0x123 if mode is Mode.CEA else None
        enc_rng, rng = random.Random(5), random.Random(5)
        _, c = encap(params, (0,) * 13, enc_rng, pub)
        assert c.sprime == rng.getrandbits(params.w)
        if mode is Mode.CEA:
            assert c.s is None
        else:
            assert c.s == rng.getrandbits(mode.s_bits(13, 5))
        assert enc_rng.getstate() == rng.getstate()  # nothing else drawn


class TestParamsValidation:
    def test_rejects_non_binary_source(self):
        src = from_json({
            "alphabet": [3, 2, 2], "n": 2,
            "pxyz": [[0, 0, 0, "0.5"], [2, 1, 1, "0.5"]],
        })
        with pytest.raises(MalformedError):
            IkemParams(mode=Mode.CEA, source=src, n=2, t=1, ell=1, nu=1.0,
                       r=0, w=2, sigma=0.5, q_e=0, q_d=0)

    def test_rejects_cca_shape_violations(self):
        with pytest.raises(MalformedError):
            toy_params(Mode.CCA, t=3)       # t > n/2
        with pytest.raises(MalformedError):
            toy_params(Mode.CCA, w=5)       # w != n
        with pytest.raises(MalformedError):
            toy_params(Mode.CCA, r=3)       # odd piece count

    @pytest.mark.parametrize("mode", [Mode.CEA, Mode.BASELINE],
                             ids=["cea", "baseline"])
    def test_rejects_r_outside_authenticated_mode(self, mode):
        assert toy_params(mode, q_d=0).r == 0
        with pytest.raises(MalformedError, match="r = 0"):
            toy_params(mode, r=7, q_d=0)

    def test_rejects_mismatched_n(self):
        src = bsc_source(0.25, 0.5, 6)
        with pytest.raises(MalformedError):
            IkemParams(mode=Mode.CEA, source=src, n=4, t=2, ell=1, nu=1.0,
                       r=0, w=4, sigma=0.5, q_e=0, q_d=0)

    def test_rejects_baseline_wrong_w(self):
        with pytest.raises(MalformedError):
            toy_params(Mode.BASELINE, w=4)

    def test_key_type(self):
        assert IkemKey(5, 3).to_bytes() == b"\x05"
        assert IkemKey(0x1FF, 9).to_bytes() == b"\x01\xff"
        with pytest.raises(MalformedError):
            IkemKey(8, 3)
