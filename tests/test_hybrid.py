"""Composition-layer tests: KEM key handoff, envelope format, taxonomy.

Noiseless toy sources make decapsulation deterministic, so tamper sweeps
assert hard outcomes instead of rates.
"""

import random

import pytest

from prekem.dem import DemProfile
from prekem.errors import MalformedError
from prekem.hybrid import (
    HybridCiphertext,
    HybridScheme,
    he_decrypt,
    he_encrypt,
    parse_envelope,
    serialize_envelope,
    split_envelope,
)
from prekem.ikem import IkemCiphertext, IkemParams, Mode, gen
from prekem.source import bsc_source


def cea_scheme():
    kem = IkemParams(mode=Mode.CEA, source=bsc_source(0, 0.5, 16), n=16,
                     t=4, ell=8, nu=0.0, r=0, w=16, sigma=0.5, q_e=0, q_d=0)
    return HybridScheme.for_params(kem, DemProfile(enc_len=8, mac_bits=16))


def cca_scheme(t=8):
    kem = IkemParams(mode=Mode.CCA, source=bsc_source(0, 0.5, 48), n=48,
                     t=t, ell=24, nu=0.0, r=2, w=48, sigma=0.5, q_e=0, q_d=1)
    return HybridScheme.for_params(kem, DemProfile(enc_len=8, mac_bits=8))


def baseline_scheme():
    kem = IkemParams(mode=Mode.BASELINE, source=bsc_source(0, 0.5, 16), n=16,
                     t=4, ell=8, nu=0.0, r=0, w=24, sigma=0.5, q_e=0, q_d=0)
    return HybridScheme.for_params(kem, DemProfile(enc_len=8, mac_bits=16))


class TestAssembly:
    def test_for_params_matrix(self):
        assert cea_scheme().otcca is False
        assert cca_scheme().otcca is True
        assert baseline_scheme().otcca is False

    def test_mode_mismatch_rejected(self):
        # key lengths agree in both cases, so only the mode check can fire
        wide_cea = IkemParams(
            mode=Mode.CEA, source=bsc_source(0, 0.5, 24), n=24, t=4, ell=24,
            nu=0.0, r=0, w=24, sigma=0.5, q_e=0, q_d=0)
        with pytest.raises(MalformedError):
            HybridScheme(wide_cea, DemProfile(enc_len=8, mac_bits=8), True)
        cca = cca_scheme()
        with pytest.raises(MalformedError):
            HybridScheme(cca.kem, DemProfile(enc_len=24, mac_bits=8), False)

    def test_key_length_mismatch_rejected(self):
        cea = cea_scheme()
        with pytest.raises(MalformedError):
            HybridScheme(cea.kem, DemProfile(enc_len=16, mac_bits=16), False)


class TestRoundTrip:
    @pytest.mark.parametrize("scheme_fn", [cea_scheme, cca_scheme,
                                           baseline_scheme])
    def test_honest(self, scheme_fn):
        scheme = scheme_fn()
        rng = random.Random(101)
        inst = gen(scheme.kem, rng)
        for m in (b"", b"\x00" * 3, b"hello hybrid world"):
            c = he_encrypt(scheme, inst.x, m, rng, inst.public_seed)
            assert he_decrypt(scheme, inst.y, c, inst.public_seed) == m

    def test_decap_reject_propagates_as_none(self):
        scheme = cca_scheme()
        rng = random.Random(103)
        inst = gen(scheme.kem, rng)
        c = he_encrypt(scheme, inst.x, b"msg", rng)
        bad = HybridCiphertext(
            IkemCiphertext(c.c1.v ^ 1, c.c1.sprime, c.c1.s), c.c2)
        assert he_decrypt(scheme, inst.y, bad) is None

    def test_deterministic_under_seeded_rng(self):
        scheme = cca_scheme()
        inst = gen(scheme.kem, random.Random(104))
        blobs = [
            serialize_envelope(
                scheme, he_encrypt(scheme, inst.x, b"same", random.Random(7)))
            for _ in range(2)]
        assert blobs[0] == blobs[1]


class TestEnvelope:
    def test_length_arithmetic(self):
        scheme = cca_scheme()
        rng = random.Random(105)
        inst = gen(scheme.kem, rng)
        m = b"0123456789"
        blob = serialize_envelope(
            scheme, he_encrypt(scheme, inst.x, m, rng))
        c1_len = 12 + 1 + 6 + 6          # header + v + s' + s
        assert len(blob) == 9 + c1_len + len(m) + 1

    def test_header_prefix(self):
        scheme = cea_scheme()
        rng = random.Random(106)
        inst = gen(scheme.kem, rng)
        blob = serialize_envelope(
            scheme, he_encrypt(scheme, inst.x, b"x", rng, inst.public_seed))
        c1_len = 12 + 1 + 2              # header + v + s'
        assert blob[:9] == b"HENV\x01" + c1_len.to_bytes(4, "big")

    def test_parse_round_trip(self):
        scheme = cca_scheme()
        rng = random.Random(107)
        inst = gen(scheme.kem, rng)
        c = he_encrypt(scheme, inst.x, b"payload", rng)
        got = parse_envelope(scheme, serialize_envelope(scheme, c))
        assert got == c
        assert he_decrypt(scheme, inst.y, got) == b"payload"

    @pytest.mark.parametrize("mangle", [
        lambda b: b"XENV" + b[4:],
        lambda b: b[:4] + b"\x02" + b[5:],
        lambda b: b[:8],                       # shorter than header
        lambda b: b[:20],                      # truncated inside c1
        lambda b: b[:5] + b"\xff" + b[6:],     # c1_len beyond envelope
    ])
    def test_malformed(self, mangle):
        scheme = cca_scheme()
        rng = random.Random(108)
        inst = gen(scheme.kem, rng)
        blob = serialize_envelope(scheme, he_encrypt(scheme, inst.x, b"m", rng))
        with pytest.raises(MalformedError):
            parse_envelope(scheme, mangle(blob))

    def test_split_envelope(self):
        head = b"HENV\x01\x00\x00\x00"
        assert split_envelope(head + b"\x02abcd") == (b"ab", b"cd")
        assert split_envelope(head + b"\x00") == (b"", b"")
        for bad in (head, b"HENX" + head[4:] + b"\x00",
                    b"HENV\x02" + head[5:] + b"\x00", head + b"\x03ab"):
            with pytest.raises(MalformedError):
                split_envelope(bad)

    def test_scheme_mismatch_rejected(self):
        a, b = cca_scheme(t=8), cca_scheme(t=9)
        rng = random.Random(109)
        inst = gen(a.kem, rng)
        blob = serialize_envelope(a, he_encrypt(a, inst.x, b"m", rng))
        with pytest.raises(MalformedError):
            parse_envelope(b, blob)


class TestTamper:
    def test_every_bit_of_toy_envelope(self):
        # each flip must yield a parse error or a rejection, never a
        # different plaintext
        scheme = cca_scheme()
        rng = random.Random(110)
        inst = gen(scheme.kem, rng)
        m = b"five!"
        blob = serialize_envelope(scheme, he_encrypt(scheme, inst.x, m, rng))
        assert he_decrypt(scheme, inst.y, parse_envelope(scheme, blob)) == m
        outcomes = {"malformed": 0, "reject": 0}
        for pos in range(8 * len(blob)):
            bad = bytearray(blob)
            bad[pos // 8] ^= 1 << (7 - pos % 8)
            try:
                c = parse_envelope(scheme, bytes(bad))
            except MalformedError:
                outcomes["malformed"] += 1
                continue
            assert he_decrypt(scheme, inst.y, c) is None
            outcomes["reject"] += 1
        # both taxonomy branches must actually occur in the sweep
        assert outcomes["malformed"] > 0 and outcomes["reject"] > 0

    def test_dem_region_always_rejects(self):
        scheme = cca_scheme()
        rng = random.Random(111)
        inst = gen(scheme.kem, rng)
        c = he_encrypt(scheme, inst.x, b"auth me", rng)
        blob = serialize_envelope(scheme, c)
        c2_start = 9 + 12 + 1 + 6 + 6
        for pos in range(8 * c2_start, 8 * len(blob)):
            bad = bytearray(blob)
            bad[pos // 8] ^= 1 << (7 - pos % 8)
            got = parse_envelope(scheme, bytes(bad))
            assert he_decrypt(scheme, inst.y, got) is None
