"""Combiner tests: cores, PRFs, the test double, and the combined KEM.

The computational-PRF golden vectors were produced with the openssl mac
command before this module existed.  Distribution statements are exact:
seed spaces are enumerated, never sampled.
"""

import random
from collections import Counter

import pytest

from prekem import combiner
from prekem.combiner import (
    CombinedCiphertext,
    CombinedKem,
    CompPrfKey,
    IkemComponent,
    ItPrfKey,
    ToyPkem,
    combine_ptx,
    combine_xor,
    parse_combined,
    prf_comp,
    prf_it,
    ptx_field_width,
    serialize_combined,
)
from prekem.combiner import test_double_kem as make_double
from prekem.errors import MalformedError
from prekem.ikem import IkemKey, IkemParams, Mode, gen
from prekem.source import bsc_source
from prekem.uhash import twise_poly


class SeqRng:
    """Deterministic bit source for seed-space enumeration."""

    def __init__(self, vals):
        self.vals = list(vals)

    def getrandbits(self, n):
        return self.vals.pop(0)


def toy_cea(n=4, t=2, ell=2):
    return IkemParams(mode=Mode.CEA, source=bsc_source(0, 0.5, n), n=n, t=t,
                      ell=ell, nu=0.0, r=0, w=n, sigma=0.5, q_e=0, q_d=0)


class TestXorCore:
    def test_identities(self):
        k = IkemKey(0b1011, 4)
        assert combine_xor(k, IkemKey(0, 4)) == k
        assert combine_xor(k, k) == IkemKey(0, 4)

    def test_bottom_propagates(self):
        k = IkemKey(1, 4)
        assert combine_xor(None, k) is None
        assert combine_xor(k, None) is None
        assert combine_xor(None, None) is None

    def test_length_mismatch(self):
        with pytest.raises(MalformedError):
            combine_xor(IkemKey(1, 4), IkemKey(1, 5))

    def test_uniform_against_any_constant(self):
        # exact at ell = 8: xor with a constant permutes the key space
        for const in (0x00, 0x5A, 0xFF):
            outs = Counter(
                combine_xor(IkemKey(v, 8), IkemKey(const, 8)).bits
                for v in range(256))
            assert outs == Counter({v: 1 for v in range(256)})


class TestComputationalPrf:
    KEY = CompPrfKey(bytes(range(32)))

    def test_golden_single_block(self):
        assert prf_comp(self.KEY, b"combine me", 128) == int(
            "b38ab59c13d55623147fcb628b1733d8", 16)

    def test_golden_counter_extension(self):
        assert prf_comp(self.KEY, b"combine me", 192) == int(
            "b38ab59c13d55623147fcb628b1733d8e626676cc2e7dfe4", 16)

    def test_prefix_property(self):
        full = prf_comp(self.KEY, b"abc", 128)
        for short in (1, 8, 64, 127):
            assert prf_comp(self.KEY, b"abc", short) == full >> (128 - short)

    def test_no_collisions_over_1e5_inputs(self):
        outs = {prf_comp(self.KEY, i.to_bytes(4, "big"), 64)
                for i in range(100000)}
        assert len(outs) == 100000

    def test_key_validation(self):
        with pytest.raises(MalformedError):
            CompPrfKey(b"\x00" * 31)
        with pytest.raises(MalformedError):
            CompPrfKey.from_kem_key(IkemKey(0, 255))
        with pytest.raises(MalformedError):
            prf_comp(self.KEY, b"", 0)


class TestItPrf:
    def test_key_split_msb_first(self):
        key = ItPrfKey.from_kem_key(IkemKey(0xABC, 12), q_d=1)
        assert key.coeffs == (0xA, 0xB, 0xC) and key.m == 4

    def test_split_validation(self):
        with pytest.raises(MalformedError):
            ItPrfKey.from_kem_key(IkemKey(0, 10), q_d=1)   # 10 % 3 != 0
        with pytest.raises(MalformedError):
            ItPrfKey.from_kem_key(IkemKey(0, 130), q_d=0)  # width 65
        with pytest.raises(MalformedError):
            ItPrfKey((1,), 4)
        with pytest.raises(MalformedError):
            ItPrfKey((1, 1 << 4), 4)

    def test_matches_polynomial_eval(self):
        key = ItPrfKey.from_kem_key(IkemKey(0x123456789ABCDEF01234, 80), q_d=0)
        data = b"\x07"
        encoded = int.from_bytes(b"\x00\x00\x00\x01\x07", "big")
        want = twise_poly(key.coeffs, encoded, 40, 13)
        assert prf_it(key, data, 13) == want

    def test_length_prefix_separates_paddings(self):
        # equal raw integers, different lengths: inputs must not collide
        key = ItPrfKey.from_kem_key(IkemKey(random.Random(3).getrandbits(96), 96),
                                    q_d=0)
        a = prf_it(key, b"\x01", 16)
        b = prf_it(key, b"\x00\x01", 16)
        assert a != b

    def test_encoding_overflow(self):
        key = ItPrfKey.from_kem_key(IkemKey(0, 80), q_d=0)  # m = 40
        prf_it(key, b"\x00", 8)
        with pytest.raises(MalformedError):
            prf_it(key, b"\x00\x01", 8)

    def test_field_width_selection(self):
        assert ptx_field_width(0) == 32
        assert ptx_field_width(1) == 40
        assert ptx_field_width(28) == 256
        assert ptx_field_width(32) == 527
        with pytest.raises(MalformedError):
            ptx_field_width(300)


class TestPtxCore:
    def test_bottom_propagates(self):
        assert combine_ptx(None, IkemKey(0, 8), b"", b"", 4, 0) is None
        assert combine_ptx(IkemKey(0, 8), None, b"", b"", 4, 0) is None

    def test_default_wiring(self):
        rng = random.Random(23)
        k1 = IkemKey(rng.getrandbits(512), 512)      # m = 256
        k2 = IkemKey(rng.getrandbits(256), 256)
        c1, c2 = b"first ct", b"second ct"
        got = combine_ptx(k1, k2, c1, c2, 32, 0)
        want = (prf_it(ItPrfKey.from_kem_key(k1, 0), c2, 32)
                ^ prf_comp(CompPrfKey.from_kem_key(k2), c1, 32))
        assert got == IkemKey(want, 32)


class TestToyPkem:
    def test_round_trip(self):
        kem = make_double(16, random.Random(31))
        k, c = kem.enc(random.Random(32))
        assert len(c) == 2
        assert kem.dec(c) == k

    def test_broken_mode_constant_key(self):
        kem = make_double(16, random.Random(33), broken=True)
        for seed in range(5):
            k, c = kem.enc(random.Random(seed))
            assert k == IkemKey(0, 16) and c == b"\x00\x00"
            assert kem.dec(c) == IkemKey(0, 16)

    def test_dec_validation(self):
        kem = ToyPkem(12, 0x123)
        with pytest.raises(MalformedError):
            kem.dec(b"\x00")
        with pytest.raises(MalformedError):
            kem.dec(b"\xf0\x00")            # padding bits set

    def test_constructor_validation(self):
        with pytest.raises(MalformedError):
            ToyPkem(0, 0)
        with pytest.raises(MalformedError):
            ToyPkem(4, 16)


class TestCombinedXor:
    def build(self, broken=False):
        params = toy_cea()
        inst = gen(params, random.Random(41))
        assert inst.x != (0, 0, 0, 0)    # nonzero x makes hprime bijective
        double = make_double(2, random.Random(42), broken=broken)
        return CombinedKem(IkemComponent(params, inst), double), inst

    def test_round_trip(self):
        kem, _ = self.build()
        k, c = kem.enc(random.Random(43))
        assert kem.dec(c) == k

    def test_reject_propagates(self):
        kem, _ = self.build()
        k, c = kem.enc(random.Random(44))
        bad = bytearray(c.c1)
        bad[12] ^= 1                      # v byte: unique candidate misses
        assert kem.dec(CombinedCiphertext(bytes(bad), c.c2)) is None

    def test_broken_double_preserves_kem_distribution(self):
        # enumerate the seed space: with the double broken the combined
        # key multiset equals the kem key multiset exactly
        kem, inst = self.build(broken=True)
        alone = Counter(
            IkemComponent(kem.first.params, inst).enc(SeqRng([sp]))[0].bits
            for sp in range(16))
        combined = Counter(
            kem.enc(SeqRng([sp]))[0].bits for sp in range(16))
        assert combined == alone
        assert combined == Counter({v: 4 for v in range(4)})  # and uniform

    def test_honest_double_gives_uniform(self):
        kem, _ = self.build()
        combined = Counter(
            kem.enc(SeqRng([sp, k2]))[0].bits
            for sp in range(16) for k2 in range(4))
        assert combined == Counter({v: 16 for v in range(4)})

    def test_constructor_validation(self):
        params = toy_cea()
        inst = gen(params, random.Random(45))
        comp = IkemComponent(params, inst)
        with pytest.raises(MalformedError):
            CombinedKem(comp, make_double(3, random.Random(0)))
        with pytest.raises(MalformedError):
            CombinedKem(comp, make_double(2, random.Random(0)),
                        out_bits=3)
        with pytest.raises(MalformedError):
            CombinedKem(comp, make_double(2, random.Random(0)),
                        core="nope")


class TestCombinedPtx:
    def build(self):
        # m = 527 covers the double's 32-byte ciphertext once framed
        first = make_double(2 * 527, random.Random(51))
        second = make_double(256, random.Random(52))
        return CombinedKem(first, second, core="ptx", out_bits=64, q_d=0)

    def test_round_trip(self):
        kem = self.build()
        k, c = kem.enc(random.Random(53))
        assert k.ell == 64
        assert kem.dec(c) == k

    def test_tampered_c2_changes_key(self):
        kem = self.build()
        k, c = kem.enc(random.Random(54))
        bad = bytearray(c.c2)
        bad[-1] ^= 1
        got = kem.dec(CombinedCiphertext(c.c1, bytes(bad)))
        assert got is not None and got != k

    def test_tampered_c1_changes_key(self):
        kem = self.build()
        k, c = kem.enc(random.Random(55))
        bad = bytearray(c.c1)
        bad[0] ^= 1
        got = kem.dec(CombinedCiphertext(bytes(bad), c.c2))
        assert got is not None and got != k

    def test_f1_budget_one_call_per_operation(self, monkeypatch):
        f1_calls, real = [], combiner.prf_it
        monkeypatch.setattr(combiner, "prf_it",
                            lambda *a: f1_calls.append(a) or real(*a))
        kem = self.build()
        k, c = kem.enc(random.Random(56))
        assert len(f1_calls) == 1
        for _ in range(1000):
            kem.dec(c)
        assert len(f1_calls) == 1001

    def test_real_ikem_component(self):
        # 1054 = 2 * 527 key bits from a wide noiseless instance
        params = IkemParams(mode=Mode.CEA, source=bsc_source(0, 0.5, 1080),
                            n=1080, t=8, ell=1054, nu=0.0, r=0, w=1080,
                            sigma=0.5, q_e=0, q_d=0)
        inst = gen(params, random.Random(57))
        kem = CombinedKem(IkemComponent(params, inst),
                          make_double(256, random.Random(58)),
                          core="ptx", out_bits=64, q_d=0)
        k, c = kem.enc(random.Random(59))
        assert kem.dec(c) == k

    def test_constructor_validation(self):
        first = make_double(10, random.Random(0))
        ok_second = make_double(256, random.Random(1))
        with pytest.raises(MalformedError):
            CombinedKem(first, ok_second, core="ptx", q_d=1)  # 10 % 3
        with pytest.raises(MalformedError):
            CombinedKem(make_double(2 * 527, random.Random(2)), ok_second,
                        core="ptx", out_bits=600, q_d=0)
        with pytest.raises(MalformedError):
            CombinedKem(make_double(2 * 527, random.Random(3)),
                        make_double(128, random.Random(4)),
                        core="ptx", q_d=0)


class TestWire:
    def test_round_trip(self):
        c = CombinedCiphertext(b"\x01\x02\x03", b"\x04\x05")
        raw = serialize_combined(c)
        assert raw == b"CMB1\x00\x00\x00\x03\x01\x02\x03\x04\x05"
        assert parse_combined(raw) == c

    def test_empty_parts(self):
        c = CombinedCiphertext(b"", b"")
        assert parse_combined(serialize_combined(c)) == c

    @pytest.mark.parametrize("raw", [
        b"CMB2\x00\x00\x00\x00",
        b"CMB1\x00\x00",
        b"CMB1\x00\x00\x00\x05\x01\x02",
    ])
    def test_malformed(self, raw):
        with pytest.raises(MalformedError):
            parse_combined(raw)
