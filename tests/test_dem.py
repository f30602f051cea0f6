"""One-time encryption tests.

The cipher golden vectors were produced with the openssl command-line
tool (enc -aes-256-ctr, zero IV) before this module existed; the MAC
oracle below reimplements the tag polynomial from its formula with
schoolbook field arithmetic.
"""

import hashlib
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from prekem import dem
from prekem.dem import (
    DEFAULT_PROFILE,
    DemCiphertext,
    DemKey,
    DemProfile,
    aes_ctr_keystream,
    decrypt_ot,
    decrypt_otcca,
    encrypt_ot,
    encrypt_otcca,
    mac_forgery_bound,
    parse_dem,
    serialize_dem,
)
from prekem.errors import KeyReuseError, MalformedError
from prekem.gf2 import field

# frozen reduction polynomials for the MAC checks: the reduced width, and
# the default profile's x^128 + x^7 + x^2 + x + 1
POLY16 = 0x1002B
POLY128 = (1 << 128) | 0x87

FOX = b"The quick brown fox jumps over the lazy dog."
FOX_KEY = bytes(range(32))
FOX_CT = bytes.fromhex(
    "a6f865965b3cf6b3c2d3f818b25919a096320e8e20ccf295"
    "d5d6f4472db0164966d995b2d456fa9d6cc7ce1b")

TOY = DemProfile(enc_len=8, mac_bits=16)


def ot_key(raw=FOX_KEY):
    return DemKey.from_bytes(raw)


def otcca_key(seed=0, profile=DEFAULT_PROFILE):
    bits = random.Random(seed).getrandbits(profile.otcca_key_bits)
    return DemKey(bits, profile.otcca_key_bits)


def nmul(a, b, poly):
    """Shift-and-add multiply modulo poly, reducing as it goes."""
    bits = poly.bit_length() - 1
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        if a >> bits:
            a ^= poly
        b >>= 1
    return acc


def nmul16(a, b):
    return nmul(a, b, POLY16)


def oracle_tag(k1, k2, body, poly):
    """Power-sum form of the tag, independent of the Horner loop."""
    bb = (poly.bit_length() - 1) // 8
    blocks = [body[i:i + bb] for i in range(0, len(body), bb)]
    ints = [int.from_bytes(b + b"\x00" * (bb - len(b)), "big") for b in blocks]
    big = len(ints)
    powers = [1]                      # powers[e] = k1^e
    for _ in range(big + 2):
        powers.append(nmul(powers[-1], k1, poly))
    acc = 0
    for i, m in enumerate(ints, start=1):
        acc ^= nmul(m, powers[big + 2 - i], poly)
    return acc ^ nmul(len(body), k1, poly) ^ k2


def oracle_tag16(k1, k2, body):
    return oracle_tag(k1, k2, body, POLY16)


def horner_tag(k1, k2, body, bits):
    """The tag by plain Horner on field(bits).mul, one block at a time."""
    bb = bits // 8
    mul = field(bits).mul
    acc = 0
    for i in range(0, len(body), bb):
        block = body[i:i + bb].ljust(bb, b"\x00")
        acc = mul(acc, k1) ^ int.from_bytes(block, "big")
    return mul(mul(acc, k1) ^ len(body), k1) ^ k2


def key_parts(k, mac_bits):
    mask = (1 << mac_bits) - 1
    return (k.bits >> mac_bits) & mask, k.bits & mask


# full block counts at every regime edge of the MAC: the short path's end,
# each doubling of the stream count, and the cap on it
DIGEST_BLOCKS = (47, 48, 49, 63, 64, 65, 127, 128, 129, 255, 256, 257,
                 511, 512, 513)
# recorded with the byte-table Horner MAC that preceded the lane path
DIGEST_SHA256 = \
    "ceb7cda271cf4c36cb4c04364df367d99651857a2d24268d07ed4679c11cc75b"


class TestKeystreamCipher:
    def test_golden_ctr_vector(self):
        c = encrypt_ot(ot_key(), FOX)
        assert c.body == FOX_CT and c.tag is None
        assert decrypt_ot(ot_key(), c) == FOX

    def test_golden_keystream_block(self):
        assert aes_ctr_keystream(FOX_KEY, bytes(16)) == bytes.fromhex(
            "f29000b62a499fd0a9f39a6add2e7780")

    def test_short_key_is_stretched(self):
        # enc_len = 8: the single key byte 0xa7 is SHA-256 stretched
        c = encrypt_ot(DemKey(0xA7, 8), b"onetime!", TOY)
        assert c.body == bytes.fromhex("f697398f11b421b7")

    def test_empty_message(self):
        assert encrypt_ot(ot_key(), b"").body == b""

    def test_one_mebibyte_round_trip(self):
        m = random.Random(5).randbytes(1 << 20)
        c = encrypt_ot(ot_key(), m)
        assert len(c.body) == len(m)
        assert decrypt_ot(ot_key(), c) == m

    def test_key_length_checked(self):
        with pytest.raises(MalformedError):
            encrypt_ot(DemKey(1, 8), b"x")
        with pytest.raises(MalformedError):
            decrypt_ot(DemKey(1, 8), DemCiphertext(b"x", None))

    def test_ot_rejects_tagged_ciphertext(self):
        with pytest.raises(MalformedError):
            decrypt_ot(ot_key(), DemCiphertext(b"x", 3))

    def test_keystream_hook_flows_through(self, monkeypatch):
        monkeypatch.setattr(dem, "aes_ctr_keystream",
                            lambda k, d: bytes(b ^ 0xF0 for b in d))
        c = encrypt_ot(ot_key(), b"\x00\x01")
        assert c.body == b"\xf0\xf1"

    def test_body_is_exact_pad_under_injected_randomness(self, monkeypatch):
        # with every possible one-byte keystream, each message's body
        # multiset is all 256 values: equal-length messages have
        # identical body distributions
        seen = {}
        for m in (b"\x00", b"\xff", b"\x5a"):
            bodies = []
            for ks in range(256):
                monkeypatch.setattr(dem, "aes_ctr_keystream",
                                    lambda k, d: bytes([d[0] ^ ks]))
                c = encrypt_ot(ot_key(), m)
                bodies.append(c.body)
                assert c.body == bytes([m[0] ^ ks])
            seen[m] = Counter(bodies)
        assert seen[b"\x00"] == seen[b"\xff"] == seen[b"\x5a"]
        assert len(seen[b"\x00"]) == 256


class TestOneTimeGuard:
    def test_second_encrypt_raises(self):
        k = ot_key()
        encrypt_ot(k, b"first")
        with pytest.raises(KeyReuseError):
            encrypt_ot(k, b"second")

    def test_otcca_guard(self):
        k = otcca_key()
        encrypt_otcca(k, b"first")
        with pytest.raises(KeyReuseError):
            encrypt_otcca(k, b"second")

    def test_decrypt_never_consumes(self):
        k = otcca_key(1)
        c = encrypt_otcca(k, b"hello")
        fresh = DemKey(k.bits, k.length)
        for _ in range(3):
            assert decrypt_otcca(fresh, c) == b"hello"
        encrypt_otcca(fresh, b"still unused for encryption")


class TestAuthenticated:
    @pytest.mark.parametrize("size", [0, 1, 15, 16, 17, 64, 1000])
    def test_round_trip(self, size):
        m = random.Random(size).randbytes(size)
        k = otcca_key(size)
        c = encrypt_otcca(k, m)
        assert len(c.body) == size
        assert decrypt_otcca(DemKey(k.bits, k.length), c) == m

    def test_empty_message_tags_to_km2(self):
        k = otcca_key(2)
        c = encrypt_otcca(k, b"")
        assert c.body == b""
        assert c.tag == k.bits & ((1 << 128) - 1)
        assert decrypt_otcca(DemKey(k.bits, k.length), c) == b""

    def test_exhaustive_single_bit_tamper(self):
        m = random.Random(7).randbytes(64)
        k = otcca_key(7)
        c = encrypt_otcca(k, m)
        verify = DemKey(k.bits, k.length)
        for pos in range(8 * len(c.body)):
            flipped = bytearray(c.body)
            flipped[pos // 8] ^= 1 << (7 - pos % 8)
            assert decrypt_otcca(verify, DemCiphertext(bytes(flipped), c.tag)) is None
        for bit in range(128):
            assert decrypt_otcca(verify, DemCiphertext(c.body, c.tag ^ (1 << bit))) is None

    def test_tag_matches_power_sum_oracle(self):
        rng = random.Random(11)
        for trial in range(40):
            size = rng.randrange(0, 9)
            m = rng.randbytes(size)
            k = DemKey(rng.getrandbits(TOY.otcca_key_bits), TOY.otcca_key_bits)
            c = encrypt_otcca(k, m, TOY)
            k1 = (k.bits >> 16) & 0xFFFF
            k2 = k.bits & 0xFFFF
            assert c.tag == oracle_tag16(k1, k2, c.body)

    @pytest.mark.parametrize("size", [0, 1, 15, 16, 17, 31, 4096, 4097])
    def test_128_bit_tag_matches_power_sum_oracle(self, size):
        rng = random.Random(1000 + size)
        m = rng.randbytes(size)
        k = otcca_key(size)
        c = encrypt_otcca(k, m)
        k1, k2 = key_parts(k, 128)
        assert c.tag == oracle_tag(k1, k2, c.body, POLY128)
        assert decrypt_otcca(DemKey(k.bits, k.length), c) == m

    @pytest.mark.parametrize("mac_bits", [8, 16, 64, 128, 256])
    def test_tag_matches_oracle_across_table_widths(self, mac_bits):
        # bodies of LANE_BLOCKS full blocks on take the lane path, which
        # runs MAX_LANES streams from that many blocks on.  Each block count
        # is taken full and with a one-byte final block.
        profile = DemProfile(enc_len=8, mac_bits=mac_bits)
        bb = mac_bits // 8
        sizes = [0, 1, 15, 17]
        for edge in (dem.LANE_BLOCKS, dem.MAX_LANES):
            for blocks in (edge - 1, edge, edge + 1):
                sizes += [blocks * bb, blocks * bb + 1]
        poly = field(mac_bits).poly
        rng = random.Random(mac_bits)
        for size in sizes:
            if size >= 1 << mac_bits:
                continue
            m = rng.randbytes(size)
            k = DemKey(rng.getrandbits(profile.otcca_key_bits),
                       profile.otcca_key_bits)
            c = encrypt_otcca(k, m, profile)
            k1, k2 = key_parts(k, mac_bits)
            assert c.tag == oracle_tag(k1, k2, c.body, poly), size
            assert decrypt_otcca(DemKey(k.bits, k.length), c, profile) == m

    @settings(max_examples=150, deadline=None)
    @given(mac_bits=st.sampled_from([8, 16, 24, 64, 128, 256]),
           k1_kind=st.sampled_from(["zero", "one", "top", "random"]),
           blocks=st.integers(0, 3 * dem.MAX_LANES), extra=st.integers(0, 31),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_mac_matches_horner_oracle(self, mac_bits, k1_kind, blocks,
                                       extra, seed):
        bb = mac_bits // 8
        size = blocks * bb + extra % bb
        if size >= 1 << mac_bits:
            size = (1 << mac_bits) - 1
        rng = random.Random(seed)
        body = rng.randbytes(size)
        k1 = {"zero": 0, "one": 1, "top": (1 << mac_bits) - 1,
              "random": rng.getrandbits(mac_bits)}[k1_kind]
        k2 = rng.getrandbits(mac_bits)
        assert dem._mac_tag(k1, k2, body, mac_bits) == \
            horner_tag(k1, k2, body, mac_bits)

    def test_serialized_otcca_digest(self):
        # seeded otcca ciphertexts at every MAC width and regime edge, and
        # k1 in {0, 1, random}; one width (72) is outside POLY_TABLE
        rng = random.Random(20241)
        h = hashlib.sha256()
        for mac_bits in (8, 16, 64, 72, 128, 256):
            profile = DemProfile(mac_bits=mac_bits)
            bb = mac_bits // 8
            sizes = {0, 1, bb - 1, bb, bb + 1, 4096, 65541}
            for blocks in DIGEST_BLOCKS:
                sizes.update((blocks * bb - 1, blocks * bb, blocks * bb + 1))
            for size in sorted(s for s in sizes if s < 1 << mac_bits):
                m = rng.randbytes(size)
                for k1 in (0, 1, rng.getrandbits(mac_bits)):
                    bits = ((rng.getrandbits(profile.enc_len) << 2 * mac_bits)
                            | k1 << mac_bits | rng.getrandbits(mac_bits))
                    blob = serialize_dem(profile, encrypt_otcca(
                        DemKey(bits, profile.otcca_key_bits), m, profile))
                    h.update(len(blob).to_bytes(4, "big") + blob)
        assert h.hexdigest() == DIGEST_SHA256

    def test_long_mac_memory_is_independent_of_body(self):
        # no padded copy of the body and no lane int the body's size: one
        # MAC over 1 MiB peaks far below the body
        body = random.Random(23).randbytes(1 << 20)
        tracemalloc.start()
        try:
            dem._mac_tag(3, 5, body, 128)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(body) // 4

    def test_reduced_width_field_matches_naive(self):
        ctx = field(16)
        rng = random.Random(13)
        for _ in range(200):
            a, b = rng.getrandbits(16), rng.getrandbits(16)
            assert ctx.mul(a, b) == nmul16(a, b)

    def test_tag_range_validated(self):
        k = otcca_key(3)
        c = encrypt_otcca(k, b"msg")
        verify = DemKey(k.bits, k.length)
        with pytest.raises(MalformedError):
            decrypt_otcca(verify, DemCiphertext(c.body, None))
        with pytest.raises(MalformedError):
            decrypt_otcca(verify, DemCiphertext(c.body, 1 << 128))

    def test_message_length_cap(self):
        k = DemKey(random.Random(4).getrandbits(TOY.otcca_key_bits),
                   TOY.otcca_key_bits)
        with pytest.raises(MalformedError):
            encrypt_otcca(k, b"\x00" * (1 << 16), TOY)

    def test_oversized_body_rejects_not_raises(self):
        k = DemKey(random.Random(4).getrandbits(TOY.otcca_key_bits),
                   TOY.otcca_key_bits)
        assert decrypt_otcca(k, DemCiphertext(b"\x00" * (1 << 16), 0), TOY) is None


class TestCollisionStructure:
    """Count seeds accepting a forgery, exhaustively over k1 in GF(2^16).

    For fixed (body, tag) and a forged (body', tag'), acceptance for a
    given k1 pins k2, so the forgery succeeds iff k1 is a root of the
    difference polynomial; the count must not exceed its degree,
    max(B, B') + 1.
    """

    @staticmethod
    def accepts(k1, body, tag, bodyf, tagf):
        # direct two-MAC acceptance predicate at k2 = 0 (k2 cancels)
        from prekem.dem import _mac_tag
        return (_mac_tag(k1, 0, bodyf, 16) ^ tagf) == (_mac_tag(k1, 0, body, 16) ^ tag)

    @staticmethod
    def diff_coeffs(body, tag, bodyf, tagf):
        def coeffs(b):
            ints = [int.from_bytes((b[i:i + 2] + b"\x00")[:2], "big")
                    for i in range(0, len(b), 2)]
            return ints + [len(b), 0]
        a, b = coeffs(body), coeffs(bodyf)
        width = max(len(a), len(b))
        a = [0] * (width - len(a)) + a
        b = [0] * (width - len(b)) + b
        out = [x ^ y for x, y in zip(a, b)]
        out[-1] = tag ^ tagf
        return out

    def sweep(self, body, tag, bodyf, tagf):
        ctx = field(16)
        co = self.diff_coeffs(body, tag, bodyf, tagf)
        hits = 0
        for k1 in range(1 << 16):
            acc = 0
            for c in co:
                acc = ctx.mul(acc, k1) ^ c
            if acc == 0:
                hits += 1
        # the Horner shortcut must agree with the direct predicate
        rng = random.Random(17)
        for _ in range(32):
            k1 = rng.getrandbits(16)
            acc = 0
            for c in co:
                acc = ctx.mul(acc, k1) ^ c
            assert (acc == 0) == self.accepts(k1, body, tag, bodyf, tagf)
        return hits

    def test_content_change(self):
        assert self.sweep(b"\xaa\xbb", 0x1234, b"\xab\xbb", 0x1234) <= 2

    def test_zero_pad_extension(self):
        # same padded block, different length: only the length term differs
        hits = self.sweep(b"\x01", 0x0000, b"\x01\x00", 0x0000)
        assert 1 <= hits <= 2

    def test_cross_length(self):
        rng = random.Random(19)
        hits = self.sweep(rng.randbytes(6), rng.getrandbits(16),
                          rng.randbytes(2), rng.getrandbits(16))
        assert hits <= 4

    def test_tag_only(self):
        assert self.sweep(b"\x44\x55", 0x0001, b"\x44\x55", 0x0002) == 0


class TestWireHelpers:
    def test_ot_passthrough(self):
        c = DemCiphertext(b"abc", None)
        raw = serialize_dem(DEFAULT_PROFILE, c)
        assert raw == b"abc"
        assert parse_dem(DEFAULT_PROFILE, raw, otcca=False) == c

    def test_otcca_round_trip(self):
        k = otcca_key(8)
        c = encrypt_otcca(k, b"body bytes")
        raw = serialize_dem(DEFAULT_PROFILE, c)
        assert len(raw) == len(c.body) + 16
        assert parse_dem(DEFAULT_PROFILE, raw, otcca=True) == c

    def test_parse_too_short(self):
        with pytest.raises(MalformedError):
            parse_dem(DEFAULT_PROFILE, b"\x00" * 15, otcca=True)

    def test_empty_body_parses(self):
        got = parse_dem(TOY, b"\x12\x34", otcca=True)
        assert got == DemCiphertext(b"", 0x1234)


class TestProfileAndKeys:
    def test_forgery_bound(self):
        assert mac_forgery_bound(DEFAULT_PROFILE, 64) == 5 * 2.0 ** -128
        assert mac_forgery_bound(DEFAULT_PROFILE, 0) == 2.0 ** -128
        assert mac_forgery_bound(TOY, 3) == 3 * 2.0 ** -16

    def test_profile_validation(self):
        with pytest.raises(MalformedError):
            DemProfile(enc_len=0)
        with pytest.raises(MalformedError):
            DemProfile(enc_len=12)
        with pytest.raises(MalformedError):
            DemProfile(mac_bits=4)

    def test_key_lengths(self):
        assert DEFAULT_PROFILE.ot_key_bits == 256
        assert DEFAULT_PROFILE.otcca_key_bits == 512
        assert TOY.otcca_key_bits == 40

    def test_key_bytes_round_trip(self):
        k = DemKey(0x1FF, 9)
        assert k.to_bytes() == b"\x01\xff"
        k2 = DemKey.from_bytes(b"\x01\xff", 9)
        assert k2.bits == 0x1FF
        with pytest.raises(MalformedError):
            DemKey.from_bytes(b"\x01\xff", 24)
        with pytest.raises(MalformedError):
            DemKey(1 << 9, 9)
