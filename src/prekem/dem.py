"""One-time symmetric encryption for KEM-derived keys.

Two services share one keystream core:

  ot     stream encryption only: body = m xor AES-256-CTR(k_e, zero nonce)
  otcca  encrypt-then-authenticate: the ot body plus a one-time polynomial
         MAC over GF(2^mac_bits)

Keys are strictly one-time: a DemKey refuses a second encryption with
KeyReuseError.  Decryption never consumes, so a receiver may retry.  The
zero nonce is sound exactly because of that contract.

The MAC over body blocks m_1..m_B (mac_bits each, final block zero-padded)
is

    tag = sum_i m_i * k1^(B+2-i) + len(body) * k1 + k2

so two distinct (body, length) pairs disagree by a nonzero polynomial of
degree at most B+1 in k1, and a forged tag verifies with probability at
most (B+1) / 2^mac_bits over a uniform (k1, k2).  An empty body tags to
k2.  The length term uses the byte count, which keeps zero-padding of the
final block unambiguous.  How the sum is evaluated changes no tag and no
bound.

The full blocks' part, sum_j m_j * k1^(F-1-j) over the F full blocks, is
the costly one.  A body of at least LANE_BLOCKS full blocks runs it as L
interleaved Horner streams (the aggregated form GHASH implementations use),
L the largest power of two up to F, capped at MAX_LANES; zero blocks lead
the body up to a multiple of L, which leaves the sum unchanged.  The L
accumulators sit in 2*mac_bits-bit lanes of one int, and a step is
state = state * k1^L + <next L blocks>: one clmul of the whole int by k1^L,
reduced in every lane at once (FieldCtx.lanes_by).  Each step lays its
blocks into an L-lane buffer by strided slices, so memory stays O(L)
whatever the body's length.  Halving the lanes then folds the streams
together, times k1^(L/2), ..., k1 (Estrin's scheme), and the final block,
length and k2 terms follow by Horner on the field's mul.  A shorter body
keeps plain Horner on k1's nibble tables (FieldCtx.mul_by): below
LANE_BLOCKS blocks, at any width, the lanes' set-up (a closure per power of
k1, the buffer, the masks) costs more than it saves.  The games' 16-byte
tags at mac_bits 8 are such bodies.

A key narrower than the AES key space (enc_len != 256) is stretched with
SHA-256 before keying the cipher; at enc_len = 256 the key bits are used
directly.
"""

from __future__ import annotations

import functools
from typing import Optional

from .errors import KeyReuseError, MalformedError
from .gf2 import FieldCtx, field
from .value import Value, set_fields

__all__ = [
    "DemProfile",
    "DemKey",
    "DemCiphertext",
    "DEFAULT_PROFILE",
    "encrypt_ot",
    "decrypt_ot",
    "encrypt_otcca",
    "decrypt_otcca",
    "serialize_dem",
    "parse_dem",
    "mac_forgery_bound",
    "aes_ctr_keystream",
]

# Bodies of at least LANE_BLOCKS full blocks take the lane path; on a 2-vCPU
# x86 VM it broke even with nibble-table Horner at 32-56 blocks for mac_bits
# 8 to 256.  A step carries at most MAX_LANES streams: wider lane ints
# stopped paying at 512.
LANE_BLOCKS = 48
MAX_LANES = 256


class DemProfile(Value):
    """Widths of the two key parts; key lengths follow from these.

    enc_len bits feed the cipher, and otcca appends two mac_bits-wide MAC
    key parts: ot keys are enc_len bits, otcca keys enc_len + 2*mac_bits.
    """

    __slots__ = ("enc_len", "mac_bits")

    def __init__(self, enc_len: int = 256, mac_bits: int = 128) -> None:
        set_fields(self, enc_len, mac_bits)
        if enc_len < 8 or enc_len % 8:
            raise MalformedError("enc_len must be a positive multiple of 8")
        if mac_bits < 8 or mac_bits % 8:
            raise MalformedError("mac_bits must be a positive multiple of 8")
        field(mac_bits)  # unsupported widths fail here, not mid-MAC

    @property
    def ot_key_bits(self) -> int:
        return self.enc_len

    @property
    def otcca_key_bits(self) -> int:
        return self.enc_len + 2 * self.mac_bits


DEFAULT_PROFILE = DemProfile()


class DemKey:
    """A length-bit one-time key.  consume() flips the used flag once."""

    __slots__ = ("bits", "length", "_used")

    def __init__(self, bits: int, length: int) -> None:
        if length < 1:
            raise MalformedError("key length must be positive")
        if not 0 <= bits < (1 << length):
            raise MalformedError("key outside its declared length")
        self.bits = bits
        self.length = length
        self._used = False

    @classmethod
    def from_bytes(cls, raw: bytes, length: Optional[int] = None) -> "DemKey":
        if length is None:
            length = 8 * len(raw)
        if len(raw) != (length + 7) // 8:
            raise MalformedError("key byte count inconsistent with length")
        return cls(int.from_bytes(raw, "big"), length)

    def to_bytes(self) -> bytes:
        return self.bits.to_bytes((self.length + 7) // 8, "big")

    def consume(self) -> None:
        if self._used:
            raise KeyReuseError("one-time key already used for encryption")
        self._used = True


class DemCiphertext(Value):
    """body is message-length; tag is present in otcca mode only."""

    __slots__ = ("body", "tag")

    def __init__(self, body: bytes, tag: Optional[int]) -> None:
        set_fields(self, body, tag)


@functools.cache
def _aes_ctr():
    # loaded on the first keystream, so importing the DEM (every CLI command
    # does, for DemProfile) does not load the OpenSSL bindings; cached, so
    # later keystreams do not pay for an import statement
    from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
    return Cipher, algorithms.AES, modes.CTR


@functools.cache
def _sha256():
    # hashlib loads OpenSSL too: loaded on the first narrow key, as above
    from hashlib import sha256
    return sha256


def aes_ctr_keystream(key: bytes, data: bytes) -> bytes:
    """data XORed with the AES-256-CTR keystream from a zero counter block."""
    cipher, aes, ctr = _aes_ctr()
    enc = cipher(aes(key), ctr(b"\x00" * 16)).encryptor()
    return enc.update(data) + enc.finalize()


def _xor_stream(k_e: int, data: bytes, profile: DemProfile) -> bytes:
    raw = k_e.to_bytes(profile.enc_len // 8, "big")
    key = raw if profile.enc_len == 256 else _sha256()(raw).digest()
    return aes_ctr_keystream(key, data)


def _split_key(key: DemKey, profile: DemProfile):
    # MSB-first split k_e || k_m1 || k_m2
    mb = profile.mac_bits
    mask = (1 << mb) - 1
    return key.bits >> (2 * mb), (key.bits >> mb) & mask, key.bits & mask


def _mac_tag(k1: int, k2: int, body: bytes, bits: int) -> int:
    bb = bits // 8
    ctx = field(bits)
    blocks = len(body) // bb
    if blocks < LANE_BLOCKS:
        times_k1 = ctx.mul_by(k1)
        acc = 0
        for i in range(0, blocks * bb, bb):
            acc = times_k1(acc) ^ int.from_bytes(body[i:i + bb], "big")
    else:
        times_k1 = functools.partial(ctx.mul, k1)
        acc = _lane_sum(ctx, k1, body, blocks, bb)
    if len(body) % bb:
        last = body[blocks * bb:].ljust(bb, b"\x00")
        acc = times_k1(acc) ^ int.from_bytes(last, "big")
    return times_k1(times_k1(acc) ^ len(body)) ^ k2


def _lane_sum(ctx: FieldCtx, k1: int, body: bytes, blocks: int,
              bb: int) -> int:
    """Sum of m_j * k1^(blocks-1-j) over body's first `blocks` full blocks.

    A step lays the next L blocks out big-endian, so lane i (from the
    bottom) gets a block whose weight is k1^i times a power of k1^L; each
    halving adds the top half of the lanes, times k1^(lanes/2), onto the
    bottom half, until lane 0 holds the sum.
    """
    lanes = min(MAX_LANES, 1 << (blocks.bit_length() - 1))
    powers = [k1]  # k1^(2^l) up to k1^lanes
    for _ in range(lanes.bit_length() - 1):
        powers.append(ctx.mul(powers[-1], powers[-1]))
    width = 2 * bb  # lane bytes
    buf = bytearray(lanes * width)

    def laid(chunk: bytes) -> int:
        for t in range(bb):
            buf[bb + t::width] = chunk[t::bb]
        return int.from_bytes(buf, "big")

    step = lanes * bb
    first = step - (-blocks % lanes) * bb  # body bytes in the first step
    state = laid(bytes(step - first) + body[:first])
    times = ctx.lanes_by(powers.pop(), lanes)
    for i in range(first, blocks * bb, step):
        state = times(state) ^ laid(body[i:i + step])
    while powers:
        lanes >>= 1
        cut = 8 * width * lanes
        top = ctx.lanes_by(powers.pop(), lanes)(state >> cut)
        state = top ^ (state & ((1 << cut) - 1))
    return state


def encrypt_ot(key: DemKey, m: bytes,
               profile: DemProfile = DEFAULT_PROFILE) -> DemCiphertext:
    if key.length != profile.ot_key_bits:
        raise MalformedError("ot needs an enc_len-bit key")
    key.consume()
    return DemCiphertext(_xor_stream(key.bits, m, profile), None)


def decrypt_ot(key: DemKey, c: DemCiphertext,
               profile: DemProfile = DEFAULT_PROFILE) -> bytes:
    if key.length != profile.ot_key_bits:
        raise MalformedError("ot needs an enc_len-bit key")
    if c.tag is not None:
        raise MalformedError("ot ciphertext carries no tag")
    return _xor_stream(key.bits, c.body, profile)


def encrypt_otcca(key: DemKey, m: bytes,
                  profile: DemProfile = DEFAULT_PROFILE) -> DemCiphertext:
    if key.length != profile.otcca_key_bits:
        raise MalformedError("otcca needs an (enc_len + 2*mac_bits)-bit key")
    if len(m) >= (1 << profile.mac_bits):
        raise MalformedError("message too long for the MAC length term")
    key.consume()
    k_e, k1, k2 = _split_key(key, profile)
    body = _xor_stream(k_e, m, profile)
    return DemCiphertext(body, _mac_tag(k1, k2, body, profile.mac_bits))


def decrypt_otcca(key: DemKey, c: DemCiphertext,
                  profile: DemProfile = DEFAULT_PROFILE) -> Optional[bytes]:
    """Verify the tag, then decrypt; None is the rejection value."""
    if key.length != profile.otcca_key_bits:
        raise MalformedError("otcca needs an (enc_len + 2*mac_bits)-bit key")
    if c.tag is None or not 0 <= c.tag < (1 << profile.mac_bits):
        raise MalformedError("tag missing or outside mac_bits")
    if len(c.body) >= (1 << profile.mac_bits):
        return None  # unproducible length: reject, not a format error
    k_e, k1, k2 = _split_key(key, profile)
    if _mac_tag(k1, k2, c.body, profile.mac_bits) != c.tag:
        return None
    return _xor_stream(k_e, c.body, profile)


def mac_forgery_bound(profile: DemProfile, body_len: int) -> float:
    """(B+1) / 2^mac_bits for a body of body_len bytes."""
    blocks = -(-body_len // (profile.mac_bits // 8))
    return (blocks + 1) * 2.0 ** -profile.mac_bits


def serialize_dem(profile: DemProfile, c: DemCiphertext) -> bytes:
    """body || tag; lengths are the envelope's job, not this layer's."""
    if c.tag is None:
        return c.body
    if not 0 <= c.tag < (1 << profile.mac_bits):
        raise MalformedError("tag outside mac_bits")
    return c.body + c.tag.to_bytes(profile.mac_bits // 8, "big")


def parse_dem(profile: DemProfile, raw: bytes, otcca: bool) -> DemCiphertext:
    if not otcca:
        return DemCiphertext(bytes(raw), None)
    tb = profile.mac_bits // 8
    if len(raw) < tb:
        raise MalformedError("ciphertext shorter than its tag")
    return DemCiphertext(bytes(raw[:-tb]), int.from_bytes(raw[-tb:], "big"))
