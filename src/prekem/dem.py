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
final block unambiguous.  The tag is computed by Horner's rule in k1, and
every step multiplies by the same k1, so one call builds k1's product tables
(FieldCtx.mul_by, told the B+2 multiplies to come).  A short body gets nibble
tables, and each block costs a table read per nibble; once B+2 reaches
gf2.BYTE_TABLE_USES, byte tables are built instead, and the body repays
their larger build at a read per block byte.

A key narrower than the AES key space (enc_len != 256) is stretched with
SHA-256 before keying the cipher; at enc_len = 256 the key bits are used
directly.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from typing import Optional

from .errors import KeyReuseError, MalformedError
from .gf2 import field

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


@dataclass(frozen=True)
class DemProfile:
    """Widths of the two key parts; key lengths follow from these.

    enc_len bits feed the cipher, and otcca appends two mac_bits-wide MAC
    key parts: ot keys are enc_len bits, otcca keys enc_len + 2*mac_bits.
    """

    enc_len: int = 256
    mac_bits: int = 128

    def __post_init__(self) -> None:
        if self.enc_len < 8 or self.enc_len % 8:
            raise MalformedError("enc_len must be a positive multiple of 8")
        if self.mac_bits < 8 or self.mac_bits % 8:
            raise MalformedError("mac_bits must be a positive multiple of 8")
        field(self.mac_bits)  # unsupported widths fail here, not mid-MAC

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


@dataclass(frozen=True)
class DemCiphertext:
    """body is message-length; tag is present in otcca mode only."""

    body: bytes
    tag: Optional[int]


def _aes_key(k_e: int, enc_len: int) -> bytes:
    raw = k_e.to_bytes(enc_len // 8, "big")
    if enc_len == 256:
        return raw
    return hashlib.sha256(raw).digest()


@functools.cache
def _aes_ctr():
    # loaded on the first keystream, so importing the DEM (every CLI command
    # does, for DemProfile) does not load the OpenSSL bindings; cached, so
    # later keystreams do not pay for an import statement
    from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
    return Cipher, algorithms.AES, modes.CTR


def aes_ctr_keystream(key: bytes, nbytes: int) -> bytes:
    """nbytes of AES-256-CTR keystream from a zero counter block."""
    cipher, aes, ctr = _aes_ctr()
    enc = cipher(aes(key), ctr(b"\x00" * 16)).encryptor()
    return enc.update(b"\x00" * nbytes) + enc.finalize()


def _xor_stream(k_e: int, data: bytes, profile: DemProfile) -> bytes:
    ks = aes_ctr_keystream(_aes_key(k_e, profile.enc_len), len(data))
    x = int.from_bytes(data, "big") ^ int.from_bytes(ks, "big")
    return x.to_bytes(len(data), "big")


def _split_key(key: DemKey, profile: DemProfile):
    # MSB-first split k_e || k_m1 || k_m2
    mb = profile.mac_bits
    mask = (1 << mb) - 1
    return key.bits >> (2 * mb), (key.bits >> mb) & mask, key.bits & mask


def _mac_tag(k1: int, k2: int, body: bytes, bits: int) -> int:
    bb = bits // 8
    times_k1 = field(bits).mul_by(k1, uses=-(-len(body) // bb) + 2)
    padded = body + bytes(-len(body) % bb)
    acc = 0
    for i in range(0, len(padded), bb):
        acc = times_k1(acc) ^ int.from_bytes(padded[i:i + bb], "big")
    return times_k1(times_k1(acc) ^ len(body)) ^ k2


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
