"""Hybrid encryption: KEM-derived one-time keys driving the DEM.

A HybridScheme pairs iKEM parameters with a DEM profile, and the KEM
mode fixes the DEM flavor: the authenticated mode (CCA) drives the
authenticated DEM (otcca), and the passive modes (CEA, BASELINE) the
plain one (ot).  Key lengths must agree exactly, since the encapsulated
key is consumed as the one-time DEM key.

Encryption encapsulates, wraps the key, and encrypts the message;
decryption returns None (the rejection value) iff decapsulation rejects
or the DEM tag fails.  Malformed envelopes raise MalformedError instead:
a parse failure is a format error, not a protocol answer.

Envelope layout: "HENV" || version u8 || c1_len u32 || c1 || c2, with c1
the serialized KEM ciphertext and c2 = body || tag.
"""

from __future__ import annotations

import struct
from typing import Optional, Tuple

from .dem import (
    DemCiphertext,
    DemKey,
    DemProfile,
    decrypt_ot,
    decrypt_otcca,
    encrypt_ot,
    encrypt_otcca,
    parse_dem,
    serialize_dem,
)
from .errors import MalformedError
from .ikem import (
    IkemCiphertext,
    IkemParams,
    Mode,
    decap,
    encap,
    parse_ciphertext_for,
    serialize_ciphertext,
)
from .value import Value, set_fields

__all__ = [
    "HybridScheme",
    "HybridCiphertext",
    "he_encrypt",
    "he_decrypt",
    "serialize_envelope",
    "split_envelope",
    "parse_envelope",
]

ENVELOPE_MAGIC = b"HENV"
ENVELOPE_VERSION = 1
_ENV_HEADER = struct.Struct(">4sBI")


class HybridScheme(Value):
    """A compatible (iKEM, DEM) pair; incompatible pairs never construct.

    otcca, whether the KEM mode calls for the authenticated DEM, is a field
    computed from kem.
    """

    __slots__ = ("kem", "dem", "otcca")

    def __init__(self, kem: IkemParams, dem: DemProfile) -> None:
        otcca = kem.mode is Mode.CCA
        set_fields(self, kem, dem, otcca)
        need = dem.otcca_key_bits if otcca else dem.ot_key_bits
        if kem.ell != need:
            raise MalformedError(
                f"KEM key length {kem.ell} != DEM key length {need}")

    @classmethod
    def for_params(cls, kem: IkemParams, dem: DemProfile) -> "HybridScheme":
        return cls(kem, dem)


class HybridCiphertext(Value):
    __slots__ = ("c1", "c2")

    def __init__(self, c1: IkemCiphertext, c2: DemCiphertext) -> None:
        set_fields(self, c1, c2)


def he_encrypt(scheme: HybridScheme, x, m: bytes, rng,
               public_seed: Optional[int] = None) -> HybridCiphertext:
    k, c1 = encap(scheme.kem, x, rng, public_seed)
    dk = DemKey(k.bits, k.ell)
    if scheme.otcca:
        c2 = encrypt_otcca(dk, m, scheme.dem)
    else:
        c2 = encrypt_ot(dk, m, scheme.dem)
    return HybridCiphertext(c1, c2)


def he_decrypt(scheme: HybridScheme, y, c: HybridCiphertext,
               public_seed: Optional[int] = None) -> Optional[bytes]:
    k = decap(scheme.kem, y, c.c1, public_seed)
    if k is None:
        return None
    dk = DemKey(k.bits, k.ell)
    if scheme.otcca:
        return decrypt_otcca(dk, c.c2, scheme.dem)
    return decrypt_ot(dk, c.c2, scheme.dem)


def serialize_envelope(scheme: HybridScheme, c: HybridCiphertext) -> bytes:
    c1 = serialize_ciphertext(scheme.kem, c.c1)
    return (_ENV_HEADER.pack(ENVELOPE_MAGIC, ENVELOPE_VERSION, len(c1))
            + c1 + serialize_dem(scheme.dem, c.c2))


def split_envelope(data: bytes) -> Tuple[bytes, bytes]:
    """Check the outer framing and split the payloads into (c1, c2)."""
    if len(data) < _ENV_HEADER.size:
        raise MalformedError("envelope shorter than its header")
    magic, ver, c1_len = _ENV_HEADER.unpack_from(data)
    if magic != ENVELOPE_MAGIC:
        raise MalformedError("bad envelope magic")
    if ver != ENVELOPE_VERSION:
        raise MalformedError(f"unsupported envelope version {ver}")
    end = _ENV_HEADER.size + c1_len
    if len(data) < end:
        raise MalformedError("envelope truncated inside c1")
    return data[_ENV_HEADER.size:end], data[end:]


def parse_envelope(scheme: HybridScheme, data: bytes) -> HybridCiphertext:
    """Strict parse against the scheme: the KEM header must match it."""
    c1, c2 = split_envelope(data)
    return HybridCiphertext(parse_ciphertext_for(scheme.kem, c1),
                            parse_dem(scheme.dem, c2, scheme.otcca))
