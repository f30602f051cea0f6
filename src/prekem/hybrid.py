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

The stream forms run the same scheme over binary files in CHUNK-byte
pieces through dem.DemStream, so memory stays bounded whatever the file's
size; their envelopes are byte-identical to the bytes API's.  Each reads
its input once, so a pipe will do.  he_encrypt_stream yields the envelope
in chunks.  he_decrypt_into checks the outer frame and c1 as
parse_envelope does, decapsulates, then MACs and decrypts each chunk of
the body as it is read, holding back the last bytes as the tag, and
checks the tag at the end, as GCM decryption does: the plaintext it wrote
stands only if it does not reject, so a caller stages it until then.
"""

from __future__ import annotations

import struct
from typing import BinaryIO, Iterator, Optional, Tuple

from .dem import (
    DemCiphertext,
    DemKey,
    DemProfile,
    DemStream,
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
    ciphertext_size,
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
    "he_encrypt_stream",
    "he_decrypt_into",
    "serialize_envelope",
    "split_envelope",
    "parse_envelope",
]

ENVELOPE_MAGIC = b"HENV"
ENVELOPE_VERSION = 1
_ENV_HEADER = struct.Struct(">4sBI")
CHUNK = 1 << 16  # bytes per read in the stream forms


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


def _head(scheme: HybridScheme, c1: IkemCiphertext) -> bytes:
    """The envelope's header and c1."""
    raw = serialize_ciphertext(scheme.kem, c1)
    return _ENV_HEADER.pack(ENVELOPE_MAGIC, ENVELOPE_VERSION, len(raw)) + raw


def _c1_length(header: bytes) -> int:
    """c1_len from the envelope's leading bytes, after the outer frame's
    checks: MalformedError for a short header, bad magic or version."""
    if len(header) < _ENV_HEADER.size:
        raise MalformedError("envelope shorter than its header")
    magic, ver, c1_len = _ENV_HEADER.unpack_from(header)
    if magic != ENVELOPE_MAGIC:
        raise MalformedError("bad envelope magic")
    if ver != ENVELOPE_VERSION:
        raise MalformedError(f"unsupported envelope version {ver}")
    return c1_len


def serialize_envelope(scheme: HybridScheme, c: HybridCiphertext) -> bytes:
    return _head(scheme, c.c1) + serialize_dem(scheme.dem, c.c2)


def split_envelope(data: bytes) -> Tuple[bytes, bytes]:
    """Check the outer framing and split the payloads into (c1, c2)."""
    end = _ENV_HEADER.size + _c1_length(data)
    if len(data) < end:
        raise MalformedError("envelope truncated inside c1")
    return data[_ENV_HEADER.size:end], data[end:]


def parse_envelope(scheme: HybridScheme, data: bytes) -> HybridCiphertext:
    """Strict parse against the scheme: the KEM header must match it."""
    c1, c2 = split_envelope(data)
    return HybridCiphertext(parse_ciphertext_for(scheme.kem, c1),
                            parse_dem(scheme.dem, c2, scheme.otcca))


def he_encrypt_stream(scheme: HybridScheme, x, src: BinaryIO, rng,
                      public_seed: Optional[int] = None) -> Iterator[bytes]:
    """The envelope of the message read from src, as chunks: the header
    and c1, the body CHUNK bytes at a time, then the tag.  Encapsulation
    runs in this call; src is read as the chunks are taken, and a message
    too long for the MAC's length term raises MalformedError there."""
    k, c1 = encap(scheme.kem, x, rng, public_seed)
    stream = DemStream(DemKey(k.bits, k.ell), scheme.dem, scheme.otcca,
                       encrypt=True)
    return _sealed(scheme, _head(scheme, c1), stream, src)


def _sealed(scheme, head, stream, src):
    yield head
    while chunk := src.read(CHUNK):
        yield stream.seal(chunk)
    tag = stream.tag()
    if tag is not None:
        yield tag.to_bytes(scheme.dem.mac_bits // 8, "big")


def he_decrypt_into(scheme: HybridScheme, y, src: BinaryIO, write,
                    public_seed: Optional[int] = None) -> Optional[int]:
    """Decrypt the envelope read from src, passing the message to write in
    chunks; the sum of what write returns (a binary file's write returns
    the bytes it wrote), or None (the rejection value).

    A damaged outer frame raises MalformedError; damage inside the payloads
    rejects, as in he_decrypt.  src is read once, front to back, so it may
    be a pipe, but src.read(n) must return n bytes unless src has ended, as
    a buffered open(..., "rb") does: the frame and c1 are read that way.
    The body is MACed and decrypted in one pass, and in otcca its tag is
    checked only at the end, so what was written is the message only if
    the result is not None: on None the caller drops it, as the CLI's
    staging file does.
    """
    c1_len = _c1_length(src.read(_ENV_HEADER.size))
    # a c1 longer than the scheme's fails the strict parse whatever its
    # bytes, so only one byte more than that is kept
    c1 = src.read(min(c1_len, ciphertext_size(scheme.kem) + 1))
    rest = c1_len - len(c1)
    while rest and (got := len(src.read(min(rest, CHUNK)))):
        rest -= got
    if rest:
        raise MalformedError("envelope truncated inside c1")
    try:
        k = decap(scheme.kem, y, parse_ciphertext_for(scheme.kem, c1),
                  public_seed)
    except MalformedError:
        return None
    if k is None:
        return None
    stream = DemStream(DemKey(k.bits, k.ell), scheme.dem, scheme.otcca)
    # the last keep bytes read so far may be the tag, so they wait
    keep = scheme.dem.mac_bits // 8 if scheme.otcca else 0
    held, size = b"", 0
    while data := src.read(CHUNK):
        data = held + data
        cut = max(len(data) - keep, 0)  # a short read may not pass the tag
        body, held = data[:cut], data[cut:]
        stream.absorb(body)
        size += write(stream.crypt(body))
    if scheme.otcca and (len(held) < keep or
                         not stream.verify(int.from_bytes(held, "big"))):
        return None  # c2 shorter than its tag, or the tag fails
    return size
