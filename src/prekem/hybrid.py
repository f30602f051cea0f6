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
size; their envelopes are byte-identical to the bytes API's.
he_encrypt_stream reads the message once.  he_decrypt_stream checks the
outer frame and c1 as parse_envelope does and decapsulates; in ot it then
decrypts in one pass, and in otcca it reads the body twice, checking the
tag over all of it before any plaintext is produced, so its input must be
seekable (a regular file, not a pipe).  The second read is MACed again as
it is decrypted, and ends in MalformedError if it is not the body that was
verified.
"""

from __future__ import annotations

import os
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
    "he_decrypt_stream",
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


def he_decrypt_stream(scheme: HybridScheme, y, src: BinaryIO,
                      public_seed: Optional[int] = None
                      ) -> Optional[Iterator[bytes]]:
    """The message of the envelope read from src, as chunks, or None (the
    rejection value).

    A damaged outer frame raises MalformedError; damage inside the payloads
    rejects, as in he_decrypt.  src is read up to c1 in this call, and the
    body as the chunks are taken.  In otcca the tag is first checked over
    the whole body, in this call, so src must be seekable; the chunks then
    come from a second read of the body, which is MACed again as it goes,
    and if that read differs the iterator raises MalformedError after its
    last chunk.  So the chunks are the message only once the iterator ends
    cleanly: a caller keeps none before that, as the CLI's temporary file
    does.
    """
    if scheme.otcca and not src.seekable():
        raise MalformedError("an authenticated envelope is read twice, "
                             "so it cannot come from a pipe")
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
    key = DemKey(k.bits, k.ell)
    if not scheme.otcca:
        return _opened(DemStream(key, scheme.dem, otcca=False),
                       iter(lambda: src.read(CHUNK), b""), None)
    start, tag_bytes = src.tell(), scheme.dem.mac_bits // 8
    size = src.seek(0, os.SEEK_END) - start - tag_bytes
    if size < 0:
        return None  # c2 shorter than its tag
    src.seek(start + size)
    tag = int.from_bytes(src.read(tag_bytes), "big")
    src.seek(start)
    check = DemStream(key, scheme.dem, otcca=True)
    for chunk in _body(src, size):
        check.absorb(chunk)
    if not check.verify(tag):
        return None
    src.seek(start)
    return _opened(DemStream(key, scheme.dem, otcca=True), _body(src, size),
                   tag)


def _body(src, size):
    """The next size bytes of src, CHUNK bytes at a time."""
    while size > 0:
        chunk = src.read(min(size, CHUNK))
        if not chunk:
            raise MalformedError("envelope changed while it was read")
        size -= len(chunk)
        yield chunk


def _opened(stream, body, tag):
    """The body's chunks decrypted.  In otcca they are MACed again as they
    go, and a tag that fails at the end means the body read now is not
    the one verified (another writer, or a file system that answered the
    second read differently): MalformedError, after the last chunk."""
    for chunk in body:
        stream.absorb(chunk)
        yield stream.crypt(chunk)
    if tag is not None and not stream.verify(tag):
        raise MalformedError("envelope changed while it was read")
