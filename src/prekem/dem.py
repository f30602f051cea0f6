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
the costly one.  It runs as L interleaved Horner streams (the aggregated
form GHASH implementations use).  The L accumulators sit in
2*mac_bits-bit lanes of one int, and a step is
state = state * k1^L + <next L blocks>: one clmul of the whole int by k1^L,
reduced in every lane at once (FieldCtx.lanes_by).  Each step lays its
blocks into an L-lane buffer by strided slices, so memory stays O(L)
whatever the body's length.  Halving the lanes then folds the streams
together, times k1^(L/2), ..., k1 (Estrin's scheme), and the final block,
length and k2 terms follow by Horner on the field's mul.

The MAC is fed the body in chunks of any size (DemStream), and the length
term, which comes last, needs no length in advance.  The first MAX_LANES
blocks are buffered.  A body that ends below LANE_BLOCKS blocks keeps plain
Horner, by k1's nibble tables (FieldCtx.mul_by) once it multiplies often
enough to pay for them, as the games' 16-byte tags at mac_bits 8 do, and by
the field's mul below that.  Otherwise L is the largest power of two up to
the blocks, capped at MAX_LANES, and the lanes step L-wide from the first
block as its chunks arrive.  The last r < L blocks take a partial step: the
lanes move up r places, the top r wrapping round to the bottom times k1^L
(which multiplies the whole sum by k1^r), and the r blocks fill the bottom
lanes; the lanes then fold.

DemStream runs the keystream and the MAC over one key's body in chunks,
for files too large to hold; the bytes API (encrypt_ot, ...,
decrypt_otcca) is that stream fed each body as one chunk, so the key
checks, the length term's cap and the key's consumption live in one place.

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
    "DemStream",
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


def aes_ctr_keystream(key: bytes, data: bytes, start: int = 0) -> bytes:
    """data XORed with the AES-256-CTR keystream from its byte `start`; the
    counter block of byte 0 is zero, and counts up by one per 16 bytes."""
    cipher, aes, ctr = _aes_ctr()
    enc = cipher(aes(key), ctr((start >> 4).to_bytes(16, "big"))).encryptor()
    if start & 15:
        enc.update(bytes(start & 15))
    return enc.update(data) + enc.finalize()


def _key_parts(key: DemKey, profile: DemProfile, otcca: bool):
    """(cipher key bytes, k1, k2) from a key of the service's length; the
    split is MSB-first k_e || k_m1 || k_m2, and ot keys have no k1, k2."""
    if otcca:
        if key.length != profile.otcca_key_bits:
            raise MalformedError(
                "otcca needs an (enc_len + 2*mac_bits)-bit key")
        mb, bits = profile.mac_bits, key.bits
        mask = (1 << mb) - 1
        k_e, k1, k2 = bits >> 2 * mb, bits >> mb & mask, bits & mask
    else:
        if key.length != profile.ot_key_bits:
            raise MalformedError("ot needs an enc_len-bit key")
        k_e, k1, k2 = key.bits, None, None
    raw = k_e.to_bytes(profile.enc_len // 8, "big")
    return (raw if profile.enc_len == 256 else _sha256()(raw).digest()), k1, k2


class _Lanes:
    """`lanes` interleaved Horner streams over the blocks stepped in, one per
    2*mac_bits-bit lane of a packed int.

    A step lays the next `lanes` blocks out big-endian, so lane i (from the
    bottom) gets a block whose weight is k1^i times a power of k1^lanes,
    and multiplies the state by k1^lanes in every lane first.  sum() halves
    the lanes, adding the top half times k1^(lanes/2) onto the bottom half,
    until lane 0 holds sum_j m_j * k1^(B-1-j) over the B blocks stepped in.
    """

    __slots__ = ("_ctx", "_bb", "_lanes", "_powers", "_buf", "_times", "_state")

    def __init__(self, ctx: FieldCtx, k1: int, lanes: int, bb: int) -> None:
        powers = [k1]  # k1^(2^l) up to k1^lanes
        for _ in range(lanes.bit_length() - 1):
            powers.append(ctx.mul(powers[-1], powers[-1]))
        self._ctx, self._bb, self._lanes = ctx, bb, lanes
        self._powers = powers
        self._buf = bytearray(lanes * 2 * bb)
        self._times = ctx.lanes_by(powers[-1], lanes)
        self._state = 0

    def _laid(self, chunk) -> int:
        buf, bb = self._buf, self._bb
        width = 2 * bb
        for t in range(bb):
            buf[bb + t::width] = chunk[t::bb]
        return int.from_bytes(buf, "big")

    def steps(self, data, start: int, end: int) -> int:
        """Step in the whole groups of `lanes` blocks in data[start:end],
        each times k1^lanes in every lane first; returns where they stop."""
        size = self._lanes * self._bb
        stop = end - (end - start) % size
        for i in range(start, stop, size):
            state = self._state  # zero before the first step: no multiply
            self._state = ((self._times(state) if state else 0)
                           ^ self._laid(data[i:i + size]))
        return stop

    def sum(self, tail=b"") -> int:
        """The sum over the blocks stepped in, then tail's r < lanes whole
        blocks.  Those take a last, partial step: the state times k1^r is
        the state moved up r lanes, its top r lanes wrapping round to the
        bottom times k1^lanes, and the r blocks are laid in the bottom r
        lanes, after leading zero blocks."""
        ctx, lanes, state = self._ctx, self._lanes, self._state
        width = 2 * self._bb
        if tail:
            r = len(tail) // self._bb
            stay = 8 * width * (lanes - r)  # bits of the lanes that move up
            state = (((state & ((1 << stay) - 1)) << 8 * width * r)
                     ^ self._times(state >> stay)
                     ^ self._laid(bytes(lanes * self._bb - len(tail)) + tail))
        for power in reversed(self._powers[:-1]):
            lanes >>= 1
            cut = 8 * width * lanes
            top = ctx.lanes_by(power, lanes)(state >> cut)
            state = top ^ (state & ((1 << cut) - 1))
        return state


def _mac_tag(k1: int, k2: int, body, bits: int,
             lanes: Optional[_Lanes] = None,
             length: Optional[int] = None) -> int:
    """The tag of a whole body; or, for DemStream, of the blocks already
    stepped into lanes followed by body, length being the whole body's.

    Without lanes, a body below LANE_BLOCKS full blocks takes Horner, and a
    longer one steps L lanes wide, L the largest power of two up to its
    blocks, capped at MAX_LANES.  Either way the last r < L blocks end the
    lanes (_Lanes.sum).
    """
    ctx, bb = field(bits), bits // 8
    blocks = len(body) // bb
    if length is None:
        length = len(body)
    horner = lanes is None and blocks < LANE_BLOCKS
    # Horner's multiplies by k1: blocks, ragged block, length, k2.  k1's
    # tables pay from 2*muls^2 >= 3*bits on; on a 2-vCPU x86 VM they cost
    # 3.4, 7.1, 11, 14.5, 18.7 multiplies at mac_bits 8, 32, 64, 128, 256
    muls = (blocks if horner else 0) + (len(body) % bb > 0) + 2
    times_k1 = (ctx.mul_by(k1) if 2 * muls * muls >= 3 * bits
                else functools.partial(ctx.mul, k1))
    if horner:
        acc = 0
        for i in range(0, blocks * bb, bb):
            acc = times_k1(acc) ^ int.from_bytes(body[i:i + bb], "big")
    else:
        if lanes is None:
            width = min(MAX_LANES, 1 << (blocks.bit_length() - 1))
            lanes = _Lanes(ctx, k1, width, bb)
        stop = lanes.steps(body, 0, blocks * bb)
        acc = lanes.sum(body[stop:blocks * bb])
    if len(body) % bb:
        last = body[blocks * bb:].ljust(bb, b"\x00")
        acc = times_k1(acc) ^ int.from_bytes(last, "big")
    return times_k1(times_k1(acc) ^ length) ^ k2


class DemStream:
    """One pass of one key's DEM over a body fed in chunks; the bytes API
    below is this stream fed each body as one chunk.

    The keystream runs on across calls, and in otcca so does the MAC.  A
    sender seals each chunk of the message in turn, then takes tag().  A
    receiver MACs the body (absorb) and checks verify(tag) before it
    decrypts (crypt) any of it, so no unverified plaintext leaves; a body
    too large to hold is absorbed in one pass and opened in a second,
    through a fresh stream.  A sealing stream (encrypt=True) consumes the
    key at its first seal or tag, after seal's length check, so a refused
    message leaves the key unused; a receiver's stream never consumes.

    The MAC buffers up to MAX_LANES full blocks, so a body that ends there
    is tagged by _mac_tag's rules for a whole body.  A longer body steps
    MAX_LANES-wide as soon as each step's blocks arrive, so the buffer
    never holds more than a step, and _mac_tag ends the lanes.
    """

    __slots__ = ("_cipher_key", "_key", "_pos", "_k1", "_k2", "_bits",
                 "_cap", "_pending", "_lanes", "_length")

    def __init__(self, key: DemKey, profile: DemProfile, otcca: bool,
                 encrypt: bool = False) -> None:
        # k1 is None in ot, which has no MAC
        self._cipher_key, self._k1, self._k2 = _key_parts(key, profile, otcca)
        self._key = key if encrypt else None  # until it is consumed
        self._bits, self._cap = profile.mac_bits, 1 << profile.mac_bits
        self._pos = self._length = 0  # keystream bytes; body bytes MACed
        self._pending = b""  # under one step's bytes, so copies stay small
        self._lanes: Optional[_Lanes] = None

    def crypt(self, data: bytes) -> bytes:
        """The next chunk of data XORed with the keystream."""
        start, self._pos = self._pos, self._pos + len(data)
        return aes_ctr_keystream(self._cipher_key, data, start)

    def seal(self, m: bytes) -> bytes:
        """The body of the message's next chunk, MACed in otcca; a message
        too long for the MAC's length term raises MalformedError."""
        if self._k1 is not None and self._length + len(m) >= self._cap:
            raise MalformedError("message too long for the MAC length term")
        if self._key is not None:
            self._key.consume()
            self._key = None
        body = self.crypt(m)
        self.absorb(body)
        return body

    def absorb(self, body) -> None:
        """Feed the body's next chunk to the MAC (otcca; ot has none)."""
        if self._k1 is None:
            return
        self._length += len(body)
        bb = self._bits // 8
        pending, step = self._pending, MAX_LANES * bb
        if len(pending) + len(body) <= step:
            self._pending = pending + body
            return
        if self._lanes is None:
            self._lanes = _Lanes(field(self._bits), self._k1, MAX_LANES, bb)
        i = step - len(pending)
        self._lanes.steps(pending + body[:i], 0, step)
        self._pending = bytes(body[self._lanes.steps(body, i, len(body)):])

    def tag(self) -> Optional[int]:
        """The tag of the body sealed or absorbed so far; None in ot."""
        if self._key is not None:
            self._key.consume()
            self._key = None
        if self._k1 is None:
            return None
        return _mac_tag(self._k1, self._k2, self._pending, self._bits,
                        self._lanes, self._length)

    def verify(self, tag: int) -> bool:
        """Whether tag is the tag of the body absorbed; a body too long for
        the length term, which no sender produces, fails."""
        return self._length < self._cap and self.tag() == tag


def encrypt_ot(key: DemKey, m: bytes,
               profile: DemProfile = DEFAULT_PROFILE) -> DemCiphertext:
    stream = DemStream(key, profile, otcca=False, encrypt=True)
    return DemCiphertext(stream.seal(m), None)


def decrypt_ot(key: DemKey, c: DemCiphertext,
               profile: DemProfile = DEFAULT_PROFILE) -> bytes:
    stream = DemStream(key, profile, otcca=False)
    if c.tag is not None:
        raise MalformedError("ot ciphertext carries no tag")
    return stream.crypt(c.body)


def encrypt_otcca(key: DemKey, m: bytes,
                  profile: DemProfile = DEFAULT_PROFILE) -> DemCiphertext:
    stream = DemStream(key, profile, otcca=True, encrypt=True)
    body = stream.seal(m)
    return DemCiphertext(body, stream.tag())


def decrypt_otcca(key: DemKey, c: DemCiphertext,
                  profile: DemProfile = DEFAULT_PROFILE) -> Optional[bytes]:
    """Verify the tag, then decrypt; None is the rejection value."""
    stream = DemStream(key, profile, otcca=True)
    if c.tag is None or not 0 <= c.tag < (1 << profile.mac_bits):
        raise MalformedError("tag missing or outside mac_bits")
    stream.absorb(c.body)
    return stream.crypt(c.body) if stream.verify(c.tag) else None


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
