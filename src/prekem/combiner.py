"""Two-component KEM combiners: XOR and PRF-then-XOR cores.

A combinable component is anything satisfying KemInterface: it yields
(key, ciphertext-bytes) pairs and decapsulates bytes back to a key or
None.  IkemComponent adapts a correlated-randomness instance; ToyPkem is
a deterministic keyed-permutation stand-in for the public-key component,
with a broken mode (constant key) for robustness tests.

Cores:

  xor   k = k1 xor k2, requiring equal key lengths.
  ptx   k = F1(k1, c2) xor F2(k2, c1).  F1 is an information-theoretic
        (q_d+2)-wise independent polynomial PRF whose key is the first
        component's key split into q_d+2 coefficients of m bits; F2 is
        AES-256-CMAC extended by a counter, keyed by the second
        component's 256-bit key.  Each PRF binds the other component's
        ciphertext, so tampering either ciphertext disturbs the key.

Both cores propagate None: a rejected component rejects the combination.

PRF inputs are length-prefixed (u32) before big-endian interpretation in
GF(2^m), so no two byte strings encode to the same field element; m must
be a supported field width at least the encoded bit length.

Combined ciphertext wire format: "CMB1" || c1_len u32 || c1 || c2.
"""

from __future__ import annotations

import abc
import struct
from dataclasses import dataclass
from typing import Optional, Tuple

from cryptography.hazmat.primitives.ciphers import algorithms
from cryptography.hazmat.primitives.cmac import CMAC

from .errors import MalformedError
from .gf2 import EXTRA_POLYS, POLY_TABLE
from .ikem import (
    IkemInstance,
    IkemKey,
    IkemParams,
    decap,
    encap,
    parse_ciphertext_for,
    serialize_ciphertext,
)
from .uhash import twise_poly

__all__ = [
    "KemInterface",
    "IkemComponent",
    "ToyPkem",
    "test_double_kem",
    "ItPrfKey",
    "CompPrfKey",
    "prf_it",
    "prf_comp",
    "combine_xor",
    "combine_ptx",
    "CombinedKem",
    "CombinedCiphertext",
    "serialize_combined",
    "parse_combined",
    "ptx_field_width",
]

COMBINED_MAGIC = b"CMB1"
_CMB_HEADER = struct.Struct(">4sI")

SUPPORTED_WIDTHS = tuple(sorted(set(POLY_TABLE) | set(EXTRA_POLYS)))


class KemInterface(abc.ABC):
    """Behavioral contract for one combinable component."""

    @property
    @abc.abstractmethod
    def key_bits(self) -> int:
        ...

    @abc.abstractmethod
    def enc(self, rng) -> Tuple[IkemKey, bytes]:
        ...

    @abc.abstractmethod
    def dec(self, c: bytes) -> Optional[IkemKey]:
        ...


class IkemComponent(KemInterface):
    """A correlated-randomness instance viewed through KemInterface."""

    def __init__(self, params: IkemParams, instance: IkemInstance) -> None:
        self.params = params
        self.instance = instance

    @property
    def key_bits(self) -> int:
        return self.params.ell

    def enc(self, rng) -> Tuple[IkemKey, bytes]:
        k, c = encap(self.params, self.instance.x, rng,
                     self.instance.public_seed)
        return k, serialize_ciphertext(self.params, c)

    def dec(self, c: bytes) -> Optional[IkemKey]:
        return decap(self.params, self.instance.y,
                     parse_ciphertext_for(self.params, c),
                     self.instance.public_seed)


class ToyPkem(KemInterface):
    """Keyed-XOR-permutation KEM double with perfect correctness.

    broken mode models a fully failed component: the all-zero key from
    every call, with a fixed ciphertext.
    """

    def __init__(self, bits: int, sk: int, broken: bool = False) -> None:
        if bits < 1:
            raise MalformedError("key length must be positive")
        if not 0 <= sk < (1 << bits):
            raise MalformedError("secret outside its declared length")
        self._bits = bits
        self._sk = sk
        self.broken = broken

    @property
    def key_bits(self) -> int:
        return self._bits

    def enc(self, rng) -> Tuple[IkemKey, bytes]:
        nbytes = (self._bits + 7) // 8
        if self.broken:
            return IkemKey(0, self._bits), b"\x00" * nbytes
        k = rng.getrandbits(self._bits)
        return IkemKey(k, self._bits), (k ^ self._sk).to_bytes(nbytes, "big")

    def dec(self, c: bytes) -> Optional[IkemKey]:
        if len(c) != (self._bits + 7) // 8:
            raise MalformedError("ciphertext length mismatch")
        v = int.from_bytes(c, "big")
        if v >= (1 << self._bits):
            raise MalformedError("nonzero padding bits")
        if self.broken:
            return IkemKey(0, self._bits)
        return IkemKey(v ^ self._sk, self._bits)


def test_double_kem(bits: int, rng, broken: bool = False) -> ToyPkem:
    return ToyPkem(bits, rng.getrandbits(bits), broken)


# ---------------------------------------------------------------------------
# the two PRFs

@dataclass(frozen=True)
class ItPrfKey:
    """q_d+2 polynomial coefficients in GF(2^m), a_0 first."""

    coeffs: Tuple[int, ...]
    m: int

    def __post_init__(self) -> None:
        if len(self.coeffs) < 2:
            raise MalformedError("need at least two coefficients")
        if self.m not in SUPPORTED_WIDTHS:
            raise MalformedError(f"unsupported field width {self.m}")
        for c in self.coeffs:
            if not 0 <= c < (1 << self.m):
                raise MalformedError("coefficient outside GF(2^m)")

    @classmethod
    def from_kem_key(cls, key: IkemKey, q_d: int) -> "ItPrfKey":
        count = q_d + 2
        if q_d < 0 or key.ell % count:
            raise MalformedError(
                f"key length {key.ell} does not split into {count} pieces")
        m = key.ell // count
        mask = (1 << m) - 1
        coeffs = tuple((key.bits >> (m * (count - 1 - i))) & mask
                       for i in range(count))
        return cls(coeffs, m)


@dataclass(frozen=True)
class CompPrfKey:
    """256-bit key for the computational PRF."""

    raw: bytes

    def __post_init__(self) -> None:
        if len(self.raw) != 32:
            raise MalformedError("computational PRF key must be 256 bits")

    @classmethod
    def from_kem_key(cls, key: IkemKey) -> "CompPrfKey":
        if key.ell != 256:
            raise MalformedError("computational PRF key must be 256 bits")
        return cls(key.to_bytes())


def ptx_field_width(nbytes: int) -> int:
    """Smallest supported GF(2^m) width fitting a length-prefixed input."""
    need = 8 * (nbytes + 4)
    for m in SUPPORTED_WIDTHS:
        if m >= need:
            return m
    raise MalformedError(f"no supported field width for {nbytes} input bytes")


def _encode_input(x: bytes, m: int) -> int:
    framed = struct.pack(">I", len(x)) + x
    if 8 * len(framed) > m:
        raise MalformedError(
            f"input needs {8 * len(framed)} bits, field width is {m}")
    return int.from_bytes(framed, "big")


def prf_it(key: ItPrfKey, x: bytes, out_bits: int) -> int:
    """(len(coeffs))-wise independent PRF: polynomial eval at the input."""
    return twise_poly(key.coeffs, _encode_input(x, key.m), key.m, out_bits)


def prf_comp(key: CompPrfKey, x: bytes, out_bits: int) -> int:
    """AES-256-CMAC under a u32 counter prefix, truncated to out_bits.

    Truncation keeps the top bits of the block stream, so a shorter
    output is a prefix of a longer one.
    """
    if out_bits < 1:
        raise MalformedError("output length must be positive")
    blocks = []
    for i in range(-(-out_bits // 128)):
        mac = CMAC(algorithms.AES(key.raw))
        mac.update(struct.pack(">I", i) + x)
        blocks.append(mac.finalize())
    stream = b"".join(blocks)
    return int.from_bytes(stream, "big") >> (8 * len(stream) - out_bits)


# ---------------------------------------------------------------------------
# core functions

def combine_xor(k1: Optional[IkemKey], k2: Optional[IkemKey]) -> Optional[IkemKey]:
    if k1 is None or k2 is None:
        return None
    if k1.ell != k2.ell:
        raise MalformedError("xor core needs equal key lengths")
    return IkemKey(k1.bits ^ k2.bits, k1.ell)


def combine_ptx(k1: Optional[IkemKey], k2: Optional[IkemKey],
                c1: bytes, c2: bytes, out_bits: int,
                q_d: int) -> Optional[IkemKey]:
    """F1(k1, c2) xor F2(k2, c1): each key binds the other ciphertext."""
    if k1 is None or k2 is None:
        return None
    f1 = prf_it(ItPrfKey.from_kem_key(k1, q_d), c2, out_bits)
    f2 = prf_comp(CompPrfKey.from_kem_key(k2), c1, out_bits)
    return IkemKey(f1 ^ f2, out_bits)


# ---------------------------------------------------------------------------
# the combined KEM

@dataclass(frozen=True)
class CombinedCiphertext:
    c1: bytes
    c2: bytes


class CombinedKem:
    """Two components behind one enc/dec with a selectable core.

    The ptx core evaluates the information-theoretic PRF once per
    encapsulation or decapsulation, its design budget.
    """

    def __init__(self, first: KemInterface, second: KemInterface,
                 core: str = "xor", out_bits: Optional[int] = None,
                 q_d: int = 0) -> None:
        if core not in ("xor", "ptx"):
            raise MalformedError(f"unknown core {core!r}")
        if core == "xor":
            if first.key_bits != second.key_bits:
                raise MalformedError("xor core needs equal key lengths")
            if out_bits is None:
                out_bits = first.key_bits
            if out_bits != first.key_bits:
                raise MalformedError("xor core cannot change the key length")
        else:
            count = q_d + 2
            if q_d < 0 or first.key_bits % count:
                raise MalformedError(
                    f"first key length {first.key_bits} does not split "
                    f"into {count} coefficients")
            m = first.key_bits // count
            if out_bits is None:
                out_bits = m
            if not 1 <= out_bits <= m:
                raise MalformedError("output length must be in 1..m")
            if second.key_bits != 256:
                raise MalformedError(
                    "computational PRF needs a 256-bit second component")
        self.first = first
        self.second = second
        self.core = core
        self.out_bits = out_bits
        self.q_d = q_d

    def _combine(self, k1: Optional[IkemKey], k2: Optional[IkemKey],
                 c1: bytes, c2: bytes) -> Optional[IkemKey]:
        if self.core == "xor":
            return combine_xor(k1, k2)
        return combine_ptx(k1, k2, c1, c2, self.out_bits, self.q_d)

    def enc(self, rng) -> Tuple[Optional[IkemKey], CombinedCiphertext]:
        k1, c1 = self.first.enc(rng)
        k2, c2 = self.second.enc(rng)
        return self._combine(k1, k2, c1, c2), CombinedCiphertext(c1, c2)

    def dec(self, c: CombinedCiphertext) -> Optional[IkemKey]:
        k1 = self.first.dec(c.c1)
        k2 = self.second.dec(c.c2)
        if k1 is None or k2 is None:
            return None
        return self._combine(k1, k2, c.c1, c.c2)


def serialize_combined(c: CombinedCiphertext) -> bytes:
    return _CMB_HEADER.pack(COMBINED_MAGIC, len(c.c1)) + c.c1 + c.c2


def parse_combined(data: bytes) -> CombinedCiphertext:
    if len(data) < _CMB_HEADER.size:
        raise MalformedError("combined ciphertext shorter than its header")
    magic, c1_len = _CMB_HEADER.unpack_from(data)
    if magic != COMBINED_MAGIC:
        raise MalformedError("bad combined-ciphertext magic")
    rest = data[_CMB_HEADER.size:]
    if len(rest) < c1_len:
        raise MalformedError("combined ciphertext truncated inside c1")
    return CombinedCiphertext(bytes(rest[:c1_len]), bytes(rest[c1_len:]))
