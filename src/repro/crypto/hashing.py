"""Hash primitives used throughout the ledger and storage layers.

All hashes in the system are double SHA-256 (as in Bitcoin), exposed as the
32-byte :class:`Hash32` newtype-ish alias plus helpers for hashing structured
values deterministically.
"""

from __future__ import annotations

import hashlib
import struct
from functools import lru_cache
from typing import Iterable, Union

#: A 32-byte digest.  Plain ``bytes`` at runtime; the alias documents intent.
Hash32 = bytes

#: Number of bytes in a digest.
HASH_SIZE = 32

#: The all-zero hash, used as the previous-hash of the genesis block.
ZERO_HASH: Hash32 = b"\x00" * HASH_SIZE

_BytesLike = Union[bytes, bytearray, memoryview]


def sha256(data: _BytesLike) -> Hash32:
    """Single SHA-256 of ``data``."""
    return hashlib.sha256(bytes(data)).digest()


def sha256d(data: _BytesLike) -> Hash32:
    """Double SHA-256 of ``data`` (Bitcoin-style block/tx hashing)."""
    return hashlib.sha256(hashlib.sha256(bytes(data)).digest()).digest()


@lru_cache(maxsize=1 << 16)
def hash_concat(left: Hash32, right: Hash32) -> Hash32:
    """Hash the concatenation of two digests (Merkle inner node).

    Memoized: rebuilding the Merkle tree of a block another node already
    built (body deserialization, SPV proof folding) repeats exactly these
    inner-node hashes.
    """
    return sha256d(left + right)


def hash_int(value: int) -> Hash32:
    """Hash an unsigned 64-bit integer deterministically."""
    return sha256d(struct.pack(">Q", value & 0xFFFFFFFFFFFFFFFF))


def hash_str(value: str) -> Hash32:
    """Hash a unicode string (UTF-8 encoded)."""
    return sha256d(value.encode("utf-8"))


def hash_fields(*fields: _BytesLike) -> Hash32:
    """Hash a sequence of byte fields with length framing.

    Length framing makes the encoding injective: ``hash_fields(b"ab", b"c")``
    differs from ``hash_fields(b"a", b"bc")``.
    """
    hasher = hashlib.sha256()
    for field in fields:
        raw = bytes(field)
        hasher.update(struct.pack(">I", len(raw)))
        hasher.update(raw)
    return hashlib.sha256(hasher.digest()).digest()


def hex_digest(digest: Hash32) -> str:
    """Render a digest as lowercase hex for logs and debugging."""
    return digest.hex()


def short_hex(digest: Hash32, length: int = 8) -> str:
    """First ``length`` hex characters of a digest, for compact display."""
    return digest.hex()[:length]


def xor_bytes(chunks: Iterable[_BytesLike]) -> bytes:
    """XOR an iterable of equal-length byte strings (parity computation).

    Each chunk is read as one little-endian integer, so the whole fold is
    C-level big-integer XOR; ``tests/test_hashing.py`` keeps a per-byte
    reference fold to compare against.

    Raises:
        ValueError: if the iterable is empty or lengths differ.
    """
    length: int | None = None
    folded = 0
    for chunk in chunks:
        raw = bytes(chunk)
        if length is None:
            length = len(raw)
        elif len(raw) != length:
            raise ValueError(
                f"xor_bytes requires equal lengths, got {length} and {len(raw)}"
            )
        folded ^= int.from_bytes(raw, "little")
    if length is None:
        raise ValueError("xor_bytes requires at least one chunk")
    return folded.to_bytes(length, "little")
