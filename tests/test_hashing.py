"""Unit tests for repro.crypto.hashing.

The ``xor_bytes`` property also runs in the workflow's codec fuzz smoke
step under the bounded ``ci`` Hypothesis profile registered in
``tests/conftest.py`` (``HYPOTHESIS_PROFILE=ci``).
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto import hashing


def reference_xor_bytes(chunks):
    """The per-byte fold ``xor_bytes`` replaced, kept as its reference."""
    result = None
    for chunk in chunks:
        raw = bytes(chunk)
        if result is None:
            result = bytearray(raw)
        else:
            assert len(raw) == len(result)
            for i, byte in enumerate(raw):
                result[i] ^= byte
    assert result is not None
    return bytes(result)


@st.composite
def equal_length_chunks(draw):
    """1–6 chunks of one length in 0–300, each bytes/bytearray/memoryview."""
    length = draw(st.integers(min_value=0, max_value=300))
    count = draw(st.integers(min_value=1, max_value=6))
    chunks = []
    for _ in range(count):
        raw = draw(st.binary(min_size=length, max_size=length))
        wrap = draw(st.sampled_from([bytes, bytearray, memoryview]))
        chunks.append(wrap(raw))
    return chunks


class TestSha256:
    def test_sha256_known_vector(self):
        # SHA-256("") is a published constant.
        assert (
            hashing.sha256(b"").hex()
            == "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        )

    def test_sha256d_is_double_hash(self):
        data = b"repro"
        assert hashing.sha256d(data) == hashing.sha256(hashing.sha256(data))

    def test_digest_sizes(self):
        assert len(hashing.sha256(b"x")) == hashing.HASH_SIZE
        assert len(hashing.sha256d(b"x")) == hashing.HASH_SIZE
        assert len(hashing.ZERO_HASH) == hashing.HASH_SIZE

    def test_accepts_bytearray_and_memoryview(self):
        raw = b"payload"
        assert hashing.sha256(bytearray(raw)) == hashing.sha256(raw)
        assert hashing.sha256(memoryview(raw)) == hashing.sha256(raw)


class TestStructuredHashing:
    def test_hash_concat_order_matters(self):
        a, b = hashing.sha256(b"a"), hashing.sha256(b"b")
        assert hashing.hash_concat(a, b) != hashing.hash_concat(b, a)

    def test_hash_int_distinct(self):
        assert hashing.hash_int(1) != hashing.hash_int(2)

    def test_hash_int_wraps_to_64_bits(self):
        assert hashing.hash_int(2**64 + 5) == hashing.hash_int(5)

    def test_hash_str_utf8(self):
        assert hashing.hash_str("héllo") == hashing.sha256d(
            "héllo".encode("utf-8")
        )

    def test_hash_fields_injective_framing(self):
        # Without length framing these two would collide.
        assert hashing.hash_fields(b"ab", b"c") != hashing.hash_fields(
            b"a", b"bc"
        )

    def test_hash_fields_empty_ok(self):
        assert len(hashing.hash_fields()) == 32

    @given(st.lists(st.binary(max_size=64), max_size=8))
    def test_hash_fields_deterministic(self, fields):
        assert hashing.hash_fields(*fields) == hashing.hash_fields(*fields)


class TestHexHelpers:
    def test_hex_digest_roundtrip(self):
        digest = hashing.sha256(b"z")
        assert bytes.fromhex(hashing.hex_digest(digest)) == digest

    def test_short_hex_prefix(self):
        digest = hashing.sha256(b"z")
        assert hashing.short_hex(digest, 6) == digest.hex()[:6]


class TestXorBytes:
    def test_xor_identity(self):
        data = b"\x01\x02\x03"
        assert hashing.xor_bytes([data, data]) == b"\x00\x00\x00"

    def test_xor_single_chunk(self):
        assert hashing.xor_bytes([b"\xff"]) == b"\xff"

    def test_xor_empty_raises(self):
        with pytest.raises(ValueError):
            hashing.xor_bytes([])

    def test_xor_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            hashing.xor_bytes([b"\x01", b"\x01\x02"])

    @given(
        st.lists(st.binary(min_size=8, max_size=8), min_size=1, max_size=6)
    )
    def test_xor_is_self_inverse(self, chunks):
        folded = hashing.xor_bytes(chunks)
        assert hashing.xor_bytes([folded, *chunks[1:]]) == chunks[0]

    @given(equal_length_chunks())
    def test_xor_matches_per_byte_reference(self, chunks):
        result = hashing.xor_bytes(chunks)
        assert type(result) is bytes
        assert result == reference_xor_bytes(chunks)
