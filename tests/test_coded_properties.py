"""Property-based tests (hypothesis) for the GF(256) Reed–Solomon codec.

The archival tier (``repro.storage.coded``) stakes cluster durability on
this codec, so the battery is exhaustive where it matters: for every
drawn ``(k, n, body)`` the round-trip is checked under **every** loss
pattern of up to ``n - k`` chunks, and the first pattern past the MDS
bound must be rejected loudly.  ``derandomize=True`` keeps CI
deterministic — hypothesis explores the same example set every run.

The codec fuzz smoke step in the workflow runs this file under the
bounded ``ci`` profile from ``tests/conftest.py``
(``HYPOTHESIS_PROFILE=ci``); the default profile matches
``tests/test_properties.py``.
"""

from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.block import BlockHeader
from repro.crypto.hashing import ZERO_HASH, sha256
from repro.errors import StorageError
from repro.storage.erasure import rs_decode, rs_encode, rs_shard_length
from repro.storage.placement import RendezvousPlacement

SETTINGS = settings(derandomize=True, max_examples=60, deadline=None)


def header_at(height: int, salt: int = 0) -> BlockHeader:
    return BlockHeader(
        height=height,
        prev_hash=ZERO_HASH,
        merkle_root=sha256(f"coded-{salt}-{height}".encode()),
        timestamp=float(height),
        nonce=height,
    )


code_shape = st.tuples(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=3),
).map(lambda pair: (pair[0], pair[0] + pair[1]))

body_strategy = st.binary(min_size=0, max_size=160)


class TestReedSolomonProperties:
    @SETTINGS
    @given(shape=code_shape, body=body_strategy)
    def test_every_loss_pattern_within_bound_round_trips(self, shape, body):
        """MDS contract: any ``<= n - k`` erasures recover byte-exact."""
        k, n = shape
        chunks = rs_encode(body, k, n)
        assert len(chunks) == n
        indices = range(n)
        for losses in range(n - k + 1):
            for lost in combinations(indices, losses):
                present = {
                    index: chunks[index]
                    for index in indices
                    if index not in lost
                }
                assert rs_decode(present, k, n, len(body)) == body

    @SETTINGS
    @given(shape=code_shape, body=body_strategy, data=st.data())
    def test_one_past_the_bound_is_rejected(self, shape, body, data):
        """``n - k + 1`` erasures must raise, never return garbage."""
        k, n = shape
        chunks = rs_encode(body, k, n)
        lost = data.draw(
            st.permutations(range(n)).map(lambda p: set(p[: n - k + 1]))
        )
        present = {
            index: chunks[index]
            for index in range(n)
            if index not in lost
        }
        with pytest.raises(StorageError):
            rs_decode(present, k, n, len(body))

    @SETTINGS
    @given(shape=code_shape, body=body_strategy)
    def test_padding_is_exact_for_arbitrary_lengths(self, shape, body):
        """Shards share one ceil(len/k) length; decode strips the pad."""
        k, n = shape
        chunks = rs_encode(body, k, n)
        shard_len = rs_shard_length(len(body), k)
        assert all(len(chunk) == shard_len for chunk in chunks)
        assert shard_len * k >= len(body)
        assert shard_len * k - len(body) < max(k, 1)
        # Systematic prefix: data chunks are the body verbatim.
        assert b"".join(chunks[:k])[: len(body)] == body
        decoded = rs_decode(dict(enumerate(chunks)), k, n, len(body))
        assert decoded == body
        assert len(decoded) == len(body)

    @SETTINGS
    @given(shape=code_shape, body=body_strategy)
    def test_encode_decode_deterministic_across_repetitions(
        self, shape, body
    ):
        """Same input → byte-identical chunks and decode, every time."""
        k, n = shape
        first = rs_encode(body, k, n)
        for _ in range(3):
            assert rs_encode(body, k, n) == first
        survivors = {index: first[index] for index in range(n - k, n)}
        reference = rs_decode(survivors, k, n, len(body))
        for _ in range(3):
            assert rs_decode(survivors, k, n, len(body)) == reference

    @SETTINGS
    @given(
        members=st.lists(
            st.integers(min_value=0, max_value=10_000),
            min_size=4,
            max_size=12,
            unique=True,
        ),
        height=st.integers(min_value=0, max_value=500),
        shape=code_shape,
    )
    def test_chunk_placement_is_distinct(self, members, height, shape):
        """The archival tier never co-locates two chunks of one block."""
        _, n = shape
        if n > len(members):
            return
        holders = RendezvousPlacement().holders(
            header_at(height), members, n
        )
        assert len(holders) == n
        assert len(set(holders)) == n
        assert set(holders) <= set(members)

    def test_shape_validation(self):
        with pytest.raises(StorageError):
            rs_encode(b"x", 0, 1)
        with pytest.raises(StorageError):
            rs_encode(b"x", 3, 2)
        with pytest.raises(StorageError):
            rs_encode(b"x", 2, 257)
        with pytest.raises(StorageError):
            rs_decode({0: b""}, 1, 1, -1)

    def test_wrong_length_survivor_rejected(self):
        chunks = rs_encode(b"hello world", 3, 5)
        bad = {0: chunks[0], 1: chunks[1], 2: chunks[2] + b"\x00"}
        with pytest.raises(StorageError):
            rs_decode(bad, 3, 5, 11)

    def test_out_of_range_index_rejected(self):
        chunks = rs_encode(b"hello world", 2, 3)
        with pytest.raises(StorageError):
            rs_decode({0: chunks[0], 7: chunks[1]}, 2, 3, 11)

    def test_empty_body_round_trips(self):
        chunks = rs_encode(b"", 3, 5)
        assert all(chunk == b"" for chunk in chunks)
        assert rs_decode({0: b"", 3: b"", 4: b""}, 3, 5, 0) == b""
