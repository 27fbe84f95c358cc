"""Property-based tests (hypothesis) for the memoized pair latency.

:class:`repro.net.latency.UniformLatency` draws each unordered pair's
delay once and memoizes it.  The memo must be invisible: whatever pairs
are asked for, in whatever order, every answer equals a fresh draw from
an RNG seeded exactly as the unmemoized model seeded it.

``derandomize=True`` keeps CI deterministic; the ``ci`` profile
(``HYPOTHESIS_PROFILE=ci``) bounds the example count, matching
``tests/test_dht_properties.py``.
"""

from __future__ import annotations

import os
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.latency import UniformLatency

SETTINGS = settings(derandomize=True, max_examples=60, deadline=None)

settings.register_profile(
    "ci", derandomize=True, max_examples=25, deadline=None
)
if os.environ.get("HYPOTHESIS_PROFILE"):
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])

seeds = st.integers(min_value=0, max_value=2**31 - 1)
node_ids = st.integers(min_value=0, max_value=(1 << 20) - 1)
pairs = st.lists(st.tuples(node_ids, node_ids), min_size=1, max_size=40)
bounds = st.tuples(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
).map(sorted)


def fresh_draw(seed: int, a: int, b: int, low: float, high: float) -> float:
    """The delay an unmemoized model returns for ``a != b``."""
    lo, hi = min(a, b), max(a, b)
    key = (seed << 40) ^ (lo << 20) ^ hi
    return random.Random(key).uniform(low, high)


@SETTINGS
@given(seeds, bounds, pairs)
def test_memoized_delay_equals_fresh_draw(seed, low_high, queries):
    low, high = low_high
    model = UniformLatency(low, high, seed=seed)
    # Each pair is asked twice, so the second answer comes from the memo.
    for a, b in queries + queries:
        if a == b:
            assert model.delay(a, b) == 0.0
        else:
            assert model.delay(a, b) == fresh_draw(seed, a, b, low, high)


@SETTINGS
@given(seeds, pairs)
def test_delay_is_symmetric(seed, queries):
    model = UniformLatency(seed=seed)
    for a, b in queries:
        assert model.delay(a, b) == model.delay(b, a)


@SETTINGS
@given(seeds, node_ids)
def test_self_delay_is_zero(seed, node):
    model = UniformLatency(seed=seed)
    assert model.delay(node, node) == 0.0
    assert model.delay(node, node) == 0.0


@SETTINGS
@given(seeds, pairs, st.randoms(use_true_random=False))
def test_query_order_does_not_matter(seed, queries, rng):
    first = UniformLatency(seed=seed)
    second = UniformLatency(seed=seed)
    forward = {(a, b): first.delay(a, b) for a, b in queries}
    shuffled = list(queries)
    rng.shuffle(shuffled)
    for a, b in shuffled:
        assert second.delay(b, a) == forward[(a, b)]
