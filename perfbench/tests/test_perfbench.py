"""Tests for the benchmark's own code (not for the simulator).

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

import run
from layers import Instrumentation
from spans import SpanRecorder, self_time_by_name, self_times
from traced import layer_metrics
from workloads import WORKLOADS, BlockTimer, Ingest, PassResult, run_pass

from repro.sim.scenario import Scenario

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


class SmallIngest(Ingest):
    """The ingest workload at unit-test scale (same code paths)."""

    scenario = Scenario(n_nodes=24, n_groups=3, replication=1)
    blocks = 3
    txs_per_block = 2


def one_pass(workload, seed, recorder=None):
    with BlockTimer(recorder) as timer:
        return run_pass(workload, workload.setup(seed), timer, recorder)


# ------------------------------------------------------------ self time
def test_self_times_nested_and_sibling_children():
    # root [0, 10] has children A [1, 4] and B [5, 9]; A has A1 [2, 3].
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    parent = np.array([-1, 0, 1, 0])
    assert self_times(start, end, parent).tolist() == [3.0, 2.0, 1.0, 4.0]
    # A and A1 share a name: their self times add up per name.
    by_name = self_time_by_name(np.array([0, 1, 1, 2]), start, end, parent, 3)
    assert by_name.tolist() == [3.0, 3.0, 4.0]
    assert by_name.sum() == end[0] - start[0]


def test_recorder_records_parents_groups_and_nothing_when_off():
    recorder = SpanRecorder()
    inner = recorder.wrap(lambda: None, "x:inner")
    outer = recorder.wrap(lambda: (inner(), inner()), "x:outer")
    outer()
    assert len(recorder) == 0
    recorder.on = True
    recorder.current_group = 7
    outer()
    columns = recorder.arrays()
    assert [recorder.names[n] for n in columns["name"]] == [
        "x:outer", "x:inner", "x:inner",
    ]
    assert columns["parent"].tolist() == [-1, 0, 0]
    assert columns["group"].tolist() == [7, 7, 7]
    assert recorder.balanced
    assert (columns["end"] >= columns["start"]).all()


# ------------------------------------------------------ failure counting
class Raising(SmallIngest):
    """Raises after its first block: the rest were never produced."""

    def run(self, prepared, result, timer):
        runner = prepared["runner"]
        prepared["hashes"] = runner.produce_blocks(1, txs_per_block=2).block_hashes
        raise RuntimeError("boom")


def test_raising_workload_counts_unfinished_operations_as_failed():
    result = one_pass(Raising(), seed=1)
    assert result.error == "RuntimeError: boom"
    assert result.attempted == 3 and result.ok == 1 and result.failed == 2
    assert result.violations == ["raised RuntimeError: boom"]
    clean = one_pass(SmallIngest(), seed=1)
    assert clean.failed == 0 and not clean.violations
    share, failed, attempted = run.failed_share([result, clean])
    assert (failed, attempted) == (2, 6)
    assert share == pytest.approx(2 / 6)


def test_normalized_walls_scale_by_the_adjacent_reference_sample():
    nominal = run.reference.NOMINAL_S
    slow = PassResult(
        wall_s=2.0,
        block_walls=[0.2, 0.4],
        block_refs=[2 * nominal, 4 * nominal],
        segments=[1.0, 0.8, 0.2],
        refs=[2 * nominal, 4 * nominal, 2 * nominal],
    )
    walls, blocks = run.normalized_walls([slow])
    assert walls == [pytest.approx(0.5 + 0.2 + 0.1)]
    assert blocks == [pytest.approx(0.1), pytest.approx(0.1)]


# ------------------------------------------------------ seed plumbing
def test_same_seed_same_signature_other_seed_differs():
    first = one_pass(SmallIngest(), seed=1).signature
    again = one_pass(SmallIngest(), seed=1).signature
    other = one_pass(SmallIngest(), seed=2).signature
    assert first == again
    assert first != other


def test_signature_violations():
    sig = {"events": 1, "virtual_seconds": 0.5}
    assert run.signature_violations("w", 1, [sig, dict(sig)], {}) == []
    assert run.signature_violations("w", 1, [sig, {"events": 2}], {}) == [
        "simulated signature differs across passes"
    ]
    stored = {"w": {"1": {"events": 1, "virtual_seconds": 0.25}}}
    assert run.signature_violations("w", 1, [sig], stored) == [
        "simulated signature differs from signatures.json"
    ]
    assert run.signature_violations("w", 2, [sig], stored) == []


# ------------------------------------------------------ instrumentation
def test_traced_pass_observes_only_and_passes_cross_checks():
    import repro.chain.block as block
    import repro.net.network as network
    import repro.storage.coded as coded

    untraced = one_pass(SmallIngest(), seed=3)
    originals = (network.Network.send, block.deserialize_body)
    instrumentation = Instrumentation()
    with instrumentation:
        assert network.Network.send is not originals[0]
        # The ``from x import f`` use site is repointed too.
        assert coded.deserialize_body is block.deserialize_body
        assert block.deserialize_body is not originals[1]
        traced = one_pass(SmallIngest(), 3, instrumentation.recorder)
        metrics, problems = layer_metrics(instrumentation, traced)
    assert (network.Network.send, block.deserialize_body) == originals
    assert coded.deserialize_body is originals[1]
    assert problems == []
    assert traced.signature == untraced.signature
    assert metrics["simclock.events"] == traced.events > 0
    assert metrics["faults.self_s"] == 0 and metrics["faults.intercepts"] == 0
    assert metrics["obs.self_s"] == 0 and metrics["coded.self_s"] == 0
    assert metrics["network.self_s"] > 0 and metrics["gossip.announces"] > 0
    assert sum(v for k, v in metrics.items() if k.endswith(".self_s")) == (
        pytest.approx(traced.wall_s, abs=1e-3)
    )


# ------------------------------------------------------ BENCHMARK.json
def test_benchmark_json_matches_run_py():
    with open(os.path.join(REPO, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
