"""Per-layer metrics of one traced pass, with the coverage cross-checks."""

from __future__ import annotations

import os

import numpy as np

from layers import LAYERS
from spans import ROOT_SPAN, self_time_by_name

#: Allowed gap between summed self times and the traced wall (float
#: rounding only: the self times of a span tree add up to its root).
SUM_TOLERANCE_S = 1e-6


def layer_of(span_name: str) -> str:
    return span_name.split(":", 1)[0]


def count_of(counts: dict[str, int], layer: str, suffix: str) -> int:
    """Calls of every ``layer`` span whose name ends with ``suffix``."""
    return sum(
        count
        for name, count in counts.items()
        if layer_of(name) == layer and name.endswith(suffix)
    )


def layer_self_times(recorder) -> tuple[dict[str, float], float, int]:
    """(self seconds per layer, summed root-span wall, root spans)."""
    columns = recorder.arrays()
    per_name = self_time_by_name(
        columns["name"], columns["start"], columns["end"], columns["parent"],
        len(recorder.names),
    )
    totals = {layer: 0.0 for layer in LAYERS}
    for name, seconds in zip(recorder.names, per_name):
        totals[layer_of(name)] += float(seconds)
    roots = columns["parent"] < 0
    root_wall = float(np.sum(columns["end"][roots] - columns["start"][roots]))
    return totals, root_wall, int(np.sum(roots))


def layer_metrics(instrumentation, result):
    """(per-layer metrics, cross-check violations) of one traced pass.

    ``trace.overhead_s`` is left out: it needs an untraced pass, which
    runs in another process.
    """
    recorder = instrumentation.recorder
    counts = instrumentation.counts()
    c = result.counters
    self_s, traced_wall, n_roots = layer_self_times(recorder)
    problems = []
    if not recorder.balanced:
        problems.append("span stack not balanced at the end of the pass")
    if n_roots != 1 or counts.get(ROOT_SPAN) != 1:
        problems.append(f"{n_roots} root spans; expected only {ROOT_SPAN}")
    if abs(sum(self_s.values()) - traced_wall) > SUM_TOLERANCE_S:
        problems.append(
            f"layer self times sum to {sum(self_s.values()):.6f} s, "
            f"traced wall is {traced_wall:.6f} s"
        )
    if instrumentation.clock.events != c["events"]:
        problems.append(
            f"step wrapper saw {instrumentation.clock.events} events, "
            f"SimClock.processed advanced by {c['events']}"
        )
    deliveries = counts.get("network:Network._deliver", 0)
    seen = deliveries + instrumentation.network.send_drops
    if seen != c["messages"] + c["dropped"]:
        problems.append(
            f"network wrappers saw {seen} deliveries + send drops, traffic "
            f"ledger + drop counter hold {c['messages'] + c['dropped']}"
        )
    metrics = {f"{layer}.self_s": seconds for layer, seconds in self_s.items()}
    metrics.update({
        "simclock.events": instrumentation.clock.events,
        "simclock.peak_pending": instrumentation.clock.peak_pending,
        "latency.calls": count_of(counts, "latency", ".total_delay"),
        "network.messages": c["messages"],
        "network.bytes": c["bytes"],
        "network.dropped": c["dropped"],
        "gossip.announces": c["announces"],
        "gossip.duplicate_share": (
            c["duplicate_announces"] / c["announces"] if c["announces"] else 0.0
        ),
        "router.dispatches": counts.get("router:MessageRouter.dispatch", 0),
        "router.unaccounted_sends": (
            c["messages"] + c["dropped"] - c["router_sends"]
        ),
        "intracluster.votes": c["votes"],
        "query.reads": c["reads"],
        "query.attempts_per_read": (
            c["read_attempts"] / c["reads"] if c["reads"] else 0.0
        ),
        "reliability.retries": c["retries"],
        "reliability.timeouts": c["timeouts"],
        "reliability.degraded": c["degraded"],
        "repair.sweeps": c["sweeps"],
        "repair.blocks_re_replicated": c["blocks_re_replicated"],
        "chain.bodies_deserialized": counts.get("chain:deserialize_body", 0),
        "crypto.verifies": counts.get("crypto:verify", 0),
        "placement.calls": count_of(counts, "placement", ".holders"),
        "coded.reconstructions": c["reconstructions"],
        "coded.chunk_bytes_read": c["chunk_bytes_read"],
        "faults.intercepts": counts.get("faults:FaultInjector.intercept", 0),
        "obs.trace_events": result.sim.get("trace_events", 0),
        "trace.spans": len(recorder),
    })
    return metrics, problems


def save_spans(recorder, out_dir: str, workload: str, seed: int) -> str:
    """Write a traced pass's spans to ``out_dir``; returns the path."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{workload}-seed{seed}.npz")
    recorder.save(path)
    return path
