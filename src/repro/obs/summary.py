"""Aggregation pass over a trace: latency percentiles and node timelines.

Turns the raw event stream of one :class:`~repro.obs.tracer.Tracer` into
the numbers the paper's flow claims are argued with:

* per-message-kind **queue-latency histograms** (p50/p95/p99 in virtual
  time) from the deliver spans;
* per-node **send/receive/bytes timelines**, bucketed over the trace's
  virtual-time span (rendered as activity sparklines by
  :func:`repro.analysis.report.render_trace_summary`);
* the phase spans, so a trace reads as a story.

Everything here is a pure function of the event stream — summarizing a
fixed-seed run is itself deterministic (wall stamps are ignored).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil
from typing import Iterable

from repro.obs.tracer import (
    NODE_GROUP,
    PHASE_TRACK,
    SPAN,
    TraceEvent,
    Tracer,
)

#: Virtual-time buckets per node-activity timeline.
TIMELINE_BUCKETS = 16


def percentile(sorted_values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending-sorted, non-empty list."""
    if not sorted_values:
        raise ValueError("percentile of an empty list")
    rank = ceil(fraction * len(sorted_values))
    return sorted_values[max(rank, 1) - 1]


@dataclass
class KindLatency:
    """Queue-latency distribution of one message kind (virtual seconds)."""

    kind: str
    count: int = 0
    unmatched: int = 0  # deliveries with no witnessed send (relays, dups)
    p50: float = 0.0
    p95: float = 0.0
    p99: float = 0.0
    mean: float = 0.0
    max: float = 0.0

    def fill(self, samples: list[float]) -> None:
        """Set the count and distribution from raw latency samples.

        Sorts ``samples`` in place; an empty list leaves the entry at
        count 0 (a kind that was only ever delivered unmatched).
        """
        if not samples:
            return
        samples.sort()
        self.count = len(samples)
        self.p50 = percentile(samples, 0.50)
        self.p95 = percentile(samples, 0.95)
        self.p99 = percentile(samples, 0.99)
        self.mean = sum(samples) / len(samples)
        self.max = samples[-1]

    def as_dict(self) -> dict[str, float]:
        """Plain-dict view (chaos outcomes embed these)."""
        return {
            "count": self.count,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "max": self.max,
        }


@dataclass
class NodeActivity:
    """One node's traffic over the trace (plus a bucketed timeline)."""

    label: str
    node_id: int
    sends: int = 0
    receives: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    first_ts: float | None = None
    last_ts: float | None = None
    #: Events per virtual-time bucket (``TIMELINE_BUCKETS`` bins over
    #: the whole trace span).
    timeline: list[int] = field(default_factory=list)


@dataclass
class TraceSummary:
    """The aggregation of one trace."""

    events: int = 0
    recorded: int = 0
    evicted: int = 0
    t_start: float = 0.0
    t_end: float = 0.0
    kinds: dict[str, KindLatency] = field(default_factory=dict)
    nodes: dict[tuple, NodeActivity] = field(default_factory=dict)
    phases: list[tuple[str, float, float]] = field(default_factory=list)

    @property
    def span_seconds(self) -> float:
        """Virtual seconds between the first and last event."""
        return self.t_end - self.t_start

    def latency_percentiles(self) -> dict[str, dict[str, float]]:
        """Per-kind percentile dicts (the chaos report embeds these)."""
        return {
            kind: latency.as_dict()
            for kind, latency in sorted(self.kinds.items())
        }


def summarize(
    source: Tracer | Iterable[TraceEvent],
    buckets: int = TIMELINE_BUCKETS,
) -> TraceSummary:
    """Aggregate a tracer (or raw event list) into a :class:`TraceSummary`."""
    if isinstance(source, Tracer):
        events = source.events()
        recorded, evicted = source.recorded, source.evicted
    else:
        events = list(source)
        recorded, evicted = len(events), 0
    summary = TraceSummary(
        events=len(events), recorded=recorded, evicted=evicted
    )
    if not events:
        return summary
    summary.t_start = min(e.ts for e in events)
    summary.t_end = max(e.ts + e.dur for e in events)

    latencies: dict[str, list[float]] = {}
    for event in events:
        group = event.track[0]
        if group == NODE_GROUP:
            label, node_id = event.track[1]
            node = summary.nodes.get(event.track[1])
            if node is None:
                node = summary.nodes[event.track[1]] = NodeActivity(
                    label=label, node_id=node_id
                )
            size = (event.args or {}).get("bytes", 0)
            if event.category == "send":
                node.sends += 1
                node.bytes_sent += size
            elif event.category == "deliver":
                node.receives += 1
                node.bytes_received += size
                kind = latencies.setdefault(event.name, [])
                if event.phase == SPAN:
                    kind.append(event.dur)
                else:
                    entry = summary.kinds.setdefault(
                        event.name, KindLatency(kind=event.name)
                    )
                    entry.unmatched += 1
            else:
                continue
            end = event.ts + event.dur
            node.first_ts = (
                event.ts
                if node.first_ts is None
                else min(node.first_ts, event.ts)
            )
            node.last_ts = (
                end if node.last_ts is None else max(node.last_ts, end)
            )
        elif event.track == PHASE_TRACK and event.phase == SPAN:
            summary.phases.append((event.name, event.ts, event.dur))

    for kind, samples in latencies.items():
        summary.kinds.setdefault(kind, KindLatency(kind=kind)).fill(samples)

    _fill_timelines(summary, events, buckets)
    summary.phases.sort(key=lambda p: (p[1], -p[2], p[0]))
    return summary


def _fill_timelines(
    summary: TraceSummary, events: list[TraceEvent], buckets: int
) -> None:
    span = summary.span_seconds
    for node in summary.nodes.values():
        node.timeline = [0] * buckets
    if buckets < 1 or not summary.nodes:
        return
    scale = (buckets / span) if span > 0 else 0.0
    for event in events:
        if event.track[0] != NODE_GROUP:
            continue
        if event.category not in ("send", "deliver"):
            continue
        node = summary.nodes[event.track[1]]
        index = int((event.ts - summary.t_start) * scale)
        node.timeline[min(index, buckets - 1)] += 1
