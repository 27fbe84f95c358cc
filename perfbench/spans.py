"""In-memory span recording and self-time attribution.

A :class:`SpanRecorder` hands out wrappers for plain functions.  While
recording is on, every call to a wrapped function appends one span —
``(name, start, end, parent, group)`` — to flat arrays; the parent is the
span that was open when the call began, so the arrays form a forest in
call order.  Nothing is aggregated while the workload runs: the self time
of each span (its duration minus the time its direct children cover) is
computed afterwards by :func:`self_times`, and :meth:`SpanRecorder.save`
writes the raw spans out once the run ends.
"""

from __future__ import annotations

import functools
from array import array
from time import perf_counter

import numpy as np

NO_PARENT = -1
#: The root span covering one whole timed phase; its self time is the
#: part of the phase no layer span covers.
ROOT_SPAN = "other:timed"


class SpanRecorder:
    """Flat, append-only span storage plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.group = array("i")
        self._stack = [NO_PARENT]
        #: Id stamped on every new span: the benchmark bumps it per block,
        #: read round and chaos phase, so their spans can be regrouped.
        self.current_group = 0
        self.on = False

    # ------------------------------------------------------------ naming
    def name_id(self, name: str) -> int:
        """The integer id of ``name`` (allocated on first use)."""
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # ---------------------------------------------------------- recording
    def clear(self) -> None:
        """Drop every recorded span (names and ids are kept)."""
        for column in (self.name, self.start, self.end, self.parent, self.group):
            del column[:]
        self._stack[:] = [NO_PARENT]
        self.current_group = 0

    def __len__(self) -> int:
        return len(self.name)

    @property
    def balanced(self) -> bool:
        """Has every opened span been closed?"""
        return self._stack == [NO_PARENT]

    def open(self, nid: int) -> int:
        """Open a span now; returns its index for :meth:`close`."""
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.group.append(self.current_group)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        """Close the span ``idx`` now."""
        self.end[idx] = perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str):
        """A wrapper recording one span named ``name`` per call of ``fn``."""
        nid = self.name_id(name)
        open_span = self.open
        close_span = self.close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            idx = open_span(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(idx)

        return traced

    # ------------------------------------------------------------ results
    def arrays(self) -> dict[str, np.ndarray]:
        """The spans as numpy columns (copies)."""
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "group": np.frombuffer(self.group, dtype=np.int32).copy(),
        }

    def save(self, path) -> None:
        """Write the spans and the name table to ``path`` (``.npz``)."""
        np.savez_compressed(
            path, names=np.array(self.names, dtype=str), **self.arrays()
        )


def self_times(
    start: np.ndarray, end: np.ndarray, parent: np.ndarray
) -> np.ndarray:
    """Per-span self time: duration minus the durations of direct children.

    Children of one parent never overlap (calls nest), so subtracting the
    summed durations of the direct children leaves exactly the time the
    span spent in its own code.  The self times of a whole tree therefore
    add up to the root's duration.
    """
    duration = np.asarray(end, dtype=np.float64) - np.asarray(
        start, dtype=np.float64
    )
    parent = np.asarray(parent)
    has_parent = parent >= 0
    covered = np.bincount(
        parent[has_parent],
        weights=duration[has_parent],
        minlength=len(duration),
    )
    return duration - covered


def self_time_by_name(
    name: np.ndarray,
    start: np.ndarray,
    end: np.ndarray,
    parent: np.ndarray,
    n_names: int,
) -> np.ndarray:
    """Summed self time per name id (index = name id)."""
    return np.bincount(
        np.asarray(name),
        weights=self_times(start, end, parent),
        minlength=n_names,
    )
