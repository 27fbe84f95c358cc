"""Cluster-sharded event lanes: ``ShardMap``, mailboxes, ``ShardedClock``.

The single-heap :class:`~repro.net.simclock.SimClock` drains every event
for every node in one global order, which caps the simulator far below
the scale the paper's cluster structure allows.  This module shards the
event queue along the paper's own fault line: almost all ICIStrategy
traffic is intra-cluster, so each cluster gets its own event *lane* (a
private heap with a private ``now``), and the rare cross-cluster events
travel through explicit inter-shard mailboxes flushed at barrier epochs.

Lane model
----------
Shard 0 (:data:`GLOBAL_SHARD`) is the simulator lane: timers scheduled
outside event execution (repair sweeps, request deadlines, outage
flips), plus every endpoint the :class:`ShardMap` does not cover (light
clients, baseline deployments without clusters).  Global-lane events
execute as **barriers** — alone, with every node lane drained strictly
up to their timestamp — so deployment-level events that touch many
nodes' state are ordered exactly as a serial run orders them.

Node lanes advance together through *epoch windows* under conservative
lookahead synchronization.  The lookahead ``L`` is the minimum
cross-shard propagation delay in the latency model: an event executing
at time ``u >= tn`` (the earliest live lane head) can only produce a
cross-shard delivery at ``u + L >= tn + L``, so every event strictly
inside the window ``[tn, min(tn + L, t_global))`` is causally
independent across lanes and may run in any lane interleaving.
Cross-shard deliveries produced during a window land in per-destination
mailboxes and are flushed at the next barrier in deterministic
``(time, source shard, source sequence)`` order.

Determinism
-----------
Simulated metrics (virtual seconds, message/byte counts, events
processed) are order-independent aggregates of the executed event *set*,
and the lane/mailbox protocol preserves that set exactly, so same-seed
runs produce identical simulated metrics regardless of worker
scheduling.  Two situations force full serial coupling (one merged heap
drained in exact ``(time, key)`` order): an attached
:class:`~repro.sim.faults.FaultInjector` (fault decisions are drawn from
one seeded RNG stream in send order, which lane reordering would
change), and a non-positive lookahead.  Coupled mode *is* the serial
schedule — conservative parallel simulation legitimately reduces to
sequential execution under globally-coupled causality.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from time import perf_counter
from typing import TYPE_CHECKING, Any

import math
import threading

from repro.errors import SimulationError
from repro.net.simclock import (
    _ARGS,
    _CALLBACK,
    _TIME,
    EventCallback,
    EventHandle,
    SimClock,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.clustering.membership import ClusterTable
    from repro.net.network import Network

#: The simulator lane: events scheduled outside execution, and every
#: endpoint the shard map does not cover.
GLOBAL_SHARD = 0


class ShardMap:
    """Node-id → shard-id assignment, fed from cluster membership.

    Cluster ``c`` maps to shard ``c + 1`` (shard 0 is reserved for the
    global lane); unmapped ids resolve to :data:`GLOBAL_SHARD`.  The
    ``version`` counter ticks on every rebuild/assignment change so
    callers can cheaply detect re-clustering.
    """

    __slots__ = ("_shard_of", "version")

    def __init__(self) -> None:
        self._shard_of: dict[int, int] = {}
        self.version = 0

    def __len__(self) -> int:
        return len(self._shard_of)

    def shard_of(self, node_id: int) -> int:
        """The shard owning ``node_id`` (:data:`GLOBAL_SHARD` if unmapped)."""
        return self._shard_of.get(node_id, GLOBAL_SHARD)

    def assign(self, node_id: int, shard: int) -> None:
        """Pin ``node_id`` to ``shard`` (churn-time single-node update)."""
        if shard < 0:
            raise SimulationError(f"shard ids are non-negative ({shard=})")
        self._shard_of[node_id] = shard
        self.version += 1

    def remove(self, node_id: int) -> None:
        """Drop a departed node's assignment (no-op when unmapped)."""
        if self._shard_of.pop(node_id, None) is not None:
            self.version += 1

    def rebuild(self, clusters: "ClusterTable") -> None:
        """Re-derive the full map from a cluster table.

        Cluster ids are dense, so shard ids are too (offset by one for
        the reserved global lane).
        """
        self._shard_of = {
            node_id: view.cluster_id + 1
            for view in clusters.views()
            for node_id in view.members
        }
        self.version += 1

    def shards(self) -> list[int]:
        """Sorted distinct shard ids currently assigned (without 0)."""
        return sorted(set(self._shard_of.values()))


class _Lane:
    """One shard's private event heap and clock state."""

    __slots__ = ("shard", "heap", "now", "processed", "mail_seq")

    def __init__(self, shard: int) -> None:
        self.shard = shard
        self.heap: list[list] = []
        self.now = 0.0
        self.processed = 0
        self.mail_seq = 0


# One process-wide thread pool shared by every ShardedClock: the
# simulator is single-threaded at the top level, so clocks never drain
# concurrently, and sharing avoids leaking worker threads across the
# many deployments a bench run constructs.  The atexit hook tears the
# pool down before interpreter finalization — a live pool at shutdown
# raises spurious errors from its own management threads.
_POOL = None
_POOL_SIZE = 0
_POOL_GUARD = threading.Lock()


def _shutdown_pool() -> None:
    global _POOL, _POOL_SIZE
    with _POOL_GUARD:
        if _POOL is not None:
            _POOL.terminate()
            _POOL.join()
            _POOL = None
            _POOL_SIZE = 0


def _shared_pool(workers: int):
    global _POOL, _POOL_SIZE
    with _POOL_GUARD:
        if _POOL is None or _POOL_SIZE < workers:
            from multiprocessing.pool import ThreadPool

            if _POOL is not None:
                _POOL.terminate()
            elif _POOL_SIZE == 0:
                import atexit

                atexit.register(_shutdown_pool)
            _POOL = ThreadPool(workers)
            _POOL_SIZE = workers
        return _POOL


class ShardedClock(SimClock):
    """Per-shard event lanes behind the :class:`SimClock` API.

    Drop-in for :class:`SimClock`: ``now``/``pending``/``processed``/
    ``schedule``/``schedule_at``/``run``/``run_until``/``run_for``/
    ``attach_tracer`` all behave identically from the caller's side.
    Internally events route to per-shard lanes and drain in epoch
    windows (see module docstring); with ``workers > 1`` the eligible
    lanes of one window drain on a thread pool, with a shared execution
    lock serializing callbacks so shared aggregates (traffic ledger,
    metrics counters) update exactly.

    Process-based workers are deliberately out of scope here: the
    deployment object graph (nodes, ledger, bound-method callbacks) is
    not picklable, so lanes share the interpreter and the mailbox flush
    is the serialization boundary a future process backend would ship
    batches across.  Under the GIL the thread pool validates the
    lane/mailbox protocol and its determinism rather than buying
    wall-clock speedup for pure-Python callbacks.
    """

    def __init__(self, max_events: int = 50_000_000, workers: int = 1) -> None:
        super().__init__(max_events)
        if workers < 1:
            raise SimulationError(f"need at least one worker ({workers=})")
        self.shard_map = ShardMap()
        self.workers = workers
        self._lanes: dict[int, _Lane] = {GLOBAL_SHARD: _Lane(GLOBAL_SHARD)}
        self._mailboxes: dict[int, list] = {}
        self._coupled = False
        self._couple_pending = False
        self._draining = False
        self._lookahead = math.inf
        self._lookahead_dirty = True
        self._network: "Network | None" = None
        self._exec_lock = threading.Lock()
        self._tls = threading.local()
        self._epoch = 0

    # ------------------------------------------------------------- queries
    @property
    def now(self) -> float:
        """Current virtual time: the executing lane's, else the outer clock."""
        lane = getattr(self._tls, "lane", None)
        if lane is not None:
            return lane.now
        return self._now

    @property
    def processed(self) -> int:
        """Total events executed across the coupled heap and every lane."""
        return self._processed + sum(
            lane.processed for lane in self._lanes.values()
        )

    @property
    def coupled(self) -> bool:
        """Is the clock running one merged heap in exact serial order?"""
        return self._coupled

    @property
    def lookahead(self) -> float:
        """The current conservative window width (cross-shard min delay)."""
        self._ensure_lookahead()
        return self._lookahead

    def lane_times(self) -> dict[int, float]:
        """Each lane's local ``now`` (diagnostics/tests)."""
        return {lane.shard: lane.now for lane in self._lanes.values()}

    # ------------------------------------------------------------- binding
    def bind_network(self, network: "Network") -> None:
        """Attach the network whose latency model bounds the lookahead."""
        self._network = network
        self._lookahead_dirty = True

    def note_membership_change(self) -> None:
        """An endpoint registered/unregistered: lookahead must rescan."""
        self._lookahead_dirty = True

    def remap_shards(self, clusters: "ClusterTable") -> None:
        """Re-derive the shard map from cluster membership.

        Called by deployments on (re-)clustering and churn.  A remap
        while node lanes still hold in-flight events would leave those
        events homed by the *old* map, and migrating them cannot
        reproduce the serial tie order deterministically — so that case
        conservatively collapses the clock into the serial-exact coupled
        schedule.  The common cases (initial clustering, churn applied
        at quiescence) keep their heaps empty and stay sharded.

        A remap *during* a drain (a departure finalizing inside an
        executing callback) rebuilds the map immediately — callbacks
        are serialized by the execution lock, so routing stays
        race-free — and defers the coupling to the next barrier, where
        the epoch loop is single-threaded and lane heaps are quiescent.
        """
        self.shard_map.rebuild(clusters)
        self._lookahead_dirty = True
        if self._coupled:
            return
        if self._draining:
            self._couple_pending = True
            return
        if any(
            lane.shard != GLOBAL_SHARD and self._live_head(lane) is not None
            for lane in self._lanes.values()
        ):
            self.set_coupled()

    def set_coupled(self) -> None:
        """Collapse every lane into one heap drained in exact serial order.

        Engaged automatically when a fault injector attaches (its RNG
        stream is consumed in send order) or the lookahead is
        non-positive.  Keys are globally monotone across lanes, so the
        merged heap replays the exact serial ``(time, key)`` schedule.
        """
        if self._coupled:
            return
        if self._draining:
            raise SimulationError("cannot couple the clock during a drain")
        self._flush_mail()
        merged = self._heap
        for shard in sorted(self._lanes):
            lane = self._lanes[shard]
            merged.extend(lane.heap)
            lane.heap.clear()
            self._now = max(self._now, lane.now)
        heapify(merged)
        self._coupled = True

    # ----------------------------------------------------------- scheduling
    def schedule(
        self, delay: float, callback: EventCallback, *args: Any
    ) -> EventHandle:
        """See :meth:`SimClock.schedule`; ``now`` is lane-local."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past ({delay=})")
        return self.schedule_at(self.now + delay, callback, *args)

    def post(self, delay: float, callback: EventCallback, *args: Any) -> None:
        """See :meth:`SimClock.post`; routed through :meth:`schedule_at`
        so lanes and coupled mode behave as for :meth:`schedule`."""
        self.schedule(delay, callback, *args)

    def schedule_at(
        self, time: float, callback: EventCallback, *args: Any
    ) -> EventHandle:
        """Schedule into the executing lane, or the global lane outside
        event execution (coupled mode uses the single serial heap)."""
        if self._coupled:
            return super().schedule_at(time, callback, *args)
        lane = getattr(self._tls, "lane", None)
        if lane is None:
            lane = self._lanes[GLOBAL_SHARD]
            if time < self._now:
                raise SimulationError(
                    f"cannot schedule at {time} before now={self._now}"
                )
        elif time < lane.now:
            raise SimulationError(
                f"cannot schedule at {time} before now={lane.now}"
            )
        return self._push(lane, time, callback, args)

    def schedule_message(
        self, delay: float, callback: EventCallback, message: Any
    ) -> None:
        """Schedule a delivery into the recipient's lane.

        The :class:`~repro.net.network.Network` send path lands here:
        same-lane and outside-drain deliveries push straight into the
        destination heap; cross-lane deliveries produced during a window
        go through the destination mailbox and join the heap at the next
        barrier in deterministic order.
        """
        if self._coupled:
            super().schedule_at(self._now + delay, callback, message)
            return
        dst = self.shard_map.shard_of(message.recipient)
        source = getattr(self._tls, "lane", None)
        if source is None:
            self._push(
                self._lanes[GLOBAL_SHARD] if dst == GLOBAL_SHARD
                else self._lane(dst),
                self._now + delay,
                callback,
                (message,),
            )
        elif source.shard == dst:
            self._push(source, source.now + delay, callback, (message,))
        else:
            # Executing lane -> foreign lane: mailbox (flushed at the
            # next barrier; lookahead guarantees time >= window end).
            source.mail_seq += 1
            self._mailboxes.setdefault(dst, []).append(
                (
                    source.now + delay,
                    source.shard,
                    source.mail_seq,
                    callback,
                    (message,),
                )
            )
            self._live += 1

    def _push(
        self, lane: _Lane, time: float, callback: EventCallback, args: tuple
    ) -> EventHandle:
        seq = self._next_seq
        self._next_seq = seq + 1
        entry = [time, seq, callback, args]
        heappush(lane.heap, entry)
        self._live += 1
        return EventHandle(entry, self)

    def _lane(self, shard: int) -> _Lane:
        lane = self._lanes.get(shard)
        if lane is None:
            lane = _Lane(shard)
            # New lanes start at the outer clock so they can never be
            # scheduled into the past.
            lane.now = self._now
            self._lanes[shard] = lane
        return lane

    # ------------------------------------------------------------ execution
    def step(self) -> bool:
        """Single-step is inherently serial: couple first, then step."""
        if not self._coupled:
            self.set_coupled()
        return super().step()

    def run(self) -> None:
        """Drain every lane and mailbox completely."""
        if self._coupled:
            super().run()
            return
        self._run_epochs(None)

    def run_until(self, time: float) -> None:
        """Run every event with timestamp ``<= time``; land exactly there."""
        if self._coupled:
            super().run_until(time)
            return
        if time < self._now:
            raise SimulationError(
                f"cannot run backwards to {time} from {self._now}"
            )
        self._run_epochs(time)

    # ---------------------------------------------------------- epoch drive
    def _run_epochs(self, until: float | None) -> None:
        if self._draining:
            raise SimulationError("re-entrant run on a sharded clock")
        self._ensure_lookahead()
        if self._coupled:  # non-positive lookahead collapsed us
            if until is None:
                super().run()
            else:
                super().run_until(until)
            return
        self._draining = True
        try:
            while True:
                if self._couple_pending:
                    break
                self._flush_mail()
                glane = self._lanes[GLOBAL_SHARD]
                tg = self._live_head(glane)
                node_lanes = [
                    lane
                    for lane in self._lanes.values()
                    if lane.shard != GLOBAL_SHARD
                ]
                heads = [
                    (head, lane)
                    for lane in node_lanes
                    if (head := self._live_head(lane)) is not None
                ]
                tn = min((head for head, _ in heads), default=None)
                if tg is None and tn is None:
                    break
                tmin = min(t for t in (tg, tn) if t is not None)
                if until is not None and tmin > until:
                    break
                if tg is not None and (tn is None or tg <= tn):
                    # Barrier: every node lane has drained strictly past
                    # tg already (tg <= tn), so the global event runs
                    # alone, exactly where a serial schedule puts it.
                    self._run_one_global(glane)
                    continue
                window_start = tn
                window = tn + self._lookahead
                if tg is not None:
                    window = min(window, tg)
                inclusive = False
                if until is not None and window > until:
                    window = until
                    inclusive = True
                eligible = sorted(
                    (
                        lane
                        for head, lane in heads
                        if head < window or (inclusive and head == window)
                    ),
                    key=lambda lane: lane.shard,
                )
                self._drain_window(eligible, window_start, window, inclusive)
                self._epoch += 1
        finally:
            self._draining = False
        if self._couple_pending:
            # A mid-drain remap requested serial coupling; finish the
            # run on the merged heap (the exact serial schedule).
            self._couple_pending = False
            self.set_coupled()
            if until is None:
                super().run()
            else:
                super().run_until(until)
            return
        if until is not None:
            for lane in self._lanes.values():
                lane.now = max(lane.now, until)
            self._now = max(self._now, until)
        else:
            self._now = max(
                self._now,
                max(lane.now for lane in self._lanes.values()),
            )

    def _drain_window(
        self,
        lanes: list[_Lane],
        window_start: float,
        window: float,
        inclusive: bool,
    ) -> None:
        tracer = self._tracer
        if self.workers > 1 and len(lanes) > 1:
            pool = _shared_pool(self.workers)
            wall_start = perf_counter()
            walls = pool.map(
                lambda lane: self._drain_lane(lane, window, inclusive),
                lanes,
            )
            wall_total = perf_counter() - wall_start
        else:
            walls = []
            wall_start = perf_counter()
            for lane in lanes:
                t0 = perf_counter()
                self._drain_lane(lane, window, inclusive)
                walls.append(perf_counter() - t0)
            wall_total = perf_counter() - wall_start
        if tracer is not None:
            self._record_window(
                tracer, lanes, walls, window_start, window, wall_total
            )

    def _drain_lane(
        self, lane: _Lane, window: float, inclusive: bool
    ) -> float:
        """Drain one lane up to ``window``; returns the wall time spent."""
        wall_start = perf_counter()
        self._tls.lane = lane
        heap = lane.heap
        lock = self._exec_lock
        max_events = self._max_events
        try:
            while heap:
                head = heap[0]
                if head[_CALLBACK] is None:
                    heappop(heap)
                    continue
                time = head[_TIME]
                if time > window or (time == window and not inclusive):
                    break
                entry = heappop(heap)
                callback = entry[_CALLBACK]
                if callback is None:
                    continue
                entry[_CALLBACK] = None  # late cancel() must see "ran"
                lane.now = time
                lane.processed += 1
                if lane.processed > max_events:
                    raise SimulationError(
                        f"event budget exceeded ({max_events}); "
                        "likely a protocol feedback loop"
                    )
                # One lock around each callback: lanes' heaps are
                # thread-private during a window, but callbacks mutate
                # shared aggregates (traffic ledger, metrics, tracer).
                with lock:
                    self._live -= 1
                    tracer = self._tracer
                    if tracer is None:
                        callback(*entry[_ARGS])
                    else:
                        t0 = perf_counter()
                        callback(*entry[_ARGS])
                        tracer.callback_event(
                            callback, time, perf_counter() - t0
                        )
        finally:
            self._tls.lane = None
        return perf_counter() - wall_start

    def _run_one_global(self, glane: _Lane) -> None:
        self._tls.lane = glane
        heap = glane.heap
        try:
            while heap:
                entry = heappop(heap)
                callback = entry[_CALLBACK]
                if callback is None:
                    continue
                entry[_CALLBACK] = None  # late cancel() must see "ran"
                self._live -= 1
                glane.now = entry[_TIME]
                glane.processed += 1
                if glane.processed > self._max_events:
                    raise SimulationError(
                        f"event budget exceeded ({self._max_events}); "
                        "likely a protocol feedback loop"
                    )
                tracer = self._tracer
                if tracer is None:
                    callback(*entry[_ARGS])
                else:
                    t0 = perf_counter()
                    callback(*entry[_ARGS])
                    tracer.callback_event(
                        callback, glane.now, perf_counter() - t0
                    )
                return
        finally:
            self._tls.lane = None

    # ------------------------------------------------------------ mailboxes
    def _flush_mail(self) -> None:
        """Deterministically merge mailbox batches into their lanes.

        Runs single-threaded at barriers.  Batches sort by ``(time,
        source shard, source sequence)``; heap keys are assigned in that
        flush order, so same-time ties replay identically regardless of
        how worker threads interleaved during the window.
        """
        if not self._mailboxes:
            return
        for dst in sorted(self._mailboxes):
            batch = self._mailboxes[dst]
            if not batch:
                continue
            batch.sort(key=lambda item: item[:3])
            lane = self._lane(dst)
            for time, _src_shard, _src_seq, callback, args in batch:
                if time < lane.now:
                    raise SimulationError(
                        f"lookahead violation: mail for shard {dst} at "
                        f"{time} behind lane time {lane.now}"
                    )
                seq = self._next_seq
                self._next_seq = seq + 1
                heappush(lane.heap, [time, seq, callback, args])
            batch.clear()

    # ------------------------------------------------------------ lookahead
    def _ensure_lookahead(self) -> None:
        if not self._lookahead_dirty or self._coupled:
            return
        self._lookahead_dirty = False
        network = self._network
        if network is None:
            self._lookahead = math.inf
            return
        shard_of = self.shard_map.shard_of
        ids = network.node_ids
        delay = network.latency.delay
        best = math.inf
        for i, a in enumerate(ids):
            shard_a = shard_of(a)
            for b in ids[i + 1:]:
                if shard_of(b) == shard_a:
                    continue
                d = delay(a, b)
                if d < best:
                    best = d
        self._lookahead = best
        if best <= 0:
            # Zero-lookahead cross-shard links make every window empty;
            # collapse to the serial schedule instead of spinning.
            self.set_coupled()

    # --------------------------------------------------------------- tracing
    def _record_window(
        self,
        tracer,
        lanes: list[_Lane],
        walls: list[float],
        window_start: float,
        window: float,
        wall_total: float,
    ) -> None:
        dur = max(window - window_start, 0.0)
        for lane, wall in zip(lanes, walls):
            tracer.complete(
                f"epoch {self._epoch}",
                shard_track(lane.shard),
                window_start,
                dur,
                category="shard",
                args={"wall_us": round(wall * 1e6, 1)},
            )
            barrier_wait = wall_total - wall
            if barrier_wait > 0:
                tracer.complete(
                    "barrier-wait",
                    shard_track(lane.shard),
                    window,
                    0.0,
                    category="barrier",
                    args={"wall_us": round(barrier_wait * 1e6, 1)},
                )

    @staticmethod
    def _live_head(lane: _Lane) -> float | None:
        heap = lane.heap
        while heap:
            head = heap[0]
            if head[_CALLBACK] is None:
                heappop(heap)
                continue
            return head[_TIME]
        return None


def shard_track(shard: int) -> tuple:
    """The per-shard simulator timeline track for the tracer."""
    from repro.obs.tracer import SIM_GROUP

    return (SIM_GROUP, ("shard", shard))
