"""The simulated network: node registry, delivery, failures.

:class:`Network` binds the virtual clock, a latency model, a topology, and a
traffic ledger.  Endpoints (anything implementing :class:`Endpoint`)
register under integer node ids; ``send`` schedules delivery after
propagation + transmission delay.  Nodes can be taken offline (crash) and
brought back, which the availability experiments (E7) and churn workloads
drive.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Protocol

from repro.errors import UnknownNodeError
from repro.net.latency import DEFAULT_BANDWIDTH_BPS, ConstantLatency, LatencyModel
from repro.net.message import Message
from repro.net.simclock import SimClock
from repro.net.topology import Topology
from repro.net.traffic import TrafficLedger

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.faults import FaultInjector


class Endpoint(Protocol):
    """Anything that can receive simulated messages."""

    def handle_message(self, message: Message) -> None:
        """Process a delivered message (called at delivery time)."""


class Network:
    """The message fabric every node in a scenario is attached to.

    Delivery semantics:
      * messages to offline recipients are silently dropped (crash model);
      * messages *from* offline senders are also dropped — a crashed node's
        already-scheduled sends do not happen;
      * self-sends are delivered with zero delay (still via the scheduler so
        handler re-entrancy is avoided).
    """

    def __init__(
        self,
        clock: SimClock | None = None,
        latency: LatencyModel | None = None,
        topology: Topology | None = None,
        bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
    ) -> None:
        self.clock = clock if clock is not None else SimClock()
        self.latency = latency or ConstantLatency()
        self.bandwidth_bps = bandwidth_bps
        self.traffic = TrafficLedger()
        self._endpoints: dict[int, Endpoint] = {}
        self._online: dict[int, bool] = {}
        self._topology: dict[int, tuple[int, ...]] = (
            dict(topology) if topology else {}
        )
        self._dropped_messages = 0
        self._faults: "FaultInjector" | None = None

    # ------------------------------------------------------------- registry
    def register(self, node_id: int, endpoint: Endpoint) -> None:
        """Attach an endpoint under ``node_id`` (initially online)."""
        self._endpoints[node_id] = endpoint
        self._online[node_id] = True
        self._topology.setdefault(node_id, ())

    def unregister(self, node_id: int) -> None:
        """Detach a node entirely (permanent departure)."""
        self._endpoints.pop(node_id, None)
        self._online.pop(node_id, None)
        # Stale peer entries must not survive churn/departure cycles.
        self._topology.pop(node_id, None)

    def set_topology(self, topology: Topology) -> None:
        """Replace the peer graph (e.g., after re-clustering)."""
        self._topology = dict(topology)

    def peers_of(self, node_id: int) -> tuple[int, ...]:
        """The node's peer list in the current topology."""
        try:
            return self._topology[node_id]
        except KeyError:
            raise UnknownNodeError(f"node {node_id} not in topology") from None

    @property
    def node_ids(self) -> list[int]:
        """All registered node ids, sorted."""
        return sorted(self._endpoints)

    @property
    def dropped_messages(self) -> int:
        """Messages lost to offline senders/recipients."""
        return self._dropped_messages

    # -------------------------------------------------------------- faults
    @property
    def faults(self) -> "FaultInjector" | None:
        """The attached fault injector, or ``None`` for a clean network."""
        return self._faults

    def attach_faults(self, injector: "FaultInjector" | None) -> None:
        """Install (or, with ``None``, remove) a fault injector.

        With no injector attached the delivery path is exactly the
        original code — the fault branch in :meth:`send` never runs, so
        fault-free simulated metrics stay byte-identical.
        """
        self._faults = injector

    # ------------------------------------------------------------- liveness
    def is_online(self, node_id: int) -> bool:
        """Is the node currently reachable?"""
        return self._online.get(node_id, False)

    def set_online(self, node_id: int, online: bool) -> None:
        """Crash (``False``) or recover (``True``) a node.

        Raises:
            UnknownNodeError: for unregistered ids.
        """
        if node_id not in self._endpoints:
            raise UnknownNodeError(f"node {node_id} is not registered")
        self._online[node_id] = online

    def online_count(self) -> int:
        """How many registered nodes are online."""
        return sum(1 for online in self._online.values() if online)

    # ------------------------------------------------------------- delivery
    def send(self, message: Message) -> None:
        """Schedule delivery of ``message`` (drops if sender is offline now)."""
        if not self._online.get(message.sender, False):
            self._dropped_messages += 1
            return
        delay = self.latency.total_delay(
            message.sender,
            message.recipient,
            message.size_bytes,
            self.bandwidth_bps,
        )
        if self._faults is not None:
            copies, extra_delay = self._faults.intercept(message, self.clock.now)
            if copies == 0:
                self._dropped_messages += 1
                return
            post = self.clock.post
            for _ in range(copies):
                post(delay + extra_delay, self._deliver, message)
            return
        self.clock.post(delay, self._deliver, message)

    def send_many(self, messages: Iterable[Message]) -> None:
        """Schedule a batch of messages in order.

        Semantically identical to calling :meth:`send` per message (same
        scheduling order, hence identical event sequence numbers), but the
        per-message lookups are hoisted out of the loop — the fan-out paths
        (gossip announce, cluster broadcast) are the simulator's hottest
        send sites.

        With a fault injector attached the batch falls back to per-message
        :meth:`send` so every message gets its own fault decision.
        """
        if self._faults is not None:
            for message in messages:
                self.send(message)
            return
        online = self._online
        total_delay = self.latency.total_delay
        deliver = self._deliver
        bandwidth = self.bandwidth_bps
        post = self.clock.post
        for message in messages:
            if not online.get(message.sender, False):
                self._dropped_messages += 1
                continue
            post(
                total_delay(
                    message.sender,
                    message.recipient,
                    message.size_bytes,
                    bandwidth,
                ),
                deliver,
                message,
            )

    def _deliver(self, message: Message) -> None:
        endpoint = self._endpoints.get(message.recipient)
        if endpoint is None or not self._online.get(message.recipient, False):
            self._dropped_messages += 1
            return
        self.traffic.record(message)
        endpoint.handle_message(message)

    # ------------------------------------------------------------ execution
    def run(self) -> None:
        """Drain every pending event (delegates to the clock)."""
        self.clock.run()

    def run_for(self, seconds: float) -> None:
        """Advance virtual time by ``seconds``."""
        self.clock.run_for(seconds)

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self.clock.now
