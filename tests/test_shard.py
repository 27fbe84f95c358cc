"""Unit tests for the cluster-sharded event lanes (``net/shard.py``)."""

from __future__ import annotations

import pytest

from repro.clustering.membership import ClusterTable
from repro.core.config import ICIConfig
from repro.core.icistrategy import ICIDeployment
from repro.errors import SimulationError
from repro.net.latency import ConstantLatency, UniformLatency
from repro.net.message import MessageKind, sized_message
from repro.net.network import Network
from repro.net.shard import GLOBAL_SHARD, ShardedClock, ShardMap
from repro.net.simclock import SimClock
from repro.sim.backend import ParallelBackend, backend_scope


class Recorder:
    """Test endpoint: remembers what it receives and when."""

    def __init__(self, network: Network) -> None:
        self.network = network
        self.received: list[tuple[float, int]] = []

    def handle_message(self, message) -> None:
        self.received.append((self.network.now, message.message_id))


class TestShardMap:
    def test_unmapped_resolves_to_global(self):
        assert ShardMap().shard_of(123) == GLOBAL_SHARD

    def test_assign_and_remove_bump_version(self):
        shard_map = ShardMap()
        shard_map.assign(7, 2)
        assert shard_map.shard_of(7) == 2
        assert shard_map.version == 1
        shard_map.remove(7)
        assert shard_map.shard_of(7) == GLOBAL_SHARD
        assert shard_map.version == 2
        shard_map.remove(7)  # unmapped: no version tick
        assert shard_map.version == 2

    def test_negative_shard_rejected(self):
        with pytest.raises(SimulationError):
            ShardMap().assign(1, -1)

    def test_rebuild_offsets_cluster_ids_past_global(self):
        shard_map = ShardMap()
        table = ClusterTable.from_assignment([[0, 1], [2, 3, 4]])
        shard_map.rebuild(table)
        assert shard_map.shard_of(0) == 1
        assert shard_map.shard_of(4) == 2
        assert shard_map.shards() == [1, 2]
        assert len(shard_map) == 5


class TestSimClockCompatibility:
    """A sharded clock with no shard map is an exact SimClock."""

    def test_time_order_and_now(self):
        clock = ShardedClock()
        order: list[str] = []
        clock.schedule(2.0, lambda: order.append("late"))
        clock.schedule(1.0, lambda: order.append("early"))
        clock.run()
        assert order == ["early", "late"]
        assert clock.now == 2.0
        assert clock.processed == 2
        assert clock.pending == 0

    def test_ties_run_in_scheduling_order(self):
        clock = ShardedClock()
        order: list[int] = []
        for index in range(5):
            clock.schedule(1.0, lambda i=index: order.append(i))
        clock.run()
        assert order == [0, 1, 2, 3, 4]

    def test_run_until_lands_exactly(self):
        clock = ShardedClock()
        fired: list[float] = []
        clock.schedule(1.0, lambda: fired.append(clock.now))
        clock.schedule(3.0, lambda: fired.append(clock.now))
        clock.run_until(2.0)
        assert fired == [1.0]
        assert clock.now == 2.0
        assert clock.pending == 1
        clock.run()
        assert fired == [1.0, 3.0]

    def test_cancelled_event_skipped_and_pending_tracks(self):
        clock = ShardedClock()
        fired: list[bool] = []
        handle = clock.schedule(1.0, lambda: fired.append(True))
        assert clock.pending == 1
        assert handle.cancel()
        assert clock.pending == 0
        clock.run()
        assert not fired

    def test_step_couples(self):
        clock = ShardedClock()
        clock.schedule(1.0, lambda: None)
        assert not clock.coupled
        assert clock.step()
        assert clock.coupled


def sharded_network(workers: int = 1) -> tuple[Network, ShardedClock]:
    clock = ShardedClock(workers=workers)
    network = Network(clock=clock, latency=ConstantLatency(0.1))
    return network, clock


def ping(network: Network, sender: int, recipient: int):
    message = sized_message(
        MessageKind.BLOCK_ANNOUNCE, sender, recipient, None, 100
    )
    network.send(message)
    return message


class TestLaneRouting:
    def test_cross_shard_mail_delivers_identically_to_serial(self):
        serial_net = Network(
            clock=SimClock(), latency=ConstantLatency(0.1)
        )
        shard_net, clock = sharded_network()
        for shard, node in ((1, 0), (1, 1), (2, 2), (2, 3)):
            clock.shard_map.assign(node, shard)
        logs = {}
        for name, network in (("serial", serial_net), ("shard", shard_net)):
            endpoints = {}
            for node in range(4):
                endpoints[node] = Recorder(network)
                network.register(node, endpoints[node])
            # Intra-shard, cross-shard, and a nested reply chain.
            network.send_many(
                [
                    sized_message(
                        MessageKind.BLOCK_ANNOUNCE, a, b, None, 100
                    )
                    for a, b in ((0, 1), (0, 2), (3, 1), (2, 3))
                ]
            )
            network.run()
            logs[name] = {
                node: [t for t, _ in endpoints[node].received]
                for node in range(4)
            }
        assert logs["serial"] == logs["shard"]
        assert shard_net.traffic.total_messages == (
            serial_net.traffic.total_messages
        )
        assert not clock.coupled

    def test_lanes_advance_independently(self):
        network, clock = sharded_network()

        class SelfTalker:
            """Endpoint that keeps scheduling to itself."""

            def __init__(self, count):
                self.count = count

            def handle_message(self, message):
                if self.count:
                    self.count -= 1
                    ping(network, 0, 0)

        network.register(0, SelfTalker(5))
        network.register(1, Recorder(network))
        clock.shard_map.assign(0, 1)
        clock.shard_map.assign(1, 2)
        ping(network, 0, 0)
        ping(network, 1, 1)
        network.run()
        times = clock.lane_times()
        # Node 0's lane processed a chain of 6 self-sends; node 1's one.
        assert times[1] > times[2]
        assert clock.pending == 0

    def test_lookahead_is_min_cross_shard_delay(self):
        clock = ShardedClock()
        network = Network(
            clock=clock, latency=UniformLatency(0.02, 0.2, seed=1)
        )
        for node in range(6):
            network.register(node, Recorder(network))
            clock.shard_map.assign(node, 1 + node % 2)
        expected = min(
            network.latency.delay(a, b)
            for a in range(6)
            for b in range(6)
            if a != b and a % 2 != b % 2
        )
        assert clock.lookahead == pytest.approx(expected)

    def test_zero_lookahead_couples(self):
        clock = ShardedClock()
        network = Network(clock=clock, latency=ConstantLatency(0.0))
        for node in (0, 1):
            network.register(node, Recorder(network))
            clock.shard_map.assign(node, node + 1)
        ping(network, 0, 1)
        network.run()
        assert clock.coupled


class TestCoupling:
    def test_fault_injector_couples(self):
        from repro.sim.faults import FaultConfig, FaultInjector, FaultPlan

        network, clock = sharded_network()
        network.register(0, Recorder(network))
        plan = FaultPlan(FaultConfig(drop_rate=0.5, seed=1))
        network.attach_faults(FaultInjector(plan, network))
        assert clock.coupled

    def test_remap_at_quiescence_stays_sharded(self):
        network, clock = sharded_network()
        for node in range(4):
            network.register(node, Recorder(network))
        clock.remap_shards(ClusterTable.from_assignment([[0, 1], [2, 3]]))
        assert not clock.coupled
        assert clock.shard_map.shard_of(3) == 2

    def test_remap_with_inflight_events_couples(self):
        network, clock = sharded_network()
        for node in range(4):
            network.register(node, Recorder(network))
        clock.remap_shards(ClusterTable.from_assignment([[0, 1], [2, 3]]))
        ping(network, 0, 1)  # lands in lane 1's heap
        clock.remap_shards(ClusterTable.from_assignment([[0, 2], [1, 3]]))
        assert clock.coupled
        network.run()
        assert clock.pending == 0

    def test_remap_during_drain_defers_coupling_to_barrier(self):
        network, clock = sharded_network()
        table = ClusterTable.from_assignment([[0, 1], [2, 3]])
        seen: list[bool] = []

        class Remapper:
            def handle_message(self, message):
                clock.remap_shards(table)
                seen.append(clock.coupled)

        network.register(0, Remapper())
        network.register(1, Recorder(network))
        clock.shard_map.assign(0, 1)
        clock.shard_map.assign(1, 2)
        ping(network, 1, 1)
        ping(network, 0, 0)
        network.run()
        # Inside the callback the clock was still sharded; the epoch
        # loop coupled at the next barrier and finished serially.
        assert seen == [False]
        assert clock.coupled


class TestDeploymentFeed:
    """Cluster assignment and churn flow into the shard map."""

    def build(self, n_nodes=16, n_clusters=4):
        config = ICIConfig(n_clusters=n_clusters, replication=2)
        with backend_scope(ParallelBackend(workers=2)):
            deployment = ICIDeployment(n_nodes, config=config)
        return deployment

    def test_initial_clustering_populates_map(self):
        deployment = self.build()
        clock = deployment.network.clock
        assert isinstance(clock, ShardedClock)
        shard_map = clock.shard_map
        for view in deployment.clusters.views():
            for node in view.members:
                assert shard_map.shard_of(node) == view.cluster_id + 1

    def test_join_extends_map(self):
        deployment = self.build()
        clock = deployment.network.clock
        before = clock.shard_map.version
        report = deployment.join_new_node()
        deployment.run()
        assert clock.shard_map.version > before
        assert clock.shard_map.shard_of(report.node_id) != GLOBAL_SHARD

    def test_leave_drops_member_from_map(self):
        deployment = self.build()
        clock = deployment.network.clock
        victim = next(iter(deployment.clusters.views())).members[0]
        deployment.leave_node(victim)
        deployment.run()
        assert clock.shard_map.shard_of(victim) == GLOBAL_SHARD
        assert victim not in deployment.nodes


def lanes_holding(clock: ShardedClock, callback) -> list[int]:
    """Shards whose lane heap holds an entry for ``callback``."""
    return sorted(
        shard
        for shard, lane in clock._lanes.items()
        if any(entry[2] is callback for entry in lane.heap)
    )


class TestPost:
    """``post`` lands wherever ``schedule_at`` would put the event."""

    def test_outside_a_drain_lands_in_the_global_lane(self):
        clock = ShardedClock()

        def via_post():
            pass

        def via_schedule_at():
            pass

        assert clock.post(1.0, via_post) is None
        clock.schedule_at(1.0, via_schedule_at)
        assert lanes_holding(clock, via_post) == [GLOBAL_SHARD]
        assert lanes_holding(clock, via_schedule_at) == [GLOBAL_SHARD]
        assert clock.pending == 2

    def test_inside_a_lane_lands_in_that_lane(self):
        network, clock = sharded_network()
        landed: dict[str, list[int]] = {}

        def via_post():
            pass

        def via_schedule_at():
            pass

        class Scheduler:
            def handle_message(self, message):
                clock.post(5.0, via_post)
                clock.schedule_at(clock.now + 5.0, via_schedule_at)
                landed["post"] = lanes_holding(clock, via_post)
                landed["schedule_at"] = lanes_holding(clock, via_schedule_at)

        network.register(0, Scheduler())
        network.register(1, Recorder(network))
        clock.shard_map.assign(0, 1)
        clock.shard_map.assign(1, 2)
        ping(network, 1, 0)
        network.run()
        assert landed == {"post": [1], "schedule_at": [1]}
        assert not clock.coupled
        assert clock.pending == 0

    def test_coupled_clock_uses_the_serial_heap(self):
        clock = ShardedClock()
        clock.set_coupled()
        order: list[str] = []
        clock.schedule_at(1.0, order.append, "schedule_at")
        clock.post(1.0, order.append, "post")
        assert all(not lane.heap for lane in clock._lanes.values())
        assert len(clock._heap) == 2
        clock.run()
        assert order == ["schedule_at", "post"]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            ShardedClock().post(-0.1, lambda: None)
