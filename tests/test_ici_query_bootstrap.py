"""Integration tests for intra-cluster retrieval and bootstrap."""

from __future__ import annotations

import pytest

from repro.chain.block import HEADER_SIZE
from repro.core.config import ICIConfig
from repro.core.icistrategy import QUERY_TIMEOUT, ICIDeployment
from repro.errors import UnknownBlockError
from repro.sim.runner import ScenarioRunner
from tests.conftest import TEST_LIMITS


def deployed(n_nodes=16, n_blocks=6, **config_kwargs):
    config_kwargs.setdefault("n_clusters", 4)
    config_kwargs.setdefault("replication", 2)
    config_kwargs.setdefault("limits", TEST_LIMITS)
    deployment = ICIDeployment(n_nodes, config=ICIConfig(**config_kwargs))
    runner = ScenarioRunner(deployment, limits=TEST_LIMITS)
    report = runner.produce_blocks(n_blocks, txs_per_block=3)
    return deployment, report


def non_holder_of(deployment, block_hash):
    header = deployment.ledger.store.header(block_hash)
    for view in deployment.clusters.views():
        holders = set(
            deployment.holders_in_cluster(header, view.cluster_id)
        )
        for member in view.members:
            if member not in holders:
                return member, holders
    raise AssertionError("every member is a holder?")


class TestRetrieval:
    def test_local_hit_is_instant(self):
        deployment, report = deployed()
        block_hash = report.block_hashes[0]
        header = deployment.ledger.store.header(block_hash)
        holder = deployment.holders_in_cluster(header, 0)[0]
        record = deployment.retrieve_block(holder, block_hash)
        assert record.latency == 0.0

    def test_remote_fetch_from_cluster_mate(self):
        deployment, report = deployed()
        block_hash = report.block_hashes[1]
        requester, _ = non_holder_of(deployment, block_hash)
        record = deployment.retrieve_block(requester, block_hash)
        deployment.run()
        assert record.latency is not None
        assert 0 < record.latency < QUERY_TIMEOUT
        assert record.attempts == 1

    def test_unknown_block_raises(self):
        deployment, _ = deployed()
        from repro.crypto.hashing import sha256

        with pytest.raises(UnknownBlockError):
            deployment.retrieve_block(0, sha256(b"nonexistent"))

    def test_failed_holder_triggers_retry(self):
        deployment, report = deployed()
        block_hash = report.block_hashes[2]
        requester, _holders = non_holder_of(deployment, block_hash)
        header = deployment.ledger.store.header(block_hash)
        cluster = deployment.nodes[requester].cluster_id
        in_cluster_holders = [
            h
            for h in deployment.holders_in_cluster(header, cluster)
            if h != requester
        ]
        deployment.network.set_online(in_cluster_holders[0], False)
        record = deployment.retrieve_block(requester, block_hash)
        deployment.run()
        assert record.latency is not None
        assert record.attempts >= 2

    def test_all_holders_down_query_fails(self):
        deployment, report = deployed()
        block_hash = report.block_hashes[3]
        requester, _ = non_holder_of(deployment, block_hash)
        header = deployment.ledger.store.header(block_hash)
        cluster = deployment.nodes[requester].cluster_id
        for holder in deployment.holders_in_cluster(header, cluster):
            deployment.network.set_online(holder, False)
        record = deployment.retrieve_block(requester, block_hash)
        deployment.run()
        assert record.latency is None  # data unavailable in-cluster

    def test_departed_requester_abandons_its_retry(self):
        """Regression: a retry timer that fires after its requester left
        gives the request up as degraded instead of raising KeyError."""
        deployment, report = deployed()
        block_hash = report.block_hashes[2]
        requester, _ = non_holder_of(deployment, block_hash)
        record = deployment.retrieve_block(requester, block_hash)
        # The crash drops the holder's answer; the repair then removes
        # the requester before attempt 1's deadline fires.
        departure = deployment.repair_after_crash(requester)
        deployment.run()
        assert departure.completed_at is not None
        assert requester not in deployment.nodes
        assert record.completed_at is None
        assert record.degraded
        tracker = deployment.query.tracker
        assert record.request_id not in tracker.pending
        [result] = tracker.degraded_results
        assert result.request_id == record.request_id
        assert result.reason == "requester-departed"

    def test_mean_query_latency_metric(self):
        deployment, report = deployed()
        requester, _ = non_holder_of(deployment, report.block_hashes[0])
        deployment.retrieve_block(requester, report.block_hashes[0])
        deployment.run()
        assert deployment.metrics.mean_query_latency() is not None


class TestBootstrap:
    def test_join_completes_and_is_cheap(self):
        deployment, report = deployed(n_blocks=8)
        total_ledger = deployment.ledger.store.stored_bytes
        join = deployment.join_new_node()
        deployment.run()
        assert join.complete
        assert join.header_bytes == HEADER_SIZE * 9  # genesis + 8
        # The joiner downloads far less than the ledger.
        assert join.total_bytes < total_ledger
        assert join.duration is not None and join.duration > 0

    def test_joiner_gets_exactly_its_assignment(self):
        deployment, _ = deployed(n_blocks=8)
        join = deployment.join_new_node()
        deployment.run()
        joiner = deployment.nodes[join.node_id]
        members = deployment.clusters.members_of(join.cluster_id)
        expected = sum(
            join.node_id
            in deployment.placement.holders(header, members, 2)
            for header in joiner.store.iter_active_headers()
        )
        assert joiner.store.body_count == expected
        assert join.bodies_fetched == expected

    def test_integrity_preserved_through_join(self):
        deployment, _ = deployed(n_blocks=8)
        join = deployment.join_new_node()
        deployment.run()
        assert deployment.cluster_holds_full_ledger(join.cluster_id)

    def test_displaced_holders_prune(self):
        """After a join, each block still has exactly r in-cluster copies."""
        deployment, _ = deployed(n_blocks=10)
        join = deployment.join_new_node()
        deployment.run()
        members = deployment.clusters.members_of(join.cluster_id)
        for header in deployment.ledger.store.iter_active_headers():
            copies = sum(
                deployment.nodes[m].store.has_body(header.block_hash)
                for m in members
            )
            assert copies == 2, f"height {header.height} has {copies} copies"

    def test_join_lands_in_smallest_cluster(self):
        deployment, _ = deployed()
        smallest = deployment.clusters.smallest_cluster()
        join = deployment.join_new_node()
        deployment.run()
        assert join.cluster_id == smallest

    def test_successive_joins(self):
        deployment, _ = deployed(n_blocks=6)
        for _ in range(3):
            join = deployment.join_new_node()
            deployment.run()
            assert join.complete
        assert deployment.node_count == 19
        for view in deployment.clusters.views():
            assert deployment.cluster_holds_full_ledger(view.cluster_id)

    def test_joiner_can_serve_and_query(self):
        deployment, report = deployed(n_blocks=8)
        join = deployment.join_new_node()
        deployment.run()
        # The joiner can retrieve any block it does not hold.
        target = next(
            h
            for h in report.block_hashes
            if not deployment.nodes[join.node_id].store.has_body(h)
        )
        record = deployment.retrieve_block(join.node_id, target)
        deployment.run()
        assert record.latency is not None

    def test_bootstrap_cost_scales_inversely_with_cluster_size(self):
        small, _ = deployed(n_nodes=8, n_clusters=4, n_blocks=8)  # m=2
        big, _ = deployed(n_nodes=16, n_clusters=2, n_blocks=8)  # m=8
        join_small = small.join_new_node()
        small.run()
        join_big = big.join_new_node()
        big.run()
        assert join_big.body_bytes < join_small.body_bytes

    def test_state_snapshot_charged(self):
        deployment, _ = deployed(state_snapshot_bytes=5000)
        join = deployment.join_new_node()
        deployment.run()
        assert join.snapshot_bytes == 5000
        assert join.total_bytes >= 5000

    def test_join_completes_despite_preexisting_data_loss(self):
        """Regression: an r=1 crash loses blocks; a later join must not
        hang waiting for bodies nobody can serve."""
        deployment, _ = deployed(
            n_nodes=16, n_clusters=4, replication=1, n_blocks=8
        )
        # Crash members until some cluster has actually lost blocks.
        lost_any = False
        for view in list(deployment.clusters.views()):
            if view.size <= 2:
                continue
            crash = deployment.repair_after_crash(view.members[0])
            deployment.run()
            if crash.lost_blocks:
                lost_any = True
                break
        if not lost_any:
            pytest.skip("no cluster lost data under this seed")
        join = deployment.join_new_node()
        deployment.run()
        assert join.complete
        # Lost bodies that fell to the joiner are recorded, not hung on.
        for block_hash in join.bodies_unavailable:
            assert block_hash in crash.lost_blocks
