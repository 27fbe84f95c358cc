"""Storage invariants: the violation records each check returns.

Each test breaks one promise by hand — drops a replica, removes every
in-cluster copy, crashes chunk holders, stacks copies in one zone — and
checks that the record names the right invariant, cluster, block and
virtual time, and that nothing else is reported.
"""

from __future__ import annotations

from repro.core.config import ICIConfig
from repro.core.icistrategy import ICIDeployment
from repro.invariants import (
    COVERAGE,
    DIVERSITY,
    FLOOR,
    Violation,
    coverage,
    diversity,
    floor,
)
from repro.net.domains import FailureDomainMap
from repro.sim.runner import ScenarioRunner
from tests.conftest import TEST_LIMITS
from tests.test_archival import archived_hashes, build_archival
from tests.test_archival import sweep as archival_sweep
from tests.test_adaptive import build_adaptive


def build_fixed(n_nodes: int = 12, n_clusters: int = 2, n_blocks: int = 4):
    """Fixed-``r`` (r=2) deployment with ``n_blocks`` produced."""
    config = ICIConfig(
        n_clusters=n_clusters, replication=2, limits=TEST_LIMITS
    )
    deployment = ICIDeployment(n_nodes, config=config)
    runner = ScenarioRunner(deployment, limits=TEST_LIMITS, seed=7)
    report = runner.produce_blocks(n_blocks, txs_per_block=2)
    return deployment, report


def holders(deployment, cluster_id, block_hash):
    """Members of one cluster whose store holds the body."""
    return [
        member
        for member in deployment.clusters.members_of(cluster_id)
        if deployment.nodes[member].store.has_body(block_hash)
    ]


def drop(deployment, members, block_hash):
    for member in members:
        deployment.nodes[member].store.drop_body(block_hash)


class TestCoverageAndFloor:
    def test_clean_deployment_has_no_violations(self):
        deployment, _ = build_fixed()
        assert coverage(deployment) == []
        assert coverage(deployment, live=True) == []
        assert floor(deployment) == []
        assert floor(deployment, converging=True) == []

    def test_records_name_invariant_cluster_block_and_time(self):
        deployment, report = build_fixed()
        thinned, lost = report.block_hashes[0], report.block_hashes[1]
        # Cluster 0 keeps one of its two copies of ``thinned``; cluster
        # 1 loses every copy of ``lost``.
        drop(deployment, holders(deployment, 0, thinned)[:1], thinned)
        drop(deployment, holders(deployment, 1, lost), lost)
        deployment.network.clock.run_for(3.0)
        now = deployment.network.now
        assert now > 0

        assert coverage(deployment) == [Violation(COVERAGE, 1, lost, now)]
        expected_floor = [
            Violation(FLOOR, 0, thinned, now),
            Violation(FLOOR, 1, lost, now),
        ]
        assert floor(deployment) == expected_floor
        # Without a planner every target is the base r, so the
        # converging floor reports the same blocks.
        assert floor(deployment, converging=True) == expected_floor
        assert deployment.cluster_holds_full_ledger(0)
        assert not deployment.cluster_holds_full_ledger(1)

    def test_live_coverage_counts_only_live_members(self):
        deployment, report = build_fixed()
        block_hash = report.block_hashes[0]
        for member in holders(deployment, 0, block_hash):
            deployment.network.set_online(member, False)
        now = deployment.network.now
        # Crashed members keep their disks: the integrity audit still
        # counts them, the outage census does not.
        assert all(v.block != block_hash for v in coverage(deployment))
        live_lost = coverage(deployment, live=True)
        assert Violation(COVERAGE, 0, block_hash, now) in live_lost
        assert {v.cluster for v in live_lost} == {0}

    def test_live_coverage_exempts_genesis(self):
        deployment, report = build_fixed()
        for member in deployment.clusters.members_of(1):
            deployment.network.set_online(member, False)
        now = deployment.network.now
        assert coverage(deployment, live=True) == [
            Violation(COVERAGE, 1, block_hash, now)
            for block_hash in report.block_hashes
        ]


class TestFloorModes:
    def test_unfilled_hot_target_breaks_only_the_strict_floor(self):
        deployment, planner, report = build_adaptive()
        hot = report.block_hashes[-1]
        for _ in range(12):
            deployment.heat.note_access(hot)
        planner.refresh()
        assert planner.target_for(hot) > deployment.config.replication
        now = deployment.network.now
        # The hot target is not filled yet (no sweep ran): convergence
        # work for the converging audit, a violation for the strict one.
        assert floor(deployment) == [Violation(FLOOR, 0, hot, now)]
        assert floor(deployment, converging=True) == []

    def test_genesis_counts_only_in_the_strict_floor(self):
        deployment, _ = build_fixed()
        genesis = next(deployment.ledger.store.iter_active_headers())
        assert genesis.is_genesis
        block_hash = genesis.block_hash
        drop(deployment, holders(deployment, 0, block_hash)[:1], block_hash)
        now = deployment.network.now
        assert floor(deployment) == [Violation(FLOOR, 0, block_hash, now)]
        assert floor(deployment, converging=True) == []


class TestArchivedBlocks:
    def test_archived_block_is_covered_through_its_chunks(self):
        deployment, tier, report = build_archival()
        for _ in range(12):
            deployment.heat.note_access(report.block_hashes[-1])
        archival_sweep(deployment)
        archived = archived_hashes(deployment, tier, report)[0]
        assert holders(deployment, 0, archived) == []  # no full replica
        assert coverage(deployment) == []
        assert floor(deployment) == []
        assert floor(deployment, converging=True) == []

        # Below k live chunks the block is neither covered nor floored.
        chunk_holders = sorted(set(tier.holders_of(0, archived).values()))
        k = tier.config.data_chunks
        for victim in chunk_holders[: len(chunk_holders) - k + 1]:
            deployment.network.set_online(victim, False)
        now = deployment.network.now
        assert not tier.can_reconstruct(0, archived)
        assert Violation(COVERAGE, 0, archived, now) in coverage(deployment)
        assert Violation(FLOOR, 0, archived, now) in floor(deployment)


class TestDiversity:
    def test_explicit_map_judges_a_deployment_without_one(self):
        deployment, report = build_fixed()
        topology = FailureDomainMap(zones=2)
        topology.sync(deployment.nodes.keys())
        assert diversity(deployment) == []  # no installed map

        block_hash = report.block_hashes[0]
        members = deployment.clusters.members_of(0)
        zone = topology.zone_of(members[0])
        stacked = [m for m in members if topology.zone_of(m) == zone][:2]
        assert len(stacked) == 2
        body = deployment.ledger.store.body(block_hash)
        drop(deployment, holders(deployment, 0, block_hash), block_hash)
        for member in stacked:
            deployment.nodes[member].store.add_body(body)
        now = deployment.network.now
        assert Violation(DIVERSITY, 0, block_hash, now) in diversity(
            deployment, topology
        )
        assert diversity(deployment) == []
