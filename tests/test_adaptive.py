"""Heat-aware adaptive replication: scoring, planning, shedding, audits.

Covers the whole adaptive loop (:mod:`repro.storage.heat`): the router
observer that accumulates access heat, the rank-quantile tier planner,
the repair engine's shed pass and its safety floor, the Zipf read
workload that makes heat non-uniform, and the acceptance comparison
(:mod:`repro.sim.adaptive`) behind the ">= 15% ledger bytes at
equal-or-better p95" claim.  Every scenario is seeded; the key ones are
pinned.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.config import ICIConfig
from repro.core.icistrategy import ICIDeployment
from repro.errors import ConfigurationError
from repro.sim.runner import ScenarioRunner
from repro.sim.workload import ReadWorkloadConfig, ZipfReadWorkload
from repro.storage.heat import (
    COLD,
    HOT,
    WARM,
    HeatConfig,
    HeatTracker,
)
from tests.conftest import TEST_LIMITS

#: Adaptive flavour of the endurance golden scenario (same seed and
#: population as tests/test_endurance.py's GOLDEN_CONFIG).
ADAPTIVE_GOLDEN_CONFIG = dict(
    seed=42, n_nodes=15, n_clusters=3, n_blocks=6, queries=4, adaptive=True
)

#: sha256 of the canonical-JSON signature of the adaptive golden run.
#: Changing it means the heat/shed/repair interplay changed: confirm
#: intent (trace-diff two runs), then update.
ADAPTIVE_GOLDEN_SHA = (
    "b5038df61ac7386ff6bfe87ceca9493d0d930a0459465d26089624391b8194d3"
)

#: Small-population tiering knobs: with 6 blocks the default quantiles
#: would allot zero hot slots, so tests widen the slices.
SMALL_HEAT = HeatConfig(hot_quantile=0.8, cold_quantile=0.5)


def build_adaptive(
    n_nodes: int = 6,
    n_clusters: int = 1,
    replication: int = 2,
    n_blocks: int = 6,
    heat: HeatConfig | None = SMALL_HEAT,
):
    """One-cluster adaptive deployment with ``n_blocks`` produced."""
    config = ICIConfig(
        n_clusters=n_clusters,
        replication=replication,
        limits=TEST_LIMITS,
    )
    deployment = ICIDeployment(n_nodes, config=config)
    planner = deployment.enable_adaptive_replication(heat)
    runner = ScenarioRunner(deployment, limits=TEST_LIMITS, seed=7)
    report = runner.produce_blocks(n_blocks, txs_per_block=2)
    return deployment, planner, report


def sweep(deployment, seconds: float = 25.0, cadence: float = 5.0):
    """Run anti-entropy sweeps for a virtual window, then drain."""
    deployment.repair.start(cadence=cadence)
    deployment.network.clock.run_for(seconds)
    deployment.repair.stop()
    deployment.run()


def holder_census(deployment, block_hashes):
    """Sorted (block, holder-count) map — the shed test's fingerprint."""
    return {
        block_hash: sum(
            1
            for node in deployment.nodes.values()
            if node.store.has_body(block_hash)
        )
        for block_hash in block_hashes
    }


class TestHeatConfig:
    def test_defaults_validate(self):
        HeatConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(half_life=0.0),
            dict(read_weight=-0.1),
            dict(size_scale=0.0),
            dict(repair_weight=-1.0),
            dict(hot_quantile=0.0),
            dict(hot_quantile=1.5),
            dict(cold_quantile=1.0),
            dict(cold_quantile=0.95),  # >= hot_quantile
            dict(hot_bonus=-1),
            dict(warmup_seconds=-1.0),
            dict(min_observations=-1),
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ConfigurationError):
            HeatConfig(**kwargs)


class _FakeClock:
    def __init__(self):
        self.now = 0.0


class TestHeatTracker:
    def test_rate_halves_after_one_half_life(self):
        clock = _FakeClock()
        tracker = HeatTracker(clock, HeatConfig(half_life=30.0))
        tracker.note_access(b"\x01" * 32)
        assert tracker.rate(b"\x01" * 32) == pytest.approx(1.0)
        clock.now = 30.0
        assert tracker.rate(b"\x01" * 32) == pytest.approx(0.5)
        clock.now = 60.0
        assert tracker.rate(b"\x01" * 32) == pytest.approx(0.25)

    def test_accesses_accumulate_into_the_decayed_rate(self):
        clock = _FakeClock()
        tracker = HeatTracker(clock, HeatConfig(half_life=30.0))
        tracker.note_access(b"\x02" * 32)
        clock.now = 30.0
        tracker.note_access(b"\x02" * 32)
        # Half of the first access survives under the second.
        assert tracker.rate(b"\x02" * 32) == pytest.approx(1.5)
        assert tracker.accesses(b"\x02" * 32) == 2
        assert tracker.total_accesses == 2

    def test_unknown_block_scores_only_its_size_term(self):
        tracker = HeatTracker(_FakeClock())
        config = tracker.config
        expected = config.size_weight * (
            config.size_scale / (config.size_scale + 1000)
        )
        assert tracker.score(b"\x03" * 32, 1000) == pytest.approx(expected)
        assert tracker.rate(b"\x03" * 32) == 0.0

    def test_queries_feed_the_tracker_through_the_router(self):
        deployment, planner, report = build_adaptive()
        tracker = deployment.heat
        target = report.block_hashes[0]
        before = tracker.accesses(target)
        header = deployment.ledger.store.header(target)
        members = deployment.clusters.members_of(0)
        holders = set(planner.read_plan(header, members))
        requester = sorted(set(members) - holders)[0]
        deployment.retrieve_block(requester, target)
        deployment.run()
        assert tracker.accesses(target) > before


class TestReplicationPlanner:
    def test_targets_follow_tiers(self):
        deployment, planner, report = build_adaptive()
        base = deployment.config.replication
        block = report.block_hashes[0]
        assert planner.tier_of(block) == WARM  # unclassified default
        assert planner.target_for(block) == base
        planner.tiers[block] = HOT
        assert planner.target_for(block) == base + SMALL_HEAT.hot_bonus
        planner.tiers[block] = COLD
        assert planner.target_for(block) == max(
            base - SMALL_HEAT.cold_margin, 1
        )

    def test_refresh_classifies_by_rank_quantile(self):
        deployment, planner, report = build_adaptive()
        tracker = deployment.heat
        hot_block = report.block_hashes[0]
        for _ in range(12):  # past min_observations, all on one block
            tracker.note_access(hot_block)
        now = deployment.network.now
        planner.refresh(now)
        # Freshly seen: nothing can be cold during warm-up.
        assert planner.stats.cold_blocks == 0
        planner.refresh(now + SMALL_HEAT.warmup_seconds)
        assert planner.tier_of(hot_block) == HOT
        counts = planner.tier_counts()
        assert counts[HOT] == 1  # int(6 * (1 - 0.8))
        assert counts[COLD] == 3  # int(6 * 0.5)
        assert counts[WARM] == 2

    def test_nothing_classified_before_min_observations(self):
        deployment, planner, report = build_adaptive()
        tracker = deployment.heat
        tracker.note_access(report.block_hashes[0])  # 1 < 8
        planner.refresh(deployment.network.now + 100.0)
        assert planner.tier_counts() == {
            HOT: 0,
            WARM: len(report.block_hashes),
            COLD: 0,
        }

    def test_read_plan_is_the_placement_prefix(self):
        deployment, planner, report = build_adaptive()
        members = deployment.clusters.members_of(0)
        block = report.block_hashes[0]
        header = deployment.ledger.store.header(block)
        for tier, target in (
            (HOT, 4),
            (WARM, 2),
            (COLD, 1),
        ):
            planner.tiers[block] = tier
            plan = planner.read_plan(header, members)
            assert len(plan) == target
            assert plan == deployment.placement.holders(
                header, tuple(members), target
            )
            assert set(plan) <= set(members)

    def test_enable_is_idempotent(self):
        deployment, planner, _ = build_adaptive()
        assert deployment.enable_adaptive_replication() is planner


class TestShedding:
    def test_cold_blocks_shed_to_floor_and_never_below(self):
        from repro.sim.adaptive import shed_floor_met

        deployment, planner, report = build_adaptive()
        tracker = deployment.heat
        hot_block = report.block_hashes[-1]
        for _ in range(12):
            tracker.note_access(hot_block)
        sweep(deployment)
        census = holder_census(deployment, report.block_hashes)
        for block_hash in report.block_hashes:
            tier = planner.tier_of(block_hash)
            if tier == COLD:
                assert census[block_hash] == 1, tier
            assert census[block_hash] >= min(
                planner.target_for(block_hash), deployment.node_count
            )
        assert planner.stats.replicas_shed > 0
        assert planner.stats.floor_violations == 0
        assert shed_floor_met(deployment, planner)

    def test_shedding_is_idempotent_across_sweeps(self):
        deployment, planner, report = build_adaptive()
        tracker = deployment.heat
        for _ in range(12):
            tracker.note_access(report.block_hashes[-1])
        sweep(deployment)
        census = holder_census(deployment, report.block_hashes)
        shed = planner.stats.replicas_shed
        sweep(deployment)  # nothing new to do
        assert holder_census(deployment, report.block_hashes) == census
        assert planner.stats.replicas_shed == shed
        assert planner.stats.floor_violations == 0

    def test_shed_then_reheat_re_replicates_deterministically(self):
        def run_cycle():
            deployment, planner, report = build_adaptive()
            tracker = deployment.heat
            hot_block = report.block_hashes[-1]
            for _ in range(12):
                tracker.note_access(hot_block)
            sweep(deployment)
            cold = [
                block_hash
                for block_hash in report.block_hashes
                if planner.tier_of(block_hash) == COLD
            ]
            reheated = cold[0]
            before = holder_census(deployment, [reheated])[reheated]
            # The cold block becomes the hottest thing on the chain.
            for _ in range(50):
                tracker.note_access(reheated)
            sweep(deployment)
            after = holder_census(deployment, [reheated])[reheated]
            return planner, reheated, before, after, holder_census(
                deployment, report.block_hashes
            )

        planner, reheated, before, after, census = run_cycle()
        assert before == 1  # shed down to the cold floor
        assert planner.tier_of(reheated) == HOT
        assert after == planner.target_for(reheated)  # refilled to hot
        assert after > before
        assert planner.stats.floor_violations == 0
        # Golden: the whole cycle reproduces byte-identically.
        _, reheated2, before2, after2, census2 = run_cycle()
        assert (reheated2, before2, after2) == (reheated, before, after)
        assert census2 == census


class TestZipfReadWorkload:
    def test_rejects_bad_exponent_and_empty_population(self):
        with pytest.raises(ConfigurationError):
            ReadWorkloadConfig(exponent=0.0)
        workload = ZipfReadWorkload()
        with pytest.raises(ConfigurationError):
            workload.next_block([])

    def test_same_seed_same_stream(self):
        blocks = [bytes([i]) * 32 for i in range(10)]
        nodes = list(range(8))
        first = ZipfReadWorkload(ReadWorkloadConfig(seed=3)).reads(
            blocks, nodes, 200
        )
        second = ZipfReadWorkload(ReadWorkloadConfig(seed=3)).reads(
            blocks, nodes, 200
        )
        assert first == second
        assert first != ZipfReadWorkload(ReadWorkloadConfig(seed=4)).reads(
            blocks, nodes, 200
        )

    def test_newest_block_dominates(self):
        blocks = [bytes([i]) * 32 for i in range(10)]
        workload = ZipfReadWorkload(ReadWorkloadConfig(seed=1))
        draws = [workload.next_block(blocks) for _ in range(2000)]
        counts = {block: draws.count(block) for block in blocks}
        newest, oldest = blocks[-1], blocks[0]
        assert counts[newest] == max(counts.values())
        assert counts[newest] > 3 * counts[oldest]

    def test_heat_follows_a_growing_tip(self):
        blocks = [bytes([i]) * 32 for i in range(3)]
        workload = ZipfReadWorkload(ReadWorkloadConfig(seed=5))
        workload.next_block(blocks)
        blocks.append(bytes([3]) * 32)  # chain grows
        draws = [workload.next_block(blocks) for _ in range(1000)]
        assert draws.count(blocks[-1]) == max(
            draws.count(block) for block in blocks
        )


class TestAdaptiveCompare:
    def test_acceptance_savings_latency_and_safety(self):
        """The PR's acceptance gate, verbatim: under Zipf reads at seed
        42 the adaptive deployment stores >= 15% fewer total ledger
        bytes than fixed-r at equal-or-better p95 query latency, with
        the replica floor and cross-cluster coverage never violated
        while placements converge."""
        from repro.sim.adaptive import (
            AdaptiveCompareConfig,
            run_adaptive_compare,
        )

        outcome = run_adaptive_compare(AdaptiveCompareConfig(seed=42))
        assert outcome.savings_fraction >= 0.15, outcome.signature()
        assert outcome.latency_ok, (
            outcome.adaptive_p95_latency,
            outcome.fixed_p95_latency,
        )
        assert outcome.converged_safely
        assert outcome.adaptive_stats["replicas_shed"] > 0
        assert outcome.adaptive_stats["sheds_blocked"] == 0
        assert outcome.fixed_queries_completed == outcome.config.reads
        assert (
            outcome.adaptive_queries_completed == outcome.config.reads
        )

    def test_compare_is_deterministic(self):
        from repro.sim.adaptive import (
            AdaptiveCompareConfig,
            run_adaptive_compare,
        )

        config = AdaptiveCompareConfig(
            n_blocks=8, reads=60, rounds=3
        )
        assert (
            run_adaptive_compare(config).signature()
            == run_adaptive_compare(config).signature()
        )

    def test_rejects_degenerate_configs(self):
        from repro.sim.adaptive import AdaptiveCompareConfig

        with pytest.raises(ConfigurationError):
            AdaptiveCompareConfig(n_blocks=1)
        with pytest.raises(ConfigurationError):
            AdaptiveCompareConfig(rounds=0)
        with pytest.raises(ConfigurationError):
            AdaptiveCompareConfig(repair_cadence=0.0)


class TestAdaptiveEndurance:
    def endurance(self, **kwargs):
        from repro.sim.chaos import EnduranceConfig, run_endurance

        config = dict(ADAPTIVE_GOLDEN_CONFIG)
        config.update(kwargs)
        return run_endurance(
            EnduranceConfig(**config), limits=TEST_LIMITS
        )

    def test_survives_churn_and_faults_with_floor_met(self):
        outcome = self.endurance()
        assert outcome.integrity_restored
        assert outcome.replica_floor_met  # tier-aware audit
        assert outcome.adaptive["floor_violations"] == 0
        assert outcome.adaptive["replicas_shed"] > 0
        assert outcome.adaptive["storm_reads"] > 0
        assert outcome.storage_total_bytes > 0

    def test_adaptive_golden_signature(self):
        signature = self.endurance().signature()
        assert "adaptive" in signature
        blob = json.dumps(signature, sort_keys=True)
        digest = hashlib.sha256(blob.encode()).hexdigest()
        assert digest == ADAPTIVE_GOLDEN_SHA, signature

    def test_fixed_runs_carry_no_adaptive_key(self):
        outcome = self.endurance(adaptive=False)
        assert outcome.adaptive == {}
        assert "adaptive" not in outcome.signature()

    def test_trace_carries_heat_story(self):
        from repro.obs.export import to_chrome_trace, validate_chrome_trace
        from repro.obs.tracer import Tracer
        from repro.sim.chaos import EnduranceConfig, run_endurance

        tracer = Tracer()
        run_endurance(
            EnduranceConfig(**ADAPTIVE_GOLDEN_CONFIG),
            limits=TEST_LIMITS,
            tracer=tracer,
        )
        payload = to_chrome_trace(tracer, label="adaptive test")
        assert validate_chrome_trace(payload) == []
        events = payload["traceEvents"]
        names = {event["name"] for event in events}
        assert "heat_reclassified" in names
        assert "replica_shed" in names
        counters = {
            event["name"]
            for event in events
            if event["ph"] == "C" and event["name"].startswith("tier ")
        }
        assert counters == {
            "tier hot ledger bytes",
            "tier warm ledger bytes",
            "tier cold ledger bytes",
        }

    def test_report_renders_adaptive_section(self):
        from repro.analysis.report import render_endurance_summary

        adaptive = render_endurance_summary(self.endurance())
        assert "## Adaptive replication" in adaptive
        assert "replicas shed" in adaptive
        assert "floor violations" in adaptive
        fixed = render_endurance_summary(self.endurance(adaptive=False))
        assert "## Adaptive replication" not in fixed

    def test_cli_adaptive_flag(self, tmp_path, capsys):
        from repro.cli import main

        report = tmp_path / "adaptive.md"
        code = main(
            [
                "endurance",
                "--adaptive",
                "--seed", "42",
                "--nodes", "15",
                "--groups", "3",
                "--blocks", "6",
                "--report", str(report),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "## Adaptive replication" in out
        assert "## Adaptive replication" in report.read_text()

    @pytest.mark.parametrize(
        "tier, section",
        [
            ("--adaptive", "## Adaptive replication"),
            ("--archival", "## Archival coding"),
        ],
        ids=["adaptive", "archival"],
    )
    def test_cli_survives_a_departed_requesters_retry(
        self, tier, section, capsys
    ):
        """Regression: in this run a read's requester leaves while its
        retry timer is pending; the timer used to raise KeyError.  With
        the archival tier on, a block thawed onto a member that missed
        headers behind a partition used to raise ValidationError."""
        from repro.cli import main

        code = main(
            [
                "endurance",
                tier,
                "--nodes", "16",
                "--groups", "2",
                "--blocks", "12",
                "--reads", "16",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert section in out
        assert "**cluster integrity: restored**" in out


class TestBenchTagFilter:
    def test_filter_matches_tags_and_ids(self, capsys):
        from repro.cli import main

        assert main(["bench", "--list", "--filter", "heat"]) == 0
        out = capsys.readouterr().out
        assert "e18" in out
        assert main(["bench", "--list", "--filter", "e18"]) == 0
        out = capsys.readouterr().out
        assert "e18" in out

    def test_unknown_term_is_an_error(self, capsys):
        from repro.cli import main

        assert main(["bench", "--list", "--filter", "nope"]) == 2
        assert "unknown bench ids or tags" in capsys.readouterr().err

    def test_workloads_declare_tags(self):
        from pathlib import Path

        from repro.bench import discover_workloads

        repo_root = Path(__file__).resolve().parents[1]
        workloads = discover_workloads(repo_root / "benchmarks")
        by_id = {w.bench_id: w for w in workloads}
        assert "e18" in by_id
        assert set(by_id["e18"].tags) == {"heat", "adaptive"}
        # Untagged legacy workloads default to the empty tuple.
        assert by_id["e1"].tags == ()
