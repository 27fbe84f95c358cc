"""Coded-archival vs adaptive-only storage comparison under Zipf reads.

The acceptance experiment for the archival tier
(:mod:`repro.storage.coded`): drive two same-seed deployments — both
with heat-aware adaptive replication, one additionally with the
Reed–Solomon archival tier — through an identical block stream and an
identical Zipf-skewed read stream, let the anti-entropy sweep converge
placements (and archive the cold tail) between read batches, and
compare:

* **total stored bytes** (replica bytes plus coded chunk bytes): the
  archival run must store meaningfully less, because every cold block
  drops from its adaptive floor of full replicas (``r - cold_margin``
  bodies per cluster) to ``n/k`` body-sizes of coded chunks;
* **read availability**: every query must still complete — cold reads
  fall through the replica failover tail into a lazy ``k``-chunk
  decode, whose cost is reported as read amplification, not failure.

The comparison runs at ``r = 3`` so the equal-durability framing is
honest: the adaptive-only cold floor is then two full replicas per
cluster (tolerates one holder loss), while the default ``3+1`` code
tolerates one chunk-holder loss at ``4/3 ≈ 1.33×`` the body size.

Between rounds the archival run is audited: every cluster must hold
every block — as replicas *or* ≥ ``k`` live chunks
(:func:`repro.sim.chaos.archival_cluster_integrity`) — and no block may
sit below its floor: the **coded floor** for archived blocks, the shed
floor for everything else.  Breaches are counted and pinned at zero.

Everything is seeded, so the whole outcome — byte totals, archival
stats, latency ranks — is a determinism signature the test suite pins.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chain.validation import DEFAULT_LIMITS, ValidationLimits
from repro.core.config import ICIConfig
from repro.core.icistrategy import ICIDeployment
from repro.errors import ConfigurationError
from repro.obs.summary import percentile
from repro.obs.tracer import Tracer
from repro.sim.runner import ScenarioRunner
from repro.sim.workload import ReadWorkloadConfig, ZipfReadWorkload


@dataclass(frozen=True)
class ArchivalCompareConfig:
    """One seeded archival-vs-adaptive-only comparison."""

    seed: int = 42
    n_nodes: int = 18
    n_clusters: int = 3
    #: ``r = 3`` so the adaptive cold floor (two replicas) and the
    #: default 3+1 code both tolerate one holder loss — equal
    #: durability, different bills.
    replication: int = 3
    n_blocks: int = 16
    txs_per_block: int = 4
    #: Total reads, split evenly across the convergence rounds.
    reads: int = 150
    zipf_exponent: float = 1.1
    #: Read-batch + sweep-window rounds after production.
    rounds: int = 6
    repair_cadence: float = 5.0
    #: Optional heat-model override (``None`` = HeatConfig defaults).
    heat: "object | None" = None
    #: Optional archival-code override (``None`` = ArchivalConfig 3+1).
    code: "object | None" = None

    def __post_init__(self) -> None:
        if self.n_blocks < 2:
            raise ConfigurationError("compare runs need at least 2 blocks")
        if self.reads < 1 or self.rounds < 1:
            raise ConfigurationError("reads/rounds must be >= 1")
        if self.repair_cadence <= 0:
            raise ConfigurationError("repair_cadence must be > 0")
        if self.zipf_exponent <= 0:
            raise ConfigurationError("zipf_exponent must be > 0")


@dataclass
class ArchivalCompareOutcome:
    """Both runs' storage bills, query outcomes, and coded-floor audit."""

    config: ArchivalCompareConfig
    #: Adaptive-only total (replica bytes; no coded tier).
    adaptive_bytes: int = 0
    #: Archival total: replica bytes *plus* coded chunk bytes.
    coded_bytes: int = 0
    adaptive_queries_completed: int = 0
    coded_queries_completed: int = 0
    adaptive_p95_latency: float = 0.0
    coded_p95_latency: float = 0.0
    archival_stats: dict[str, int] = field(default_factory=dict)
    archived_blocks: int = 0
    chunk_bytes: int = 0
    tier_counts: dict[str, int] = field(default_factory=dict)
    #: Per-round audits that found a cluster unable to produce a block
    #: (no replica and no decodable chunk set).
    coverage_breaches: int = 0
    #: Per-round audits that found a block below its (coded or shed)
    #: floor.
    floor_breaches: int = 0
    audit_rounds: int = 0
    #: The driven deployments, for the bench harness's simulated
    #: metrics (not part of the signature).
    adaptive_deployment: ICIDeployment | None = field(
        default=None, repr=False
    )
    coded_deployment: ICIDeployment | None = field(
        default=None, repr=False
    )
    tracer: Tracer | None = field(default=None, repr=False)

    @property
    def savings_fraction(self) -> float:
        """Stored bytes saved by the archival run, as a fraction."""
        if self.adaptive_bytes == 0:
            return 0.0
        return 1.0 - self.coded_bytes / self.adaptive_bytes

    @property
    def reads_ok(self) -> bool:
        """The archival run completed every query the baseline did."""
        return (
            self.coded_queries_completed >= self.adaptive_queries_completed
        )

    @property
    def converged_safely(self) -> bool:
        """No coverage hole or sub-floor block in any audit round."""
        return (
            self.audit_rounds > 0
            and self.coverage_breaches == 0
            and self.floor_breaches == 0
            and self.archival_stats.get("failed_reconstructions", 0) == 0
        )

    def signature(self) -> dict:
        """The determinism fingerprint: equal for equal (config, seed)."""
        return {
            "adaptive_bytes": self.adaptive_bytes,
            "coded_bytes": self.coded_bytes,
            "adaptive_queries_completed": self.adaptive_queries_completed,
            "coded_queries_completed": self.coded_queries_completed,
            "adaptive_p95_latency": self.adaptive_p95_latency,
            "coded_p95_latency": self.coded_p95_latency,
            "archival_stats": dict(self.archival_stats),
            "archived_blocks": self.archived_blocks,
            "chunk_bytes": self.chunk_bytes,
            "tier_counts": dict(self.tier_counts),
            "coverage_breaches": self.coverage_breaches,
            "floor_breaches": self.floor_breaches,
            "audit_rounds": self.audit_rounds,
            "savings_bp": int(self.savings_fraction * 10_000),
        }


def archival_shed_floor_met(
    deployment: ICIDeployment, planner, tier
) -> bool:
    """Round-by-round floor: coded floor for archived, shed for the rest.

    The lenient convergence-time audit (the analogue of
    :func:`repro.sim.adaptive.shed_floor_met`): archived blocks must
    hold ≥ ``k`` live chunks on distinct members, everything else the
    replica shed floor ``min(target, r, live)``.  A deficit *toward* a
    hot target is convergence work, not a breach; the final audit runs
    the stricter :func:`repro.sim.chaos.archival_floor_met`.
    """
    from repro.sim.faults import live_members

    base = deployment.config.replication
    for view in deployment.clusters.views():
        live = live_members(deployment.network, sorted(view.members))
        if not live:
            continue
        for header in deployment.ledger.store.iter_active_headers():
            if header.is_genesis:
                continue
            block_hash = header.block_hash
            if tier.is_archived(view.cluster_id, block_hash):
                if not tier.coded_floor_ok(view.cluster_id, block_hash):
                    return False
                continue
            target = planner.target_for(block_hash)
            floor = min(max(target, 1), base, len(live))
            holders = sum(
                1
                for member in live
                if deployment.nodes[member].store.has_body(block_hash)
            )
            if holders < floor:
                return False
    return True


def _drive(
    config: ArchivalCompareConfig,
    limits: ValidationLimits,
    archival: bool,
    outcome: ArchivalCompareOutcome,
) -> ICIDeployment:
    """One side of the comparison: produce, read in rounds, sweep."""
    from repro.sim.chaos import (
        archival_cluster_integrity,
        archival_floor_met,
    )

    ici = ICIConfig(
        n_clusters=config.n_clusters,
        replication=config.replication,
        limits=limits,
    )
    deployment = ICIDeployment(config.n_nodes, config=ici)
    planner = deployment.enable_adaptive_replication(config.heat)
    tier = (
        deployment.enable_archival_tier(config.code) if archival else None
    )
    runner = ScenarioRunner(deployment, limits=limits, seed=config.seed)
    report = runner.produce_blocks(
        config.n_blocks, txs_per_block=config.txs_per_block
    )
    block_hashes = report.block_hashes
    # Both sides replay the *same* read sequence: the workload is a pure
    # function of its seed and the (identical) population sizes.
    reads = ZipfReadWorkload(
        ReadWorkloadConfig(
            seed=config.seed ^ 0x2EAD, exponent=config.zipf_exponent
        )
    )
    node_ids = sorted(deployment.nodes)
    repair = deployment.repair
    per_round, remainder = divmod(config.reads, config.rounds)
    for round_index in range(config.rounds):
        batch = per_round + (1 if round_index < remainder else 0)
        for requester, block_hash in reads.reads(
            block_hashes, node_ids, batch
        ):
            deployment.retrieve_block(requester, block_hash)
        deployment.run()
        repair.start(cadence=config.repair_cadence)
        deployment.network.clock.run_for(config.repair_cadence * 2)
        repair.stop()
        deployment.run()
        if tier is not None:
            outcome.audit_rounds += 1
            if not all(
                archival_cluster_integrity(
                    deployment, tier, view.cluster_id
                )
                for view in deployment.clusters.views()
            ):
                outcome.coverage_breaches += 1
            if not archival_shed_floor_met(deployment, planner, tier):
                outcome.floor_breaches += 1

    completed = [
        record.completed_at - record.started_at
        for record in deployment.metrics.queries
        if record.completed_at is not None
    ]
    p95 = percentile(sorted(completed), 0.95) if completed else 0.0
    total_bytes = deployment.storage_report().total_bytes
    if tier is None:
        outcome.adaptive_bytes = total_bytes
        outcome.adaptive_queries_completed = len(completed)
        outcome.adaptive_p95_latency = p95
    else:
        outcome.coded_bytes = total_bytes + tier.total_chunk_bytes
        outcome.coded_queries_completed = len(completed)
        outcome.coded_p95_latency = p95
        outcome.archival_stats = tier.as_dict()
        outcome.archived_blocks = tier.archived_blocks
        outcome.chunk_bytes = tier.total_chunk_bytes
        outcome.tier_counts = planner.tier_counts()
        if not archival_floor_met(deployment, planner, tier):
            # Final state must also satisfy the strict tier-aware floor
            # (hot targets filled, coded floors held).
            outcome.floor_breaches += 1
    return deployment


def run_archival_compare(
    config: ArchivalCompareConfig | None = None,
    limits: ValidationLimits = DEFAULT_LIMITS,
    tracer: Tracer | None = None,
) -> ArchivalCompareOutcome:
    """Run the adaptive-only and archival deployments and compare.

    With a ``tracer``, both deployments attach to it (separate track
    labels), so one trace carries both timelines side by side —
    including the archival run's ``block_archived`` / ``block_thawed``
    instants and the "tier archival coded bytes" counter series.
    """
    from repro.obs.hooks import install_tracing

    config = config or ArchivalCompareConfig()
    outcome = ArchivalCompareOutcome(config=config, tracer=tracer)
    for archival in (False, True):
        deployment = _drive(config, limits, archival, outcome)
        if tracer is not None:
            install_tracing(
                deployment,
                tracer,
                label="archival" if archival else "adaptive",
            )
        if archival:
            outcome.coded_deployment = deployment
        else:
            outcome.adaptive_deployment = deployment
    return outcome
