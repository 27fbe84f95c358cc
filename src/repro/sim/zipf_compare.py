"""Storage-tier A/B comparison under a Zipf read workload (E18, E19).

The acceptance experiment for each storage tier: drive two same-seed
deployments — a **control** and a **treatment** that adds one tier on
top of it — through an identical block stream and an identical
Zipf-skewed read stream, let the anti-entropy sweep converge placements
(and archive the cold tail) between read batches, and compare their
bills.  :attr:`ZipfCompareConfig.treatment` picks the pair:

* ``"adaptive"`` (E18) — fixed ``r`` against heat-aware adaptive
  replication (:mod:`repro.storage.heat`).  Total ledger bytes must drop
  meaningfully, because the cold tail (the bulk of a Zipf-read chain)
  sheds to one in-cluster copy while only the thin hot head gains
  extras; p95 query latency must not regress, because the extra hot
  replicas turn the most popular reads into local hits while cold reads
  still land on their placement-first keeper.
* ``"archival"`` (E19) — adaptive-only against adaptive plus the
  Reed–Solomon archival tier (:mod:`repro.storage.coded`).  Total
  stored bytes (replicas plus chunks) must drop meaningfully, because
  every cold block goes from its adaptive floor of full replicas to
  ``n/k`` body-sizes of coded chunks; every query must still complete —
  cold reads fall through the replica failover tail into a lazy
  ``k``-chunk decode.  E19 runs at ``replication=3`` so the framing is
  equal durability: the adaptive cold floor is then two full replicas
  per cluster and the default 3+1 code also tolerates one holder loss.

Between rounds the treatment is audited (:mod:`repro.invariants`):
every cluster must still produce every block (:func:`~repro.invariants.
coverage`) and no block may sit below its converging floor
(:func:`~repro.invariants.floor`); the final state must also meet the
strict floor.  Breaches are counted and pinned at zero.

Everything is seeded, so the whole outcome — byte totals, tier counts,
tier counters, latency ranks — is a determinism signature.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chain.validation import DEFAULT_LIMITS, ValidationLimits
from repro.core.config import ICIConfig
from repro.core.icistrategy import ICIDeployment
from repro.errors import ConfigurationError
from repro.invariants import coverage, floor
from repro.obs.summary import percentile
from repro.sim.runner import ScenarioRunner
from repro.sim.workload import ReadWorkloadConfig, ZipfReadWorkload

#: Treatments, each one tier on top of its control.
ADAPTIVE = "adaptive"
ARCHIVAL = "archival"


@dataclass(frozen=True)
class ZipfCompareConfig:
    """One seeded control-vs-treatment comparison."""

    treatment: str = ADAPTIVE
    seed: int = 42
    n_nodes: int = 18
    n_clusters: int = 3
    replication: int = 2
    n_blocks: int = 16
    txs_per_block: int = 4
    #: Total reads, split evenly across the convergence rounds.
    reads: int = 150
    zipf_exponent: float = 1.1
    #: Read-batch + sweep-window rounds after production.
    rounds: int = 6
    repair_cadence: float = 5.0

    def __post_init__(self) -> None:
        if self.treatment not in (ADAPTIVE, ARCHIVAL):
            raise ConfigurationError(
                f"treatment must be {ADAPTIVE!r} or {ARCHIVAL!r}"
            )
        if self.n_blocks < 2:
            raise ConfigurationError("compare runs need at least 2 blocks")
        if self.reads < 1 or self.rounds < 1:
            raise ConfigurationError("reads/rounds must be >= 1")
        if self.repair_cadence <= 0:
            raise ConfigurationError("repair_cadence must be > 0")
        if self.zipf_exponent <= 0:
            raise ConfigurationError("zipf_exponent must be > 0")


@dataclass
class ZipfCompareOutcome:
    """Both runs' storage bills, query outcomes, and the safety audit."""

    config: ZipfCompareConfig
    #: Stored bytes: replica bytes plus any coded chunk bytes.
    control_bytes: int = 0
    treatment_bytes: int = 0
    control_queries_completed: int = 0
    treatment_queries_completed: int = 0
    control_p95_latency: float = 0.0
    treatment_p95_latency: float = 0.0
    #: The treatment's planner: blocks and held body bytes per tier,
    #: and its ``AdaptiveStats``.
    tier_counts: dict[str, int] = field(default_factory=dict)
    tier_body_bytes: dict[str, int] = field(default_factory=dict)
    adaptive_stats: dict[str, int] = field(default_factory=dict)
    #: The treatment's archival tier (``archival`` only).
    archival_stats: dict[str, int] = field(default_factory=dict)
    archived_blocks: int = 0
    chunk_bytes: int = 0
    #: Per-round audits that found a cluster unable to produce a block.
    coverage_breaches: int = 0
    #: Per-round audits that found a block below its converging floor,
    #: plus one if the final state misses the strict floor.
    floor_breaches: int = 0
    audit_rounds: int = 0
    #: The driven deployments, for the bench harness's simulated
    #: metrics (not part of the signature).
    control_deployment: ICIDeployment | None = field(
        default=None, repr=False
    )
    treatment_deployment: ICIDeployment | None = field(
        default=None, repr=False
    )

    @property
    def savings_fraction(self) -> float:
        """Stored bytes saved by the treatment, as a fraction."""
        if self.control_bytes == 0:
            return 0.0
        return 1.0 - self.treatment_bytes / self.control_bytes

    @property
    def latency_ok(self) -> bool:
        """Treatment p95 query latency equal or better than control."""
        return self.treatment_p95_latency <= self.control_p95_latency

    @property
    def reads_ok(self) -> bool:
        """The treatment completed every query the control did."""
        return (
            self.treatment_queries_completed
            >= self.control_queries_completed
        )

    @property
    def converged_safely(self) -> bool:
        """No coverage hole, sub-floor block, or failed decode."""
        return (
            self.audit_rounds > 0
            and self.coverage_breaches == 0
            and self.floor_breaches == 0
            and self.adaptive_stats.get("floor_violations", 0) == 0
            and self.archival_stats.get("failed_reconstructions", 0) == 0
        )

    def signature(self) -> dict:
        """The determinism fingerprint: equal for equal (config, seed)."""
        return {
            "control_bytes": self.control_bytes,
            "treatment_bytes": self.treatment_bytes,
            "control_queries_completed": self.control_queries_completed,
            "treatment_queries_completed": (
                self.treatment_queries_completed
            ),
            "control_p95_latency": self.control_p95_latency,
            "treatment_p95_latency": self.treatment_p95_latency,
            "tier_counts": dict(self.tier_counts),
            "tier_body_bytes": dict(self.tier_body_bytes),
            "adaptive_stats": dict(self.adaptive_stats),
            "archival_stats": dict(self.archival_stats),
            "archived_blocks": self.archived_blocks,
            "chunk_bytes": self.chunk_bytes,
            "coverage_breaches": self.coverage_breaches,
            "floor_breaches": self.floor_breaches,
            "audit_rounds": self.audit_rounds,
            "savings_bp": int(self.savings_fraction * 10_000),
        }


def _drive(
    config: ZipfCompareConfig,
    limits: ValidationLimits,
    treated: bool,
    outcome: ZipfCompareOutcome,
) -> ICIDeployment:
    """One side of the comparison: produce, read in rounds, sweep."""
    ici = ICIConfig(
        n_clusters=config.n_clusters,
        replication=config.replication,
        limits=limits,
    )
    deployment = ICIDeployment(config.n_nodes, config=ici)
    planner = (
        deployment.enable_adaptive_replication()
        if treated or config.treatment == ARCHIVAL
        else None
    )
    tier = (
        deployment.enable_archival_tier()
        if treated and config.treatment == ARCHIVAL
        else None
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
        if treated:
            outcome.audit_rounds += 1
            if coverage(deployment):
                outcome.coverage_breaches += 1
            if floor(deployment, converging=True):
                outcome.floor_breaches += 1

    completed = [
        record.completed_at - record.started_at
        for record in deployment.metrics.queries
        if record.completed_at is not None
    ]
    p95 = percentile(sorted(completed), 0.95) if completed else 0.0
    total_bytes = deployment.storage_report().total_bytes
    if tier is not None:
        # Coded chunks live beside the replicas the report counts.
        total_bytes += tier.total_chunk_bytes
    if not treated:
        outcome.control_bytes = total_bytes
        outcome.control_queries_completed = len(completed)
        outcome.control_p95_latency = p95
        return deployment
    outcome.treatment_bytes = total_bytes
    outcome.treatment_queries_completed = len(completed)
    outcome.treatment_p95_latency = p95
    outcome.tier_counts = planner.tier_counts()
    outcome.tier_body_bytes = planner.tier_body_bytes()
    outcome.adaptive_stats = dict(planner.as_dict())
    if tier is not None:
        outcome.archival_stats = tier.as_dict()
        outcome.archived_blocks = tier.archived_blocks
        outcome.chunk_bytes = tier.total_chunk_bytes
    if floor(deployment):
        # The final state must also meet the strict floor (hot targets
        # filled, coded floors held).
        outcome.floor_breaches += 1
    return deployment


def run_zipf_compare(
    config: ZipfCompareConfig | None = None,
    limits: ValidationLimits = DEFAULT_LIMITS,
) -> ZipfCompareOutcome:
    """Run the control and treatment deployments and compare them."""
    config = config or ZipfCompareConfig()
    outcome = ZipfCompareOutcome(config=config)
    outcome.control_deployment = _drive(config, limits, False, outcome)
    outcome.treatment_deployment = _drive(config, limits, True, outcome)
    return outcome
