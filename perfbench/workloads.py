"""The benchmark's workloads, driven through the simulator's public API.

Each workload has a fixed deployment configuration; the seed drives only
its generated inputs (transaction stream, proposer schedule, Zipf read
stream, fault plan).  A *pass* is one complete, closed-loop run of the
workload: :meth:`Workload.setup` builds everything the pass needs (timed
as set-up), and :func:`run_pass` times :meth:`Workload.run` and returns a
:class:`PassResult`.  Every pass of one seed must produce the same
simulated signature.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import reference
from spans import ROOT_SPAN

from repro.core.icistrategy import ICIDeployment
from repro.net.gossip import GossipProtocol
from repro.obs.summary import percentile
from repro.sim.runner import ScenarioRunner
from repro.sim.scenario import BENCH_LIMITS, Scenario, build_deployment
from repro.sim.workload import (
    ReadWorkloadConfig,
    TransactionWorkload,
    WorkloadConfig,
    ZipfReadWorkload,
)


@dataclass
class PassResult:
    """What one timed pass did, measured and simulated."""

    #: Simulated fingerprint; must repeat exactly for a seed.
    signature: dict = field(default_factory=dict)
    #: Host seconds of the timed phase (reference samples excluded).
    wall_s: float = 0.0
    #: Events the clock ran in the timed phase.
    events: int = 0
    #: Host seconds per produced block, disseminate to drained.
    block_walls: list[float] = field(default_factory=list)
    #: Reference-kernel seconds sampled right after each block.
    block_refs: list[float] = field(default_factory=list)
    #: The timed phase cut at every drain: host seconds of each segment
    #: and the reference-kernel sample taken right after it (samples are
    #: not part of any segment).
    segments: list[float] = field(default_factory=list)
    refs: list[float] = field(default_factory=list)
    #: Host seconds of each read phase (serve only).
    read_walls: list[float] = field(default_factory=list)
    #: Operations (blocks, reads, audit queries) issued and completed.
    attempted: int = 0
    ok: int = 0
    #: Correctness checks this pass broke (empty = correct).
    violations: list[str] = field(default_factory=list)
    error: str | None = None
    sim: dict = field(default_factory=dict)
    #: Timed-phase deltas of the deployment's public counters.
    counters: dict = field(default_factory=dict)

    @property
    def failed(self) -> int:
        """Operations that did not complete (or were never reached)."""
        return self.attempted - self.ok


class BlockTimer:
    """Times each block from ``disseminate`` until the next drain returns.

    Patches :class:`ICIDeployment` while active, so it also times the
    blocks that harnesses such as ``run_chaos`` produce internally.  With
    ``reference``, the timed phase is also cut into segments at every
    drain, and the reference kernel runs at each cut (outside every
    segment and block), so each segment and each block has a speed
    sample taken right after it.  With a span recorder, every block
    starts a new span group.
    """

    def __init__(self, recorder=None, reference: bool = False) -> None:
        self.recorder = recorder
        self.reference = reference
        self.bind(PassResult())
        self._started: float | None = None
        self._mark = 0.0

    def bind(self, result: "PassResult") -> None:
        """Record into ``result``'s lists."""
        self.walls = result.block_walls
        self.block_refs = result.block_refs
        self.segments = result.segments
        self.refs = result.refs

    def start(self) -> None:
        """The timed phase begins now."""
        self._mark = time.perf_counter()

    def cut(self) -> float | None:
        """End a segment now and take its reference sample."""
        if not self.reference:
            return None
        self.segments.append(time.perf_counter() - self._mark)
        seconds = reference.sample()
        self.refs.append(seconds)
        self._mark = time.perf_counter()
        return seconds

    def __enter__(self) -> "BlockTimer":
        disseminate = ICIDeployment.disseminate
        drain = ICIDeployment.run
        timer = self

        def timed_disseminate(deployment, block, proposer_id):
            if timer.recorder is not None and timer.recorder.on:
                timer.recorder.current_group += 1
            timer._started = time.perf_counter()
            return disseminate(deployment, block, proposer_id)

        def timed_run(deployment):
            drain(deployment)
            block = timer._started is not None
            if block:
                timer.walls.append(time.perf_counter() - timer._started)
                timer._started = None
            seconds = timer.cut()
            if block and seconds is not None:
                timer.block_refs.append(seconds)

        ICIDeployment.disseminate = timed_disseminate
        ICIDeployment.run = timed_run
        self._disseminate = disseminate
        return self

    def __exit__(self, *exc) -> None:
        ICIDeployment.disseminate = self._disseminate
        del ICIDeployment.run  # back to the inherited StorageDeployment.run


# ------------------------------------------------------------- counters
def gossip_protocols(deployment) -> list[GossipProtocol]:
    """Every gossip protocol an engine of the deployment owns."""
    found = []
    for engine in deployment.engines.values():
        found.extend(
            value
            for value in vars(engine).values()
            if isinstance(value, GossipProtocol)
        )
    return found


def counters(deployment) -> dict[str, int]:
    """A snapshot of the deployment's public counters."""
    network = deployment.network
    traffic = network.traffic
    stats = deployment.metrics.router_stats
    router = deployment.router
    gossip = gossip_protocols(deployment)
    queries = deployment.metrics.queries
    tier = deployment.archival
    snapshot = {
        "events": network.clock.processed,
        "messages": traffic.total_messages,
        "bytes": traffic.total_bytes,
        "dropped": network.dropped_messages,
        "router_sends": stats.total_sends,
        "retries": stats.total_retries,
        "timeouts": stats.total_timeouts,
        "degraded": stats.total_degraded,
        "announces": sum(g.stats.announces_sent for g in gossip),
        "duplicate_announces": sum(g.stats.duplicate_announces for g in gossip),
        "votes": sum(
            count
            for kind, count in traffic.messages_by_kind.items()
            if router.handles(kind) and router.owner_of(kind) == "verification"
        ),
        "reads": len(queries),
        "read_attempts": sum(record.attempts for record in queries),
        "sweeps": deployment.repair.stats.sweeps,
        "blocks_re_replicated": deployment.repair.stats.blocks_re_replicated,
        "reconstructions": tier.stats.reconstructions if tier else 0,
        "chunk_bytes_read": tier.stats.chunk_bytes_read if tier else 0,
    }
    return snapshot


def delta(after: dict[str, int], before: dict[str, int]) -> dict[str, int]:
    return {key: after[key] - before[key] for key in after}


def bytes_per_node(deployment) -> float:
    """Mean stored ledger bytes per node, coded chunks included."""
    tier = deployment.archival
    chunk_bytes = tier.total_chunk_bytes if tier is not None else 0
    report = deployment.storage_report()
    return (report.total_bytes + chunk_bytes) / report.node_count


def finalized_among(deployment, block_hashes) -> int:
    """How many of ``block_hashes`` every cluster has finalized."""
    finalized = deployment.metrics.cluster_finalized_at
    clusters = [view.cluster_id for view in deployment.clusters.views()]
    return sum(
        1
        for block_hash in block_hashes
        if all((block_hash, cluster) in finalized for cluster in clusters)
    )


# ------------------------------------------------------------ workloads
class Workload:
    """One named benchmark workload."""

    name = ""

    def setup(self, seed: int):
        """Build the pass's inputs and deployment (timed as set-up)."""
        raise NotImplementedError

    def run(self, prepared, result: PassResult, timer: BlockTimer) -> None:
        """Drive the timed phase, filling ``result`` as it goes."""
        raise NotImplementedError

    def finish(self, prepared, result: PassResult) -> None:
        """Compute the pass's signature and checks (after timing)."""
        raise NotImplementedError

    def planned(self) -> int:
        """Operations one pass issues."""
        raise NotImplementedError


def _runner(deployment, seed: int) -> ScenarioRunner:
    return ScenarioRunner(
        deployment,
        workload=TransactionWorkload(WorkloadConfig(seed=seed)),
        limits=BENCH_LIMITS,
        seed=seed,
    )


class Ingest(Workload):
    """ROADMAP's scale curve: one large clean ICI network taking blocks."""

    name = "ingest"
    scenario = Scenario(n_nodes=384, n_groups=48, replication=1)
    blocks = 24
    txs_per_block = 8

    def planned(self) -> int:
        return self.blocks

    def setup(self, seed: int):
        deployment = build_deployment(self.scenario)
        return {"deployment": deployment, "runner": _runner(deployment, seed)}

    def run(self, prepared, result, timer) -> None:
        runner = prepared["runner"]
        hashes = prepared["hashes"] = []
        for _ in range(self.blocks):
            report = runner.produce_blocks(1, txs_per_block=self.txs_per_block)
            hashes.extend(report.block_hashes)

    def finish(self, prepared, result) -> None:
        deployment = prepared["deployment"]
        hashes = prepared.get("hashes", [])
        result.ok = finalized_among(deployment, hashes)
        if result.ok < len(hashes):
            result.violations.append(
                f"{len(hashes) - result.ok} of {len(hashes)} blocks not "
                "finalized in every cluster"
            )
        result.sim = {
            "sim_bytes_per_node": bytes_per_node(deployment),
            "sim_messages_per_block": result.counters["messages"]
            / max(len(hashes), 1),
        }
        result.signature = {
            "virtual_seconds": deployment.network.now,
            "events": deployment.network.clock.processed,
            "messages": deployment.network.traffic.total_messages,
            "bytes": deployment.network.traffic.total_bytes,
            "finalized_blocks": deployment.total_finalized_blocks(),
            "stored_bytes": deployment.storage_report().total_bytes,
        }


class Serve(Workload):
    """A coded-storage node serving Zipf reads, with blocks and sweeps."""

    name = "serve"
    scenario = Scenario(n_nodes=96, n_groups=12, replication=3)
    preload_blocks = 32
    rounds = 12
    reads_per_round = 2_000
    txs_per_block = 8
    zipf_exponent = 1.1
    sweep_cadence = 5.0

    def planned(self) -> int:
        return self.rounds * (self.reads_per_round + 1)

    def setup(self, seed: int):
        deployment = build_deployment(self.scenario)
        deployment.enable_adaptive_replication()
        tier = deployment.enable_archival_tier()
        runner = _runner(deployment, seed)
        report = runner.produce_blocks(
            self.preload_blocks, txs_per_block=self.txs_per_block
        )
        return {
            "deployment": deployment,
            "runner": runner,
            "tier": tier,
            "hashes": list(report.block_hashes),
            "reads": ZipfReadWorkload(
                ReadWorkloadConfig(seed=seed, exponent=self.zipf_exponent)
            ),
            "records": [],
            "new_blocks": [],
        }

    def run(self, prepared, result, timer) -> None:
        deployment = prepared["deployment"]
        runner = prepared["runner"]
        hashes = prepared["hashes"]
        reads = prepared["reads"]
        records = prepared["records"]
        node_ids = sorted(deployment.nodes)
        recorder = timer.recorder
        for _ in range(self.rounds):
            if recorder is not None and recorder.on:
                recorder.current_group += 1
            started = time.perf_counter()
            for requester, block_hash in reads.reads(
                hashes, node_ids, self.reads_per_round
            ):
                records.append(deployment.retrieve_block(requester, block_hash))
            deployment.run()
            result.read_walls.append(time.perf_counter() - started)
            report = runner.produce_blocks(1, txs_per_block=self.txs_per_block)
            hashes.extend(report.block_hashes)
            prepared["new_blocks"].extend(report.block_hashes)
            if recorder is not None and recorder.on:
                recorder.current_group += 1
            deployment.repair.start(cadence=self.sweep_cadence)
            deployment.network.clock.run_for(self.sweep_cadence * 2)
            deployment.repair.stop()
            deployment.run()

    def finish(self, prepared, result) -> None:
        deployment = prepared["deployment"]
        tier = prepared["tier"]
        records = prepared["records"]
        new_blocks = prepared["new_blocks"]
        served = [
            record
            for record in records
            if record.completed_at is not None and not record.degraded
        ]
        finalized = finalized_among(deployment, new_blocks)
        result.ok = len(served) + finalized
        if len(served) < len(records):
            result.violations.append(
                f"{len(records) - len(served)} of {len(records)} reads "
                "incomplete or degraded"
            )
        if finalized < len(new_blocks):
            result.violations.append(
                f"{len(new_blocks) - finalized} of {len(new_blocks)} blocks "
                "not finalized in every cluster"
            )
        if tier.stats.failed_reconstructions:
            result.violations.append(
                f"{tier.stats.failed_reconstructions} failed reconstructions"
            )
        latencies = sorted(record.latency for record in served)
        result.sim = {
            "sim_bytes_per_node": bytes_per_node(deployment),
            "sim_read_p50_s": percentile(latencies, 0.50) if latencies else 0.0,
            "sim_read_p99_s": percentile(latencies, 0.99) if latencies else 0.0,
            "reads_completed": len(served),
        }
        result.signature = {
            "virtual_seconds": deployment.network.now,
            "events": deployment.network.clock.processed,
            "messages": deployment.network.traffic.total_messages,
            "bytes": deployment.network.traffic.total_bytes,
            "finalized_blocks": deployment.total_finalized_blocks(),
            "reads_completed": len(served),
            "reconstructions": tier.stats.reconstructions,
            "stored_bytes": deployment.storage_report().total_bytes,
            "chunk_bytes": tier.total_chunk_bytes,
        }


class Chaos(Workload):
    """``run_chaos`` under drop/duplicate/delay faults, a crash and a join."""

    name = "chaos"
    n_nodes = 144
    n_clusters = 18
    n_blocks = 32

    def planned(self) -> int:
        return self.n_blocks + self.config(0).queries

    def config(self, seed: int):
        from repro.sim.chaos import ChaosConfig

        return ChaosConfig(
            seed=seed,
            n_nodes=self.n_nodes,
            n_clusters=self.n_clusters,
            n_blocks=self.n_blocks,
        )

    def setup(self, seed: int):
        """Build the deployment ``run_chaos`` would build for this config.

        ``run_chaos`` constructs its deployment internally; the pass hands
        it this prebuilt one (same arguments), so construction is timed as
        set-up like in the other workloads.
        """
        from repro.chain.validation import DEFAULT_LIMITS
        from repro.core.config import ICIConfig

        config = self.config(seed)
        ici = ICIConfig(
            n_clusters=config.n_clusters,
            replication=config.replication,
            limits=DEFAULT_LIMITS,
        )
        deployment = ICIDeployment(config.n_nodes, config=ici)
        return {
            "deployment": deployment,
            "config": config,
            "args": (config.n_nodes, ici),
        }

    def run(self, prepared, result, timer) -> None:
        import repro.sim.chaos as chaos

        deployment = prepared["deployment"]
        n_nodes, ici = prepared["args"]

        def prebuilt(count, config=None, **kwargs):
            if count == n_nodes and config == ici and not kwargs:
                return deployment
            return ICIDeployment(count, config=config, **kwargs)

        chaos.ICIDeployment = prebuilt
        try:
            prepared["outcome"] = chaos.run_chaos(prepared["config"])
        finally:
            chaos.ICIDeployment = ICIDeployment

    def finish(self, prepared, result) -> None:
        outcome = prepared.get("outcome")
        if outcome is None:
            return
        deployment = prepared["deployment"]
        result.ok = outcome.finalized_blocks + outcome.queries_completed
        if not outcome.integrity_restored:
            result.violations.append("cluster integrity not restored")
        result.sim = {
            "sim_bytes_per_node": bytes_per_node(deployment),
            "sim_messages_per_block": result.counters["messages"]
            / max(outcome.blocks_produced, 1),
            "finalized_blocks": outcome.finalized_blocks,
            "trace_events": outcome.tracer.recorded,
        }
        result.signature = {
            "chaos": outcome.signature(),
            "messages": deployment.network.traffic.total_messages,
            "bytes": deployment.network.traffic.total_bytes,
            "stored_bytes": deployment.storage_report().total_bytes,
        }


WORKLOADS: dict[str, Workload] = {
    workload.name: workload for workload in (Ingest(), Serve(), Chaos())
}


def run_pass(
    workload: Workload, prepared, timer: BlockTimer, recorder=None
) -> PassResult:
    """Run one timed pass; a raising workload becomes a failed pass.

    With a ``recorder`` the timed phase is recorded under one root span
    (:data:`~spans.ROOT_SPAN`), which also turns recording on and off.
    """
    deployment = prepared["deployment"]
    result = PassResult(attempted=workload.planned())
    before = counters(deployment)
    timer.bind(result)
    if recorder is not None:
        recorder.clear()
        recorder.on = True
        root = recorder.open(recorder.name_id(ROOT_SPAN))
    started = time.perf_counter()
    timer.start()
    try:
        workload.run(prepared, result, timer)
    except Exception as exc:  # noqa: BLE001 - reported, never swallowed
        result.error = f"{type(exc).__name__}: {exc}"
    ended = time.perf_counter()
    result.wall_s = ended - started
    if timer.cut() is not None:
        result.wall_s = sum(result.segments)
    if recorder is not None:
        recorder.close(root)
        recorder.on = False
    result.counters = delta(counters(deployment), before)
    result.events = result.counters["events"]
    try:
        workload.finish(prepared, result)
    except Exception as exc:  # noqa: BLE001
        result.error = result.error or f"{type(exc).__name__}: {exc}"
    if result.error is not None:
        result.violations.append(f"raised {result.error}")
    return result
