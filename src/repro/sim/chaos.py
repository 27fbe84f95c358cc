"""Chaos scenarios: seeded end-to-end runs under the fault layer.

A chaos run drives the full ICIStrategy stack through hostile weather —
message drop/duplicate/delay rates, mid-run crashes and stalls, optional
partitions — then heals the network, reconciles every replica, and
checks the paper's core claim survived: **each cluster again holds the
complete ledger**.  Everything is derived from one seed, so the same
configuration reproduces identical fault schedules, retry/timeout
counters, and outcomes run after run (the chaos test suite pins this).

Shape of a run (:func:`run_chaos`):

1. produce the first half of the block stream under message-level faults;
2. crash/stall deterministically-chosen victims (removed from the
   proposer rotation — a crashed proposer would strand its block) and,
   optionally, cut a minority partition;
3. produce the second half degraded — the engines' retry probes carry
   delivery as far as live replicas allow;
4. heal, restore the rotation, and :func:`reconcile` every node (header
   catch-up, assigned-body refetch through the query path, finality
   re-kick via the verification probes);
5. exercise a join (bootstrap retries) and a batch of queries under the
   still-lossy link rates;
6. audit per-cluster integrity.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.chain.validation import DEFAULT_LIMITS, ValidationLimits
from repro.core.config import ICIConfig
from repro.core.icistrategy import ICIDeployment
from repro.errors import ConfigurationError
from repro.obs.hooks import DeliveryLatency, install_tracing
from repro.obs.tracer import Tracer
from repro.protocols.reliability import RetryPolicy
from repro.sim.faults import FaultConfig, FaultPlan, PartitionWindow
from repro.sim.runner import ScenarioRunner


@dataclass(frozen=True)
class ChaosConfig:
    """One seeded chaos scenario (all randomness derives from ``seed``)."""

    seed: int = 0
    n_nodes: int = 16
    n_clusters: int = 4
    replication: int = 2
    n_blocks: int = 8
    txs_per_block: int = 2
    drop_rate: float = 0.2
    duplicate_rate: float = 0.05
    delay_rate: float = 0.05
    delay_seconds: float = 1.0
    crash_count: int = 1
    stall_count: int = 0
    partition: bool = False
    join_after: bool = True
    queries: int = 8
    #: Kademlia-style DHT overlay (:mod:`repro.dht`): queries resolve
    #: holders via FIND_VALUE, the join bootstraps by self-lookup, the
    #: heal phase refreshes routing tables and republishes provider
    #: records, and the audit adds a table-liveness census plus a
    #: full lookup batch.  Off by default: non-DHT signatures must
    #: stay byte-identical (golden pins).
    dht: bool = False
    #: Failure-domain awareness (:mod:`repro.net.domains`): placement
    #: spreads replicas across zones, phase 2 replaces the sampled
    #: victims with a full **zone outage** (every live member of one
    #: deterministically-drawn zone crashes at once), and the audit
    #: adds a post-heal domain-diversity check.  Off by default:
    #: domain-oblivious signatures must stay byte-identical (golden
    #: pins).
    domains: bool = False
    #: Zones in the failure-domain map (domain runs only).
    zones: int = 4

    def __post_init__(self) -> None:
        if self.n_blocks < 2:
            raise ConfigurationError("chaos runs need at least 2 blocks")
        if self.crash_count < 0 or self.stall_count < 0 or self.queries < 0:
            raise ConfigurationError("counts must be >= 0")
        if self.domains and self.zones < 2:
            raise ConfigurationError("domain runs need at least 2 zones")


@dataclass
class ChaosOutcome:
    """What one chaos run did and whether the network came back whole."""

    config: ChaosConfig
    blocks_produced: int = 0
    finalized_blocks: int = 0
    crashed: list[int] = field(default_factory=list)
    stalled: list[int] = field(default_factory=list)
    partitioned: list[int] = field(default_factory=list)
    fault_stats: dict[str, int] = field(default_factory=dict)
    retries: dict[str, int] = field(default_factory=dict)
    timeouts: dict[str, int] = field(default_factory=dict)
    degraded: dict[str, int] = field(default_factory=dict)
    refetched_bodies: int = 0
    queries_attempted: int = 0
    queries_completed: int = 0
    queries_degraded: int = 0
    bootstrap_complete: bool | None = None
    bootstrap_bodies_unavailable: int = 0
    cluster_integrity: dict[int, bool] = field(default_factory=dict)
    #: DHT overlay counters + audit (``DHTStats.as_dict()`` merged with
    #: the table census and the audit lookup batch); empty on non-DHT
    #: runs, and only a non-empty dict joins :meth:`signature` — the
    #: same opt-in discipline as the endurance outcome's ``adaptive``.
    dht: dict[str, int] = field(default_factory=dict)
    #: Failure-domain census + audit (zone killed, victim count,
    #: placement spread deficit, diversity repairs, post-heal diversity
    #: flag); empty on domain-oblivious runs, and only a non-empty dict
    #: joins :meth:`signature` — the same opt-in discipline as ``dht``.
    domains: dict[str, int] = field(default_factory=dict)
    virtual_seconds: float = 0.0
    events_processed: int = 0
    #: Per-kind tracked-send counts (``RouterStats.sends``); the
    #: denominator for the report renderers' degraded-percentage
    #: column.  Not part of :meth:`signature` — the per-kind retry/
    #: timeout/degraded counters above already pin the same stream.
    sends: dict[str, int] = field(default_factory=dict)
    #: Per-kind delivery-latency percentiles (virtual time) over every
    #: delivery whose send was witnessed, from the run's
    #: :class:`~repro.obs.hooks.DeliveryLatency` observer (independent
    #: of any tracer's ring capacity); quantifies degradation beyond
    #: the counters.  Not part of :meth:`signature` — latency values
    #: are floats derived from the same deterministic stream the
    #: counters pin.
    latency_percentiles: dict[str, dict[str, float]] = field(
        default_factory=dict
    )
    #: The caller-supplied tracer (``repro chaos --trace`` passes one
    #: and exports it), or a disabled :class:`Tracer` that recorded
    #: nothing.
    tracer: Tracer | None = field(default=None, repr=False)

    @property
    def integrity_restored(self) -> bool:
        """Did every cluster end the run holding the full ledger?"""
        return bool(self.cluster_integrity) and all(
            self.cluster_integrity.values()
        )

    def signature(self) -> dict:
        """The determinism fingerprint: equal for equal (config, seed).

        Covers every counter the fault and reliability layers produced;
        the chaos tests assert two same-seed runs match exactly.
        """
        signature = {
            "fault_stats": dict(self.fault_stats),
            "retries": dict(self.retries),
            "timeouts": dict(self.timeouts),
            "degraded": dict(self.degraded),
            "blocks_produced": self.blocks_produced,
            "finalized_blocks": self.finalized_blocks,
            "crashed": list(self.crashed),
            "stalled": list(self.stalled),
            "refetched_bodies": self.refetched_bodies,
            "queries_completed": self.queries_completed,
            "queries_degraded": self.queries_degraded,
            "virtual_seconds": self.virtual_seconds,
            "events_processed": self.events_processed,
        }
        if self.dht:
            signature["dht"] = dict(self.dht)
        if self.domains:
            signature["domains"] = dict(self.domains)
        return signature


#: Backoff pacing chaos runs install on the query tracker.
CHAOS_QUERY_POLICY = RetryPolicy(
    base_timeout=2.0, backoff=1.5, max_timeout=12.0, rounds=3
)


def _observe(
    deployment: ICIDeployment, tracer: Tracer | None
) -> tuple[Tracer, DeliveryLatency]:
    """Attach the latency observer, and full tracing for a given tracer.

    Without a tracer the run gets a disabled :class:`Tracer`, so its
    phase spans cost nothing and the outcome still carries a tracer
    object.
    """
    latency = DeliveryLatency(deployment.network.clock)
    deployment.router.add_observer(latency)
    if tracer is None:
        tracer = Tracer(enabled=False)
    else:
        install_tracing(deployment, tracer)
    return tracer, latency


def run_chaos(
    config: ChaosConfig | None = None,
    limits: ValidationLimits = DEFAULT_LIMITS,
    tracer: Tracer | None = None,
) -> ChaosOutcome:
    """Run one seeded chaos scenario end to end (see module docs).

    The delivery-latency percentiles in the outcome come from a lean
    :class:`~repro.obs.hooks.DeliveryLatency` router observer attached
    to every run.  A full trace is recorded only when the caller passes
    a ``tracer``; otherwise ``outcome.tracer`` is a disabled one.  Both
    are observation-only — they draw no randomness and schedule
    nothing, so the determinism signature is unchanged by them (the
    chaos and obs suites pin this).
    """
    config = config or ChaosConfig()
    ici = ICIConfig(
        n_clusters=config.n_clusters,
        replication=config.replication,
        limits=limits,
    )
    deployment = ICIDeployment(config.n_nodes, config=ici)
    runner = ScenarioRunner(deployment, limits=limits, seed=config.seed)
    plan = FaultPlan(
        config=FaultConfig(
            seed=config.seed,
            drop_rate=config.drop_rate,
            duplicate_rate=config.duplicate_rate,
            delay_rate=config.delay_rate,
            delay_seconds=config.delay_seconds,
        )
    )
    injector = plan.install(deployment.network)
    deployment.query.set_retry_policy(CHAOS_QUERY_POLICY)
    if config.dht:
        # Enabled before production so provider records publish
        # organically as blocks finalize (the enable-time backfill only
        # covers genesis here).
        deployment.enable_dht()
    if config.domains:
        # Enabled before production so every non-genesis placement is
        # computed by the spread-aware policy.
        deployment.enable_domain_awareness(zones=config.zones)
        injector.bind_domains(
            lambda zone: deployment.domains.members_of_zone(
                zone, deployment.nodes.keys()
            )
        )
    tracer, latency = _observe(deployment, tracer)
    outcome = ChaosOutcome(config=config, tracer=tracer)
    rng = random.Random(config.seed ^ 0xC4A05)

    # Phase 1: first half of the stream under message-level faults only.
    first_half = max(1, config.n_blocks // 2)
    with tracer.span("produce:clean"):
        report = runner.produce_blocks(
            first_half, txs_per_block=config.txs_per_block
        )

    # Phase 2: mid-run outages.  Victims come only from clusters that can
    # spare a member (mirrors the churn driver's minimum), and leave the
    # proposer rotation while down — a dead proposer's block would exist
    # only in the oracle ledger, unrecoverable by any replica.
    zone_killed = -1
    if config.domains:
        # Correlated outage: one whole zone goes down at once instead
        # of independently-sampled victims — the blast radius the
        # spread-aware placement exists to survive.
        zone_killed = rng.randrange(config.zones)
        victims = list(injector.crash_domain(zone_killed))
        outcome.crashed = victims
        for victim in victims:
            runner.schedule.remove(victim)
    else:
        victims = _pick_victims(
            deployment, rng, config.crash_count + config.stall_count
        )
        outcome.crashed = victims[: config.crash_count]
        outcome.stalled = victims[config.crash_count :]
        for victim in outcome.crashed:
            injector.crash(victim)
            runner.schedule.remove(victim)
        for victim in outcome.stalled:
            injector.stall(victim)
            runner.schedule.remove(victim)
    if config.partition:
        outcome.partitioned = _cut_minority(deployment, injector, victims)
        for victim in outcome.partitioned:
            runner.schedule.remove(victim)

    # Phase 3: the degraded half.
    with tracer.span("produce:degraded"):
        report2 = runner.produce_blocks(
            config.n_blocks - first_half,
            txs_per_block=config.txs_per_block,
        )
    outcome.blocks_produced = (
        report.blocks_produced + report2.blocks_produced
    )

    # Phase 4: heal and reconcile.
    with tracer.span("heal:reconcile"):
        injector.heal()
        for victim in (
            outcome.crashed + outcome.stalled + outcome.partitioned
        ):
            runner.schedule.add(victim)
        outcome.refetched_bodies = reconcile(deployment)
        if config.dht:
            # Overlay heal: tracked pings evict contacts that died in
            # the storm, then a forced republish rebuilds provider
            # records so post-storm lookups see fresh holder sets.
            deployment.dht.refresh_all()
            deployment.run()
            deployment.dht.republish_all()
            deployment.run()

    # Phase 5: a join and a query batch, still under lossy links.
    with tracer.span("join:queries"):
        if config.join_after:
            join = deployment.join_new_node()
            deployment.run()
            outcome.bootstrap_complete = join.complete
            outcome.bootstrap_bodies_unavailable = len(
                join.bodies_unavailable
            )
            if join.complete:
                runner.schedule.add(join.node_id)
        block_hashes = report.block_hashes + report2.block_hashes
        node_ids = sorted(deployment.nodes)
        for _ in range(config.queries):
            requester = rng.choice(node_ids)
            block_hash = rng.choice(block_hashes)
            record = deployment.retrieve_block(requester, block_hash)
            deployment.run()
            outcome.queries_attempted += 1
            if record.completed_at is not None:
                outcome.queries_completed += 1
            if record.degraded:
                outcome.queries_degraded += 1

    # Phase 6: audit.
    for view in deployment.clusters.views():
        outcome.cluster_integrity[view.cluster_id] = (
            deployment.cluster_holds_full_ledger(view.cluster_id)
        )
    outcome.finalized_blocks = deployment.total_finalized_blocks()
    outcome.fault_stats = injector.stats.as_dict()
    stats = deployment.metrics.router_stats
    outcome.retries = dict(stats.retries)
    outcome.timeouts = dict(stats.timeouts)
    outcome.degraded = dict(stats.degraded)
    outcome.sends = dict(stats.sends)
    if config.dht:
        _audit_dht(deployment, outcome, rng, block_hashes)
    if config.domains:
        _audit_domains(deployment, outcome, zone_killed, victims)
    outcome.virtual_seconds = deployment.network.now
    outcome.events_processed = deployment.network.clock.processed
    outcome.latency_percentiles = latency.percentiles()
    return outcome


def _audit_dht(
    deployment: ICIDeployment, outcome, rng: random.Random, block_hashes
) -> None:
    """Overlay audit: table-liveness census plus a full lookup batch.

    Runs one iterative FIND_VALUE per produced block from a random live
    requester and counts hits — under the acceptance chaos weather
    (10% drop + a crash) every lookup must still succeed, which is what
    the CLI exit gate and the E20 chaos leg pin.  The census and the
    engine's own counters land on ``outcome.dht`` (signature opt-in).
    """
    from repro.dht.idspace import block_key
    from repro.sim.faults import live_members

    dht = deployment.dht
    live = live_members(deployment.network, sorted(deployment.nodes))
    if not live:
        outcome.dht = {**dht.stats.as_dict(), **dht.audit_tables()}
        return
    lookups_ok = 0
    for block_hash in block_hashes:
        lookup = dht.lookup_value(rng.choice(live), block_key(block_hash))
        deployment.run()
        if lookup.value:
            lookups_ok += 1
    outcome.dht = {
        **dht.stats.as_dict(),
        **dht.audit_tables(),
        "audit_lookups": len(block_hashes),
        "audit_lookups_ok": lookups_ok,
    }


def _audit_domains(
    deployment: ICIDeployment,
    outcome,
    zone_killed: int,
    victims: list[int],
) -> None:
    """Failure-domain audit: zone census plus the post-heal diversity
    check (see :func:`domain_diversity_met`).

    Lands on ``outcome.domains`` (signature opt-in, integer-valued so
    the fingerprint stays json-stable).  ``spread_deficit`` counts the
    placements that could not reach full zone spread — the audited
    fallback, surfaced here so a correlated blast radius is visible
    instead of silent.
    """
    from repro.sim.faults import live_members

    domains = deployment.domains
    live = live_members(deployment.network, sorted(deployment.nodes))
    outcome.domains = {
        "zones": domains.zones,
        "zone_killed": zone_killed,
        "outage_victims": len(victims),
        "live_zones": len(domains.zones_of(live)),
        "spread_deficit": getattr(
            deployment.placement, "domain_spread_deficit", 0
        ),
        "diversity_repairs": deployment.repair.diversity_repairs,
        "diversity_met": int(domain_diversity_met(deployment)),
    }


def domain_diversity_met(deployment: ICIDeployment) -> bool:
    """Does every cluster spread every block across its live zones?

    The failure-domain counterpart of :func:`replica_floor_met`: per
    cluster, every non-genesis active block's live holders must span
    ``min(floor, live-zone count)`` distinct zones, where ``floor`` is
    the block's replica floor (planner-aware on adaptive runs).
    Archived blocks check their live **chunk** holders against
    ``min(k, live-zone count)`` instead — chunk placement rides the
    same spread-aware policy.  Genesis is exempt: it is a hardcoded
    constant every node regenerates locally, so zone spread buys it
    nothing.  Domain-oblivious deployments trivially pass.
    """
    from repro.sim.faults import live_members

    domains = getattr(deployment, "domains", None)
    if domains is None:
        return True
    planner = getattr(deployment, "replication_planner", None)
    tier = getattr(deployment, "archival", None)
    base = deployment.config.replication
    headers = list(deployment.ledger.store.iter_active_headers())
    for view in deployment.clusters.views():
        live = live_members(deployment.network, sorted(view.members))
        if not live:
            continue
        live_zone_count = len(domains.zones_of(live))
        for header in headers:
            if header.is_genesis:
                continue
            block_hash = header.block_hash
            if tier is not None and tier.is_archived(
                view.cluster_id, block_hash
            ):
                chunk_holders = tier.live_chunk_holders(
                    view.cluster_id, block_hash
                )
                need = min(tier.config.data_chunks, live_zone_count)
                if len(domains.zones_of(chunk_holders)) < need:
                    return False
                continue
            target = (
                base
                if planner is None
                else planner.target_for(block_hash)
            )
            floor = min(max(target, 1), len(live))
            holders = [
                member
                for member in live
                if deployment.nodes[member].store.has_body(block_hash)
            ]
            if len(domains.zones_of(holders)) < min(
                floor, live_zone_count
            ):
                return False
    return True


def reconcile(
    deployment: ICIDeployment, refetch_bodies: bool = True
) -> int:
    """Repair every replica after a heal; returns bodies refetched.

    Three passes, each drained to quiescence:

    1. **Header catch-up** — nodes that missed gossiped headers (their
       links were cut) index the canonical headers in height order, which
       also reopens any verification round they never saw.
    2. **Body refetch** — every assigned holder missing its body pulls it
       through the ordinary query path; under faults the query engine
       re-adopts the body into the holder's assignment.  Endurance runs
       pass ``refetch_bodies=False`` to leave this to the anti-entropy
       sweep (the thing under test) instead of the query path.
    3. **Finality re-kick** — members still stuck re-enter the
       verification engine's probe chain, which replays certificates or
       re-broadcasts attestations until the round closes.
    """
    headers = list(deployment.ledger.store.iter_active_headers())
    for node_id in sorted(deployment.nodes):
        node = deployment.nodes[node_id]
        for header in headers:
            if not node.store.has_header(header.block_hash):
                deployment.dissemination.note_header(node, header)
    deployment.run()

    refetched = 0
    if refetch_bodies:
        for view in deployment.clusters.views():
            for header in headers:
                if header.is_genesis:
                    continue
                holders = deployment.holders_in_cluster(
                    header, view.cluster_id
                )
                for holder in holders:
                    node = deployment.nodes[holder]
                    if node.store.has_body(header.block_hash):
                        continue
                    deployment.retrieve_block(holder, header.block_hash)
                    refetched += 1
        deployment.run()

    verification = deployment.verification
    for node_id in sorted(deployment.nodes):
        node = deployment.nodes[node_id]
        for header in headers:
            if header.is_genesis:
                continue
            if not node.is_finalized(header.block_hash):
                verification.ensure_round(node, header)
    deployment.run()
    return refetched


@dataclass(frozen=True)
class EnduranceConfig:
    """One seeded endurance scenario: churn × faults × anti-entropy.

    Extends the chaos shape with a sustained :class:`ChurnSchedule`
    (drawn from the same seed) applied *while* the fault weather is
    active, an auto-expiring partition window, and the anti-entropy
    engine sweeping at ``repair_cadence`` throughout.
    """

    seed: int = 0
    n_nodes: int = 24
    n_clusters: int = 3
    replication: int = 2
    n_blocks: int = 12
    txs_per_block: int = 2
    drop_rate: float = 0.2
    duplicate_rate: float = 0.05
    delay_rate: float = 0.05
    delay_seconds: float = 1.0
    join_rate: float = 0.15
    leave_rate: float = 0.1
    crash_rate: float = 0.1
    crash_count: int = 1
    partition: bool = True
    partition_blocks: int = 3
    repair_cadence: float = 5.0
    settle_seconds: float = 10.0
    queries: int = 8
    max_heal_rounds: int = 40
    #: Heat-aware adaptive replication (:mod:`repro.storage.heat`).
    #: When on, a Zipf-skewed read stream runs through the storm so heat
    #: is non-uniform, the anti-entropy sweep sheds as well as repairs,
    #: and the audit checks *per-tier* replica floors.  Off by default:
    #: the fixed-r path must stay byte-identical (golden pins).
    adaptive: bool = False
    reads_per_block: int = 4
    zipf_exponent: float = 1.1
    #: Optional heat-model override (``None`` = HeatConfig defaults).
    heat: "object | None" = None
    #: Coded archival tier (:mod:`repro.storage.coded`).  Implies the
    #: adaptive path (the tier consumes the planner's cold signal): cold
    #: blocks transition to k-of-n Reed–Solomon chunks, queries decode
    #: them on demand, and the audit additionally holds the **coded
    #: floor** (≥ k live chunks per archived block, never co-located).
    #: Off by default: adaptive-without-archival runs must stay
    #: byte-identical (golden pins).
    archival: bool = False
    #: Optional code-shape override (``None`` = ArchivalConfig defaults).
    archival_code: "object | None" = None
    #: Kademlia-style DHT overlay (:mod:`repro.dht`): joins bootstrap
    #: by self-lookup, queries resolve holders via FIND_VALUE, repair
    #: digests route to XOR-nearest peers, and the audit adds a
    #: table-liveness census plus a full lookup batch.  Off by default:
    #: non-DHT runs must stay byte-identical (golden pins).
    dht: bool = False
    #: Failure-domain awareness (see :class:`ChaosConfig.domains`): the
    #: outage a third of the way in becomes a full **zone outage**
    #: (replacing the independently-sampled victims), placement spreads
    #: replicas across zones, the anti-entropy sweep restores zone
    #: diversity as well as copy count, and the audit adds the
    #: post-heal domain-diversity check.  Off by default (golden pins).
    domains: bool = False
    #: Zones in the failure-domain map (domain runs only).
    zones: int = 3

    def __post_init__(self) -> None:
        if self.n_blocks < 2:
            raise ConfigurationError("endurance runs need at least 2 blocks")
        if self.domains and self.zones < 2:
            raise ConfigurationError("domain runs need at least 2 zones")
        if self.repair_cadence <= 0 or self.settle_seconds <= 0:
            raise ConfigurationError("cadence/settle must be > 0")
        if self.crash_count < 0 or self.queries < 0:
            raise ConfigurationError("counts must be >= 0")
        if self.max_heal_rounds < 1:
            raise ConfigurationError("max_heal_rounds must be >= 1")
        if self.reads_per_block < 0:
            raise ConfigurationError("reads_per_block must be >= 0")
        if self.zipf_exponent <= 0:
            raise ConfigurationError("zipf_exponent must be > 0")


@dataclass
class EnduranceOutcome:
    """What one endurance run did and whether self-healing converged."""

    config: EnduranceConfig
    blocks_produced: int = 0
    joins: int = 0
    leaves: int = 0
    churn_crashes: int = 0
    skipped_events: int = 0
    outage_crashed: list[int] = field(default_factory=list)
    partitioned: list[int] = field(default_factory=list)
    fault_stats: dict[str, int] = field(default_factory=dict)
    retries: dict[str, int] = field(default_factory=dict)
    timeouts: dict[str, int] = field(default_factory=dict)
    degraded: dict[str, int] = field(default_factory=dict)
    #: The anti-entropy engine's counters (``RepairStats.as_dict()``).
    repair: dict[str, int] = field(default_factory=dict)
    #: Blocks departures handed off to the sweep after exhausted retries.
    deferred_blocks: int = 0
    #: Virtual seconds from first deficit detection to restored copy.
    time_to_repair: dict[str, float] = field(default_factory=dict)
    heal_rounds: int = 0
    queries_attempted: int = 0
    queries_completed: int = 0
    queries_degraded: int = 0
    cluster_integrity: dict[int, bool] = field(default_factory=dict)
    replica_floor_met: bool = False
    #: Adaptive-replication counters (``AdaptiveStats.as_dict()`` plus
    #: tier counts and storm reads); empty on fixed-r runs, and only a
    #: non-empty dict joins :meth:`signature` — so enabling the adaptive
    #: path cannot move the fixed-r golden pins.
    adaptive: dict[str, int] = field(default_factory=dict)
    #: Archival-tier counters (``ArchivalStats.as_dict()``); empty
    #: unless the coded tier ran, and only a non-empty dict joins
    #: :meth:`signature` — same opt-in discipline as ``adaptive``.
    archival: dict[str, int] = field(default_factory=dict)
    #: DHT overlay counters + audit (see :class:`ChaosOutcome.dht`);
    #: empty unless the overlay ran, same opt-in discipline.
    dht: dict[str, int] = field(default_factory=dict)
    #: Failure-domain census + audit (see :class:`ChaosOutcome.
    #: domains`); empty on oblivious runs, same opt-in discipline.
    domains: dict[str, int] = field(default_factory=dict)
    #: Network-wide ledger bytes at audit time (reports; not signed).
    storage_total_bytes: int = 0
    #: Per-kind tracked-send counts (see :class:`ChaosOutcome.sends`);
    #: reports only, not signed.
    sends: dict[str, int] = field(default_factory=dict)
    virtual_seconds: float = 0.0
    events_processed: int = 0
    #: Per-kind delivery-latency percentiles from the run's
    #: :class:`~repro.obs.hooks.DeliveryLatency` observer.  Not part of
    #: :meth:`signature` (floats derived from the same deterministic
    #: stream the counters pin) — see ChaosOutcome.
    latency_percentiles: dict[str, dict[str, float]] = field(
        default_factory=dict
    )
    #: The caller-supplied tracer (``repro endurance --trace``), or a
    #: disabled one — see ChaosOutcome.
    tracer: Tracer | None = field(default=None, repr=False)
    #: The healed deployment, for independent post-run auditing (the
    #: property suite re-derives coverage rather than trusting the
    #: audit flags above).  Not part of the signature.
    deployment: "ICIDeployment | None" = field(default=None, repr=False)

    @property
    def integrity_restored(self) -> bool:
        """Full ledger per cluster *and* the replication floor met."""
        return (
            bool(self.cluster_integrity)
            and all(self.cluster_integrity.values())
            and self.replica_floor_met
        )

    def signature(self) -> dict:
        """The determinism fingerprint: equal for equal (config, seed)."""
        signature = {
            "blocks_produced": self.blocks_produced,
            "joins": self.joins,
            "leaves": self.leaves,
            "churn_crashes": self.churn_crashes,
            "skipped_events": self.skipped_events,
            "outage_crashed": list(self.outage_crashed),
            "partitioned": list(self.partitioned),
            "fault_stats": dict(self.fault_stats),
            "retries": dict(self.retries),
            "timeouts": dict(self.timeouts),
            "degraded": dict(self.degraded),
            "repair": dict(self.repair),
            "deferred_blocks": self.deferred_blocks,
            "time_to_repair": dict(self.time_to_repair),
            "heal_rounds": self.heal_rounds,
            "queries_completed": self.queries_completed,
            "queries_degraded": self.queries_degraded,
            "cluster_integrity": dict(self.cluster_integrity),
            "replica_floor_met": self.replica_floor_met,
            "virtual_seconds": self.virtual_seconds,
            "events_processed": self.events_processed,
        }
        if self.adaptive:
            signature["adaptive"] = dict(self.adaptive)
        if self.archival:
            signature["archival"] = dict(self.archival)
        if self.dht:
            signature["dht"] = dict(self.dht)
        if self.domains:
            signature["domains"] = dict(self.domains)
        return signature


def run_endurance(
    config: EnduranceConfig | None = None,
    limits: ValidationLimits = DEFAULT_LIMITS,
    tracer: Tracer | None = None,
) -> EnduranceOutcome:
    """Sustained churn under fault weather with anti-entropy sweeping.

    Shape of a run:

    1. **Storm** — produce the block stream with the fault weather on and
       the anti-entropy engine sweeping; the seeded churn schedule fires
       between blocks (joins bootstrap, leaves repair-then-exit, crashes
       trigger survivor re-replication), an outage crashes
       ``crash_count`` extra members a third of the way in, and an
       auto-expiring minority partition opens at the halfway mark.
    2. **Heal** — faults off, header catch-up + finality re-kick
       (``reconcile`` *without* the query-path body refetch: restoring
       bodies is the sweep's job here), then bounded sweep rounds until
       the repair counters go quiet.
    3. **Probe** — a query batch under the still-lossy link rates.
    4. **Audit** — per-cluster full-ledger integrity plus the stronger
       replica floor: every active block holds ``min(r, live)`` live
       replicas in every cluster.

    Observation works as in :func:`run_chaos`: the latency table comes
    from a :class:`~repro.obs.hooks.DeliveryLatency` observer on every
    run, and a full trace is recorded only for a caller-supplied
    ``tracer``.
    """
    from repro.obs.summary import percentile
    from repro.sim.churn import (
        ChurnConfig,
        ChurnDriver,
        ChurnOutcome,
        make_schedule,
    )

    config = config or EnduranceConfig()
    ici = ICIConfig(
        n_clusters=config.n_clusters,
        replication=config.replication,
        limits=limits,
    )
    deployment = ICIDeployment(config.n_nodes, config=ici)
    planner = None
    tier = None
    reads = None
    storm_reads = 0
    if config.adaptive or config.archival:
        from repro.sim.workload import ReadWorkloadConfig, ZipfReadWorkload

        planner = deployment.enable_adaptive_replication(config.heat)
        reads = ZipfReadWorkload(
            ReadWorkloadConfig(
                seed=config.seed ^ 0x2EAD,
                exponent=config.zipf_exponent,
            )
        )
    if config.archival:
        tier = deployment.enable_archival_tier(config.archival_code)
    if config.dht:
        deployment.enable_dht()
    if config.domains:
        deployment.enable_domain_awareness(zones=config.zones)
    runner = ScenarioRunner(deployment, limits=limits, seed=config.seed)
    plan = FaultPlan(
        config=FaultConfig(
            seed=config.seed,
            drop_rate=config.drop_rate,
            duplicate_rate=config.duplicate_rate,
            delay_rate=config.delay_rate,
            delay_seconds=config.delay_seconds,
        )
    )
    injector = plan.install(deployment.network)
    deployment.query.set_retry_policy(CHAOS_QUERY_POLICY)
    if config.domains:
        injector.bind_domains(
            lambda zone: deployment.domains.members_of_zone(
                zone, deployment.nodes.keys()
            )
        )
    tracer, latency = _observe(deployment, tracer)
    outcome = EnduranceOutcome(config=config, tracer=tracer)
    rng = random.Random(config.seed ^ 0xE17D)

    churn_config = ChurnConfig(
        join_rate=config.join_rate,
        leave_rate=config.leave_rate,
        crash_rate=config.crash_rate,
        seed=config.seed,
    )
    by_block: dict[int, list] = {}
    for event in make_schedule(churn_config, config.n_blocks):
        by_block.setdefault(event.after_block, []).append(event)
    driver = ChurnDriver(
        deployment,
        runner,
        churn_config,
        settle_seconds=config.settle_seconds,
    )
    churn = ChurnOutcome()

    repair = deployment.repair
    repair.start(cadence=config.repair_cadence)
    outage_block = max(1, config.n_blocks // 3)
    partition_block = max(2, config.n_blocks // 2)
    block_hashes: list = []
    zone_killed = -1

    # Phase 1: the storm.
    with tracer.span("endurance:storm"):
        for block_index in range(1, config.n_blocks + 1):
            report = runner.produce_blocks(
                1,
                txs_per_block=config.txs_per_block,
                drain_between_blocks=False,
                drain_at_end=False,
            )
            block_hashes.extend(report.block_hashes)
            churn.blocks_produced += 1
            if block_index == outage_block and config.crash_count:
                if config.domains:
                    # Correlated outage: a full zone instead of the
                    # independently-sampled victims.
                    zone_killed = rng.randrange(config.zones)
                    outcome.outage_crashed = list(
                        injector.crash_domain(zone_killed)
                    )
                else:
                    outcome.outage_crashed = _pick_victims(
                        deployment, rng, config.crash_count
                    )
                    for victim in outcome.outage_crashed:
                        injector.crash(victim)
                for victim in outcome.outage_crashed:
                    runner.schedule.remove(victim)
            if block_index == partition_block and config.partition:
                outcome.partitioned = _cut_minority(
                    deployment,
                    injector,
                    outcome.outage_crashed,
                    duration=config.partition_blocks * runner.block_interval,
                )
                for victim in outcome.partitioned:
                    runner.schedule.remove(victim)
            for event in by_block.get(block_index, []):
                driver._apply(event, churn)
            if reads is not None and block_hashes:
                # The Zipf read stream heats the tip while history cools;
                # replies land whenever the weather lets them through.
                node_ids = sorted(deployment.nodes)
                for requester, block_hash in reads.reads(
                    block_hashes, node_ids, config.reads_per_block
                ):
                    node = deployment.nodes[requester]
                    if not node.store.has_header(block_hash):
                        continue  # gossip hasn't reached it yet
                    deployment.retrieve_block(requester, block_hash)
                    storm_reads += 1

    outcome.blocks_produced = churn.blocks_produced
    outcome.joins = churn.joins
    outcome.leaves = churn.leaves
    outcome.churn_crashes = churn.crashes
    outcome.skipped_events = churn.skipped_events

    # Phase 2: heal, catch headers up, and let the sweep converge.
    with tracer.span("endurance:heal"):
        injector.heal()
        for victim in outcome.outage_crashed + outcome.partitioned:
            if victim in deployment.nodes:
                runner.schedule.add(victim)
        # reconcile() drains to quiescence internally — the sweep must be
        # parked while it runs, then resumed for the convergence rounds.
        repair.stop()
        reconcile(deployment, refetch_bodies=False)
        repair.start(cadence=config.repair_cadence)
        last = (-1, -1, -1, -1)
        quiet = 0
        for _ in range(config.max_heal_rounds):
            deployment.network.clock.run_for(config.repair_cadence)
            outcome.heal_rounds += 1
            snapshot = (
                repair.stats.under_replicated,
                repair.stats.blocks_re_replicated,
                # Adaptive runs also wait for shedding to go quiet.
                planner.stats.replicas_shed if planner is not None else -1,
                # Archival runs also wait for the coded tier to go quiet
                # (archives, chunk re-homes, and thaws all settled); the
                # constant -1 without a tier keeps the quietness
                # equality — and every non-archival signature — exactly
                # as before.
                (
                    tier.stats.blocks_archived
                    + tier.stats.chunks_repaired
                    + tier.stats.blocks_thawed
                    if tier is not None
                    else -1
                ),
            )
            if snapshot == last and repair.idle:
                quiet += 1
                if quiet >= 2:
                    break
            else:
                quiet = 0
            last = snapshot
        repair.stop()
        deployment.run()
        if config.dht:
            # Overlay heal: the sweep hook kept records fresh through
            # the convergence rounds; the explicit ping pass evicts
            # contacts that died (or left) in the storm, and the forced
            # republish covers clusters whose membership churned.
            deployment.dht.refresh_all()
            deployment.run()
            deployment.dht.republish_all()
            deployment.run()

    # Phase 3: a query batch, still under lossy links.
    with tracer.span("endurance:queries"):
        node_ids = sorted(deployment.nodes)
        for _ in range(config.queries):
            if reads is not None:
                requester, block_hash = reads.next_read(
                    block_hashes, node_ids
                )
            else:
                requester = rng.choice(node_ids)
                block_hash = rng.choice(block_hashes)
            record = deployment.retrieve_block(requester, block_hash)
            deployment.run()
            outcome.queries_attempted += 1
            if record.completed_at is not None:
                outcome.queries_completed += 1
            if record.degraded:
                outcome.queries_degraded += 1

    # Phase 4: audit.
    for view in deployment.clusters.views():
        if tier is not None:
            # Archived blocks legitimately hold zero full replicas; a
            # cluster is whole when every body is held *or* decodable
            # from ≥ k live chunks.
            outcome.cluster_integrity[view.cluster_id] = (
                archival_cluster_integrity(
                    deployment, tier, view.cluster_id
                )
            )
        else:
            outcome.cluster_integrity[view.cluster_id] = (
                deployment.cluster_holds_full_ledger(view.cluster_id)
            )
    if tier is not None:
        outcome.replica_floor_met = archival_floor_met(
            deployment, planner, tier
        )
        outcome.adaptive = dict(planner.as_dict())
        outcome.adaptive["storm_reads"] = storm_reads
        outcome.archival = dict(tier.as_dict())
        outcome.archival["archived_blocks"] = tier.archived_blocks
        outcome.archival["chunk_bytes"] = tier.total_chunk_bytes
    elif planner is not None:
        outcome.replica_floor_met = adaptive_floor_met(deployment, planner)
        outcome.adaptive = dict(planner.as_dict())
        outcome.adaptive["storm_reads"] = storm_reads
    else:
        outcome.replica_floor_met = replica_floor_met(deployment)
    outcome.storage_total_bytes = deployment.storage_report().total_bytes
    if tier is not None:
        # Coded chunks live beside the replicas the report counts.
        outcome.storage_total_bytes += tier.total_chunk_bytes
    outcome.fault_stats = injector.stats.as_dict()
    stats = deployment.metrics.router_stats
    outcome.retries = dict(stats.retries)
    outcome.timeouts = dict(stats.timeouts)
    outcome.degraded = dict(stats.degraded)
    outcome.sends = dict(stats.sends)
    outcome.repair = repair.stats.as_dict()
    outcome.deferred_blocks = sum(
        len(report.deferred_blocks)
        for report in deployment.metrics.departures
    )
    if repair.repair_times:
        times = sorted(repair.repair_times)
        outcome.time_to_repair = {
            "p50": percentile(times, 0.50),
            "p95": percentile(times, 0.95),
        }
    if config.dht:
        _audit_dht(deployment, outcome, rng, block_hashes)
    if config.domains:
        _audit_domains(
            deployment, outcome, zone_killed, outcome.outage_crashed
        )
    outcome.virtual_seconds = deployment.network.now
    outcome.events_processed = deployment.network.clock.processed
    outcome.latency_percentiles = latency.percentiles()
    outcome.deployment = deployment
    return outcome


def replica_floor_met(deployment: ICIDeployment) -> bool:
    """Does every cluster hold ``min(r, live)`` live replicas of
    every active block?

    Stronger than :meth:`cluster_holds_full_ledger` (any one copy): this
    is the invariant the anti-entropy sweep converges toward.
    """
    from repro.sim.faults import live_members

    replication = deployment.config.replication
    headers = list(deployment.ledger.store.iter_active_headers())
    for view in deployment.clusters.views():
        live = live_members(deployment.network, sorted(view.members))
        floor = min(replication, len(live))
        if floor == 0:
            continue
        for header in headers:
            holders = sum(
                1
                for member in live
                if deployment.nodes[member].store.has_body(
                    header.block_hash
                )
            )
            if holders < floor:
                return False
    return True


def adaptive_floor_met(deployment: ICIDeployment, planner) -> bool:
    """Tier-aware replica floor: ``min(target, live)`` copies per block.

    The adaptive counterpart of :func:`replica_floor_met`: each block's
    floor follows its heat tier (hot above ``r``, cold down to 1 —
    never zero, so every cluster still contributes a cross-cluster
    copy).  Genesis keeps the base floor.
    """
    from repro.sim.faults import live_members

    base = deployment.config.replication
    headers = list(deployment.ledger.store.iter_active_headers())
    for view in deployment.clusters.views():
        live = live_members(deployment.network, sorted(view.members))
        if not live:
            continue
        for header in headers:
            target = (
                base
                if header.is_genesis
                else planner.target_for(header.block_hash)
            )
            floor = min(max(target, 1), len(live))
            holders = sum(
                1
                for member in live
                if deployment.nodes[member].store.has_body(
                    header.block_hash
                )
            )
            if holders < floor:
                return False
    return True


def archival_cluster_integrity(
    deployment: ICIDeployment, tier, cluster_id: int
) -> bool:
    """Archival-aware integrity: every body held *or* reconstructable.

    The coded tier's counterpart of
    :meth:`~repro.core.icistrategy.ICIDeployment.cluster_holds_full_
    ledger`: an archived block contributes through ≥ ``k`` live chunks
    instead of a full replica.
    """
    members = deployment.clusters.members_of(cluster_id)
    for header in deployment.ledger.store.iter_active_headers():
        block_hash = header.block_hash
        if any(
            deployment.nodes[m].store.has_body(block_hash)
            for m in members
        ):
            continue
        if tier.can_reconstruct(cluster_id, block_hash):
            continue
        return False
    return True


def archival_floor_met(
    deployment: ICIDeployment, planner, tier
) -> bool:
    """Tier-aware floor with the coded invariant for archived blocks.

    Archived blocks must hold the **coded floor** — at least ``k`` live
    chunks on distinct members; everything else keeps the adaptive
    ``min(target, live)`` replica floor of :func:`adaptive_floor_met`.
    """
    from repro.sim.faults import live_members

    base = deployment.config.replication
    headers = list(deployment.ledger.store.iter_active_headers())
    for view in deployment.clusters.views():
        live = live_members(deployment.network, sorted(view.members))
        if not live:
            continue
        for header in headers:
            block_hash = header.block_hash
            if not header.is_genesis and tier.is_archived(
                view.cluster_id, block_hash
            ):
                if not tier.coded_floor_ok(view.cluster_id, block_hash):
                    return False
                continue
            target = (
                base
                if header.is_genesis
                else planner.target_for(block_hash)
            )
            floor = min(max(target, 1), len(live))
            holders = sum(
                1
                for member in live
                if deployment.nodes[member].store.has_body(block_hash)
            )
            if holders < floor:
                return False
    return True


def _pick_victims(
    deployment: ICIDeployment, rng: random.Random, count: int
) -> list[int]:
    """Deterministically sample outage victims from spare-capacity clusters.

    Candidates come from the fault layer's ``live_members`` view, so an
    outage can never target a node that is already crashed or stalled
    (injector.crash on a dead node would double-count it, and a churn
    composition would otherwise raise).  On a clean network every member
    is live, so the candidate list — and the RNG draw — is unchanged.
    """
    from repro.sim.faults import live_members

    if count == 0:
        return []
    minimum = max(deployment.config.replication + 1, 2)
    network = deployment.network
    candidates: list[int] = []
    for view in deployment.clusters.views():
        live = live_members(network, view.members)
        if len(live) > minimum:
            candidates.extend(live)
    count = min(count, len(candidates))
    return rng.sample(sorted(candidates), count) if count else []


def _cut_minority(
    deployment: ICIDeployment,
    injector,
    exclude: list[int],
    duration: float | None = None,
) -> list[int]:
    """Partition a below-quorum minority of the largest cluster.

    The cut stays under the Byzantine threshold (⌊(m−1)/3⌋) so the
    majority side keeps finalizing; the isolated members catch up at
    heal + reconcile time.  With ``duration`` the window self-expires
    after that many virtual seconds (endurance runs); otherwise it lasts
    until an explicit ``heal()``.
    """
    views = sorted(
        deployment.clusters.views(), key=lambda v: (-v.size, v.cluster_id)
    )
    view = views[0]
    eligible = [m for m in view.members if m not in exclude]
    cut = max((len(view.members) - 1) // 3, 1)
    minority = sorted(eligible)[:cut]
    if not minority:
        return []
    others = [
        node_id
        for node_id in deployment.nodes
        if node_id not in minority
    ]
    now = deployment.network.now
    injector.partition(
        PartitionWindow(
            side_a=frozenset(minority),
            side_b=frozenset(others),
            start=now,
            end=float("inf") if duration is None else now + duration,
        )
    )
    return minority
