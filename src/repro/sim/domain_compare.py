"""Domain-aware vs domain-oblivious placement under a zone outage (E21).

The failure-domain subsystem's acceptance experiment
(:mod:`repro.net.domains`): two seeded deployments replay an identical
clean block stream, then lose **one whole zone at once** — the same
physical victim set in both arms, resolved through a shared
:class:`~repro.net.domains.FailureDomainMap` so the outage is identical
regardless of which arm is placement-aware:

* **aware** — :meth:`~repro.core.icistrategy.ICIDeployment.
  enable_domain_awareness` swaps in
  :class:`~repro.storage.placement.DomainSpreadPlacement`, so every
  block's ``r`` replicas span distinct zones and a zone outage can
  remove at most one copy per cluster;
* **oblivious** — the default rendezvous placement, which stacks both
  replicas of a ``C(z, r)``-predictable fraction of blocks inside the
  killed zone.

Each arm measures, in order: **blocks lost** (cluster/block pairs with
zero live in-cluster copies, the census taken the instant the zone
dies), a seeded **read batch under the outage** (live requesters, the
chaos retry policy, cross-cluster failover allowed — the aware arm must
complete every read), then a heal followed by bounded anti-entropy
sweeps measuring **time to restored zone diversity**.  Crashed members
keep their disks (the fault layer's crash model), so the oblivious arm
recovers *coverage* at heal time — but its stacked blocks stay
single-zone forever: with no domain map there is no mechanism to
re-spread them, and the diversity clock runs out at the sweep cap.

Everything derives from one seed; :meth:`DomainCompareOutcome.signature`
is the determinism fingerprint the test suite pins.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.chain.validation import DEFAULT_LIMITS, ValidationLimits
from repro.core.config import ICIConfig
from repro.core.icistrategy import ICIDeployment
from repro.errors import ConfigurationError
from repro.invariants import coverage, diversity
from repro.net.domains import FailureDomainMap
from repro.sim.chaos import CHAOS_QUERY_POLICY
from repro.sim.faults import FaultConfig, FaultPlan
from repro.sim.runner import ScenarioRunner

#: The two measured arms, in run (and report) order.
ARMS = ("aware", "oblivious")


@dataclass(frozen=True)
class DomainCompareConfig:
    """One seeded aware-vs-oblivious zone-outage comparison."""

    seed: int = 42
    n_nodes: int = 32
    n_clusters: int = 4
    replication: int = 2
    #: Failure domains; the outage kills every member of one of them.
    zones: int = 2
    n_blocks: int = 12
    txs_per_block: int = 2
    #: Seeded reads issued while the zone is down (live requesters).
    reads: int = 16
    repair_cadence: float = 5.0
    #: Post-heal sweep budget for the diversity clock; an arm that has
    #: not restored zone spread by then records ``-1`` (never).
    max_heal_rounds: int = 6

    def __post_init__(self) -> None:
        if self.n_clusters < 2:
            raise ConfigurationError("compare runs need >= 2 clusters")
        if self.n_nodes < 2 * self.n_clusters:
            raise ConfigurationError("every cluster needs >= 2 members")
        if self.zones < 2:
            raise ConfigurationError("domain runs need at least 2 zones")
        if self.replication < 2:
            raise ConfigurationError(
                "spread needs a replication factor >= 2"
            )
        if self.n_blocks < 2:
            raise ConfigurationError("compare runs need at least 2 blocks")
        if self.reads < 1:
            raise ConfigurationError("reads must be >= 1")
        if self.repair_cadence <= 0:
            raise ConfigurationError("repair_cadence must be > 0")
        if self.max_heal_rounds < 1:
            raise ConfigurationError("max_heal_rounds must be >= 1")


@dataclass
class DomainCompareOutcome:
    """Both arms' loss/read/diversity bills under the identical outage."""

    config: DomainCompareConfig
    #: The killed zone (one seeded draw, shared by both arms).
    zone_killed: int = -1
    #: Victims of the outage (identical across arms by construction).
    victims: list[int] = field(default_factory=list)
    #: One all-integer row per arm (keys: :data:`ARMS`): ``blocks_lost,
    #: reads_attempted, reads_completed, reads_failed, reads_degraded,
    #: repairs_scheduled, blocks_re_replicated, repairs_degraded,
    #: diversity_repairs, spread_deficit, rounds_to_diversity``.
    arms: dict[str, dict[str, int]] = field(default_factory=dict)
    #: The driven deployments per arm, for the bench harness's
    #: simulated metrics (not part of the signature).
    deployments: dict[str, ICIDeployment] = field(
        default_factory=dict, repr=False
    )

    @property
    def aware_lossless(self) -> bool:
        """The headline claim: spread placement rides out a zone loss.

        Zero cluster/block pairs without a live in-cluster copy, and
        every read issued during the outage completed.
        """
        row = self.arms.get("aware")
        return (
            row is not None
            and row["blocks_lost"] == 0
            and row["reads_failed"] == 0
        )

    @property
    def oblivious_exposed(self) -> bool:
        """The control: stacked placements measurably lose coverage."""
        row = self.arms.get("oblivious")
        return row is not None and row["blocks_lost"] > 0

    @property
    def diversity_restored(self) -> bool:
        """The aware arm ended every block zone-diverse within budget."""
        row = self.arms.get("aware")
        return row is not None and row["rounds_to_diversity"] >= 0

    def signature(self) -> dict:
        """The determinism fingerprint: equal for equal (config, seed)."""
        return {
            "zone_killed": self.zone_killed,
            "victims": list(self.victims),
            "arms": {name: dict(row) for name, row in self.arms.items()},
            "aware_lossless": self.aware_lossless,
            "oblivious_exposed": self.oblivious_exposed,
            "diversity_restored": self.diversity_restored,
        }


def _run_arm(
    config: DomainCompareConfig,
    aware: bool,
    limits: ValidationLimits,
) -> tuple[dict[str, int], int, list[int], ICIDeployment]:
    """Drive one arm: produce clean, kill a zone, read, heal, sweep."""
    from repro.sim.faults import live_members

    ici = ICIConfig(
        n_clusters=config.n_clusters,
        replication=config.replication,
        limits=limits,
    )
    deployment = ICIDeployment(config.n_nodes, config=ici)
    if aware:
        deployment.enable_domain_awareness(zones=config.zones)
    # The victim-resolution map: a standalone instance with the same
    # striping, so both arms crash the identical physical node set (the
    # aware arm's installed map derives the same labels — one pure
    # function of the node id).
    topology = FailureDomainMap(zones=config.zones)
    topology.sync(deployment.nodes.keys())
    runner = ScenarioRunner(deployment, limits=limits, seed=config.seed)
    # Clean weather: the injector exists for its outage machinery (and
    # for the query engine's failover tail), but drops nothing.
    injector = FaultPlan(config=FaultConfig(seed=config.seed)).install(
        deployment.network
    )
    injector.bind_domains(topology.members_of_zone)
    deployment.query.set_retry_policy(CHAOS_QUERY_POLICY)

    report = runner.produce_blocks(
        config.n_blocks, txs_per_block=config.txs_per_block
    )
    deployment.run()

    # The outage: one seeded zone draw, then the whole zone at once.
    rng = random.Random(config.seed ^ 0xD0A1)
    zone_killed = rng.randrange(config.zones)
    victims = list(injector.crash_domain(zone_killed))

    row = {
        "blocks_lost": len(coverage(deployment, live=True)),
        "reads_attempted": 0,
        "reads_completed": 0,
        "reads_failed": 0,
        "reads_degraded": 0,
        "repairs_scheduled": 0,
        "blocks_re_replicated": 0,
        "repairs_degraded": 0,
        "diversity_repairs": 0,
        "spread_deficit": 0,
        "rounds_to_diversity": -1,
    }

    # Reads while the zone is down: live requesters, seeded pairs.
    live = live_members(deployment.network, sorted(deployment.nodes))
    for _ in range(config.reads):
        requester = rng.choice(live)
        block_hash = rng.choice(report.block_hashes)
        record = deployment.retrieve_block(requester, block_hash)
        deployment.run()
        row["reads_attempted"] += 1
        if record.completed_at is not None:
            row["reads_completed"] += 1
        else:
            row["reads_failed"] += 1
        if record.degraded:
            row["reads_degraded"] += 1

    # Heal, then bounded sweeps until zone diversity is back.  Crashed
    # members kept their disks, so coverage returns with them; what the
    # sweeps must restore is *spread*, which only the aware arm can.
    injector.heal()
    repair = deployment.repair
    repair.start(cadence=config.repair_cadence)
    for sweep_round in range(config.max_heal_rounds + 1):
        # Both arms are judged against the shared victim-resolution map
        # — the physical topology — since the oblivious arm has none.
        if not diversity(deployment, topology):
            row["rounds_to_diversity"] = sweep_round
            break
        deployment.network.clock.run_for(config.repair_cadence)
    repair.stop()
    deployment.run()

    row["repairs_scheduled"] = repair.stats.repairs_scheduled
    row["blocks_re_replicated"] = repair.stats.blocks_re_replicated
    row["repairs_degraded"] = repair.stats.repairs_degraded
    row["diversity_repairs"] = repair.diversity_repairs
    row["spread_deficit"] = getattr(
        deployment.placement, "domain_spread_deficit", 0
    )
    return row, zone_killed, victims, deployment


def run_domain_compare(
    config: DomainCompareConfig | None = None,
    limits: ValidationLimits = DEFAULT_LIMITS,
) -> DomainCompareOutcome:
    """Run both arms under the identical zone outage (see module docs)."""
    config = config or DomainCompareConfig()
    outcome = DomainCompareOutcome(config=config)
    for name in ARMS:
        row, zone_killed, victims, deployment = _run_arm(
            config, aware=(name == "aware"), limits=limits
        )
        outcome.arms[name] = row
        outcome.deployments[name] = deployment
        if outcome.zone_killed < 0:
            outcome.zone_killed = zone_killed
            outcome.victims = victims
        else:
            # The comparison is only fair if the outage was identical.
            assert zone_killed == outcome.zone_killed
            assert victims == outcome.victims
    return outcome
