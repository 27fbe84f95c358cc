"""Storage invariants: each promise the ledger makes, written once.

The paper's central promise is that **every cluster still holds the
whole ledger**; the tiers built on top add floors to it.  Each promise
is one check here, and every check walks the same census — per
cluster, per counted member, per active header, which members hold the
body — so drivers stop choosing between hand-copied variants:

* :func:`coverage` — every block is held by some member, or (archived
  blocks) decodable from at least ``k`` live chunks;
* :func:`floor` — every block holds its replica floor among the live
  members (planner-aware on adaptive runs), and every archived block
  its **coded floor**: ``k`` live chunks, never two on one member;
* :func:`diversity` — every block's live copies span distinct failure
  domains, up to the live-zone count.

A check reads the replication planner, the archival tier and the
failure-domain map from the deployment itself and returns one
:class:`Violation` per cluster/block pair that breaks its promise,
stamped with the virtual time of the audit; an empty list means the
promise holds.  Checks are read-only: they draw no randomness and
change no counter, so auditing never moves a determinism signature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from repro.crypto.hashing import Hash32
from repro.sim.faults import live_members

if TYPE_CHECKING:  # pragma: no cover
    from repro.chain.block import BlockHeader
    from repro.core.icistrategy import ICIDeployment
    from repro.net.domains import FailureDomainMap

COVERAGE = "coverage"
FLOOR = "floor"
DIVERSITY = "diversity"


@dataclass(frozen=True)
class Violation:
    """One broken promise: which invariant, where, and when."""

    invariant: str
    cluster: int
    block: Hash32
    time: float


def _census(
    deployment: "ICIDeployment", live: bool
) -> Iterator[tuple[int, list[int], "BlockHeader", list[int]]]:
    """Yield ``(cluster, members, header, holders)`` per cluster × block.

    ``members`` are the cluster's live members (``live``) or all of
    them; ``holders`` are those members whose store holds the body.
    """
    nodes = deployment.nodes
    headers = list(deployment.ledger.store.iter_active_headers())
    for view in deployment.clusters.views():
        if live:
            members = live_members(deployment.network, sorted(view.members))
        else:
            members = list(view.members)
        for header in headers:
            block_hash = header.block_hash
            holders = [
                m for m in members if nodes[m].store.has_body(block_hash)
            ]
            yield view.cluster_id, members, header, holders


def coverage(
    deployment: "ICIDeployment", live: bool = False
) -> list[Violation]:
    """Cluster/block pairs the cluster cannot produce.

    A block is covered when a member holds its body or, if the cluster
    archived it, when at least ``k`` of its chunks sit on live holders.
    By default every member's disk counts and genesis is checked like
    any block — the paper's integrity claim.  With ``live`` only live
    members count and genesis (a constant any node can regenerate) is
    exempt: the census of what an outage cuts off right now (E21's
    blocks lost).
    """
    tier = deployment.archival
    now = deployment.network.now
    return [
        Violation(COVERAGE, cluster, header.block_hash, now)
        for cluster, _, header, holders in _census(deployment, live)
        if not (live and header.is_genesis)
        and not holders
        and not (
            tier is not None
            and tier.can_reconstruct(cluster, header.block_hash)
        )
    ]


def floor(
    deployment: "ICIDeployment", converging: bool = False
) -> list[Violation]:
    """Blocks below their floor among a cluster's live members.

    The strict (final) floor is ``min(max(target, 1), live)`` copies,
    where ``target`` is the planner's per-block target on adaptive runs
    and the base ``r`` otherwise (and always for genesis); an archived
    block must instead meet the coded floor.  The ``converging``
    (round-by-round) floor also caps each target at ``r`` and skips
    genesis, so a not-yet-filled hot target — convergence work, not a
    bad shed — is not a violation.  Clusters with no live member are
    skipped.
    """
    planner = deployment.replication_planner
    tier = deployment.archival
    base = deployment.config.replication
    now = deployment.network.now
    violations = []
    for cluster, live, header, holders in _census(deployment, live=True):
        if not live or (converging and header.is_genesis):
            continue
        block_hash = header.block_hash
        if (
            tier is not None
            and not header.is_genesis
            and tier.is_archived(cluster, block_hash)
        ):
            if not tier.coded_floor_ok(cluster, block_hash):
                violations.append(Violation(FLOOR, cluster, block_hash, now))
            continue
        target = (
            base
            if planner is None or header.is_genesis
            else planner.target_for(block_hash)
        )
        need = min(max(target, 1), len(live))
        if converging:
            need = min(need, base)
        if len(holders) < need:
            violations.append(Violation(FLOOR, cluster, block_hash, now))
    return violations


def diversity(
    deployment: "ICIDeployment",
    domains: "FailureDomainMap | None" = None,
) -> list[Violation]:
    """Blocks whose live copies do not span enough distinct zones.

    Judged against ``domains`` when given (E21's domain-oblivious arm
    has no map of its own), else against the deployment's installed
    map; a deployment with neither trivially passes.  Each non-genesis
    block's live holders must span ``min(floor, live zones)`` zones,
    where ``floor`` is the strict replica floor of :func:`floor`;
    archived blocks check their live chunk holders against
    ``min(k, live zones)`` instead — chunk placement rides the same
    spread-aware policy.  Genesis is exempt: it is a hardcoded constant
    any node can regenerate, so zone spread buys it nothing.
    """
    domains = domains if domains is not None else deployment.domains
    if domains is None:
        return []
    planner = deployment.replication_planner
    tier = deployment.archival
    base = deployment.config.replication
    now = deployment.network.now
    violations = []
    for cluster, live, header, holders in _census(deployment, live=True):
        if not live or header.is_genesis:
            continue
        live_zones = len(domains.zones_of(live))
        block_hash = header.block_hash
        if tier is not None and tier.is_archived(cluster, block_hash):
            holders = tier.live_chunk_holders(cluster, block_hash)
            need = min(tier.config.data_chunks, live_zones)
        else:
            target = (
                base if planner is None else planner.target_for(block_hash)
            )
            need = min(max(target, 1), len(live), live_zones)
        if len(domains.zones_of(holders)) < need:
            violations.append(Violation(DIVERSITY, cluster, block_hash, now))
    return violations
