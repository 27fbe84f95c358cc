"""Archival tier: cold blocks become k-of-n Reed–Solomon chunk sets.

The adaptive planner (:mod:`repro.storage.heat`) already prices cold
blocks down to ``max(r - cold_margin, 1)`` full replicas.  This tier
goes past the last replica: a block classified cold transitions from
replication to **coded storage** — the body is split and extended into
``n = k + m`` GF(256) Reed–Solomon chunks (:func:`repro.storage.
erasure.rs_encode`), spread across ``n`` *distinct* live cluster
members by the deployment's rendezvous placement, and every full
replica in the cluster is dropped.  Per-cluster cost falls from
``floor·D`` to ``(n/k)·D`` while durability *rises*: any ``n - k``
chunk holders can die and the body still decodes byte-exact.

Reads keep working through the query engine's failover tail: when every
planned holder misses, the engine asks this tier to reconstruct the
body on demand (lazy decode, charged as ``k`` chunk reads of read
amplification).  The anti-entropy sweep maintains the invariant the
endurance audit pins — the **coded floor**: every archived block keeps
at least ``k`` live chunks, never two on one member.  Dead chunks are
re-homed onto live members that hold no chunk of the block; a block
that warms back up is *thawed* — decoded once and handed back to the
replica tier at its planner target.

Opt-in and dormant by default: nothing here is constructed unless
:meth:`~repro.core.icistrategy.ICIDeployment.enable_archival_tier`
runs, so fixed-``r`` and adaptive-only deployments keep byte-identical
simulated metrics (the bench baseline gate enforces it).

Simulator shortcut (same oracle the repair analysis and the reconcile
pass use): chunk payloads live in this manager keyed by holder instead
of inside each node's store, mirroring how :class:`~repro.core.parity.
ParityManager` keeps parity chunks.  Placement, liveness, floors, and
read-amplification charges all follow the real holders.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Sequence

from repro.chain.block import Block, deserialize_body, serialize_body
from repro.crypto.hashing import Hash32
from repro.errors import ConfigurationError
from repro.obs.tracer import proto_track
from repro.storage.erasure import rs_decode, rs_encode
from repro.storage.heat import COLD

if TYPE_CHECKING:  # pragma: no cover
    from repro.chain.block import BlockHeader
    from repro.core.icistrategy import ICIDeployment
    from repro.obs.tracer import Tracer
    from repro.storage.heat import ReplicationPlanner


@dataclass(frozen=True)
class ArchivalConfig:
    """Shape of the archival code.

    Attributes:
        data_chunks: ``k`` — chunks needed to reconstruct a body.
        parity_chunks: ``m`` — extra chunks; any ``m`` holders may die.

    The defaults (3+1) put a cold block at ``4/3 ≈ 1.33×`` its body
    size per cluster and fit a five-member cluster with one spare.
    """

    data_chunks: int = 3
    parity_chunks: int = 1

    def __post_init__(self) -> None:
        if self.data_chunks < 1:
            raise ConfigurationError("data_chunks must be >= 1")
        if self.parity_chunks < 1:
            raise ConfigurationError(
                "parity_chunks must be >= 1 (a 0-parity code cannot "
                "survive a single chunk-holder failure)"
            )
        if self.data_chunks + self.parity_chunks > 256:
            raise ConfigurationError(
                "GF(256) supports at most 256 total chunks"
            )

    @property
    def total_chunks(self) -> int:
        """``n = k + m``."""
        return self.data_chunks + self.parity_chunks


@dataclass
class ArchivalStats:
    """What the tier archived, repaired, and decoded (deterministic)."""

    blocks_archived: int = 0
    blocks_thawed: int = 0
    chunks_placed: int = 0
    chunks_repaired: int = 0
    reconstructions: int = 0
    failed_reconstructions: int = 0
    #: Full-replica bytes freed by archiving (the tier's storage win).
    replica_bytes_freed: int = 0
    #: Read amplification: chunk bytes read for decodes and repairs.
    chunk_bytes_read: int = 0
    #: Sweeps that found an archived block below the coded floor
    #: (fewer than ``k`` live chunks).  Transient while holders are
    #: down; the endurance audit requires the floor restored at the end.
    floor_deficits: int = 0

    def as_dict(self) -> dict[str, int]:
        """Plain-dict view (for reports and determinism signatures)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class _ArchivedBlock:
    """One cluster's coded form of one block."""

    header: "BlockHeader"
    data_length: int
    chunks: list[bytes]
    #: chunk index -> current holder (always distinct holders).
    holders: dict[int, int] = field(default_factory=dict)


class ArchivalTier:
    """Per-cluster coded storage for cold blocks.

    Driven by the anti-entropy sweep: :meth:`should_archive` /
    :meth:`archive` move cold blocks in, :meth:`maintain` re-homes dead
    chunks and thaws re-warmed blocks, and the query engine calls
    :meth:`reconstruct` when its replica failover plan is exhausted.
    """

    def __init__(
        self,
        deployment: "ICIDeployment",
        planner: "ReplicationPlanner",
        config: ArchivalConfig | None = None,
    ) -> None:
        self.deployment = deployment
        self.planner = planner
        self.config = config or ArchivalConfig()
        self.stats = ArchivalStats()
        self._entries: dict[tuple[int, Hash32], _ArchivedBlock] = {}
        #: block hash -> clusters holding it coded (bounds the memo).
        self._archived_in: dict[Hash32, int] = {}
        #: block hash -> (raw body, Block) of the last accepted decode.
        self._decoded: dict[Hash32, tuple[bytes, Block]] = {}
        self._chunk_bytes_by_node: dict[int, int] = {}
        self._track = proto_track("archival")
        self._tracer: "Tracer | None" = None

    # ----------------------------------------------------------- predicates
    def is_archived(self, cluster_id: int, block_hash: Hash32) -> bool:
        """Does this cluster hold the block in coded form?"""
        return (cluster_id, block_hash) in self._entries

    def should_archive(self, cluster_id: int, block_hash: Hash32) -> bool:
        """Cold per the planner, not genesis, not already coded."""
        if self.is_archived(cluster_id, block_hash):
            return False
        return self.planner.tier_of(block_hash) == COLD

    def can_reconstruct(self, cluster_id: int, block_hash: Hash32) -> bool:
        """Are at least ``k`` chunks on live holders right now?"""
        entry = self._entries.get((cluster_id, block_hash))
        if entry is None:
            return False
        return len(self._live_chunks(entry)) >= self.config.data_chunks

    def live_chunk_holders(
        self, cluster_id: int, block_hash: Hash32
    ) -> list[int]:
        """Distinct live members holding chunks of one archived block.

        The failure-domain audit checks these span distinct zones the
        same way replica holders must; chunk placement already rides
        ``deployment.placement``, so a spread-aware policy spreads
        chunks automatically.
        """
        entry = self._entries.get((cluster_id, block_hash))
        if entry is None:
            return []
        return sorted(set(self._live_chunks(entry).values()))

    def coded_floor_ok(self, cluster_id: int, block_hash: Hash32) -> bool:
        """The audit invariant: ≥ ``k`` live chunks, never co-located."""
        entry = self._entries.get((cluster_id, block_hash))
        if entry is None:
            return False
        alive = self._live_chunks(entry)
        holders = list(alive.values())
        return (
            len(alive) >= self.config.data_chunks
            and len(set(holders)) == len(holders)
        )

    # ------------------------------------------------------------ archiving
    def archive(
        self, cluster_id: int, header: "BlockHeader", live: Sequence[int]
    ) -> bool:
        """Code one cold block into this cluster; drop its full replicas.

        Returns ``False`` (leaving the replica tier untouched) when the
        cluster has fewer than ``n`` live members — every chunk needs a
        distinct holder or a single crash could take two.
        """
        n = self.config.total_chunks
        if len(live) < n:
            return False
        deployment = self.deployment
        block_hash = header.block_hash
        body = serialize_body(deployment.ledger.store.body(block_hash))
        chunks = rs_encode(body, self.config.data_chunks, n)
        ranked = deployment.placement.holders(
            header, tuple(sorted(live)), n
        )
        entry = _ArchivedBlock(
            header=header,
            data_length=len(body),
            chunks=chunks,
            holders=dict(enumerate(ranked)),
        )
        freed = 0
        for member in deployment.clusters.members_of(cluster_id):
            node = deployment.nodes.get(member)
            if node is not None and node.store.has_body(block_hash):
                freed += node.unassign_body(block_hash)
        self._entries[(cluster_id, block_hash)] = entry
        self._archived_in[block_hash] = self._archived_in.get(block_hash, 0) + 1
        for index, holder in entry.holders.items():
            self._credit(holder, len(chunks[index]))
        self.stats.blocks_archived += 1
        self.stats.chunks_placed += n
        self.stats.replica_bytes_freed += freed
        self._trace(
            "block_archived",
            {
                "cluster": cluster_id,
                "block": block_hash.hex()[:12],
                "chunks": n,
                "freed": freed,
            },
        )
        self._sample_storage()
        return True

    # ---------------------------------------------------------- maintenance
    def maintain(
        self, cluster_id: int, header: "BlockHeader", live: Sequence[int]
    ) -> None:
        """One sweep's upkeep of one archived block.

        Thaws the block back to the replica tier when the planner no
        longer calls it cold; otherwise re-homes chunks whose holders
        died onto live members holding no chunk of this block.  A block
        below the coded floor (fewer than ``k`` live chunks) is counted
        and retried next sweep — offline holders may yet recover.
        """
        block_hash = header.block_hash
        entry = self._entries[(cluster_id, block_hash)]
        if self.planner.tier_of(block_hash) != COLD:
            self._thaw(cluster_id, entry, live)
            return
        live_set = set(live)
        alive = {
            index: holder
            for index, holder in entry.holders.items()
            if holder in live_set
        }
        dead = sorted(set(entry.holders) - set(alive))
        if not dead:
            return
        if len(alive) < self.config.data_chunks:
            self.stats.floor_deficits += 1
            return
        occupied = set(alive.values())
        candidates = tuple(sorted(live_set - occupied))
        if not candidates:
            return
        ranked = self.deployment.placement.holders(
            entry.header, candidates, min(len(dead), len(candidates))
        )
        shard_len = len(entry.chunks[0]) if entry.chunks else 0
        for index, target in zip(dead, ranked):
            self._debit(entry.holders[index], shard_len)
            entry.holders[index] = target
            self._credit(target, shard_len)
            # Rebuilding one chunk reads k live chunks and re-encodes.
            self.stats.chunk_bytes_read += (
                self.config.data_chunks * shard_len
            )
            self.stats.chunks_repaired += 1
            self._trace(
                "chunk_repaired",
                {
                    "cluster": cluster_id,
                    "block": block_hash.hex()[:12],
                    "chunk": index,
                    "target": target,
                },
            )
        self._sample_storage()

    def _thaw(
        self, cluster_id: int, entry: _ArchivedBlock, live: Sequence[int]
    ) -> None:
        """Decode a re-warmed block and hand it back to the replica tier."""
        deployment = self.deployment
        block_hash = entry.header.block_hash
        block = self._decode(entry)
        if block is None:
            self.stats.floor_deficits += 1
            return
        members = deployment.clusters.members_of(cluster_id)
        targets = [
            target
            for target in self.planner.read_plan(entry.header, members)
            if target in deployment.nodes
            and deployment.network.is_online(target)
        ]
        if not targets:
            targets = [
                member for member in live if member in deployment.nodes
            ][:1]
        if not targets:
            self.stats.floor_deficits += 1
            return
        for target in targets:
            node = deployment.nodes[target]
            # A target that sat behind a partition may lack the headers
            # above its last-seen height; assign_body needs the parent.
            node.store.backfill_headers(block.header, deployment.ledger.store)
            node.assign_body(block)
        self._forget(cluster_id, entry)
        self.stats.blocks_thawed += 1
        self._trace(
            "block_thawed",
            {
                "cluster": cluster_id,
                "block": block_hash.hex()[:12],
                "replicas": len(targets),
            },
        )
        self._sample_storage()

    def _forget(self, cluster_id: int, entry: _ArchivedBlock) -> None:
        for index, holder in entry.holders.items():
            self._debit(holder, len(entry.chunks[index]))
        block_hash = entry.header.block_hash
        del self._entries[(cluster_id, block_hash)]
        remaining = self._archived_in.pop(block_hash) - 1
        if remaining:
            self._archived_in[block_hash] = remaining
        else:
            self._decoded.pop(block_hash, None)

    # ------------------------------------------------------- reconstruction
    def reconstruct(
        self, cluster_id: int, block_hash: Hash32
    ) -> Block | None:
        """Lazily decode one archived body (the query failover tail).

        Returns ``None`` when the block is not archived here or fewer
        than ``k`` chunks are live; the decoded body is *not* re-adopted
        as a replica — cold blocks stay coded until the planner rewarms
        them.
        """
        entry = self._entries.get((cluster_id, block_hash))
        if entry is None:
            return None
        block = self._decode(entry)
        if block is None:
            self.stats.failed_reconstructions += 1
            return None
        self.stats.reconstructions += 1
        self._trace(
            "coded_reconstruct",
            {
                "cluster": cluster_id,
                "block": block_hash.hex()[:12],
                "chunks_read": self.config.data_chunks,
            },
        )
        return block

    def _decode(self, entry: _ArchivedBlock) -> Block | None:
        """Decode one entry's body from its live chunks, or ``None``.

        Every call checks the live-chunk count against ``k``, charges
        and traces the ``k`` chunk reads, and runs :func:`rs_decode` on
        the chunks live now.  Only parsing the body and checking its
        Merkle commitment is memoized: when the decoded bytes equal the
        last body accepted for this block hash (from any cluster), that
        body's :class:`Block` is returned; otherwise
        :func:`deserialize_body` runs again (raising ``ValidationError``
        on a mismatch) and its result replaces the memo.  The memo entry
        lives until the block's last archived entry is forgotten.
        """
        alive = self._live_chunks(entry)
        k = self.config.data_chunks
        if len(alive) < k:
            return None
        # rs_decode uses the first k present indices; charge exactly
        # those chunk reads as read amplification.
        used = sorted(alive)[:k]
        present = {index: entry.chunks[index] for index in used}
        for index in used:
            self.stats.chunk_bytes_read += len(entry.chunks[index])
            self._trace(
                "chunk_read",
                {
                    "block": entry.header.block_hash.hex()[:12],
                    "chunk": index,
                    "holder": alive[index],
                },
            )
        raw = rs_decode(
            present, k, self.config.total_chunks, entry.data_length
        )
        block_hash = entry.header.block_hash
        memo = self._decoded.get(block_hash)
        if memo is not None and memo[0] == raw:
            return memo[1]
        block = deserialize_body(entry.header, raw)
        self._decoded[block_hash] = (raw, block)
        return block

    def _live_chunks(self, entry: _ArchivedBlock) -> dict[int, int]:
        deployment = self.deployment
        return {
            index: holder
            for index, holder in entry.holders.items()
            if holder in deployment.nodes
            and deployment.network.is_online(holder)
        }

    # ----------------------------------------------------------- accounting
    def _credit(self, holder: int, size: int) -> None:
        self._chunk_bytes_by_node[holder] = (
            self._chunk_bytes_by_node.get(holder, 0) + size
        )

    def _debit(self, holder: int, size: int) -> None:
        remaining = self._chunk_bytes_by_node.get(holder, 0) - size
        if remaining > 0:
            self._chunk_bytes_by_node[holder] = remaining
        else:
            self._chunk_bytes_by_node.pop(holder, None)

    @property
    def archived_blocks(self) -> int:
        """Archived (cluster, block) entries currently coded."""
        return len(self._entries)

    @property
    def total_chunk_bytes(self) -> int:
        """Coded bytes the tier stores across the whole network."""
        return sum(self._chunk_bytes_by_node.values())

    def chunk_bytes_of(self, node_id: int) -> int:
        """Coded bytes charged to one node."""
        return self._chunk_bytes_by_node.get(node_id, 0)

    def holders_of(
        self, cluster_id: int, block_hash: Hash32
    ) -> dict[int, int]:
        """chunk index -> holder for one archived block (audits/tests)."""
        entry = self._entries.get((cluster_id, block_hash))
        return dict(entry.holders) if entry is not None else {}

    def as_dict(self) -> dict[str, int]:
        """Stats view for signatures and reports."""
        return self.stats.as_dict()

    # -------------------------------------------------------------- tracing
    def attach_tracer(self, tracer: "Tracer | None") -> None:
        """Mirror archive/thaw/repair decisions (``None`` detaches)."""
        self._tracer = tracer

    def _sample_storage(self) -> None:
        if self._tracer is None:
            return
        from repro.obs.hooks import record_coded_storage

        record_coded_storage(
            self._tracer, self, self.deployment.network.now
        )

    def _trace(self, name: str, args: dict | None = None) -> None:
        if self._tracer is None:
            return
        self._tracer.instant(
            name,
            self._track,
            ts=self.deployment.network.clock.now,
            category="archival",
            args=args,
        )
