"""Router coverage: constructed message kinds vs. registered handlers.

Guards the refactor's central invariant: every message kind any code in
``src/repro/`` actually puts on the wire has exactly one registered
handler in the deployments that speak it, and a kind nobody registered
raises :class:`ProtocolError` loudly instead of being silently dropped.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

import repro
from repro.baselines.full_replication import FullReplicationDeployment
from repro.baselines.rapidchain import RapidChainDeployment
from repro.core.config import ICIConfig
from repro.core.icistrategy import ICIDeployment
from repro.errors import ProtocolError
from repro.net.gossip import GossipProtocol
from repro.net.message import Message, MessageKind, sized_message
from repro.net.network import Network
from repro.net.simclock import SimClock
from repro.protocols.router import MessageRouter
from tests.conftest import TEST_LIMITS

SRC = Path(repro.__file__).parent
_KIND_RE = re.compile(r"MessageKind\.([A-Z_]+)")


def referenced_kinds(*paths: Path) -> set[MessageKind]:
    """Every kind referenced in the given sources (files or packages),
    excluding the enum's own definition module."""
    kinds: set[MessageKind] = set()
    for root in paths:
        files = root.rglob("*.py") if root.is_dir() else [root]
        for path in files:
            if path.name == "message.py" and path.parent.name == "net":
                continue
            for match in _KIND_RE.finditer(path.read_text()):
                kinds.add(MessageKind[match.group(1)])
    return kinds


def make_ici() -> ICIDeployment:
    return ICIDeployment(
        8,
        config=ICIConfig(n_clusters=2, replication=2, limits=TEST_LIMITS),
    )


def make_full() -> FullReplicationDeployment:
    return FullReplicationDeployment(6, limits=TEST_LIMITS)


def make_rapidchain() -> RapidChainDeployment:
    return RapidChainDeployment(8, n_committees=2, limits=TEST_LIMITS)


DEPLOYMENTS = [make_ici, make_full, make_rapidchain]


class TestKindCoverage:
    def test_membership_kinds_never_constructed(self):
        """CLUSTER_* are reserved taxonomy, built nowhere in src/repro."""
        kinds = referenced_kinds(SRC)
        assert MessageKind.CLUSTER_HELLO not in kinds
        assert MessageKind.CLUSTER_ASSIGN not in kinds

    def test_ici_router_covers_every_constructed_kind(self):
        """The ICI router handles exactly the kinds src/repro constructs."""
        deployment = make_ici()
        assert deployment.router.handled_kinds == referenced_kinds(SRC)

    def test_full_replication_covers_its_own_kinds(self):
        deployment = make_full()
        module = SRC / "baselines" / "full_replication.py"
        assert referenced_kinds(module) <= deployment.router.handled_kinds

    def test_rapidchain_covers_its_own_kinds(self):
        deployment = make_rapidchain()
        module = SRC / "baselines" / "rapidchain.py"
        assert referenced_kinds(module) <= deployment.router.handled_kinds

    def test_ici_kinds_owned_by_installed_engines(self):
        """Each handled kind has exactly one owner, a registered engine."""
        deployment = make_ici()
        owners = {
            kind: deployment.router.owner_of(kind)
            for kind in deployment.router.handled_kinds
        }
        assert set(owners.values()) == set(deployment.engines)
        for engine in deployment.engines.values():
            claimed = set(engine.kinds_claimed(deployment.router))
            assert claimed == {
                kind
                for kind, owner in owners.items()
                if owner == engine.name
            }


class TestDispatchFailures:
    @pytest.mark.parametrize("factory", DEPLOYMENTS)
    def test_unknown_kind_raises_protocol_error(self, factory):
        deployment = factory()
        node = deployment.nodes[1]
        rogue = sized_message(MessageKind.CLUSTER_HELLO, 0, 1, None, 16)
        with pytest.raises(ProtocolError, match="cluster_hello"):
            deployment.on_message(node, rogue)

    def test_fresh_router_rejects_everything(self):
        router = MessageRouter()
        message = sized_message(MessageKind.CONTROL, 0, 1, ("ping",), 8)
        node = type("N", (), {"node_id": 1})()
        with pytest.raises(ProtocolError, match="control"):
            router.dispatch(node, message)

    def test_duplicate_registration_rejected(self):
        router = MessageRouter()
        router.register(
            MessageKind.CONTROL, lambda node, message: None, owner="first"
        )
        with pytest.raises(ProtocolError, match="first"):
            router.register(
                MessageKind.CONTROL,
                lambda node, message: None,
                owner="second",
            )
        assert router.owner_of(MessageKind.CONTROL) == "first"


class TestGossipRegistration:
    """``register_gossip`` maps each kind straight to its handler."""

    def gossip(self, calls: list[tuple[str, Message]]) -> GossipProtocol:
        class SpyGossip(GossipProtocol):
            """Records which per-kind handler each delivery reaches."""

            def _on_announce(self, node, message):
                calls.append(("_on_announce", message))

            def _on_request(self, node, message):
                calls.append(("_on_request", message))

            def _on_item_received(self, node, message):
                calls.append(("_on_item_received", message))

        return SpyGossip(
            network=Network(clock=SimClock()),
            announce_kind=MessageKind.TX_ANNOUNCE,
            request_kind=MessageKind.TX_REQUEST,
            item_kind=MessageKind.TX_BODY,
            item_size=lambda item: 80,
            on_item=lambda node, item: None,
        )

    def test_claims_all_three_kinds(self):
        router = MessageRouter()
        router.register_gossip(self.gossip([]), owner="tx-gossip")
        kinds = (
            MessageKind.TX_ANNOUNCE,
            MessageKind.TX_REQUEST,
            MessageKind.TX_BODY,
        )
        assert router.handled_kinds == frozenset(kinds)
        assert {router.owner_of(kind) for kind in kinds} == {"tx-gossip"}

    def test_each_kind_reaches_its_handler(self):
        calls: list[tuple[str, Message]] = []
        router = MessageRouter()
        router.register_gossip(self.gossip(calls))
        node = type("N", (), {"node_id": 1})()
        expected = []
        for kind, name in (
            (MessageKind.TX_REQUEST, "_on_request"),
            (MessageKind.TX_BODY, "_on_item_received"),
            (MessageKind.TX_ANNOUNCE, "_on_announce"),
        ):
            message = sized_message(kind, 0, 1, b"id", 8)
            router.dispatch(node, message)
            expected.append((name, message))
        assert calls == expected

    def test_unregistered_kind_still_raises(self):
        router = MessageRouter()
        router.register_gossip(self.gossip([]))
        node = type("N", (), {"node_id": 1})()
        rogue = sized_message(MessageKind.BLOCK_ANNOUNCE, 0, 1, None, 8)
        with pytest.raises(ProtocolError, match="block_announce"):
            router.dispatch(node, rogue)
