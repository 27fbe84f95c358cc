"""Scenario descriptions: one place to build comparable deployments.

A :class:`Scenario` captures everything an experiment varies — strategy,
population, cluster layout, latency model — and :func:`build_deployment`
turns it into a live deployment.  Benches construct scenarios instead of
deployments so strategies are always built on identically-configured
substrates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines.full_replication import FullReplicationDeployment
from repro.baselines.rapidchain import RapidChainDeployment
from repro.chain.validation import ValidationLimits
from repro.clustering.coordinates import place_regions, place_uniform
from repro.core.config import ICIConfig
from repro.core.icistrategy import ICIDeployment
from repro.core.interface import StorageDeployment
from repro.errors import ConfigurationError
from repro.net.latency import (
    ConstantLatency,
    CoordinateLatency,
    UniformLatency,
)
from repro.net.network import Network

#: Small limits suited to simulation benches: ~50 KB blocks keep event
#: counts manageable while preserving every size *ratio* the paper cares
#: about (all strategies are compared under the same limits).
BENCH_LIMITS = ValidationLimits(
    max_block_body_bytes=50_000,
    max_tx_bytes=10_000,
)


@dataclass(frozen=True)
class Scenario:
    """One experiment's deployment recipe.

    Attributes:
        strategy: ``"ici"``, ``"full"``, or ``"rapidchain"``.
        n_nodes: population size.
        n_groups: clusters (ICI) or committees (RapidChain); ignored by
            full replication.
        replication: ICI in-cluster replication factor.
        latency: ``"constant"``, ``"uniform"``, or ``"regions"`` (2-D
            coordinates with geographic blobs).
        placement / clustering / aggregate_votes / verify_collaboratively:
            forwarded into :class:`~repro.core.config.ICIConfig`.
    """

    strategy: str = "ici"
    n_nodes: int = 40
    n_groups: int = 4
    replication: int = 1
    latency: str = "uniform"
    placement: str = "hash"
    clustering: str = "random"
    aggregate_votes: bool = True
    verify_collaboratively: bool = True
    limits: ValidationLimits = field(default_factory=lambda: BENCH_LIMITS)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.strategy not in ("ici", "full", "rapidchain"):
            raise ConfigurationError(f"unknown strategy {self.strategy!r}")
        if self.latency not in ("constant", "uniform", "regions"):
            raise ConfigurationError(f"unknown latency {self.latency!r}")
        if self.n_nodes < 1:
            raise ConfigurationError("n_nodes must be positive")


def build_network(scenario: Scenario) -> tuple[Network, list | None]:
    """The fabric for a scenario; returns ``(network, coordinates)``.

    The clock is :class:`Network`'s default: a fresh serial
    :class:`~repro.net.simclock.SimClock`.
    """
    coordinates = None
    if scenario.latency == "constant":
        latency = ConstantLatency(0.05)
    elif scenario.latency == "uniform":
        latency = UniformLatency(0.02, 0.2, seed=scenario.seed)
    else:
        coordinates = place_regions(
            scenario.n_nodes,
            n_regions=max(scenario.n_groups, 2),
            seed=scenario.seed,
        )
        latency = CoordinateLatency(coordinates)
    return Network(latency=latency), coordinates


def build_deployment(scenario: Scenario) -> StorageDeployment:
    """Instantiate the scenario's strategy on a fresh network."""
    network, coordinates = build_network(scenario)
    if scenario.strategy == "full":
        return FullReplicationDeployment(
            scenario.n_nodes,
            network=network,
            limits=scenario.limits,
            seed=scenario.seed,
        )
    if scenario.strategy == "rapidchain":
        return RapidChainDeployment(
            scenario.n_nodes,
            n_committees=scenario.n_groups,
            network=network,
            limits=scenario.limits,
            seed=scenario.seed,
        )
    config = ICIConfig(
        n_clusters=scenario.n_groups,
        replication=scenario.replication,
        placement=scenario.placement,
        clustering=(
            scenario.clustering
            if coordinates is not None or scenario.clustering == "random"
            else "random"
        ),
        aggregate_votes=scenario.aggregate_votes,
        verify_collaboratively=scenario.verify_collaboratively,
        limits=scenario.limits,
        seed=scenario.seed,
    )
    return ICIDeployment(
        scenario.n_nodes,
        config=config,
        network=network,
        coordinates=coordinates,
    )


def uniform_coordinates(scenario: Scenario) -> list:
    """Convenience: uniform node placement matching a scenario's size."""
    return place_uniform(scenario.n_nodes, seed=scenario.seed)
