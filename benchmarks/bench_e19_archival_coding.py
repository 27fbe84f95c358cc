"""E19 (archival): Reed–Solomon cold tier vs adaptive-only replication.

The archival tier's acceptance experiment: two same-seed deployments —
both heat-aware adaptive, one additionally archiving cold blocks as
3+1 GF(256) Reed–Solomon chunk sets — replay an identical block stream
and an identical Zipf-skewed read stream at ``r = 3``.  The claim:
total stored bytes (replicas plus chunks) drop by >= 10% against the
adaptive-only bill, every query still completes (cold reads decode
lazily through the failover tail), and no audit round ever finds a
cluster unable to produce a block or an archived block below its coded
floor.
"""

from __future__ import annotations

from benchmarks.conftest import emit, run_once
from repro.analysis.tables import format_bytes, render_table
from repro.bench.workload import BenchWorkload
from repro.sim.zipf_compare import (
    ARCHIVAL,
    ZipfCompareConfig,
    run_zipf_compare,
)
from repro.sim.scenario import BENCH_LIMITS

#: The acceptance run: defaults at r=3 (seed 42, 18 nodes / 3 clusters,
#: 16 blocks, 150 Zipf reads over 6 convergence rounds, 3+1 code).
ACCEPT = ZipfCompareConfig(treatment=ARCHIVAL, replication=3)


def test_e19_archival_coding(benchmark, results_dir):
    outcomes = {}

    def run_all():
        outcomes["compare"] = run_zipf_compare(ACCEPT)

    run_once(benchmark, run_all)
    outcome = outcomes["compare"]

    stats = outcome.archival_stats
    rows = [
        (
            "adaptive only",
            format_bytes(outcome.control_bytes),
            "-",
            f"{outcome.control_p95_latency * 1000:.1f} ms",
            outcome.control_queries_completed,
            "-",
            "-",
        ),
        (
            "adaptive + archival",
            format_bytes(outcome.treatment_bytes),
            f"{outcome.savings_fraction:.1%}",
            f"{outcome.treatment_p95_latency * 1000:.1f} ms",
            outcome.treatment_queries_completed,
            outcome.archived_blocks,
            format_bytes(stats.get("chunk_bytes_read", 0)),
        ),
    ]
    table = render_table(
        [
            "scheme",
            "total stored bytes",
            "savings",
            "p95 query latency",
            "queries completed",
            "archived blocks",
            "chunk bytes read",
        ],
        rows,
        title=(
            f"E19  Archival coding (N={ACCEPT.n_nodes}, "
            f"r={ACCEPT.replication}, {ACCEPT.n_blocks} blocks, "
            f"{ACCEPT.reads} Zipf reads, 3+1 code)"
        ),
    )
    emit(results_dir, "e19_archival_coding", table)

    # The acceptance criteria, verbatim.
    assert outcome.treatment_bytes < outcome.control_bytes
    assert outcome.savings_fraction >= 0.10, outcome.savings_fraction
    assert outcome.reads_ok, (
        outcome.treatment_queries_completed,
        outcome.control_queries_completed,
    )
    assert outcome.converged_safely
    assert outcome.coverage_breaches == 0
    assert outcome.floor_breaches == 0
    assert stats["blocks_archived"] > 0
    assert stats["reconstructions"] > 0
    assert stats["failed_reconstructions"] == 0


# ---------------------------------------------------------- perf workload
def _bench_workload(profile):
    config = ZipfCompareConfig(
        treatment=ARCHIVAL,
        replication=ACCEPT.replication,
        n_blocks=profile.pick(8, ACCEPT.n_blocks),
        reads=profile.pick(60, ACCEPT.reads),
        rounds=profile.pick(4, ACCEPT.rounds),
    )
    outcome = run_zipf_compare(config, limits=BENCH_LIMITS)
    return [
        ("adaptive", outcome.control_deployment),
        ("coded", outcome.treatment_deployment),
    ]


WORKLOAD = BenchWorkload(
    bench_id="e19",
    title="Reed-Solomon archival tier vs adaptive-only",
    run=_bench_workload,
    tags=("coded", "archival"),
)
