"""E18 (adaptive): heat-aware replication vs fixed-r under Zipf reads.

The adaptive subsystem's acceptance experiment: two same-seed
deployments replay an identical block stream and an identical
Zipf-skewed read stream; the adaptive one tracks access heat, grants
hot blocks extra replicas, and sheds surplus cold copies through the
anti-entropy sweep.  The claim: total ledger bytes drop by >= 15% while
p95 query latency stays equal or better, and no block ever dips below
its replica floor while placements converge.
"""

from __future__ import annotations

from benchmarks.conftest import emit, run_once
from repro.analysis.tables import format_bytes, render_table
from repro.bench.workload import BenchWorkload
from repro.sim.zipf_compare import ZipfCompareConfig, run_zipf_compare
from repro.sim.scenario import BENCH_LIMITS

#: The acceptance run: defaults (seed 42, 18 nodes / 3 clusters, r=2,
#: 16 blocks, 150 Zipf reads over 6 convergence rounds).
ACCEPT = ZipfCompareConfig()


def test_e18_adaptive_replication(benchmark, results_dir):
    outcomes = {}

    def run_all():
        outcomes["compare"] = run_zipf_compare(ACCEPT)

    run_once(benchmark, run_all)
    outcome = outcomes["compare"]

    rows = [
        (
            "fixed r=2",
            format_bytes(outcome.control_bytes),
            "-",
            f"{outcome.control_p95_latency * 1000:.1f} ms",
            outcome.control_queries_completed,
            "-",
        ),
        (
            "adaptive",
            format_bytes(outcome.treatment_bytes),
            f"{outcome.savings_fraction:.1%}",
            f"{outcome.treatment_p95_latency * 1000:.1f} ms",
            outcome.treatment_queries_completed,
            "/".join(
                str(outcome.tier_counts.get(tier, 0))
                for tier in ("hot", "warm", "cold")
            ),
        ),
    ]
    table = render_table(
        [
            "scheme",
            "total ledger bytes",
            "savings",
            "p95 query latency",
            "queries completed",
            "hot/warm/cold",
        ],
        rows,
        title=(
            f"E18  Adaptive replication (N={ACCEPT.n_nodes}, "
            f"r={ACCEPT.replication}, {ACCEPT.n_blocks} blocks, "
            f"{ACCEPT.reads} Zipf reads, s={ACCEPT.zipf_exponent})"
        ),
    )
    emit(results_dir, "e18_adaptive_replication", table)

    # The acceptance criteria, verbatim.
    assert outcome.savings_fraction >= 0.15, outcome.savings_fraction
    assert outcome.latency_ok, (
        outcome.treatment_p95_latency,
        outcome.control_p95_latency,
    )
    assert outcome.converged_safely
    assert outcome.adaptive_stats["floor_violations"] == 0
    assert outcome.adaptive_stats["replicas_shed"] > 0


# ---------------------------------------------------------- perf workload
def _bench_workload(profile):
    config = ZipfCompareConfig(
        n_blocks=profile.pick(8, ACCEPT.n_blocks),
        reads=profile.pick(60, ACCEPT.reads),
        rounds=profile.pick(4, ACCEPT.rounds),
    )
    outcome = run_zipf_compare(config, limits=BENCH_LIMITS)
    return [
        ("fixed", outcome.control_deployment),
        ("adaptive", outcome.treatment_deployment),
    ]


WORKLOAD = BenchWorkload(
    bench_id="e18",
    title="heat-aware adaptive replication vs fixed-r",
    run=_bench_workload,
    tags=("heat", "adaptive"),
)
