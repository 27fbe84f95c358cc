"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run``      — deploy one strategy, stream blocks, print reports.
* ``compare``  — identical block stream through all three strategies.
* ``join``     — bootstrap-cost demo: grow a network by one node.
* ``experiments`` — list the reproduced experiments and their benches.
* ``bench``    — unified benchmark harness: run the experiment workloads,
  write versioned ``BENCH_*.json`` results, compare against the committed
  baseline (``--trace`` adds one traced pass per bench).
* ``chaos``    — seeded fault-injection run with a markdown audit
  (``--trace`` exports the run's Chrome trace).
* ``endurance`` — sustained churn under fault weather with the
  anti-entropy repair engine sweeping; audits integrity + the replica
  floor and reports the repair counters.
* ``trace``    — record a structured trace of one scenario: Chrome
  trace-event JSON (Perfetto-loadable, one track per node), optional
  JSONL stream, and a markdown latency/timeline summary.  ``repro trace
  diff A.json B.json`` pinpoints the first divergent event between two
  exported traces.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from repro.analysis.tables import format_bytes, format_seconds, render_table
from repro.sim.runner import ScenarioRunner
from repro.sim.scenario import BENCH_LIMITS, Scenario, build_deployment

_EXPERIMENTS = [
    ("E1", "per-node storage growth", "bench_e1_storage_growth.py"),
    ("E2", "25% of RapidChain storage", "bench_e2_rapidchain_ratio.py"),
    ("E3", "storage vs cluster size (1/m)", "bench_e3_cluster_size_sweep.py"),
    ("E4", "communication per block", "bench_e4_communication.py"),
    ("E5", "bootstrap overhead", "bench_e5_bootstrap.py"),
    ("E6", "verification latency", "bench_e6_verification_latency.py"),
    ("E7", "availability vs replication", "bench_e7_availability.py"),
    ("E8", "throughput parity", "bench_e8_throughput.py"),
    ("E9", "placement ablation", "bench_e9_placement_ablation.py"),
    ("E10", "clustering ablation", "bench_e10_clustering_ablation.py"),
    ("E11", "parity vs replication", "bench_e11_parity_ablation.py"),
    ("E12", "churn endurance", "bench_e12_churn_endurance.py"),
    ("E13", "SPV proof service", "bench_e13_spv_service.py"),
    ("E14", "compact-block dissemination", "bench_e14_compact_blocks.py"),
    ("E15", "Vivaldi clustering", "bench_e15_vivaldi_clustering.py"),
    ("E16", "Byzantine tolerance", "bench_e16_byzantine_tolerance.py"),
    ("E17", "per-node cost scalability", "bench_e17_scalability.py"),
    (
        "E18",
        "heat-aware adaptive replication",
        "bench_e18_adaptive_replication.py",
    ),
    (
        "E19",
        "Reed-Solomon archival coding",
        "bench_e19_archival_coding.py",
    ),
    (
        "E20",
        "DHT lookup vs broadcast",
        "bench_e20_dht_lookup.py",
    ),
    (
        "E21",
        "zone outage vs placement spread",
        "bench_e21_domain_outage.py",
    ),
]


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ICIStrategy reproduction (ICDCS 2020)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="deploy one strategy and stream blocks")
    _common_args(run)
    run.add_argument(
        "--strategy",
        choices=("ici", "full", "rapidchain"),
        default="ici",
    )
    run.add_argument(
        "--replication", type=int, default=1, help="ICI replicas per block"
    )
    run.add_argument(
        "--relay",
        action="store_true",
        help="relay transactions by gossip and build blocks from mempools "
        "(ICI only)",
    )
    run.add_argument(
        "--report",
        metavar="FILE",
        help="write a full markdown deployment report to FILE",
    )

    compare = sub.add_parser(
        "compare", help="same block stream through all strategies"
    )
    _common_args(compare)

    join = sub.add_parser("join", help="bootstrap-cost demo")
    _common_args(join)
    join.add_argument(
        "--strategy",
        choices=("ici", "full", "rapidchain"),
        default="ici",
    )

    sub.add_parser("experiments", help="list reproduced experiments")

    bench = sub.add_parser(
        "bench", help="run the unified benchmark harness"
    )
    bench.add_argument(
        "--profile",
        choices=("quick", "full"),
        default="quick",
        help="workload sizes and repetition counts",
    )
    bench.add_argument(
        "--quick",
        action="store_const",
        const="quick",
        dest="profile",
        help="shorthand for --profile quick (CI-sized)",
    )
    bench.add_argument(
        "--full",
        action="store_const",
        const="full",
        dest="profile",
        help="shorthand for --profile full (published bench sizes)",
    )
    bench.add_argument(
        "--filter",
        metavar="IDS",
        help="comma-separated bench ids or tags to run (e.g. e8,heat)",
    )
    bench.add_argument(
        "--output-dir",
        metavar="DIR",
        help="where BENCH_*.json + .md land (default benchmarks/results)",
    )
    bench.add_argument(
        "--baseline",
        metavar="FILE",
        help="baseline payload to compare against "
        "(default benchmarks/baseline.json when it exists)",
    )
    bench.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero on wall-clock regression or simulated drift",
    )
    bench.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="wall-clock regression tolerance as a fraction (default 0.25)",
    )
    bench.add_argument(
        "--write-baseline",
        action="store_true",
        help="store this run as benchmarks/baseline.json",
    )
    bench.add_argument(
        "--list",
        action="store_true",
        dest="list_workloads",
        help="list discovered workloads and exit",
    )
    bench.add_argument(
        "--trace",
        action="store_true",
        help="after the timed reps, run each bench once under the tracer "
        "and write TRACE_<id>.json next to the results",
    )

    chaos = sub.add_parser(
        "chaos",
        help="seeded fault-injection run: drops, crashes, heal, audit",
    )
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--nodes", type=int, default=16)
    chaos.add_argument(
        "--groups", type=int, default=4, help="clusters / committees"
    )
    chaos.add_argument(
        "--replication", type=int, default=2, help="replicas per block"
    )
    chaos.add_argument("--blocks", type=int, default=8)
    chaos.add_argument("--txs", type=int, default=2, help="txs per block")
    chaos.add_argument(
        "--drop-rate",
        type=float,
        default=0.2,
        help="fraction of messages dropped (default 0.2)",
    )
    chaos.add_argument(
        "--duplicate-rate",
        type=float,
        default=0.05,
        help="fraction of messages delivered twice (default 0.05)",
    )
    chaos.add_argument(
        "--delay-rate",
        type=float,
        default=0.05,
        help="fraction of messages hit by a delay spike (default 0.05)",
    )
    chaos.add_argument(
        "--crash-count",
        type=int,
        default=1,
        help="nodes crashed mid-run and later recovered (default 1)",
    )
    chaos.add_argument(
        "--stall-count",
        type=int,
        default=0,
        help="nodes stalled (unresponsive but up) mid-run (default 0)",
    )
    chaos.add_argument(
        "--partition",
        action="store_true",
        help="also cut a minority partition mid-run",
    )
    chaos.add_argument(
        "--dht",
        action="store_true",
        help="enable the Kademlia-style DHT overlay (queries resolve "
        "holders via FIND_VALUE; the audit adds a routing-table census "
        "and a per-block lookup batch, and the exit code gates on it)",
    )
    chaos.add_argument(
        "--domains",
        action="store_true",
        help="enable failure-domain awareness (placement spreads "
        "replicas across zones; the outage becomes a full zone crash, "
        "and the exit code gates on the post-heal zone-diversity audit)",
    )
    chaos.add_argument(
        "--zones",
        type=int,
        default=4,
        help="failure domains in the map (with --domains; default 4)",
    )
    chaos.add_argument(
        "--report",
        metavar="FILE",
        help="write the markdown summary to FILE as well as stdout",
    )
    chaos.add_argument(
        "--trace",
        metavar="FILE",
        help="export the run's Chrome trace-event JSON to FILE",
    )

    endurance = sub.add_parser(
        "endurance",
        help="sustained churn under fault weather with anti-entropy "
        "repair; audits integrity and the replica floor",
    )
    endurance.add_argument("--seed", type=int, default=0)
    endurance.add_argument("--nodes", type=int, default=24)
    endurance.add_argument(
        "--groups", type=int, default=3, help="clusters / committees"
    )
    endurance.add_argument(
        "--replication", type=int, default=2, help="replicas per block"
    )
    endurance.add_argument("--blocks", type=int, default=12)
    endurance.add_argument(
        "--txs", type=int, default=2, help="txs per block"
    )
    endurance.add_argument(
        "--drop-rate",
        type=float,
        default=0.2,
        help="fraction of messages dropped (default 0.2)",
    )
    endurance.add_argument(
        "--duplicate-rate",
        type=float,
        default=0.05,
        help="fraction of messages delivered twice (default 0.05)",
    )
    endurance.add_argument(
        "--delay-rate",
        type=float,
        default=0.05,
        help="fraction of messages hit by a delay spike (default 0.05)",
    )
    endurance.add_argument(
        "--join-rate",
        type=float,
        default=0.15,
        help="expected joins per produced block (default 0.15)",
    )
    endurance.add_argument(
        "--leave-rate",
        type=float,
        default=0.1,
        help="expected graceful leaves per block (default 0.1)",
    )
    endurance.add_argument(
        "--crash-rate",
        type=float,
        default=0.1,
        help="expected churn crashes per block (default 0.1)",
    )
    endurance.add_argument(
        "--crash-count",
        type=int,
        default=1,
        help="extra outage crashes a third of the way in (default 1)",
    )
    endurance.add_argument(
        "--no-partition",
        action="store_false",
        dest="partition",
        help="skip the mid-run minority partition window",
    )
    endurance.add_argument(
        "--cadence",
        type=float,
        default=5.0,
        help="anti-entropy sweep interval, virtual seconds (default 5)",
    )
    endurance.add_argument(
        "--adaptive",
        action="store_true",
        help="enable heat-aware adaptive replication (Zipf reads drive "
        "per-block tier targets; sweeps repair and shed to them)",
    )
    endurance.add_argument(
        "--archival",
        action="store_true",
        help="enable the Reed-Solomon archival tier (implies --adaptive; "
        "cold blocks become 3+1 coded chunk sets, audited against the "
        "coded floor)",
    )
    endurance.add_argument(
        "--reads",
        type=int,
        default=4,
        help="adaptive-mode Zipf reads per produced block (default 4)",
    )
    endurance.add_argument(
        "--zipf",
        type=float,
        default=1.1,
        help="adaptive-mode Zipf exponent over recency rank (default 1.1)",
    )
    endurance.add_argument(
        "--dht",
        action="store_true",
        help="enable the Kademlia-style DHT overlay (joins self-lookup, "
        "queries resolve holders via FIND_VALUE, repair digests route "
        "to XOR-nearest peers; the audit adds a routing-table census "
        "and a per-block lookup batch, and the exit code gates on it)",
    )
    endurance.add_argument(
        "--domains",
        action="store_true",
        help="enable failure-domain awareness (spread placement, a "
        "full zone outage a third of the way in, diversity-restoring "
        "sweeps, and a post-heal zone-diversity exit gate)",
    )
    endurance.add_argument(
        "--zones",
        type=int,
        default=3,
        help="failure domains in the map (with --domains; default 3)",
    )
    endurance.add_argument(
        "--report",
        metavar="FILE",
        help="write the markdown summary to FILE as well as stdout",
    )
    endurance.add_argument(
        "--trace",
        metavar="FILE",
        help="export the run's Chrome trace-event JSON to FILE",
    )

    trace = sub.add_parser(
        "trace",
        help="record a structured trace of one scenario "
        "(Chrome/Perfetto JSON + markdown summary)",
    )
    trace.add_argument(
        "scenario",
        nargs="?",
        choices=("ici", "full", "rapidchain", "diff", "profile"),
        default="ici",
        help="strategy to deploy (default ici), 'diff' to compare two "
        "exported traces, or 'profile' to rank callback wall cost in "
        "one",
    )
    trace.add_argument(
        "files",
        nargs="*",
        metavar="FILE",
        help="with 'diff': the two Chrome trace JSON files to compare; "
        "with 'profile': the one trace to profile",
    )
    _common_args(trace)
    trace.add_argument(
        "--replication", type=int, default=1, help="ICI replicas per block"
    )
    trace.add_argument(
        "--chaos",
        action="store_true",
        help="trace the seeded chaos scenario instead of a clean stream "
        "(ici only)",
    )
    trace.add_argument(
        "--queries",
        type=int,
        default=8,
        help="block retrievals exercised after the stream (default 8)",
    )
    trace.add_argument(
        "--out",
        metavar="FILE",
        default="trace.json",
        help="Chrome trace-event JSON output (default trace.json)",
    )
    trace.add_argument(
        "--jsonl",
        metavar="FILE",
        help="also write the full-fidelity JSONL event stream to FILE",
    )
    trace.add_argument(
        "--summary",
        metavar="FILE",
        nargs="?",
        const="-",
        help="write the markdown summary to FILE ('-' or no value: stdout)",
    )
    trace.add_argument(
        "--capacity",
        type=int,
        help="ring-buffer size in events (default 200000; oldest evicted)",
    )
    trace.add_argument(
        "--no-callback-spans",
        action="store_true",
        help="skip per-simclock-callback spans (much smaller traces)",
    )
    return parser


def _common_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--nodes", type=int, default=40)
    parser.add_argument(
        "--groups", type=int, default=5, help="clusters / committees"
    )
    parser.add_argument("--blocks", type=int, default=10)
    parser.add_argument("--txs", type=int, default=8, help="txs per block")
    parser.add_argument(
        "--latency",
        choices=("constant", "uniform", "regions"),
        default="uniform",
    )
    parser.add_argument("--seed", type=int, default=0)


def _deploy(args: argparse.Namespace, strategy: str):
    scenario = Scenario(
        strategy=strategy,
        n_nodes=args.nodes,
        n_groups=args.groups,
        replication=getattr(args, "replication", 1),
        latency=args.latency,
        seed=args.seed,
    )
    return build_deployment(scenario)


def _summary_rows(deployment, report) -> list[tuple]:
    storage = deployment.storage_report()
    return [
        ("blocks produced", report.blocks_produced),
        ("transactions", report.transactions_produced),
        ("mean bytes/node", format_bytes(storage.mean_node_bytes)),
        ("max bytes/node", format_bytes(storage.max_node_bytes)),
        ("network storage", format_bytes(storage.total_bytes)),
        (
            "traffic total",
            format_bytes(deployment.network.traffic.total_bytes),
        ),
        ("messages", deployment.network.traffic.total_messages),
    ]


def cmd_run(args: argparse.Namespace) -> int:
    """``run``: deploy one strategy and stream blocks."""
    deployment = _deploy(args, args.strategy)
    runner = ScenarioRunner(deployment, limits=BENCH_LIMITS)
    if args.relay:
        if not hasattr(deployment, "submit_transaction"):
            print("--relay requires the ici strategy", file=sys.stderr)
            return 2
        report = runner.produce_blocks_via_relay(
            args.blocks, txs_per_block=args.txs
        )
    else:
        report = runner.produce_blocks(args.blocks, txs_per_block=args.txs)
    rows = _summary_rows(deployment, report)
    finalized = getattr(deployment, "total_finalized_blocks", None)
    if finalized is not None:
        rows.append(("blocks finalized everywhere", finalized()))
    print(
        render_table(
            ["quantity", "value"],
            rows,
            title=(
                f"{args.strategy} / N={args.nodes} / groups={args.groups}"
            ),
        )
    )
    if args.report:
        from repro.analysis.report import write_deployment_report

        with open(args.report, "w", encoding="utf-8") as stream:
            write_deployment_report(
                deployment,
                stream,
                title=f"{args.strategy} deployment report",
            )
        print(f"report written to {args.report}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    """``compare``: identical stream through every strategy."""
    rows = []
    for strategy in ("full", "rapidchain", "ici"):
        deployment = _deploy(args, strategy)
        runner = ScenarioRunner(deployment, limits=BENCH_LIMITS)
        report = runner.produce_blocks(args.blocks, txs_per_block=args.txs)
        storage = deployment.storage_report()
        rows.append(
            (
                strategy,
                format_bytes(storage.mean_node_bytes),
                format_bytes(storage.total_bytes),
                format_bytes(deployment.network.traffic.total_bytes),
            )
        )
    print(
        render_table(
            ["strategy", "bytes/node", "network total", "traffic"],
            rows,
            title=(
                f"Identical {args.blocks}-block stream "
                f"(N={args.nodes}, groups={args.groups})"
            ),
        )
    )
    return 0


def cmd_join(args: argparse.Namespace) -> int:
    """``join``: bootstrap-cost demo."""
    deployment = _deploy(args, args.strategy)
    runner = ScenarioRunner(deployment, limits=BENCH_LIMITS)
    runner.produce_blocks(args.blocks, txs_per_block=args.txs)
    join = deployment.join_new_node()
    deployment.run()
    if not join.complete:
        print("bootstrap did not complete", file=sys.stderr)
        return 1
    print(
        render_table(
            ["quantity", "value"],
            [
                ("strategy", args.strategy),
                ("headers", format_bytes(join.header_bytes)),
                ("bodies", format_bytes(join.body_bytes)),
                ("total download", format_bytes(join.total_bytes)),
                ("bodies fetched", join.bodies_fetched),
                ("sync time", format_seconds(join.duration)),
            ],
            title=f"Join after {args.blocks} blocks (N={args.nodes})",
        )
    )
    return 0


def cmd_experiments(_args: argparse.Namespace) -> int:
    """``experiments``: list the reproduced experiments."""
    print(
        render_table(
            ["id", "reproduces", "bench"],
            _EXPERIMENTS,
            title="Reconstructed experiments (see DESIGN.md, EXPERIMENTS.md)",
        )
    )
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    """``bench``: the unified benchmark harness."""
    from repro.analysis.report import render_bench_summary
    from repro.bench import (
        PROFILES,
        BenchmarkRunner,
        compare_to_baseline,
        discover_workloads,
    )
    from repro.bench.schema import dump_payload, load_payload

    repo_root = Path(__file__).resolve().parents[2]
    workloads = discover_workloads(repo_root / "benchmarks")
    if args.filter:
        wanted = {part.strip() for part in args.filter.split(",")}
        # A filter term matches a bench id ("e18") or a workload tag
        # ("heat"), so families of related kernels select as a group.
        known = {w.bench_id for w in workloads}
        for w in workloads:
            known.update(w.tags)
        unknown = wanted - known
        if unknown:
            print(
                f"unknown bench ids or tags: {', '.join(sorted(unknown))}",
                file=sys.stderr,
            )
            return 2
        workloads = [
            w
            for w in workloads
            if w.bench_id in wanted or wanted & set(w.tags)
        ]
    if args.list_workloads:
        print(
            render_table(
                ["bench", "kernel", "tags"],
                [
                    (w.bench_id, w.title, ",".join(w.tags) or "-")
                    for w in workloads
                ],
                title=f"{len(workloads)} discovered workloads",
            )
        )
        return 0

    output_dir = (
        Path(args.output_dir)
        if args.output_dir
        else repo_root / "benchmarks" / "results"
    )
    runner = BenchmarkRunner(
        workloads,
        PROFILES[args.profile],
        progress=print,
        trace_dir=output_dir if args.trace else None,
    )
    payload = runner.run()
    json_path = runner.write(payload, output_dir)
    print(f"results written to {json_path}")

    baseline_path = (
        Path(args.baseline)
        if args.baseline
        else repo_root / "benchmarks" / "baseline.json"
    )
    comparison = None
    if baseline_path.exists() and not args.write_baseline:
        baseline = load_payload(baseline_path)
        if baseline.get("profile") == payload["profile"]:
            comparison = compare_to_baseline(
                payload, baseline, tolerance=args.tolerance
            )
            for line in comparison.summary_lines():
                print(line)
        elif args.check:
            print(
                f"baseline {baseline_path} holds a "
                f"{baseline.get('profile')!r}-profile run; cannot gate a "
                f"{payload['profile']!r} run against it",
                file=sys.stderr,
            )
            return 2

    md_path = json_path.with_suffix(".md")
    md_path.write_text(
        render_bench_summary(payload, comparison), encoding="utf-8"
    )
    print(f"summary written to {md_path}")

    if args.write_baseline:
        # Keep the provenance section: committed baselines carry the
        # before/after history of hot-path optimizations.
        if baseline_path.exists():
            previous = load_payload(baseline_path)
            if "optimizations" in previous:
                payload["optimizations"] = previous["optimizations"]
        dump_payload(payload, baseline_path)
        print(f"baseline written to {baseline_path}")

    if args.check:
        if comparison is None:
            print(
                f"--check requires a comparable baseline at "
                f"{baseline_path}",
                file=sys.stderr,
            )
            return 2
        return 0 if comparison.passed else 1
    return 0


def _trace_sink(args: argparse.Namespace):
    """A recording tracer when ``--trace`` asks for an export, else None."""
    if not args.trace:
        return None
    from repro.obs.tracer import Tracer

    return Tracer()


def cmd_chaos(args: argparse.Namespace) -> int:
    """``chaos``: one seeded fault-injection run with a markdown audit."""
    from repro.analysis.report import render_chaos_summary
    from repro.sim.chaos import ChaosConfig, run_chaos

    config = ChaosConfig(
        seed=args.seed,
        n_nodes=args.nodes,
        n_clusters=args.groups,
        replication=args.replication,
        n_blocks=args.blocks,
        txs_per_block=args.txs,
        drop_rate=args.drop_rate,
        duplicate_rate=args.duplicate_rate,
        delay_rate=args.delay_rate,
        crash_count=args.crash_count,
        stall_count=args.stall_count,
        partition=args.partition,
        dht=args.dht,
        domains=args.domains,
        zones=args.zones,
    )
    outcome = run_chaos(config, tracer=_trace_sink(args))
    summary = render_chaos_summary(outcome)
    print(summary, end="")
    if args.report:
        Path(args.report).parent.mkdir(parents=True, exist_ok=True)
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(summary)
        print(f"\nreport written to {args.report}", file=sys.stderr)
    if args.trace:
        from repro.obs.export import write_chrome_trace

        path = write_chrome_trace(
            outcome.tracer, Path(args.trace), label="chaos"
        )
        print(
            f"trace ({len(outcome.tracer)} events) written to {path}",
            file=sys.stderr,
        )
    ok = outcome.integrity_restored
    if args.dht:
        # DHT runs additionally gate on the overlay audit: every
        # post-heal lookup must resolve its block's holder record.
        ok = ok and outcome.dht.get("audit_lookups_ok") == outcome.dht.get(
            "audit_lookups"
        )
    if args.domains:
        # Domain runs additionally gate on the post-heal diversity
        # audit: every block's live copies must span distinct zones
        # again (up to the live-zone count).
        ok = ok and bool(outcome.domains.get("diversity_met"))
    return 0 if ok else 1


def cmd_endurance(args: argparse.Namespace) -> int:
    """``endurance``: churn × faults × anti-entropy, then audit."""
    from repro.analysis.report import render_endurance_summary
    from repro.sim.chaos import EnduranceConfig, run_endurance

    config = EnduranceConfig(
        seed=args.seed,
        n_nodes=args.nodes,
        n_clusters=args.groups,
        replication=args.replication,
        n_blocks=args.blocks,
        txs_per_block=args.txs,
        drop_rate=args.drop_rate,
        duplicate_rate=args.duplicate_rate,
        delay_rate=args.delay_rate,
        join_rate=args.join_rate,
        leave_rate=args.leave_rate,
        crash_rate=args.crash_rate,
        crash_count=args.crash_count,
        partition=args.partition,
        repair_cadence=args.cadence,
        adaptive=args.adaptive,
        archival=args.archival,
        reads_per_block=args.reads,
        zipf_exponent=args.zipf,
        dht=args.dht,
        domains=args.domains,
        zones=args.zones,
    )
    outcome = run_endurance(config, tracer=_trace_sink(args))
    summary = render_endurance_summary(outcome)
    print(summary, end="")
    if args.report:
        Path(args.report).parent.mkdir(parents=True, exist_ok=True)
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(summary)
        print(f"\nreport written to {args.report}", file=sys.stderr)
    if args.trace:
        from repro.obs.export import write_chrome_trace

        path = write_chrome_trace(
            outcome.tracer, Path(args.trace), label="endurance"
        )
        print(
            f"trace ({len(outcome.tracer)} events) written to {path}",
            file=sys.stderr,
        )
    ok = outcome.integrity_restored
    if args.adaptive or args.archival:
        # Adaptive and archival runs additionally gate on the
        # tier-aware floor: a shed that left a block under-replicated —
        # or an archived block under its coded floor — must fail the
        # run.
        ok = ok and outcome.replica_floor_met
    if args.dht:
        # DHT runs gate on the overlay audit, same as chaos --dht.
        ok = ok and outcome.dht.get("audit_lookups_ok") == outcome.dht.get(
            "audit_lookups"
        )
    if args.domains:
        # Domain runs gate on the post-heal zone-diversity audit, same
        # as chaos --domains.
        ok = ok and bool(outcome.domains.get("diversity_met"))
    return 0 if ok else 1


def _cmd_trace_diff(args: argparse.Namespace) -> int:
    """``trace diff A.json B.json``: first divergent story event."""
    from repro.obs.diff import diff_traces, render_divergence

    if len(args.files) != 2:
        print(
            "trace diff needs exactly two trace files", file=sys.stderr
        )
        return 2
    divergence = diff_traces(args.files[0], args.files[1])
    print(render_divergence(divergence))
    return 0 if divergence is None else 1


def _cmd_trace_profile(args: argparse.Namespace) -> int:
    """``trace profile X.json``: ranked callback wall-cost table."""
    from repro.analysis.report import render_trace_profile
    from repro.obs.profile import profile_chrome_trace

    if len(args.files) != 1:
        print(
            "trace profile needs exactly one trace file", file=sys.stderr
        )
        return 2
    profiles = profile_chrome_trace(args.files[0])
    print(
        render_trace_profile(
            profiles, title=f"Callback wall-cost profile: {args.files[0]}"
        ),
        end="",
    )
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """``trace``: record one scenario under the tracer and export it."""
    import random

    if args.scenario == "diff":
        return _cmd_trace_diff(args)
    if args.scenario == "profile":
        return _cmd_trace_profile(args)
    if args.files:
        print(
            "positional FILE arguments only apply to 'trace diff' and "
            "'trace profile'",
            file=sys.stderr,
        )
        return 2

    from repro.analysis.report import render_trace_summary
    from repro.obs.export import (
        to_chrome_trace,
        validate_chrome_trace,
        write_jsonl,
    )
    from repro.obs.summary import summarize
    from repro.obs.tracer import DEFAULT_CAPACITY, Tracer, tracing

    tracer = Tracer(
        capacity=args.capacity or DEFAULT_CAPACITY,
        trace_callbacks=not args.no_callback_spans,
    )
    if args.chaos:
        if args.scenario != "ici":
            print("--chaos only traces the ici strategy", file=sys.stderr)
            return 2
        from repro.sim.chaos import ChaosConfig, run_chaos

        config = ChaosConfig(
            seed=args.seed,
            n_nodes=args.nodes,
            n_clusters=args.groups,
            n_blocks=args.blocks,
            txs_per_block=args.txs,
        )
        run_chaos(config, tracer=tracer)
        label = f"chaos seed={args.seed}"
    else:
        with tracing(tracer):
            deployment = _deploy(args, args.scenario)
            runner = ScenarioRunner(deployment, limits=BENCH_LIMITS)
            with tracer.span("produce"):
                report = runner.produce_blocks(
                    args.blocks, txs_per_block=args.txs
                )
            with tracer.span("join"):
                deployment.join_new_node()
                deployment.run()
            with tracer.span("queries"):
                rng = random.Random(args.seed ^ 0x7ACE)
                hashes = list(report.block_hashes)
                node_ids = sorted(deployment.nodes)
                for _ in range(args.queries):
                    if not hashes:
                        break
                    deployment.retrieve_block(
                        rng.choice(node_ids), rng.choice(hashes)
                    )
                deployment.run()
        label = f"{args.scenario} N={args.nodes} groups={args.groups}"

    payload = to_chrome_trace(tracer, label=label)
    problems = validate_chrome_trace(payload)
    if problems:
        for problem in problems:
            print(f"invalid trace: {problem}", file=sys.stderr)
        return 1
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    import json

    out_path.write_text(
        json.dumps(payload, separators=(",", ":")), encoding="utf-8"
    )
    print(
        f"trace written to {out_path} ({len(tracer)} events retained, "
        f"{tracer.evicted} evicted)"
    )
    if args.jsonl:
        jsonl_path = write_jsonl(tracer, Path(args.jsonl))
        print(f"event stream written to {jsonl_path}")
    if args.summary:
        summary_md = render_trace_summary(
            summarize(tracer), title=f"Trace summary — {label}"
        )
        if args.summary == "-":
            print(summary_md, end="")
        else:
            Path(args.summary).write_text(summary_md, encoding="utf-8")
            print(f"summary written to {args.summary}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "run": cmd_run,
        "compare": cmd_compare,
        "join": cmd_join,
        "experiments": cmd_experiments,
        "bench": cmd_bench,
        "chaos": cmd_chaos,
        "endurance": cmd_endurance,
        "trace": cmd_trace,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
