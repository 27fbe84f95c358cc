#!/usr/bin/env python3
"""Benchmark entry point: timed or traced passes of one workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload serve --seed 1 --seconds 30 --trace 1

Every pass runs in a fresh worker process (this file with ``--worker``),
one after another, until ``--seconds`` have elapsed and at least
:data:`MIN_PASSES` passes ran.  ``--trace 0`` measures host time with no
benchmark tracing and reports the end-to-end metrics; ``--trace 1`` runs
one untraced reference pass, then traced passes, and reports the
per-layer metrics.  The last line of standard output is one JSON object;
the lines before it are a human-readable table.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import asdict  # noqa: E402

import reference  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SIGNATURES = os.path.join(HERE, "signatures.json")
OUT_DIR = os.path.join(HERE, "out")

#: Passes per run, at least: the signature must repeat across them.
MIN_PASSES = 3
#: Reference-kernel samples taken right after the imports.
IMPORT_REFS = 5
#: A worker still running after this many seconds is killed and its
#: pass counted as failed.
WORKER_TIMEOUT_S = 150

#: end-to-end metric -> unit (every one is reported on every workload).
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "events_per_s": "1/s",
    "block_wall_p50_s": "s",
    "peak_rss_mb": "MB",
}

#: per-layer metric -> unit.
PER_LAYER = {
    "simclock.self_s": "s",
    "simclock.events": "count",
    "simclock.peak_pending": "count",
    "latency.self_s": "s",
    "latency.calls": "count",
    "network.self_s": "s",
    "network.messages": "count",
    "network.bytes": "B",
    "network.dropped": "count",
    "gossip.self_s": "s",
    "gossip.announces": "count",
    "gossip.duplicate_share": "share",
    "router.self_s": "s",
    "router.dispatches": "count",
    "router.unaccounted_sends": "count",
    "dissemination.self_s": "s",
    "intracluster.self_s": "s",
    "intracluster.votes": "count",
    "query.self_s": "s",
    "query.reads": "count",
    "query.attempts_per_read": "count",
    "reliability.self_s": "s",
    "reliability.retries": "count",
    "reliability.timeouts": "count",
    "reliability.degraded": "count",
    "repair.self_s": "s",
    "repair.sweeps": "count",
    "repair.blocks_re_replicated": "count",
    "sync.self_s": "s",
    "dht.self_s": "s",
    "chain.self_s": "s",
    "chain.bodies_deserialized": "count",
    "crypto.self_s": "s",
    "crypto.verifies": "count",
    "placement.self_s": "s",
    "placement.calls": "count",
    "heat.self_s": "s",
    "coded.self_s": "s",
    "coded.reconstructions": "count",
    "coded.chunk_bytes_read": "B",
    "faults.self_s": "s",
    "faults.intercepts": "count",
    "obs.self_s": "s",
    "obs.trace_events": "count",
    "other.self_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record",
        action="store_true",
        help="store this seed's simulated signature in signatures.json",
    )
    parser.add_argument(
        "--worker",
        choices=("timed", "traced"),
        help="run one pass in this process and print it as JSON",
    )
    parser.add_argument(
        "--spans", action="store_true", help="worker: write the spans out"
    )
    return parser.parse_args(argv)


# ----------------------------------------------------------- signatures
def canonical(signature: dict) -> dict:
    """A JSON round trip, so stored and fresh signatures compare alike."""
    return json.loads(json.dumps(signature, sort_keys=True))


def load_signatures(path: str = SIGNATURES) -> dict:
    if not os.path.exists(path):
        return {}
    with open(path) as handle:
        return json.load(handle)


def record_signature(workload: str, seed: int, signature: dict,
                     path: str = SIGNATURES) -> None:
    stored = load_signatures(path)
    stored.setdefault(workload, {})[str(seed)] = canonical(signature)
    for name in stored:
        stored[name] = dict(
            sorted(stored[name].items(), key=lambda item: int(item[0]))
        )
    with open(path, "w") as handle:
        json.dump(stored, handle, indent=1, sort_keys=True)
        handle.write("\n")


def signature_violations(workload: str, seed: int, signatures: list[dict],
                         stored: dict) -> list[str]:
    """Signatures must agree with each other and with the stored one."""
    found = []
    first = canonical(signatures[0])
    if any(canonical(other) != first for other in signatures[1:]):
        found.append("simulated signature differs across passes")
    expected = stored.get(workload, {}).get(str(seed))
    if expected is not None and expected != first:
        found.append("simulated signature differs from signatures.json")
    return found


# --------------------------------------------------------------- worker
def peak_rss_mb() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def worker(args, workloads) -> dict:
    """One pass in this process: set-up, timed phase, checks."""
    import_s = time.perf_counter() - PROCESS_START
    import_refs = [reference.sample() for _ in range(IMPORT_REFS)]
    workload = workloads.WORKLOADS[args.workload]
    instrumentation = None
    if args.worker == "traced":
        from layers import Instrumentation

        # Before set-up: the deployment must capture the wrappers.
        instrumentation = Instrumentation().install()
    recorder = instrumentation.recorder if instrumentation else None
    with workloads.BlockTimer(recorder, reference=recorder is None) as timer:
        # Set-up is cut into segments at its drains too (serve's preload).
        setup = workloads.PassResult()
        timer.bind(setup)
        begun = time.perf_counter()
        timer.start()
        prepared = workload.setup(args.seed)
        ended = time.perf_counter()
        timer.cut()
        result = workloads.run_pass(workload, prepared, timer, recorder)
    out = {
        "setup_s": import_s + (sum(setup.segments) or ended - begun),
        "setup_norm_s": import_s * reference.speed_factor(import_refs)
        + sum(reference.normalize(setup.segments, setup.refs)),
        "peak_rss_mb": peak_rss_mb(),
    }
    if instrumentation is not None:
        from traced import layer_metrics, save_spans

        out["layers"], problems = layer_metrics(instrumentation, result)
        result.violations.extend(problems)
        if args.spans:
            save_spans(recorder, OUT_DIR, workload.name, args.seed)
        instrumentation.uninstall()
    out["pass"] = asdict(result)
    return out


def spawn(args, mode: str, spans: bool = False) -> dict:
    """Run one pass in a fresh worker process; never raises."""
    command = [
        sys.executable, os.path.abspath(__file__), "--worker", mode,
        "--workload", args.workload, "--seed", str(args.seed),
    ] + (["--spans"] if spans else [])
    try:
        done = subprocess.run(
            command, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return {"error": f"worker timed out after {WORKER_TIMEOUT_S} s"}
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = " | ".join(done.stderr.strip().splitlines()[-3:])
        return {"error": f"worker exited with code {done.returncode}: {tail}"}
    return json.loads(lines[-1])


def passes_of(outputs: list[dict], workload):
    """Worker outputs as PassResults; a dead worker is a failed pass."""
    from workloads import PassResult

    passes = []
    for out in outputs:
        if "error" in out:
            passes.append(PassResult(
                attempted=workload.planned(), violations=[out["error"]]
            ))
        else:
            passes.append(PassResult(**out["pass"]))
    return passes


def collect(args, mode: str, seconds: float, min_passes: int,
            spans_first: bool = False) -> list[dict]:
    """Worker passes, one after another, until ``seconds`` have elapsed."""
    outputs = []
    started = time.perf_counter()
    while True:
        outputs.append(spawn(args, mode, spans=spans_first and not outputs))
        if "error" in outputs[-1]:
            return outputs
        if (
            len(outputs) >= min_passes
            and time.perf_counter() - started >= seconds
        ):
            return outputs


# -------------------------------------------------------------- metrics
def failed_share(passes) -> tuple[float, int, int]:
    """(failed / attempted, failed, attempted) over every operation."""
    attempted = sum(result.attempted for result in passes)
    failed = sum(result.failed for result in passes)
    return (failed / attempted if attempted else 1.0), failed, attempted


def high_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest of p99/p90/p75 with at least ten samples beyond it."""
    ordered = sorted(values)
    for pct in (99, 90, 75):
        if len(ordered) * (100 - pct) / 100 >= 10:
            return pct, ordered[int(len(ordered) * pct / 100)]
    return None


def normalized_walls(passes) -> tuple[list[float], list[float]]:
    """(pass walls, block walls), scaled by the adjacent kernel samples.

    A pass wall is the sum of its segments, each scaled by the sample
    taken right after it; a block wall uses the sample right after that
    block.
    """
    walls = [
        sum(reference.normalize(result.segments, result.refs))
        for result in passes
    ]
    blocks = [
        wall
        for result in passes
        for wall in reference.normalize(result.block_walls, result.block_refs)
    ]
    return walls, blocks


def end_to_end(outputs: list[dict], passes) -> dict:
    """The end-to-end metrics of a run's untraced passes (normalized)."""
    walls, blocks = normalized_walls(passes)
    return {
        "setup_s": statistics.median(out["setup_norm_s"] for out in outputs),
        "wall_s": statistics.median(walls),
        "events_per_s": sum(r.events for r in passes) / sum(walls),
        "block_wall_p50_s": statistics.median(blocks),
        "peak_rss_mb": statistics.median(out["peak_rss_mb"] for out in outputs),
    }


def describe(workload: str, outputs, passes, metrics) -> list[str]:
    """The human-readable table: every metric with its unit and n.

    Times are normalized (see ``reference.py``); the ``host_*`` rows give
    the raw host seconds and the host's measured speed for comparison.
    """
    n = len(passes)
    share, failed, attempted = failed_share(passes)
    _, blocks = normalized_walls(passes)
    factors = [reference.speed_factor(result.refs) for result in passes]
    rows = [
        ("setup_s", metrics["setup_s"], "s",
         f"median of {n} set-ups, imports included"),
        ("wall_s", metrics["wall_s"], "s", f"median of {n} passes"),
        ("events_per_s", metrics["events_per_s"], "1/s",
         f"{sum(r.events for r in passes)} events in {n} passes"),
        ("block_wall_p50_s", metrics["block_wall_p50_s"], "s",
         f"median of {len(blocks)} blocks"),
    ]
    high = high_percentile(blocks)
    if high is not None:
        rows.append((f"block_wall_p{high[0]}_s", high[1], "s",
                     f"of {len(blocks)} blocks"))
    rows += [
        ("peak_rss_mb", metrics["peak_rss_mb"], "MB",
         f"median of {n} worker processes"),
        ("host_setup_s", statistics.median(o["setup_s"] for o in outputs), "s",
         "raw host seconds"),
        ("host_wall_s", statistics.median(r.wall_s for r in passes), "s",
         "raw host seconds"),
        ("host_speed", statistics.median(factors), "x",
         f"reference kernel nominal / measured, median of {n} passes"),
        ("failed_share", share, "share",
         f"{failed} failed of {attempted} operations"),
    ]
    sim = passes[0].sim
    rows.append(("sim_bytes_per_node", sim["sim_bytes_per_node"], "B",
                 "mean over nodes, per pass"))
    if "sim_messages_per_block" in sim:
        rows.append(("sim_messages_per_block", sim["sim_messages_per_block"],
                     "count", "network messages / produced blocks"))
    if workload == "serve":
        read_wall = sum(
            wall * factor
            for result, factor in zip(passes, factors)
            for wall in result.read_walls
        )
        reads = sum(r.sim["reads_completed"] for r in passes)
        rows += [
            ("reads_per_s", reads / read_wall, "1/s",
             f"{reads} reads in {n} passes"),
            ("sim_read_p50_s", sim["sim_read_p50_s"], "s",
             f"of {sim['reads_completed']} reads"),
            ("sim_read_p99_s", sim["sim_read_p99_s"], "s",
             f"of {sim['reads_completed']} reads"),
        ]
    if workload == "chaos":
        rows.append(("sim_finalized_blocks", sim["finalized_blocks"], "count",
                     "blocks finalized in every cluster, per pass"))
    return [f"{name:<24} {value:>14.6g} {unit:<6} ({note})"
            for name, value, unit, note in rows]


# ---------------------------------------------------------------- runs
def run_timed(args, workload, stored: dict):
    outputs = collect(args, "timed", args.seconds, MIN_PASSES)
    passes = passes_of(outputs, workload)
    violations = [v for result in passes for v in result.violations]
    if violations:
        share, failed, attempted = failed_share(passes)
        return passes, None, violations, [
            f"failed_share {share:.6g} ({failed} failed of {attempted} operations)"
        ]
    metrics = end_to_end(outputs, passes)
    violations += signature_violations(
        workload.name, args.seed, [r.signature for r in passes], stored
    )
    return passes, metrics, violations, describe(
        workload.name, outputs, passes, metrics
    )


def run_traced(args, workload, stored: dict):
    untraced = collect(args, "timed", 0.0, 1)
    traced = collect(args, "traced", args.seconds, 1, spans_first=True)
    passes = passes_of(untraced + traced, workload)
    violations = [v for result in passes for v in result.violations]
    if violations:
        return passes, None, violations, []
    layers = [out["layers"] for out in traced]
    metrics = {
        name: (
            statistics.median(m[name] for m in layers)
            if name.endswith("self_s") else layers[0][name]
        )
        for name in PER_LAYER
        if name != "trace.overhead_s"
    }
    metrics["trace.overhead_s"] = (
        statistics.median(r.wall_s for r in passes[1:]) - passes[0].wall_s
    )
    violations += signature_violations(
        workload.name, args.seed, [r.signature for r in passes], stored
    )
    lines = [f"{name:<30} {metrics[name]:>14.6g} {PER_LAYER[name]}"
             for name in PER_LAYER]
    lines.append(f"# spans of the first traced pass: {os.path.relpath(OUT_DIR)}")
    return passes, metrics, violations, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the simulator from {ROOT}/src: {exc}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.worker:
        print(json.dumps(worker(args, workloads)))
        return 0
    stored = load_signatures()
    run = run_traced if args.trace else run_timed
    passes, metrics, violations, lines = run(args, workload, stored)
    if args.record and not violations:
        record_signature(workload.name, args.seed, passes[0].signature)
    print(f"# workload {workload.name}, seed {args.seed}, "
          f"{'traced' if args.trace else 'timed'}, {len(passes)} passes")
    for line in lines:
        print(line)
    for violation in violations:
        print(f"VIOLATION: {violation}")
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": not violations,
        "attempted": len(passes),
        "failed": sum(1 for result in passes if result.violations),
        "metrics": {
            name: {"value": metrics[name] if metrics else 0.0, "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if not violations else 1


if __name__ == "__main__":
    sys.exit(main())
