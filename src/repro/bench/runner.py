"""Discovery and execution of the experiment benchmarks.

The runner imports every ``benchmarks/bench_e*.py`` module, collects the
module-level :data:`WORKLOAD` declarations, and executes each under one
protocol:

1. a calibration kernel (fixed SHA-256 loop) is timed once per suite, so
   wall-clock numbers can be compared across machines of different speed;
2. each workload gets ``profile.warmup`` untimed runs (fills the global
   hash/signature memoization layers, the same way a long-lived process
   would be warm);
3. then ``profile.repetitions`` timed runs.  The simulated metrics of
   every repetition must be identical — workloads are fixed-seed
   deterministic by contract, and the runner enforces it;
4. wall-clock samples, peak RSS, and the per-label simulated metrics go
   into one schema-versioned payload (:mod:`repro.bench.schema`).

Peak RSS is the process high-water mark from ``getrusage``; it is
monotone over the suite, so each bench records the mark *as of the end of
its runs* (the first bench to allocate a large working set moves it).
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import platform
import resource
import sys
import time
from pathlib import Path

from repro.bench.profile import BenchProfile
from repro.bench.schema import (
    SCHEMA_NAME,
    SCHEMA_VERSION,
    dump_payload,
    wall_stats,
)
from repro.bench.workload import BenchWorkload, simulated_metrics
from repro.errors import ReproError

#: Iterations of the calibration hash loop (~tens of ms on current CPUs).
_CALIBRATION_ROUNDS = 200_000


class BenchError(ReproError):
    """A benchmark violated the execution protocol."""


def discover_workloads(
    bench_dir: Path | None = None,
) -> list[BenchWorkload]:
    """Import ``benchmarks.bench_e*`` modules and collect their WORKLOADs.

    Modules without a ``WORKLOAD`` attribute are skipped silently — a
    bench opts into the harness by declaring one.  Results are sorted by
    numeric experiment id so payloads and reports are stably ordered.
    """
    if bench_dir is None:
        bench_dir = Path(__file__).resolve().parents[3] / "benchmarks"
    repo_root = bench_dir.parent
    if str(repo_root) not in sys.path:
        sys.path.insert(0, str(repo_root))
    workloads: list[BenchWorkload] = []
    for path in sorted(bench_dir.glob("bench_e*.py")):
        module = importlib.import_module(f"benchmarks.{path.stem}")
        workload = getattr(module, "WORKLOAD", None)
        if workload is None:
            continue
        if not isinstance(workload, BenchWorkload):
            raise BenchError(
                f"{path.name}: WORKLOAD is not a BenchWorkload"
            )
        workloads.append(workload)
    workloads.sort(key=lambda w: _bench_sort_key(w.bench_id))
    return workloads


def _bench_sort_key(bench_id: str) -> tuple:
    digits = "".join(c for c in bench_id if c.isdigit())
    return (int(digits) if digits else 0, bench_id)


def calibrate() -> float:
    """Time the fixed hashing kernel; returns wall seconds.

    The kernel is pure CPU + stdlib sha256, so its runtime tracks
    single-core machine speed — dividing two machines' calibration times
    gives the normalization factor used by the baseline comparison.
    """
    payload = b"repro-bench-calibration"
    start = time.perf_counter()
    digest = payload
    for _ in range(_CALIBRATION_ROUNDS):
        digest = hashlib.sha256(digest).digest()
    elapsed = time.perf_counter() - start
    if not digest:  # pragma: no cover - keeps the loop un-eliminable
        raise BenchError("calibration kernel produced no digest")
    return elapsed


def _peak_rss_kb() -> int:
    """Process peak RSS in kB (``ru_maxrss`` is kB on Linux)."""
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


class BenchmarkRunner:
    """Executes workloads under the common protocol and builds the payload.

    Attributes:
        workloads: the benches to run, in order.
        profile: execution recipe (sizes, warmup, repetitions).
        progress: optional callable receiving human-readable status lines.
    """

    def __init__(
        self,
        workloads: list[BenchWorkload],
        profile: BenchProfile,
        progress=None,
        trace_dir: Path | None = None,
    ) -> None:
        if not workloads:
            raise BenchError("no workloads to run")
        self.workloads = list(workloads)
        self.profile = profile
        self._progress = progress or (lambda line: None)
        self._trace_dir = trace_dir

    # ------------------------------------------------------------- running
    def run(self) -> dict:
        """Run the whole suite; returns the schema payload."""
        self._progress(
            f"profile={self.profile.name} "
            f"({self.profile.warmup} warmup + "
            f"{self.profile.repetitions} timed reps per bench)"
        )
        calibration = calibrate()
        self._progress(f"calibration kernel: {calibration:.4f}s")
        benchmarks: dict[str, dict] = {}
        for workload in self.workloads:
            benchmarks[workload.bench_id] = self._run_workload(workload)
        return {
            "schema": SCHEMA_NAME,
            "schema_version": SCHEMA_VERSION,
            "created_at": time.strftime(
                "%Y-%m-%dT%H:%M:%S%z", time.localtime()
            ),
            "profile": self.profile.name,
            "host": {
                "python": platform.python_version(),
                "platform": platform.platform(),
            },
            "calibration": {
                "wall_seconds": calibration,
                "rounds": _CALIBRATION_ROUNDS,
            },
            "benchmarks": benchmarks,
        }

    def _run_workload(self, workload: BenchWorkload) -> dict:
        for _ in range(self.profile.warmup):
            workload.run(self.profile)
        samples: list[float] = []
        reference: dict | None = None
        for rep in range(self.profile.repetitions):
            gc.collect()
            start = time.perf_counter()
            outputs = workload.run(self.profile)
            elapsed = time.perf_counter() - start
            samples.append(elapsed)
            simulated = {
                label: simulated_metrics(deployment)
                for label, deployment in outputs
            }
            if reference is None:
                reference = simulated
            elif simulated != reference:
                raise BenchError(
                    f"{workload.bench_id}: repetition {rep + 1} produced "
                    "different simulated metrics — workload is not "
                    "deterministic"
                )
            del outputs
        self._progress(
            f"{workload.bench_id}: min {min(samples):.3f}s over "
            f"{len(samples)} reps"
        )
        if self._trace_dir is not None:
            self._trace_workload(workload)
        return {
            "title": workload.title,
            "wall_seconds": wall_stats(samples),
            "peak_rss_kb": _peak_rss_kb(),
            "simulated": reference or {},
        }

    def _trace_workload(self, workload: BenchWorkload) -> Path:
        """One extra untimed pass under an active tracer; exports JSON.

        Runs after the timed repetitions so tracing cannot perturb the
        wall-clock samples; deployments built inside the tracing scope
        self-attach (see :class:`~repro.core.interface.StorageDeployment`).
        """
        from repro.obs.export import write_chrome_trace
        from repro.obs.tracer import Tracer, tracing

        tracer = Tracer()
        with tracing(tracer):
            workload.run(self.profile)
        path = write_chrome_trace(
            tracer,
            self._trace_dir / f"TRACE_{workload.bench_id}.json",
            label=f"{workload.bench_id}: {workload.title}",
        )
        self._progress(
            f"{workload.bench_id}: trace ({len(tracer)} events, "
            f"{tracer.evicted} evicted) -> {path}"
        )
        return path

    # ------------------------------------------------------------- writing
    def write(self, payload: dict, output_dir: Path) -> Path:
        """Write ``BENCH_<timestamp>.json`` under ``output_dir``."""
        output_dir.mkdir(parents=True, exist_ok=True)
        stamp = time.strftime("%Y%m%d-%H%M%S", time.localtime())
        path = output_dir / f"BENCH_{stamp}.json"
        dump_payload(payload, path)
        return path


__all__ = [
    "BenchError",
    "BenchmarkRunner",
    "calibrate",
    "discover_workloads",
]
