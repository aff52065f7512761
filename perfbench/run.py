"""fedvarp-sim benchmark: one workload per process, closed loop, checked outputs.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client drives the simulator through the entry points the CLI uses
(`harness.run`, `cli.main sweep`), one job at a time: a pass runs the
workload's four jobs (one per algorithm) in order, and passes repeat
until S seconds have been measured. Timings are medians over passes of
calibrated job times (see calibration.py).

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
and traced passes and reports per-layer metrics from the traced ones;
see tracing.py. Both modes run the correctness gate and print, as the
last line of stdout, one JSON object with `correct`, `attempted`,
`failed` and `metrics`. `failed / attempted` is the benchmark's fail
ratio, reported there because it reads 0 on a healthy build.
"""
from __future__ import annotations

import os

# One closed-loop client: keep numpy's BLAS on one thread (<= nproc).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration
from tracing import Tracer, pass_layer_metrics
from workloads import ROOT, WORKLOADS, Job, import_program, prepare

BENCH_DIR = Path(__file__).resolve().parent
OUT_ROOT = ROOT / ".perfbench_out"
DIGESTS_PATH = BENCH_DIR / "digests.json"
SETUP_PROBES = 7
WALL, CALIBRATED = 0, 1  # columns of a pass's per-job times

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "rounds_per_s": "1/s",
    "round_ms.fedavg": "ms",
    "round_ms.fedvarp": "ms",
    "round_ms.clusterfedvarp": "ms",
    "round_ms.mifa": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "aggregators.step_ms.fedavg": "ms",
    "aggregators.step_ms.fedvarp": "ms",
    "aggregators.step_ms.clusterfedvarp": "ms",
    "aggregators.step_ms.mifa": "ms",
    "aggregators.calls": "count",
    "aggregators.init_ms": "ms",
    "aggregators.state_bytes.fedavg": "bytes",
    "aggregators.state_bytes.fedvarp": "bytes",
    "aggregators.state_bytes.clusterfedvarp": "bytes",
    "aggregators.state_bytes.mifa": "bytes",
    "objectives.measure_ms": "ms",
    "objectives.measure_calls": "count",
    "objectives.generate_ms": "ms",
    "localsgd.ms": "ms",
    "localsgd.calls": "count",
    "localsgd.client_steps": "count",
    "localsgd.us_per_client_step": "us",
    "rng.substream_ms": "ms",
    "rng.substream_calls": "count",
    "rng.local_streams_built": "count",
    "rng.local_draw_ratio": "ratio",
    "sampling.sample_ms": "ms",
    "sampling.calls": "count",
    "harness.self_ms": "ms",
    "harness.round_ms.p50": "ms",
    "harness.round_ms.tail": "ms",
    "harness.round_ms.tail_pct": "%",
    "harness.round_ms.samples": "count",
    "harness.artifact_bytes": "bytes",
    "harness.metric_rows": "count",
    "cli.self_ms": "ms",
    "trace.untraced_run_s": "s",
    "trace.traced_run_s": "s",
    "trace.overhead_ratio": "ratio",
}
# Every ratio or rate, and the metric it is taken over.
RATIO_BASES = {
    "rounds_per_s": "run_s",
    "localsgd.us_per_client_step": "localsgd.client_steps",
    "rng.local_draw_ratio": "rng.local_streams_built",
    "trace.overhead_ratio": "trace.untraced_run_s",
    "harness.round_ms.tail": "harness.round_ms.samples",
}


def metrics_csvs(job: Job) -> list[tuple[str, Path]]:
    """(run label, metrics.csv) of every run the job wrote."""
    if job.sweep_values is None:
        path = job.output_dir / "metrics.csv"
        return [(job.label, path)] if path.is_file() else []
    return [
        (f"{job.label}/{path.parent.name}", path)
        for path in sorted(job.output_dir.glob("*/metrics.csv"))
    ]


def rows_finite(data: bytes) -> bool:
    """True when metrics.csv has at least one row and every value parses as finite."""
    try:
        values = [float(x) for line in data.decode("utf-8").splitlines()[1:] for x in line.split(",")]
    except ValueError:
        return False
    return bool(values) and all(math.isfinite(v) for v in values)


class Gate:
    """Counts runs attempted and runs failed.

    A run fails when it raises, writes no metrics.csv, logs a non-finite
    value, or writes a metrics.csv whose sha256 differs from the expected
    one: the digest recorded for this seed when there is one, otherwise
    the first digest seen for that run in this process.
    """

    def __init__(self, expected: dict[str, str]):
        self.expected = dict(expected)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def _fail(self, count: int, why: str) -> None:
        self.failed += count
        self.errors.append(why)

    def check(self, job: Job, error: Exception | None, same_as: str | None = None) -> None:
        """Check the runs of one finished job; `same_as` names the job it must equal."""
        self.attempted += job.runs
        if error is not None:
            self._fail(job.runs, f"{job.label}: {error!r}")
            return
        found = metrics_csvs(job)
        if len(found) != job.runs:
            self._fail(max(0, job.runs - len(found)), f"{job.label}: {len(found)}/{job.runs} metrics.csv")
        for label, path in found:
            data = path.read_bytes()
            digest = hashlib.sha256(data).hexdigest()
            key = label if same_as is None else same_as + label[len(job.label):]
            want = self.expected.setdefault(key, digest) if same_as is None else self.expected.get(key)
            if not rows_finite(data):
                self._fail(1, f"{label}: non-finite row")
            elif digest != want:
                self._fail(1, f"{label}: sha256 {digest} != {want} ({key})")


def run_job(call, job: Job, gate: Gate, same_as: str | None = None) -> float:
    """Run one job from a clean output directory; return its wall time."""
    shutil.rmtree(job.output_dir, ignore_errors=True)
    error = None
    start = time.perf_counter()
    try:
        call()
    except Exception as exc:  # a failing run is counted, not fatal
        error = exc
    elapsed = time.perf_counter() - start
    gate.check(job, error, same_as)
    return elapsed


def run_pass(calls: dict, jobs: list[Job], gate: Gate) -> dict[str, tuple[float, float]]:
    """Run every job once; job label -> (wall s, calibrated s)."""
    times = {}
    before = calibration.kernel_s()
    for job in jobs:
        elapsed = run_job(calls[job.label], job, gate)
        after = calibration.kernel_s()
        times[job.label] = (elapsed, calibration.calibrated(elapsed, before, after))
        before = after
    return times


def setup_seconds(workload: str, seed: int, out: Path) -> float:
    """Median set-up time over fresh processes; the first one only warms caches."""
    probe = BENCH_DIR / "setup_probe.py"
    times = []
    for i in range(SETUP_PROBES + 1):
        done = subprocess.run(
            [sys.executable, str(probe), workload, str(seed), str(out / f"setup{i}")],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        elapsed, kernel = (float(x) for x in done.stdout.split()[-2:])
        times.append(calibration.calibrated(elapsed, kernel, kernel))
    return statistics.median(times[1:])


def artifact_totals(jobs: list[Job]) -> tuple[int, int]:
    """(bytes of every artifact the jobs wrote, metric rows in their metrics.csv)."""
    files = [p for job in jobs for p in job.output_dir.rglob("*") if p.is_file()]
    size = sum(p.stat().st_size for p in files)
    rows = sum(len(p.read_bytes().splitlines()) - 1 for p in files if p.name == "metrics.csv")
    return size, rows


def identity_gate(workload, jobs: list[Job], out: Path, gate: Gate, cli, harness) -> None:
    """Untimed: clusterfedvarp K=1 must equal fedavg and K=N fedvarp, bitwise."""
    for variant, reference in workload.identity_jobs(jobs, out):
        run_job(prepare(variant, cli, harness), variant, gate, same_as=reference)


def measure(name: str, seed: int, seconds: float, trace: bool, cli, harness) -> dict:
    workload = WORKLOADS[name]
    work_dir = OUT_ROOT / name
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    passes_dir = work_dir / "passes"
    metrics: dict[str, float] = {}
    if not trace:
        metrics["setup_s"] = setup_seconds(name, seed, work_dir / "setup")
    jobs = workload.jobs(seed, passes_dir)
    recorded = json.loads(DIGESTS_PATH.read_text()).get(name, {}).get(str(seed), {})
    gate = Gate(recorded)
    with open(work_dir / "stderr.log", "w", encoding="utf-8") as log, contextlib.redirect_stderr(log):
        calls = {job.label: prepare(job, cli, harness) for job in jobs}
        run_pass(calls, jobs, gate)  # warm-up: caches, lazy imports, reference digests
        untraced: list[dict[str, tuple[float, float]]] = []
        traced: list[dict[str, tuple[float, float]]] = []
        layers: list[dict[str, float]] = []
        tracer = Tracer()
        deadline = time.perf_counter() + seconds
        while True:
            untraced.append(run_pass(calls, jobs, gate))
            if trace:
                start = tracer.mark()
                with tracer.installed():
                    traced.append(run_pass(calls, jobs, gate))
                layers.append(pass_layer_metrics(tracer, start, tracer.mark()))
            if time.perf_counter() >= deadline:
                break
        identity_gate(workload, jobs, work_dir / "identity", gate, cli, harness)

    def median_pass_s(passes, col=CALIBRATED):
        return statistics.median(sum(t[col] for t in p.values()) for p in passes)

    wall = {"run_s": median_pass_s(untraced, WALL)}
    if trace:
        for key in PER_LAYER:
            values = [layer.get(key, 0.0) for layer in layers]
            metrics[key] = statistics.median(values)
        metrics["harness.artifact_bytes"], metrics["harness.metric_rows"] = artifact_totals(jobs)
        metrics["trace.untraced_run_s"] = median_pass_s(untraced)
        metrics["trace.traced_run_s"] = median_pass_s(traced)
        metrics["trace.overhead_ratio"] = metrics["trace.traced_run_s"] / metrics["trace.untraced_run_s"] - 1
        tracer.write(work_dir / "spans.csv")
        passes_run = len(traced)
    else:
        metrics["run_s"] = median_pass_s(untraced)
        metrics["rounds_per_s"] = sum(job.rounds for job in jobs) / metrics["run_s"]
        for job in jobs:
            for col, into in ((CALIBRATED, metrics), (WALL, wall)):
                into[f"round_ms.{job.algo}"] = statistics.median(
                    p[job.label][col] * 1e3 / job.rounds for p in untraced
                )
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        passes_run = len(untraced)
    units = PER_LAYER if trace else END_TO_END
    return {
        "workload": name,
        "seed": seed,
        "passes": passes_run,
        "errors": gate.errors,
        "wall": wall,
        "result": {
            "correct": gate.failed == 0 and gate.attempted > 0,
            "attempted": gate.attempted,
            "failed": gate.failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    try:
        cli, harness = import_program()
    except (FileNotFoundError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    report = measure(args.workload, args.seed, args.seconds, bool(args.trace), cli, harness)
    result = report["result"]
    print(f"workload {report['workload']} seed {report['seed']}: {report['passes']} measured passes")
    for error in report["errors"]:
        print(f"FAILED {error}")
    for key, m in result["metrics"].items():
        print(f"{key} {m['value']!r} {m['unit']}")
    for key, value in report["wall"].items():
        print(f"uncalibrated {key} {value!r}")
    print(f"fail_ratio {result['failed'] / result['attempted']!r} runs_attempted {result['attempted']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
