"""Time the benchmark's jobs in-process, dropping run_many's kept federations at a chosen point.

    python tools/memo_timing.py --workload wide-table --drop pass ROOT [ROOT ...]

Each ROOT is a checkout (its `src` and `perfbench` are used). For every
ROOT the script starts `--processes` child processes, alternating which
ROOT goes first, and each child runs the workload's four jobs (seed 0)
for one untimed pass and then `--passes` timed ones. A pass's time is
the sum of its jobs' wall times, each divided by perfbench's calibration
kernel as perfbench/run.py does. `--drop` says when `run_many([])`
empties the kept federations, outside the timed calls:

- `job`: before every job, so each job builds its federation as a
  `fedvarp-sim run` process does (the cold path);
- `pass`: at the start of each pass, so only the jobs of one pass share
  a federation;
- `never`: as perfbench does, so every timed job finds it kept.

On a checkout that keeps nothing across calls every mode times the same
work. Prints, per ROOT, the median and interquartile range of all timed
passes in milliseconds, and each child's median. With two ROOTs it also
prints how many of the processes each ROOT won: process i of one ROOT
against process i of the other, the lower median winning.
"""
import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path


def child(root: Path, workload: str, drop: str, passes: int) -> list[float]:
    sys.path.insert(0, str(root / "perfbench"))
    import calibration
    from workloads import WORKLOADS, import_program, prepare

    cli, harness = import_program()
    out = Path(tempfile.mkdtemp(prefix="memo-timing-"))
    try:
        calls = [(job, prepare(job, cli, harness)) for job in WORKLOADS[workload].jobs(0, out)]
        totals = []
        for p in range(passes + 1):
            if drop == "pass":
                harness.run_many([])
            total = 0.0
            for job, call in calls:
                shutil.rmtree(job.output_dir, ignore_errors=True)
                if drop == "job":
                    harness.run_many([])
                before = calibration.kernel_s()
                start = time.perf_counter()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    call()
                total += calibration.calibrated(time.perf_counter() - start, before, calibration.kernel_s())
            if p:
                totals.append(1000 * total)
        return totals
    finally:
        shutil.rmtree(out, ignore_errors=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("roots", nargs="+", type=Path)
    parser.add_argument("--workload", required=True, choices=["wide-table", "deep-local", "floor-sweep"])
    parser.add_argument("--drop", required=True, choices=["job", "pass", "never"])
    parser.add_argument("--passes", type=int, default=20)
    parser.add_argument("--processes", type=int, default=6)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        print(json.dumps(child(args.roots[0].resolve(), args.workload, args.drop, args.passes)))
        return
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    runs = {root: [] for root in args.roots}
    for i in range(args.processes):
        for root in args.roots if i % 2 == 0 else args.roots[::-1]:
            cmd = [sys.executable, __file__, str(root), "--child", "--workload", args.workload,
                   "--drop", args.drop, "--passes", str(args.passes)]
            runs[root].append(json.loads(subprocess.run(cmd, env=env, capture_output=True, text=True, check=True).stdout))
    for root, lists in runs.items():
        pooled = [t for times in lists for t in times]
        q1, median, q3 = statistics.quantiles(pooled, n=4, method="inclusive")
        print(f"{root}: {args.workload} drop={args.drop} pass median {median:.1f} ms, IQR {q3 - q1:.1f} ms "
              f"({len(pooled)} passes); per process {[round(statistics.median(t), 1) for t in lists]}")
    if len(runs) == 2:
        (a, a_lists), (b, b_lists) = runs.items()
        a_wins = sum(statistics.median(x) < statistics.median(y) for x, y in zip(a_lists, b_lists))
        b_wins = sum(statistics.median(y) < statistics.median(x) for x, y in zip(a_lists, b_lists))
        print(f"processes won of {args.processes}: {a} {a_wins}, {b} {b_wins}")


if __name__ == "__main__":
    main()
