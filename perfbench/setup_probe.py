"""Time what a CLI user pays before the first round, in a fresh process.

Imports fedvarp_sim (numpy included), then runs every job of the
workload with T=0: that builds the federation, its exact constants and
the manifest, logs round 0 and writes the artifacts. Prints the elapsed
seconds and then the calibration kernel's median time, taken right
after, on stdout.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED OUT_DIR
"""
import statistics
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, import_program, prepare


def main(argv: list[str]) -> None:
    name, seed, out = argv[0], int(argv[1]), Path(argv[2])
    jobs = [job.with_rounds(0, out / job.label) for job in WORKLOADS[name].jobs(seed, out)]
    start = time.perf_counter()
    cli, harness = import_program()
    for job in jobs:
        prepare(job, cli, harness)()
    elapsed = time.perf_counter() - start
    import calibration  # numpy is loaded by now; its import counted above

    kernel = statistics.median(calibration.kernel_s() for _ in range(3))
    print(repr(elapsed), repr(kernel))


if __name__ == "__main__":
    main(sys.argv[1:])
