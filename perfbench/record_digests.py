"""Record the sha256 of every run's metrics.csv for the given seeds.

The simulator's outputs are bitwise reproducible, so these digests are
the benchmark's reference for "same results": a change that moves any
logged value by one bit fails the gate on a recorded seed. Run this only
when outputs are meant to change, and say so in the change.

Usage: python3 perfbench/record_digests.py SEED [SEED ...]
"""
import json
import shutil
import sys

from run import DIGESTS_PATH, OUT_ROOT, Gate, run_pass
from workloads import WORKLOADS, import_program, prepare


def main(seeds: list[int]) -> None:
    cli, harness = import_program()
    digests = json.loads(DIGESTS_PATH.read_text()) if DIGESTS_PATH.exists() else {}
    for name, workload in WORKLOADS.items():
        for seed in seeds:
            out = OUT_ROOT / "record" / name
            shutil.rmtree(out, ignore_errors=True)
            jobs = workload.jobs(seed, out)
            gate = Gate({})
            run_pass({job.label: prepare(job, cli, harness) for job in jobs}, jobs, gate)
            if gate.failed:
                raise SystemExit(f"{name} seed {seed}: {gate.errors}")
            digests.setdefault(name, {})[str(seed)] = dict(sorted(gate.expected.items()))
            print(f"{name} seed {seed}: {len(gate.expected)} runs", file=sys.stderr)
    DIGESTS_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main([int(s) for s in sys.argv[1:]])
