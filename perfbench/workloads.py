"""Benchmark workloads: the configs each one hands to the simulator.

A workload is a fixed problem shape plus a list of jobs, one per
algorithm. The workload seed only keys the federation and the run
streams; sizes, rates and run lengths are fixed here so that two
commits measured on the same seed do the same work. The simulator is
imported only by `import_program`, so the set-up probe can time that
import.
"""
from __future__ import annotations

import copy
import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ALGOS = ("fedavg", "fedvarp", "clusterfedvarp", "mifa")
SWEEP_AXIS = "sigma_g_scale"


@dataclass(frozen=True)
class Job:
    """One call into the simulator: a `harness.run` or a `cli.main` sweep.

    `raw` is the JSON config exactly as the CLI would load it. A job with
    `sweep_values` runs `fedvarp-sim sweep` over the sigma_g_scale axis
    from the config file at `config_path`.
    """

    label: str
    algo: str
    raw: dict
    sweep_values: tuple[float, ...] | None = None

    @property
    def output_dir(self) -> Path:
        return Path(self.raw["output_dir"])

    @property
    def config_path(self) -> Path:
        return self.output_dir.with_suffix(".json")

    @property
    def runs(self) -> int:
        return 1 if self.sweep_values is None else len(self.sweep_values)

    @property
    def rounds(self) -> int:
        return self.raw["hyper"]["T"] * self.runs

    def with_rounds(self, T: int, output_dir: Path) -> "Job":
        raw = copy.deepcopy(self.raw)
        raw["hyper"]["T"] = T
        raw["output_dir"] = str(output_dir)
        return Job(self.label, self.algo, raw, self.sweep_values)

    def with_algo(self, label: str, algo: str, K: int | None, output_dir: Path) -> "Job":
        raw = copy.deepcopy(self.raw)
        raw["algo"] = {"name": algo, "K": K, "mifa_mode": None}
        raw["output_dir"] = str(output_dir)
        return Job(label, algo, raw, self.sweep_values)


@dataclass(frozen=True)
class Workload:
    """A fixed problem shape, run once per algorithm."""

    name: str
    federation: dict
    hyper: dict
    cluster_K: int
    log_every: int
    sweep_values: tuple[float, ...] | None = None

    def jobs(self, seed: int, out: Path) -> list[Job]:
        """The workload's four jobs, one per algorithm, writing under `out`."""
        fed_seed, run_seed = derive_seeds(self.name, seed)
        jobs = []
        for algo in ALGOS:
            raw = {
                "federation": dict(self.federation, seed=fed_seed),
                "hyper": dict(self.hyper),
                "algo": {
                    "name": algo,
                    "K": self.cluster_K if algo == "clusterfedvarp" else None,
                    "mifa_mode": None,
                },
                "log_every": self.log_every,
                "output_dir": str(out / algo),
                "seed": run_seed,
            }
            jobs.append(Job(algo, algo, raw, self.sweep_values))
        return jobs

    def identity_jobs(self, jobs: list[Job], out: Path) -> list[tuple[Job, str]]:
        """Reduction variants paired with the label of the job they must equal.

        clusterfedvarp with one cluster is fedavg, and with N singleton
        clusters it is fedvarp, bitwise.
        """
        by_label = {j.label: j for j in jobs}
        N = self.federation["N"]
        return [
            (by_label["fedavg"].with_algo("cluster-K1", "clusterfedvarp", 1, out / "cluster-K1"), "fedavg"),
            (by_label["fedvarp"].with_algo("cluster-KN", "clusterfedvarp", N, out / "cluster-KN"), "fedvarp"),
        ]


def derive_seeds(workload: str, seed: int) -> tuple[int, int]:
    """Federation seed and run seed for one workload seed."""
    digest = hashlib.sha256(f"perfbench|{workload}|{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "big"), int.from_bytes(digest[4:8], "big")


WORKLOADS = {
    w.name: w
    for w in (
        # Server-table and metrics regime: fedvarp/mifa keep N*d tables and the
        # metrics pass touches all N clients every round; local streams are built
        # and never drawn from. Stresses aggregators, objectives, rng; bypasses cli.
        Workload(
            name="wide-table",
            federation={
                "N": 1000,
                "d": 100,
                "K_true": 10,
                "cluster_center_spread": 1.0,
                "within_cluster_spread": 0.1,
                "noise_sigma": 0.0,
                "hessian_eig_min": 0.5,
                "hessian_eig_max": 1.0,
            },
            hyper={"eta_c": 0.05, "eta_s": 1.0, "tau": 2, "T": 30, "M": 50},
            cluster_K=10,
            log_every=1,
        ),
        # Client-compute regime: local SGD over d=2000 with noise, so every local
        # stream is drawn from. Stresses localsgd; the bypass case for table,
        # metrics and unused-stream work (aggregators, objectives, rng, cli).
        Workload(
            name="deep-local",
            federation={
                "N": 200,
                "d": 2000,
                "K_true": 10,
                "cluster_center_spread": 1.0,
                "within_cluster_spread": 0.1,
                "noise_sigma": 0.5,
                "hessian_eig_min": 0.5,
                "hessian_eig_max": 1.0,
            },
            hyper={"eta_c": 0.05, "eta_s": 1.0, "tau": 5, "T": 10, "M": 50},
            cluster_K=10,
            log_every=10,
        ),
        # Per-call-overhead regime: the A4 floor experiment through `fedvarp-sim
        # sweep`. Stresses rng, the harness round loop and CSV writes, sampling
        # and cli; bypasses localsgd (tau=1, d=8).
        Workload(
            name="floor-sweep",
            federation={
                "N": 40,
                "d": 8,
                "K_true": 40,
                "cluster_center_spread": 1.0,
                "within_cluster_spread": 0.0,
                "noise_sigma": 0.0,
                "hessian_eig_min": 0.5,
                "hessian_eig_max": 1.0,
            },
            hyper={"eta_c": 1 / 8, "eta_s": 1 / 3, "tau": 1, "T": 100, "M": 5},
            cluster_K=8,
            log_every=1,
            sweep_values=tuple(10 ** (j / 8) for j in range(5)),
        ),
    )
}


def import_program():
    """Import the simulator from this checkout's `src`, never from elsewhere."""
    package = SRC / "fedvarp_sim"
    if not (package / "__init__.py").is_file():
        raise FileNotFoundError(f"simulator sources not found at {package}")
    sys.path.insert(0, str(SRC))
    from fedvarp_sim import cli, harness

    if Path(harness.__file__).resolve().parent != package.resolve():
        raise ImportError(f"fedvarp_sim imported from {harness.__file__}, not {package}")
    return cli, harness


def prepare(job: Job, cli, harness):
    """Parse or write the job's config; return the call that runs the job.

    The call looks `harness.run` and `cli.main` up when it runs, so a
    tracer that patches them sees the call.
    """
    if job.sweep_values is None:
        cfg = harness.parse_config(copy.deepcopy(job.raw))
        return lambda: harness.run(cfg)
    job.config_path.parent.mkdir(parents=True, exist_ok=True)
    job.config_path.write_text(json.dumps(job.raw, indent=2) + "\n", encoding="utf-8")
    argv = [
        "sweep",
        "--config",
        str(job.config_path),
        "--axis",
        SWEEP_AXIS,
        "--values",
        ",".join(repr(v) for v in job.sweep_values),
    ]

    def call():
        code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"fedvarp-sim {' '.join(argv)} exited with {code}")

    return call
