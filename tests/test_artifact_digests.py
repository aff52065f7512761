"""Golden sha256 digests of the artifacts a few small runs and sweeps write.

The simulator's outputs are bitwise reproducible, so a refactor that
keeps its behaviour keeps these digests. Each case writes into a relative
output directory under a fresh working directory, because manifest.json
echoes output_dir. A change that is meant to move artifact bytes
re-records the digests on purpose and says so:

    PYTHONPATH=src python tests/test_artifact_digests.py

prints the digests of the current tree as a DIGESTS literal.
"""
import copy
import hashlib
import json
import os
import sys
import tempfile
from contextlib import suppress
from pathlib import Path

from fedvarp_sim.artifacts import RUN_ARTIFACTS, SUMMARY_FILE
from fedvarp_sim.config import apply_overrides, parse_config
from fedvarp_sim.core import DivergenceError
from fedvarp_sim.harness import run, sweep

BASE = {
    "federation": {
        "N": 8,
        "d": 3,
        "K_true": 4,
        "cluster_center_spread": 1.0,
        "within_cluster_spread": 0.1,
        "noise_sigma": 0.0,
        "hessian_eig_min": 0.5,
        "hessian_eig_max": 1.0,
        "seed": 11,
    },
    "hyper": {"eta_c": 0.05, "eta_s": 1.0, "tau": 2, "T": 30, "M": 3},
    "algo": {"name": "fedavg", "K": None, "mifa_mode": None},
    "log_every": 1,
    "output_dir": "out",
    "seed": 4242,
}
# case -> overrides of BASE, as `--set` takes them
RUNS = {
    "fedavg": [],
    "fedvarp": ["algo.name=fedvarp"],
    "clusterfedvarp": ["algo.name=clusterfedvarp", "algo.K=2"],
    "mifa": ["algo.name=mifa", "algo.mifa_mode=full_first_round"],
    "noisy_fedvarp": ["algo.name=fedvarp", "federation.noise_sigma=0.3"],
    "divergent": ["federation.noise_sigma=0.3", "hyper.eta_s=1e200"],
}
# case -> (axis, values) of a sweep over BASE
SWEEPS = {
    "scale_sweep": ("sigma_g_scale", [0.5, 1.0, 2.0]),
    "algo_sweep": ("algo", ["fedavg", "fedvarp", "mifa"]),
}
# case -> overrides of BASE: T=0 runs at the three benchmark federation
# shapes, whose constants span several row blocks and, at (200, 2000),
# several generation slabs. Each writes the round-0 metrics and the
# manifest's exact constants, including a clustering other than the
# generator's (K != K_true, and K not dividing N).
SHAPES = {
    "wide_table_shape": [
        "federation.N=1000", "federation.d=100", "federation.K_true=10",
        "hyper.M=50", "hyper.T=0", "algo.name=clusterfedvarp", "algo.K=10",
    ],
    "deep_local_shape": [
        "federation.N=200", "federation.d=2000", "federation.K_true=10", "federation.noise_sigma=0.5",
        "hyper.M=50", "hyper.T=0", "algo.name=clusterfedvarp", "algo.K=7",
    ],
    "floor_sweep_shape": [
        "federation.N=40", "federation.d=8", "federation.K_true=40", "federation.within_cluster_spread=0.0",
        "hyper.M=5", "hyper.T=0", "algo.name=clusterfedvarp", "algo.K=8",
    ],
}
DIGESTS = {
    "fedavg/manifest.json": "64dcbdd284b552f778d7251be6de465a8931fc68bafd6ceb250d13b190d3f69a",
    "fedavg/metrics.csv": "a9d5e16a89480b7a035e4b1b931666a190f77789e8c7710b24d7c94c2198beff",
    "fedavg/status.json": "a9d4ac490736cddd27de3395fb93ea1ffbd938d272f02b260c51c46a33598c3d",
    "fedvarp/manifest.json": "0db0181d92fa62eb7d4ffbd927a6f10af9ac72aa70206e85e6117704d38deba3",
    "fedvarp/metrics.csv": "6ae41816c4147a13ace87cb9f0d0165526ee360b4b26f33bd0976a9199f02191",
    "fedvarp/status.json": "a9d4ac490736cddd27de3395fb93ea1ffbd938d272f02b260c51c46a33598c3d",
    "clusterfedvarp/manifest.json": "c60bfde1c45cfd27e4f6f7bad84b251df135bd5c46b707f926ceaad87ad4d196",
    "clusterfedvarp/metrics.csv": "82f3660a5207d7d1ff984122c9263e86ffeccada1a386a3e59651d080147b055",
    "clusterfedvarp/status.json": "a9d4ac490736cddd27de3395fb93ea1ffbd938d272f02b260c51c46a33598c3d",
    "mifa/manifest.json": "d29e2eafa713e176d24eaa9d858786f767f12f5d0b283267aa8eb691cfe7cee4",
    "mifa/metrics.csv": "f825466a952ce2f3f3245ebb16d7b0b61680262f33da7877a879e8f8c60ef9fd",
    "mifa/status.json": "a9d4ac490736cddd27de3395fb93ea1ffbd938d272f02b260c51c46a33598c3d",
    "noisy_fedvarp/manifest.json": "b775e1c50eb183ea861e08df647bc9d2b8d5b828c2623764249aad32a0b3ad8e",
    "noisy_fedvarp/metrics.csv": "b1d1df92f7a4ab153eeffdd1a8b897dfbda91cd68f6e4b6b3e0ee21d7b61dd20",
    "noisy_fedvarp/status.json": "a9d4ac490736cddd27de3395fb93ea1ffbd938d272f02b260c51c46a33598c3d",
    "divergent/manifest.json": "f3bcfbab86cb96e0a1df918407a90ed47fe359f8b35f12c5d416489530d32245",
    "divergent/metrics.csv": "2e95ae85d5cb8ca25132a728b27b803315b6ecaf328f6bef7ad28b64954e9eac",
    "divergent/status.json": "6ea2c5f5822ecc477694f3ad60e3e2559defcbc36795a6157db48a8147c18b60",
    "scale_sweep/sweep_summary.csv": "71f66ef91511cb5149234ee5d6da968340e0168cbbaa8437ce788c9ecc4a215c",
    "algo_sweep/sweep_summary.csv": "ee92fe94e5e90d5aa927071f2be6535a394622966078f11aea0e670b4ea66db8",
}
# Recorded before the constants and the offset draws went blocked and slab-split.
SHAPE_DIGESTS = {
    "wide_table_shape/manifest.json": "79224a520a625979c8004a86108deb90daa5f29040eca411737861d2dc7d1105",
    "wide_table_shape/metrics.csv": "7ccdd116248841ebc8b0a08093b34aa3cbce52067626e4d2c8c0510b0f9ea901",
    "wide_table_shape/status.json": "a9d4ac490736cddd27de3395fb93ea1ffbd938d272f02b260c51c46a33598c3d",
    "deep_local_shape/manifest.json": "4c8caf5cb7b31cf016d742a6e80f1d09563a5082fc3795b99ea70303532bfee6",
    "deep_local_shape/metrics.csv": "9d3e5b681075da1f9cb7b617e2be0fc1b6a221b4e05fb93908b867994e2ff9c2",
    "deep_local_shape/status.json": "a9d4ac490736cddd27de3395fb93ea1ffbd938d272f02b260c51c46a33598c3d",
    "floor_sweep_shape/manifest.json": "713a69865b05b135693833be27dc42f0911060e4db53afd497e60cb454eb843b",
    "floor_sweep_shape/metrics.csv": "cbc19331b402da66b6b7fa341ce1f10f938358d60cb3f07034445ef4ebf6e7d6",
    "floor_sweep_shape/status.json": "a9d4ac490736cddd27de3395fb93ea1ffbd938d272f02b260c51c46a33598c3d",
}


def _config(case: str, overrides: list[str]):
    return parse_config(apply_overrides(copy.deepcopy(BASE), [*overrides, f"output_dir={case}"]))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def artifact_digests(runs: dict = RUNS, sweeps: dict = SWEEPS) -> dict:
    """The digest of every case's artifacts, written under the working directory."""
    digests = {}
    for case, overrides in runs.items():
        with suppress(DivergenceError):
            run(_config(case, overrides))
        for name in RUN_ARTIFACTS:
            digests[f"{case}/{name}"] = _sha256(Path(case) / name)
    for case, (axis, values) in sweeps.items():
        sweep(_config(case, []), axis, values)
        digests[f"{case}/{SUMMARY_FILE}"] = _sha256(Path(case) / SUMMARY_FILE)
    return digests


def test_artifacts_match_recorded_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    digests = artifact_digests()
    assert json.loads((tmp_path / "divergent" / "status.json").read_text())["completed"] is False
    assert {k: v for k, v in digests.items() if DIGESTS.get(k) != v} == {}
    assert digests.keys() == DIGESTS.keys()


def test_benchmark_shape_artifacts_match_recorded_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    digests = artifact_digests(SHAPES, {})
    assert {k: v for k, v in digests.items() if SHAPE_DIGESTS.get(k) != v} == {}
    assert digests.keys() == SHAPE_DIGESTS.keys()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        current = {"DIGESTS": artifact_digests(), "SHAPE_DIGESTS": artifact_digests(SHAPES, {})}
    for name, digests in current.items():
        sys.stdout.write(f"{name} = {{\n")
        for key, digest in digests.items():
            sys.stdout.write(f'    "{key}": "{digest}",\n')
        sys.stdout.write("}\n")
