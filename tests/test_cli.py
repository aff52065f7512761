import json

import pytest

from fedvarp_sim.cli import main


@pytest.fixture
def config_file(tmp_path):
    raw = {
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
        "hyper": {"eta_c": 0.05, "eta_s": 1.0, "tau": 2, "T": 15, "M": 3},
        "algo": {"name": "fedavg", "K": None, "mifa_mode": None},
        "log_every": 1,
        "output_dir": str(tmp_path / "artifacts"),
        "seed": 99,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


def test_verify_exits_zero(capsys):
    assert main(["verify"]) == 0
    err = capsys.readouterr().err
    assert "PASS" in err and "FAIL" not in err


def test_run_writes_artifacts(config_file, tmp_path):
    assert main(["run", "--config", str(config_file)]) == 0
    out = tmp_path / "artifacts"
    assert (out / "metrics.csv").exists()
    assert (out / "manifest.json").exists()
    assert json.loads((out / "status.json").read_text())["completed"] is True


def test_run_applies_overrides(config_file, tmp_path):
    code = main(["run", "--config", str(config_file), "--set", "hyper.M=5"])
    assert code == 0
    manifest = json.loads((tmp_path / "artifacts" / "manifest.json").read_text())
    assert manifest["config"]["hyper"]["M"] == 5


def test_missing_config_exits_two(capsys, tmp_path):
    missing = tmp_path / "nope.json"
    assert main(["run", "--config", str(missing)]) == 2
    assert str(missing) in capsys.readouterr().err


def test_unknown_override_exits_two(config_file):
    assert main(["run", "--config", str(config_file), "--set", "hyper.rho=1"]) == 2


@pytest.mark.parametrize(
    "override",
    [
        "federation.within_cluster_spread=NaN",
        "federation.noise_sigma=NaN",
        "federation.cluster_center_spread=NaN",
        "hyper.eta_s=Infinity",
    ],
)
def test_non_finite_override_exits_two(config_file, capsys, override):
    assert main(["run", "--config", str(config_file), "--set", override]) == 2
    assert "must be finite" in capsys.readouterr().err


def test_divergent_run_exits_one(config_file):
    assert main(["run", "--config", str(config_file), "--set", "hyper.eta_c=1e200"]) == 1


def test_identical_invocations_identical_artifacts(config_file, tmp_path):
    out = tmp_path / "artifacts"
    main(["run", "--config", str(config_file)])
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    main(["run", "--config", str(config_file)])
    after = {p.name: p.read_bytes() for p in out.iterdir()}
    assert before == after


def test_sweep_cli(config_file, tmp_path):
    code = main(
        [
            "sweep",
            "--config",
            str(config_file),
            "--axis",
            "algo",
            "--values",
            "fedavg,fedvarp",
            "--set",
            "hyper.T=10",
        ]
    )
    assert code == 0
    out = tmp_path / "artifacts"
    assert (out / "sweep_summary.csv").exists()
    run_dirs = [p for p in out.iterdir() if p.is_dir()]
    assert len(run_dirs) == 2
    for d in run_dirs:
        assert (d / "metrics.csv").exists()
