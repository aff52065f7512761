import json

import pytest

from fedvarp_sim import oracles
from fedvarp_sim.artifacts import RUN_ARTIFACTS
from fedvarp_sim.cli import main
from fedvarp_sim.config import load_config


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


def _without(config_file, *dotted):
    """A copy of config_file with the dotted keys deleted."""
    raw = json.loads(config_file.read_text())
    for key in dotted:
        section, leaf = key.split(".")
        del raw[section][leaf]
    path = config_file.with_name("without_" + "_".join(dotted) + ".json")
    path.write_text(json.dumps(raw))
    return path


def test_a_file_without_the_defaulted_algo_keys_runs_as_one_with_nulls(config_file, tmp_path):
    short = _without(config_file, "algo.K", "algo.mifa_mode")
    assert load_config(short) == load_config(config_file)
    written = []
    for path in (config_file, short):  # into one output_dir, which the manifest echoes
        assert main(["run", "--config", str(path)]) == 0
        written.append([(tmp_path / "artifacts" / name).read_bytes() for name in RUN_ARTIFACTS])
    assert written[0] == written[1]


def test_an_override_sets_a_key_the_file_omits(config_file, tmp_path):
    short = _without(config_file, "algo.K", "algo.mifa_mode")
    assert main(["run", "--config", str(short), "--set", "algo.name=clusterfedvarp", "--set", "algo.K=2"]) == 0
    manifest = json.loads((tmp_path / "artifacts" / "manifest.json").read_text())
    assert manifest["config"]["algo"] == {"name": "clusterfedvarp", "K": 2, "mifa_mode": None}


def test_a_missing_required_key_and_an_unknown_override_still_exit_two(config_file, tmp_path, capsys):
    assert main(["run", "--config", str(_without(config_file, "hyper.M"))]) == 2
    assert "configuration error: missing keys in 'hyper': ['M']" in capsys.readouterr().err
    short = _without(config_file, "algo.K", "algo.mifa_mode")
    assert main(["run", "--config", str(short), "--set", "algo.bogus=1"]) == 2
    assert "configuration error: override references unknown key 'algo.bogus'" in capsys.readouterr().err
    assert not (tmp_path / "artifacts").exists()


def test_verify_exits_zero(capsys):
    assert main(["verify"]) == 0
    err = capsys.readouterr().err
    assert "PASS" in err and "FAIL" not in err


def test_verify_failing_check_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(oracles, "saga_matches", lambda *args: False)
    assert main(["verify"]) == 1
    err = capsys.readouterr().err
    assert "[FAIL] single-participant path reproduces reference SAGA bitwise" in err
    assert "verify: 6/7 checks passed" in err


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


@pytest.mark.parametrize("command", [["run"], ["sweep", "--axis", "M", "--values", "2"]])
def test_a_command_without_a_config_exits_two(capsys, command):
    assert main(command) == 2
    assert "configuration error: --config PATH is required" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "overrides",
    [["hyper.eta_c=1e308"], ["hyper.eta_s=1e307", "hyper.eta_c=10"], [f"hyper.tau={10**400}"]],
)
def test_step_sizes_that_overflow_exit_two_and_make_nothing(config_file, tmp_path, capsys, overrides):
    sets = [arg for item in overrides for arg in ("--set", item)]
    assert main(["run", "--config", str(config_file), *sets]) == 2
    assert "configuration error: eta_c * tau and eta_s * eta_c * tau must be finite" in capsys.readouterr().err
    assert not (tmp_path / "artifacts").exists()


def test_step_sizes_that_underflow_exit_two_and_make_nothing(config_file, tmp_path, capsys):
    sets = ["--set", "hyper.eta_s=1e-200", "--set", "hyper.eta_c=1e-200"]  # eta_s * eta_c * tau is 0.0
    assert main(["run", "--config", str(config_file), *sets]) == 2
    err = capsys.readouterr().err
    assert "configuration error: eta_c * tau and eta_s * eta_c * tau must be finite and positive" in err
    assert "eta_c=1e-200 eta_s=1e-200" in err
    assert not (tmp_path / "artifacts").exists()


def test_a_sweep_tau_point_whose_step_overflows_is_named_and_nothing_is_made(config_file, tmp_path, capsys):
    big = 10**400
    assert main(["sweep", "--config", str(config_file), "--axis", "tau", "--values", f"1,{big}"]) == 2
    assert f"configuration error: sweep point tau={big}: eta_c * tau" in capsys.readouterr().err
    assert not (tmp_path / "artifacts").exists()


# Finite local updates whose server-step sum overflows: each round about
# doubles the iterate, and near round 665 the sum of the M = 3 updates of
# about 1e308 overflows while every update stays finite.
SERVER_STEP_OVERFLOW = [
    "hyper.T=2000",
    "log_every=2000",
    "federation.hessian_eig_min=1e108",
    "federation.hessian_eig_max=1e108",
    "hyper.eta_c=1e-110",
    "hyper.eta_s=300",
    "hyper.tau=1",
]


def test_server_step_overflow_exits_one_without_a_warning(config_file, tmp_path, capsys):
    # The suite turns warnings into errors, so a numpy overflow warning
    # would end either command with an exception instead.
    sets = [arg for item in SERVER_STEP_OVERFLOW for arg in ("--set", item)]
    assert main(["run", "--config", str(config_file), *sets]) == 1
    err = capsys.readouterr().err
    assert "run aborted: non-finite iterate at round=" in err and err.rstrip().endswith("(server step)")
    args = ["--axis", "sigma_g_scale", "--values", "1,2"]
    assert main(["sweep", "--config", str(config_file), *sets, *args]) == 1
    lines = (tmp_path / "artifacts" / "sweep_summary.csv").read_text().strip().splitlines()
    assert [line.split(",")[-2] for line in lines[1:]] == ["false", "false"]


# Minimizers near 1e150 at eta_c = 4: the iterate grows each round, and
# its squared metrics overflow in round 4 while it stays finite.
METRICS_OVERFLOW = [
    "hyper.eta_c=4.0",
    "federation.cluster_center_spread=1e150",
    "federation.within_cluster_spread=1e149",
]


def test_a_metrics_overflow_exits_one_naming_the_metrics(config_file, tmp_path, capsys):
    sets = [arg for item in METRICS_OVERFLOW for arg in ("--set", item)]
    assert main(["run", "--config", str(config_file), *sets]) == 1
    assert capsys.readouterr().err.rstrip().endswith("run aborted: non-finite iterate at round=4 (metrics)")
    status = json.loads((tmp_path / "artifacts" / "status.json").read_text())
    assert status == {"completed": False, "aborted_round": 4}


def test_divergent_run_exits_one(config_file, tmp_path, capsys):
    # At eta_c = 1e200 the first local step lands near 1e200 and the
    # second overflows, in round 0.
    assert main(["run", "--config", str(config_file), "--set", "hyper.eta_c=1e200"]) == 1
    assert capsys.readouterr().err.rstrip().endswith("run aborted: non-finite iterate at round=0 (local_step=1)")
    status = json.loads((tmp_path / "artifacts" / "status.json").read_text())
    assert status == {"completed": False, "aborted_round": 0}


def test_noise_whose_scaling_overflows_is_a_local_step_divergence(config_file, tmp_path, capsys):
    # At d = 1 each draw is scaled by noise_sigma = 1.7e308 itself, so a draw of magnitude past about 1.06
    # overflows in the noise scaling; here a first draw of round 0 does. The suite turns a numpy overflow
    # warning into an error.
    sets = ["--set", "federation.noise_sigma=1.7e308", "--set", "federation.d=1"]
    assert main(["run", "--config", str(config_file), *sets]) == 1
    assert capsys.readouterr().err.rstrip().endswith("run aborted: non-finite iterate at round=0 (local_step=0)")
    status = json.loads((tmp_path / "artifacts" / "status.json").read_text())
    assert status == {"completed": False, "aborted_round": 0}


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


def test_sweep_with_divergent_point_writes_summary_then_exits_one(config_file, tmp_path, capsys):
    code = main(["sweep", "--config", str(config_file), "--axis", "eta_s", "--values", "1,1e200"])
    assert code == 1
    assert "eta_s=1e+200 aborted at round=0" in capsys.readouterr().err
    lines = (tmp_path / "artifacts" / "sweep_summary.csv").read_text().strip().splitlines()
    assert lines[0].startswith("axis,value,seed")
    assert lines[0].endswith(",completed,aborted_round")
    assert lines[1].endswith(",true,") and lines[2].endswith(",,,,false,0")
    for point in ("point00_eta_s", "point01_eta_s"):
        assert (tmp_path / "artifacts" / point / "metrics.csv").exists()


@pytest.mark.parametrize(
    "axis,values,message",
    [
        ("sigma_g_scale", "inf", "must be finite"),
        ("M", "abc", "must be ints"),
        ("tau", "1,--5", "must be ints"),
        ("tau", "1,+-5", "must be ints"),
        ("eta_c", "1e400", "must be finite"),
        ("eta_c", ",", "--values must list at least one value"),
    ],
)
def test_bad_sweep_values_exit_two(config_file, tmp_path, capsys, axis, values, message):
    code = main(["sweep", "--config", str(config_file), "--axis", axis, "--values", values])
    assert code == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and message in err
    assert not (tmp_path / "artifacts").exists()


def test_a_sweep_value_past_the_digit_limit_exits_two_without_echoing_it(config_file, tmp_path, capsys):
    long_int = "1" * 5000
    assert main(["sweep", "--config", str(config_file), "--axis", "tau", "--values", f"1,{long_int}"]) == 2
    err = capsys.readouterr().err
    assert "configuration error: --values for axis tau holds a number too long to read" in err
    assert long_int[:100] not in err
    assert not (tmp_path / "artifacts").exists()


@pytest.mark.parametrize(
    "axis,values,point,message",
    [
        ("M", "5,100000", "M=100000", "M must satisfy 1 <= M <= N"),
        ("tau", "2,0", "tau=0", "tau must be >= 1"),
        ("algo", "fedavg,clusterfedvarp", "algo='clusterfedvarp'", "clusterfedvarp needs 1 <= K <= N"),
    ],
)
def test_a_sweep_point_with_an_invalid_config_is_named_and_nothing_is_made(
    config_file, tmp_path, capsys, axis, values, point, message
):
    code = main(["sweep", "--config", str(config_file), "--axis", axis, "--values", values])
    assert code == 2
    err = capsys.readouterr().err
    assert f"configuration error: sweep point {point}: {message}" in err
    assert not (tmp_path / "artifacts").exists()


def test_sweep_with_overflowing_initial_point_exits_two_before_any_point(
    config_file, tmp_path, capsys
):
    # One cluster of identical clients scaled by 1e160: the first point is
    # fine, the second's initial ||w0 - w*||^2 overflows.
    one_cluster = ["--set", "federation.K_true=1", "--set", "federation.within_cluster_spread=0"]
    args = ["--axis", "sigma_g_scale", "--values", "1,1e160"]
    code = main(["sweep", "--config", str(config_file), *one_cluster, *args])
    assert code == 2
    err = capsys.readouterr().err
    assert "sweep point sigma_g_scale=1e+160" in err and "initial point" in err
    assert not (tmp_path / "artifacts").exists()


# The README's federation with only sigma_g^2 overflowing, which used to
# write "sigma_g_sq": Infinity into manifest.json and exit 0, and one
# whose every constant overflows, which used to end in a numpy warning.
OVERFLOWING_CONSTANTS = {
    "gap": [
        "federation.cluster_center_spread=0.0",
        "federation.within_cluster_spread=1.15e153",
        "federation.hessian_eig_min=16.0",
        "federation.hessian_eig_max=16.0",
        "hyper.eta_c=0.001",
    ],
    "centers": ["federation.cluster_center_spread=1e160"],
    # Only clusterfedvarp's own clustering (K=3, not the generator's K_true=12) overflows, which the
    # manifest recomputes: found once the output directory was made, it used to leave that empty.
    "own_clustering": [
        "federation.N=12",
        "federation.d=1",
        "federation.K_true=12",
        "federation.cluster_center_spread=1.1550266902666783e+54",
        "federation.within_cluster_spread=0.0",
        "federation.hessian_eig_min=1e100",
        "federation.hessian_eig_max=1e100",
        "federation.seed=2",
        "hyper.eta_c=1e-101",
        "hyper.tau=1",
        "hyper.T=2",
        "hyper.M=2",
        "algo.name=clusterfedvarp",
        "algo.K=3",
    ],
}


@pytest.mark.parametrize("case", OVERFLOWING_CONSTANTS)
def test_overflowing_constants_exit_two_and_write_nothing(config_file, tmp_path, capsys, case):
    sets = [arg for item in OVERFLOWING_CONSTANTS[case] for arg in ("--set", item)]
    assert main(["run", "--config", str(config_file), *sets]) == 2
    assert "configuration error: the federation's exact constants overflow float64" in capsys.readouterr().err
    assert not (tmp_path / "artifacts").exists()


def test_sweep_point_with_overflowing_constants_exits_two_before_any_point(config_file, tmp_path, capsys):
    args = ["--axis", "sigma_g_scale", "--values", "1,1e160"]
    assert main(["sweep", "--config", str(config_file), *args]) == 2
    err = capsys.readouterr().err
    assert "sweep point sigma_g_scale=1e+160: the federation's exact constants overflow float64" in err
    assert not (tmp_path / "artifacts").exists()


def test_sweep_point_whose_own_clustering_constants_overflow_exits_two_before_any_point(
    config_file, tmp_path, capsys
):
    sets = [arg for item in OVERFLOWING_CONSTANTS["own_clustering"] for arg in ("--set", item)]
    assert main(["sweep", "--config", str(config_file), *sets, "--axis", "K", "--values", "12,3"]) == 2
    err = capsys.readouterr().err
    assert "configuration error: sweep point K=3: the federation's exact constants overflow float64" in err
    assert not (tmp_path / "artifacts").exists()


def tree(root):
    """Every path under root, with the bytes of each file."""
    return {p: p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


@pytest.mark.parametrize("kind", ["directory", "not_utf8", "not_json"])
def test_unreadable_config_exits_two(tmp_path, capsys, kind):
    path = tmp_path / "config.json"
    if kind == "directory":
        path.mkdir()
    elif kind == "not_utf8":
        path.write_bytes(b'{"output_dir": "\xff"}')
    else:
        path.write_text('{"output_dir": ')
    before = tree(tmp_path)
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    if kind == "not_json":
        assert f"configuration error: config file {path} is not valid JSON" in err
    else:
        assert f"configuration error: cannot read config file {path}" in err
    assert tree(tmp_path) == before


@pytest.mark.parametrize("where", ["file", "override"])
def test_an_integer_past_the_digit_limit_exits_two(config_file, tmp_path, capsys, where):
    # json.loads raises a plain ValueError for an integer literal of more than 4300 digits.
    long_int = "1" * 5000
    if where == "file":
        config_file.write_text(config_file.read_text().replace('"T": 15', f'"T": {long_int}'))
        args, source = [], f"config file {config_file}"
    else:
        args, source = ["--set", f"hyper.T={long_int}"], "override 'hyper.T'"
    assert main(["run", "--config", str(config_file), *args]) == 2
    assert f"configuration error: {source} holds a number too long to read" in capsys.readouterr().err
    assert not (tmp_path / "artifacts").exists()


RUN = ["run"]
SWEEP = ["sweep", "--axis", "eta_c", "--values", "0.01,0.02"]


@pytest.mark.parametrize(
    "command,where",
    [
        (RUN, "is_file"),
        (RUN, "under_file"),
        (SWEEP, "is_file"),
        (SWEEP, "under_file"),
        # The second point's directory is a file: no point may run first,
        # and the base keeps an earlier sweep's summary.
        (SWEEP, "point_is_file"),
        # An OS error other than a file in the way (ENAMETOOLONG).
        (RUN, "name_too_long"),
        (SWEEP, "name_too_long"),
        # The check pass cannot see that error below a directory that does
        # not exist yet: the parent made before the long name fails is removed.
        (RUN, "name_too_long_under_new_parent"),
    ],
    ids=[
        "run-is_file",
        "run-under_file",
        "sweep-is_file",
        "sweep-under_file",
        "sweep-point_is_file",
        "run-name_too_long",
        "sweep-name_too_long",
        "run-name_too_long_under_new_parent",
    ],
)
def test_output_dir_blocked_by_a_file_exits_two(config_file, tmp_path, capsys, command, where):
    blocker = tmp_path / ("point01_eta_c" if where == "point_is_file" else "blocker")
    blocker.write_text("a file, not a directory")
    if where == "point_is_file":
        (tmp_path / "sweep_summary.csv").write_text("an earlier sweep's summary")
    out = {
        "is_file": blocker,
        "under_file": blocker / "run",
        "point_is_file": tmp_path,
        "name_too_long": tmp_path / ("a" * 300),
        "name_too_long_under_new_parent": tmp_path / "new" / "deeper" / ("a" * 300),
    }[where]
    blocked = blocker if where == "point_is_file" else out
    before = tree(tmp_path)
    args = [command[0], "--config", str(config_file), "--set", f"output_dir={out}", *command[1:]]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert f"configuration error: cannot create output directory {blocked}" in err
    assert tree(tmp_path) == before


def test_artifact_name_taken_by_a_directory_exits_two(config_file, tmp_path, capsys):
    out = tmp_path / "out"
    (out / "metrics.csv").mkdir(parents=True)
    before = tree(tmp_path)
    assert main(["run", "--config", str(config_file), "--set", f"output_dir={out}"]) == 2
    assert f"configuration error: cannot create output directory {out}" in capsys.readouterr().err
    assert tree(tmp_path) == before


def test_sweep_point_artifact_name_taken_by_a_directory_exits_two(config_file, tmp_path, capsys):
    point = tmp_path / "artifacts" / "point01_eta_c"
    (point / "metrics.csv").mkdir(parents=True)
    assert main(["sweep", "--config", str(config_file), *SWEEP[1:]]) == 2
    assert f"configuration error: cannot create output directory {point}" in capsys.readouterr().err
    assert [p for p in (tmp_path / "artifacts").rglob("*") if p.is_file()] == []


NOISY = ["--set", "federation.noise_sigma=0.3"]
# Round 0 of mifa's full_first_round trains all N=2**17 clients, so at
# d=1 local_sgd's noise buffer is a full tile of 16384 rows: (16384,
# tau, 1) is 256 TiB at tau=2**31, while the (M, tau, 1) one of M=1 is
# 16 GiB.
FULL_FIRST_ROUND = [
    arg
    for key, value in [
        ("federation.N", 131072),
        ("federation.d", 1),
        ("federation.K_true", 1),
        ("federation.noise_sigma", 0.3),
        ("hyper.M", 1),
        ("hyper.T", 2),
        ("algo.name", "mifa"),
        ("algo.mifa_mode", "full_first_round"),
    ]
    for arg in ("--set", f"{key}={value}")
]


@pytest.mark.parametrize(
    "args,shape",
    [
        (["run", "--set", "federation.d=100000000000000"], (8, 10**14)),
        (["run", *NOISY, "--set", "hyper.tau=10000000000000"], (3, 10**13, 3)),
        (["run", "--set", "federation.d=1000000000000000000"], (8, 10**18)),
        (["run", *NOISY, "--set", "hyper.tau=1000000000000000000"], (3, 10**18, 3)),
        (["sweep", *NOISY, "--axis", "tau", "--values", "1,1000000000000000000"], (3, 10**18, 3)),
        (["run", *FULL_FIRST_ROUND, "--set", "hyper.tau=2147483648"], (16384, 2147483648, 1)),
    ],
    ids=[
        "d",
        "noisy_tau",
        "d_overflows",
        "noisy_tau_overflows",
        "sweep_tau_overflows",
        "mifa_full_first_round_tau",
    ],
)
def test_size_too_large_to_allocate_exits_two(config_file, tmp_path, capsys, args, shape):
    # The arrays of d, noisy_tau and mifa_full_first_round_tau exceed a
    # 128 TiB address space, so numpy refuses them without allocating
    # anything; the byte counts of the others overflow.
    command, *rest = args
    before = tree(tmp_path)
    assert main([command, "--config", str(config_file), *rest]) == 2
    err = capsys.readouterr().err
    assert "configuration error: " in err and f"(array shape {shape})" in err
    assert tree(tmp_path) == before


def test_sweep_buffer_too_large_to_allocate_exits_two_before_any_point(config_file, tmp_path, capsys):
    # Point 0 (tau=1) fits; point 1's (M, tau, d) noise buffer exceeds a
    # 128 TiB address space.
    noisy = ["--set", "federation.noise_sigma=0.3", "--axis", "tau", "--values", "1,10000000000000"]
    assert main(["sweep", "--config", str(config_file), *noisy]) == 2
    err = capsys.readouterr().err
    assert "configuration error: sweep point tau=10000000000000: Unable to allocate" in err
    assert not (tmp_path / "artifacts").exists()


def test_sweep_full_first_round_block_too_large_exits_two_before_any_point(
    config_file, tmp_path, capsys
):
    # Point 0 (tau=1) fits; point 1's round 0 trains all N clients, whose
    # (tile, tau, d) noise buffer exceeds a 128 TiB address space.
    args = [*FULL_FIRST_ROUND, "--axis", "tau", "--values", "1,2147483648"]
    before = tree(tmp_path)
    assert main(["sweep", "--config", str(config_file), *args]) == 2
    err = capsys.readouterr().err
    assert "configuration error: sweep point tau=2147483648: Unable to allocate" in err
    assert "(array shape (16384, 2147483648, 1))" in err
    assert tree(tmp_path) == before


@pytest.mark.parametrize("command", [RUN, SWEEP], ids=["run", "sweep"])
def test_empty_output_dir_exits_two_and_writes_nothing(
    config_file, tmp_path, capsys, monkeypatch, command
):
    # Path("") is the working directory: an earlier run's artifacts there stay as they are.
    monkeypatch.chdir(tmp_path)
    for name in ("manifest.json", "metrics.csv", "status.json", "sweep_summary.csv"):
        (tmp_path / name).write_text(f"an earlier {name}")
    before = tree(tmp_path)
    args = [command[0], "--config", str(config_file), "--set", "output_dir=", *command[1:]]
    assert main(args) == 2
    assert "configuration error: output_dir must be non-empty" in capsys.readouterr().err
    assert tree(tmp_path) == before


def test_zero_hessian_exits_two(config_file, tmp_path, capsys):
    zero = ["--set", "federation.hessian_eig_min=0", "--set", "federation.hessian_eig_max=0"]
    assert main(["run", "--config", str(config_file), *zero]) == 2
    assert "configuration error: hessian_eig_max must be > 0" in capsys.readouterr().err
    assert not (tmp_path / "artifacts").exists()


def test_one_dimension_with_a_zero_eigenvalue_exits_two(config_file, tmp_path, capsys):
    # At d = 1 linspace keeps hessian_eig_min alone, so the smoothness constant would be 0.
    sets = ["--set", "federation.d=1", "--set", "federation.hessian_eig_min=0"]
    assert main(["run", "--config", str(config_file), *sets]) == 2
    err = capsys.readouterr().err
    assert "configuration error: with d = 1 the one eigenvalue hessian_eig_min must be > 0, got 0.0" in err
    assert "Traceback" not in err
    assert not (tmp_path / "artifacts").exists()


def test_sweep_point_echoes_the_algo_config_run_would(config_file, tmp_path):
    assert main(["sweep", "--config", str(config_file), "--axis", "algo", "--values", "mifa"]) == 0
    direct = ["--set", "algo.name=mifa", "--set", f"output_dir={tmp_path / 'direct'}"]
    assert main(["run", "--config", str(config_file), *direct]) == 0
    swept = json.loads((tmp_path / "artifacts" / "point00_algo" / "manifest.json").read_text())
    ran = json.loads((tmp_path / "direct" / "manifest.json").read_text())
    assert swept["config"]["algo"] == ran["config"]["algo"]
    assert ran["config"]["algo"] == {"name": "mifa", "K": None, "mifa_mode": "cold_start"}
