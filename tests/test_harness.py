import itertools
import json
import re
from dataclasses import asdict, replace

import numpy as np
import pytest

from conftest import substream_keys
from fedvarp_sim.aggregators import aggregator_step, init_state
from fedvarp_sim import artifacts, harness, oracles
from fedvarp_sim.config import (
    apply_overrides,
    derive_sweep_seed,
    load_config,
    parse_config,
    sweep_point_config,
)
from fedvarp_sim.core import ALGORITHMS, CLUSTERFEDVARP, FEDAVG, ConfigError, DivergenceError
from fedvarp_sim.harness import floor_estimate, run, sweep
from fedvarp_sim.localsgd import local_sgd
from fedvarp_sim.objectives import Federation, FederationConfig, generate_federation
from fedvarp_sim.oracles import verify
from fedvarp_sim.rng import TAG_LOCAL, TAG_SAMPLING, substream
from fedvarp_sim.sampling import sample_round, without_replacement_variance


def raw_config(tmp_path, **edits):
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
        "hyper": {"eta_c": 0.05, "eta_s": 1.0, "tau": 2, "T": 20, "M": 3},
        "algo": {"name": "fedavg", "K": None, "mifa_mode": None},
        "log_every": 1,
        "output_dir": str(tmp_path / "out"),
        "seed": 99,
    }
    for dotted, value in edits.items():
        node = raw
        keys = dotted.split(".")
        for k in keys[:-1]:
            node = node[k]
        node[keys[-1]] = value
    return raw


# ---------------------------------------------------------------------------
# Configuration parsing


def test_parse_round_trip(tmp_path):
    cfg = parse_config(raw_config(tmp_path))
    assert cfg.federation.N == 8
    assert cfg.hyper.M == 3
    assert cfg.algo.name == "fedavg"
    assert asdict(cfg) == raw_config(tmp_path)


def test_unknown_top_level_key_rejected(tmp_path):
    raw = raw_config(tmp_path)
    raw["surprise"] = 1
    with pytest.raises(ConfigError, match="unknown config keys"):
        parse_config(raw)


def test_unknown_nested_key_rejected(tmp_path):
    raw = raw_config(tmp_path)
    raw["hyper"]["momentum"] = 0.9
    with pytest.raises(ConfigError, match="unknown keys in 'hyper'"):
        parse_config(raw)


def test_missing_key_rejected(tmp_path):
    raw = raw_config(tmp_path)
    del raw["federation"]["seed"]
    with pytest.raises(ConfigError, match="missing keys in 'federation'"):
        parse_config(raw)


def test_type_errors_rejected(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(raw_config(tmp_path, **{"hyper.tau": 1.5}))
    with pytest.raises(ConfigError):
        parse_config(raw_config(tmp_path, **{"hyper.eta_c": True}))
    with pytest.raises(ConfigError):
        parse_config(raw_config(tmp_path, **{"algo.name": "magic"}))


def test_cluster_algo_needs_K(tmp_path):
    with pytest.raises(ConfigError, match="clusterfedvarp"):
        parse_config(raw_config(tmp_path, **{"algo.name": "clusterfedvarp"}))
    cfg = parse_config(raw_config(tmp_path, **{"algo.name": "clusterfedvarp", "algo.K": 4}))
    assert cfg.algo.K == 4


def test_mifa_mode_defaults_and_validates(tmp_path):
    cfg = parse_config(raw_config(tmp_path, **{"algo.name": "mifa"}))
    assert cfg.algo.mifa_mode == "cold_start"
    with pytest.raises(ConfigError):
        parse_config(raw_config(tmp_path, **{"algo.name": "mifa", "algo.mifa_mode": "warm"}))


@pytest.mark.parametrize(
    "edit,message",
    [
        ({"hyper.M": 9}, "M <= N"),
        ({"algo.name": "clusterfedvarp", "algo.K": 9}, "1 <= K <= N"),
        ({"log_every": 0}, "log_every"),
        ({"seed": -1}, "seed"),
        ({"federation.seed": -1}, "federation.seed"),
        ({"output_dir": ""}, "output_dir must be non-empty"),
    ],
)
def test_out_of_range_values_rejected(tmp_path, edit, message):
    with pytest.raises(ConfigError, match=message):
        parse_config(raw_config(tmp_path, **edit))


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "absent.json")


def test_overrides(tmp_path):
    raw = raw_config(tmp_path)
    apply_overrides(raw, ["hyper.M=5", "algo.name=fedvarp", "seed=7"])
    cfg = parse_config(raw)
    assert cfg.hyper.M == 5 and cfg.algo.name == "fedvarp" and cfg.seed == 7


def test_override_unknown_key(tmp_path):
    # An unknown leaf, an unknown first-level section, a path through a
    # number and an unknown top-level leaf.
    for dotted in ("hyper.rho", "foo.bar", "hyper.M.x", "rho"):
        with pytest.raises(ConfigError, match=f"override references unknown key '{dotted}'"):
            apply_overrides(raw_config(tmp_path), [f"{dotted}=1"])
    with pytest.raises(ConfigError, match="key=value"):
        apply_overrides(raw_config(tmp_path), ["hyper.M"])


# ---------------------------------------------------------------------------
# Running


def test_empty_run_logs_initial_point(small_config):
    result = run(small_config(T=0))
    assert len(result.records) == 1
    assert result.records[0].round == 0
    assert (result.output_dir / "manifest.json").exists()


def test_records_rounds_strictly_increase(small_config):
    result = run(small_config(T=12, log_every=5))
    rounds = [r.round for r in result.records]
    assert rounds == [0, 5, 10, 12]


def test_homogeneous_clients_monotone_descent(small_config):
    # identical clients, no noise: plain GD on a quadratic must descend
    for algo in ("fedavg", "fedvarp", "mifa"):
        cfg = small_config(
            K_true=1,
            within_cluster_spread=0.0,
            algo=algo,
            eta_c=0.2,
            tau=1,
            T=25,
            output_dir=f"unused_{algo}",
        )
        result = run(cfg, write_artifacts=False)
        grads = [r.grad_norm_sq for r in result.records]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(grads, grads[1:]))
        assert grads[-1] < grads[0] * 1e-3


def test_run_is_deterministic_byte_for_byte(small_config, tmp_path):
    cfg = small_config(noise_sigma=0.4, T=25, output_dir=tmp_path / "det")
    run(cfg)
    first = {
        name: (tmp_path / "det" / name).read_bytes()
        for name in ("metrics.csv", "manifest.json", "status.json")
    }
    run(cfg)
    for name, payload in first.items():
        assert (tmp_path / "det" / name).read_bytes() == payload


def _record_local_calls(monkeypatch):
    """Wrap harness.local_sgd; collect (participants, keys) of every call."""
    calls = []
    original = harness.local_sgd

    def recording(fed, participants, w, tau, eta_c, keys=None):
        calls.append((np.array(participants), None if keys is None else np.array(keys)))
        return original(fed, participants, w, tau, eta_c, keys)

    monkeypatch.setattr(harness, "local_sgd", recording)
    return calls


def test_noiseless_run_builds_no_local_streams(small_config, monkeypatch):
    calls = _record_local_calls(monkeypatch)
    for algo in ALGORITHMS:
        K = 2 if algo == CLUSTERFEDVARP else None
        run(small_config(algo=algo, K=K, noise_sigma=0.0, T=12), write_artifacts=False)
    assert len(calls) == 4 * 12
    assert all(keys is None for _, keys in calls)


def _assert_round_streams(cfg, calls):
    """Round t sampled from substream(seed, TAG_SAMPLING, t)'s key and passed
    one key per participant i, substream(seed, TAG_LOCAL, t, i)'s."""
    N, M = cfg.federation.N, cfg.hyper.M
    assert len(calls) == cfg.hyper.T
    for t, (ids, keys) in enumerate(calls):
        assert ids.tolist() == sample_round(N, M, substream(cfg.seed, TAG_SAMPLING, t)).tolist()
        assert keys.shape == (M, 2) and keys.dtype == np.uint64
        assert keys.tobytes() == substream_keys(cfg.seed, TAG_LOCAL, t, ids=ids).tobytes()


def test_noisy_run_builds_and_draws_one_stream_per_participant_round(small_config, monkeypatch):
    calls = _record_local_calls(monkeypatch)
    cfg = small_config(noise_sigma=0.3, T=12, M=3)
    run(cfg, write_artifacts=False)
    _assert_round_streams(cfg, calls)


def test_round_keys_derived_in_chunks_key_every_round(small_config, monkeypatch):
    # A chunk of 5 splits 12 rounds as 5, 5 and 2.
    monkeypatch.setattr(harness, "ROUND_KEY_CHUNK", 5)
    calls = _record_local_calls(monkeypatch)
    cfg = small_config(noise_sigma=0.3, T=12, M=3)
    run(cfg, write_artifacts=False)
    _assert_round_streams(cfg, calls)


def test_a_round_index_past_one_key_word_is_a_config_error(small_config, tmp_path):
    cfg = small_config(T=2**32 + 1, output_dir=tmp_path / "long")
    with pytest.raises(ConfigError, match=r"T must be at most 2\*\*32"):
        run(cfg)
    assert not (tmp_path / "long").exists()
    harness._check_sizes(replace(cfg, hyper=replace(cfg.hyper, T=2**32)))


def _round_block(fed, w, seed, t, order):
    return local_sgd(fed, order, w, 2, 0.05, substream_keys(seed, TAG_LOCAL, t, ids=order))


def test_participant_order_does_not_change_step():
    # Training the participants as batch rows in reversed order, then
    # flipping the rows back to id order, must give the same bits as
    # training them in id order, round after round.
    N, d, seed = 8, 3, 4242
    fed, _ = generate_federation(
        FederationConfig(
            N=N,
            d=d,
            K_true=4,
            cluster_center_spread=1.0,
            within_cluster_spread=0.1,
            noise_sigma=0.4,
            hessian_eig_min=0.5,
            hessian_eig_max=1.0,
            seed=11,
        )
    )
    for algo in ALGORITHMS:
        K, assignment = (3, np.arange(N) % 3) if algo == CLUSTERFEDVARP else (None, None)
        ascending = init_state(algo, np.zeros(d), N, K, assignment)
        reversed_ = init_state(algo, np.zeros(d), N, K, assignment)
        for t in range(6):
            ids = sample_round(N, 5, substream(seed, TAG_SAMPLING, t))
            fwd = _round_block(fed, ascending.w, seed, t, ids)
            rev = _round_block(fed, reversed_.w, seed, t, ids[::-1])
            aggregator_step(ascending, ids, fwd, 0.1)
            aggregator_step(reversed_, ids, rev[::-1], 0.1)
            assert ascending.w.tobytes() == reversed_.w.tobytes(), algo
            if algo != FEDAVG:
                assert ascending.table.tobytes() == reversed_.table.tobytes(), algo


@pytest.mark.parametrize("eta_s", [1.0, 1e250], ids=["completed", "diverged"])
def test_metrics_csv_round_trips_at_17_digits(small_config, tmp_path, eta_s):
    cfg = small_config(noise_sigma=0.3, eta_s=eta_s, T=10, output_dir=tmp_path / "fmt")
    if eta_s == 1.0:
        result = run(cfg)
    else:
        with pytest.raises(DivergenceError) as err:
            run(cfg)
        result = err.value.result
    lines = (tmp_path / "fmt" / "metrics.csv").read_text().strip().splitlines()
    assert lines[0] == "round,grad_norm_sq,global_loss,dist_to_opt_sq"
    assert len(lines) == 1 + len(result.records)
    for rec, line in zip(result.records, lines[1:]):
        r, g, l, dd = line.split(",")
        assert int(r) == rec.round
        assert float(g) == rec.grad_norm_sq  # exact round trip
        assert float(l) == rec.global_loss
        assert float(dd) == rec.dist_to_opt_sq
        assert all(np.isfinite(float(x)) for x in (g, l, dd))


def test_divergent_run_persists_partial_results(small_config, tmp_path):
    cfg = small_config(eta_c=1e180, T=50, output_dir=tmp_path / "boom")
    with pytest.raises(DivergenceError) as err:
        run(cfg)
    assert err.value.step is not None  # a local step diverged
    assert err.value.round == 0
    assert "round=0" in str(err.value)  # the message follows the round set by run
    status = json.loads((tmp_path / "boom" / "status.json").read_text())
    assert status["completed"] is False
    assert status["aborted_round"] == err.value.round
    lines = (tmp_path / "boom" / "metrics.csv").read_text().strip().splitlines()
    assert len(lines) >= 2  # header plus the initial point


def test_interrupted_run_leaves_no_earlier_artifacts(small_config, tmp_path, monkeypatch):
    out = tmp_path / "reused"
    run(small_config(T=20, output_dir=out))
    assert sorted(p.name for p in out.iterdir()) == sorted(artifacts.RUN_ARTIFACTS)
    calls = []

    def failing_step(*args):
        calls.append(1)
        if len(calls) == 5:
            raise RuntimeError("stopped")
        return aggregator_step(*args)

    monkeypatch.setattr(harness, "aggregator_step", failing_step)
    with pytest.raises(RuntimeError, match="stopped"):
        run(small_config(T=50, output_dir=out))
    for name in ("manifest.json", "metrics.csv", "status.json"):
        assert not (out / name).exists(), name


def test_sweep_removes_an_earlier_summary_when_it_makes_its_base(small_config, tmp_path, monkeypatch):
    base = small_config(T=5, output_dir=tmp_path / "sweep")
    assert sweep(base, "eta_s", [1.0]).summary_path.exists()

    def failing_stack(*args, **kwargs):
        raise RuntimeError("stopped")

    monkeypatch.setattr(harness, "run_stack", failing_stack)
    with pytest.raises(RuntimeError, match="stopped"):
        sweep(base, "eta_s", [1.0])
    assert not (tmp_path / "sweep" / "sweep_summary.csv").exists()


def test_interrupted_sweep_leaves_no_earlier_point_artifacts(small_config, tmp_path, monkeypatch):
    base = small_config(T=5, output_dir=tmp_path / "sweep")
    sweep(base, "eta_s", [1.0, 0.5])
    point = tmp_path / "sweep" / "point01_eta_s"
    assert sorted(p.name for p in point.iterdir()) == sorted(artifacts.RUN_ARTIFACTS)
    calls = []

    run_stack = harness.run_stack

    def run_once(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise RuntimeError("stopped")
        return run_stack(*args, **kwargs)

    monkeypatch.setattr(harness, "run_stack", run_once)
    with pytest.raises(RuntimeError, match="stopped"):
        sweep(base, "eta_s", [1.0, 0.5])
    assert list(point.iterdir()) == []


def test_server_side_divergence_detected(small_config, tmp_path):
    # A sane client rate but an absurd server rate: the round-0 server step
    # leaves a finite iterate of order 1e250 whose squared gradient norm
    # overflows, so round 0 is the round that diverged.
    cfg = small_config(eta_c=0.05, eta_s=1e250, T=5, output_dir=tmp_path / "server")
    with pytest.raises(DivergenceError) as err:
        run(cfg)
    assert err.value.step is None
    assert err.value.round == 0
    status = json.loads((tmp_path / "server" / "status.json").read_text())
    assert status == {"completed": False, "aborted_round": 0}
    lines = (tmp_path / "server" / "metrics.csv").read_text().strip().splitlines()
    assert len(lines) == 2  # header plus the initial point
    assert all(np.isfinite(float(x)) for x in lines[1].split(","))


def test_initial_point_overflow_is_config_error(small_config, tmp_path):
    # One cluster: the constants stay finite, but ||w0 - w*||^2 ~ 1e320 does not.
    cfg = small_config(
        K_true=1,
        within_cluster_spread=0.0,
        cluster_center_spread=1e160,
        output_dir=tmp_path / "run",
    )
    with pytest.raises(ConfigError, match="initial point"):
        run(cfg, write_artifacts=False)
    with pytest.raises(ConfigError, match="initial point"):
        run(cfg)
    assert not (tmp_path / "run").exists()


def test_sweep_checks_every_initial_point_before_the_first_runs(small_config, tmp_path):
    base = small_config(K_true=1, within_cluster_spread=0.0, T=5, output_dir=tmp_path / "sw")
    with pytest.raises(ConfigError, match="initial point"):
        sweep(base, "sigma_g_scale", [1.0, 1e160])
    assert not (tmp_path / "sw").exists()


def test_sweep_checks_every_cluster_count_before_the_first_runs(small_config, tmp_path):
    base = small_config(algo="clusterfedvarp", K=2, T=5, output_dir=tmp_path / "sw")
    with pytest.raises(ConfigError, match="1 <= K <= N"):
        sweep(base, "K", [2, 0])
    with pytest.raises(ConfigError, match="1 <= K <= N"):
        sweep(small_config(T=5, output_dir=tmp_path / "sw"), "algo", ["fedavg", "clusterfedvarp"])
    assert not (tmp_path / "sw").exists()


def test_sweep_builds_each_federation_once(small_config, tmp_path, monkeypatch):
    built = []

    def counting(cfg):
        built.append(cfg)
        return generate_federation(cfg)

    monkeypatch.setattr(harness, "generate_federation", counting)
    base = small_config(T=5, output_dir=tmp_path / "sw")
    sweep(base, "sigma_g_scale", [1.0, 2.0, 3.0])
    assert len(built) == 3
    built.clear()
    sweep(base, "eta_c", [0.01, 0.02, 0.03], write_artifacts=False)
    assert len(built) == 1


def test_sweep_checks_every_size_before_building_a_federation(small_config, tmp_path, monkeypatch):
    built = []

    def counting(cfg):
        built.append(cfg)
        return generate_federation(cfg)

    monkeypatch.setattr(harness, "generate_federation", counting)
    base = small_config(noise_sigma=0.3, T=5, output_dir=tmp_path / "sw")
    with pytest.raises(ConfigError, match="sweep point tau=10000000000000"):
        sweep(base, "tau", [1, 10**13])
    assert built == []
    assert not (tmp_path / "sw").exists()


def test_mifa_full_first_round_matches_full_participation(small_config):
    mifa_cfg = small_config(
        algo="mifa", mifa_mode="full_first_round", T=1, tau=1, output_dir="unused_mifa"
    )
    avg_cfg = small_config(algo="fedavg", M=8, T=1, tau=1, output_dir="unused_avg")
    mifa_first = run(mifa_cfg, write_artifacts=False)
    avg_full = run(avg_cfg, write_artifacts=False)
    assert mifa_first.records[-1].grad_norm_sq == avg_full.records[-1].grad_norm_sq


def test_mifa_cold_start_differs_from_full_first(small_config):
    cold = run(small_config(algo="mifa", T=3, output_dir="u1"), write_artifacts=False)
    warm = run(
        small_config(algo="mifa", mifa_mode="full_first_round", T=3, output_dir="u2"),
        write_artifacts=False,
    )
    assert cold.records[-1].grad_norm_sq != warm.records[-1].grad_norm_sq


def test_round_size_is_n_only_in_round_zero_of_mifa_full_first_round(small_config):
    full = small_config(algo="mifa", mifa_mode="full_first_round", N=8, M=3)
    assert [full.round_size(t) for t in range(3)] == [8, 3, 3]
    cold = small_config(algo="mifa", mifa_mode="cold_start", N=8, M=3)
    assert [cold.round_size(t) for t in range(3)] == [3, 3, 3]
    # Any algo may carry a mifa_mode; a fedavg config keeps M clients in round 0.
    carried = small_config(algo="fedavg", mifa_mode="full_first_round", N=8, M=3)
    assert carried.round_size(0) == 3


def test_full_first_round_applies_to_mifa_only(small_config):
    # Any algo may carry a mifa_mode; a fedavg run ignores it.
    carried = run(small_config(mifa_mode="full_first_round"), write_artifacts=False)
    plain = run(small_config(mifa_mode=None), write_artifacts=False)
    assert carried.records == plain.records


def test_manifest_constants_match_closed_forms(small_config):
    cfg = small_config(T=0)
    result = run(cfg, write_artifacts=False)
    _, consts = generate_federation(cfg.federation)
    man = result.manifest["constants"]
    assert man["L"] == consts.L
    assert man["sigma_g_sq"] == consts.sigma_g_sq
    assert man["w_star"] == [float(x) for x in consts.w_star]
    assert man["p"] is None
    assert result.manifest["lr_preconditions"]


def test_manifest_reports_miss_probability_for_clusters(small_config):
    cfg = small_config(algo="clusterfedvarp", K=4, T=0)
    result = run(cfg, write_artifacts=False)
    from math import comb

    expected = comb(8 - 2, 3) / comb(8, 3)
    assert result.manifest["constants"]["p"] == pytest.approx(expected, rel=1e-15)


# ---------------------------------------------------------------------------
# Sweeps


def test_sweep_seed_derivation_is_stable():
    a = derive_sweep_seed(99, "eta_s", 0.5)
    assert a == derive_sweep_seed(99, "eta_s", 0.5)
    assert a != derive_sweep_seed(99, "eta_s", 0.25)
    assert a != derive_sweep_seed(99, "eta_c", 0.5)


def test_sweep_point_seed_comes_from_the_checked_value(small_config):
    base = small_config()
    cfgs = [sweep_point_config(base, "eta_s", v, 0) for v in (1, 1.0, np.float64(1.0))]
    assert cfgs[0] == cfgs[1] == cfgs[2]
    assert cfgs[0].hyper.eta_s == 1.0
    assert cfgs[0].seed == derive_sweep_seed(base.seed, "eta_s", 1.0) == 6640729279704080003


def test_sweep_point_seed_comes_from_the_value_the_config_holds(small_config):
    base = small_config()
    mixed, lower = (sweep_point_config(base, "algo", name, 0) for name in ("FedAvg", "fedavg"))
    assert mixed == lower
    assert mixed.algo.name == "fedavg"
    assert mixed.seed == derive_sweep_seed(base.seed, "algo", "fedavg") == 6376544525692774143


def test_sweep_invalid_axis(small_config):
    with pytest.raises(ConfigError, match="axis"):
        sweep(small_config(), "flux", [1.0], write_artifacts=False)


def test_degenerate_sweep_equals_direct_run(small_config, tmp_path):
    base = small_config(T=15, output_dir=tmp_path / "sw")
    result = sweep(base, "eta_c", [0.04])
    direct = run(sweep_point_config(base, "eta_c", 0.04, 0))
    assert [r.grad_norm_sq for r in result.results[0].records] == [
        r.grad_norm_sq for r in direct.records
    ]
    assert result.summary_path.exists()
    lines = result.summary_path.read_text().strip().splitlines()
    assert len(lines) == 2 and lines[0].startswith("axis,value,seed")


def test_divergent_sweep_point_keeps_the_other_points(small_config, tmp_path):
    base = small_config(T=15, output_dir=tmp_path / "sw")
    result = sweep(base, "eta_s", [1.0, 1e200, 0.5])
    ok, boom, ok2 = result.results
    assert ok.completed and ok2.completed and not boom.completed
    assert boom.aborted_round == 0
    assert len(boom.records) == 1  # the initial point, logged before the diverging round
    status = json.loads((boom.output_dir / "status.json").read_text())
    assert status == {"completed": False, "aborted_round": 0}
    lines = result.summary_path.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert lines[0].startswith("axis,value,seed")
    assert header[-2:] == ["completed", "aborted_round"]
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    assert [r["completed"] for r in rows] == ["true", "false", "true"]
    assert [r["aborted_round"] for r in rows] == ["", "0", ""]
    floors = ("floor_grad_norm_sq", "min_grad_norm_sq", "final_grad_norm_sq")
    assert all(rows[1][c] == "" for c in floors)
    assert float(rows[0]["floor_grad_norm_sq"]) == floor_estimate(ok.records)
    assert float(rows[2]["final_grad_norm_sq"]) == ok2.records[-1].grad_norm_sq
    # Points after the divergent one are the runs they would be alone.
    direct = run(sweep_point_config(base, "eta_s", 0.5, 2), write_artifacts=False)
    assert ok2.records == direct.records


def test_sigma_g_scale_axis_scales_heterogeneity(small_config):
    base = small_config(T=0, within_cluster_spread=0.0)
    lo = run(sweep_point_config(base, "sigma_g_scale", 1.0, 0), write_artifacts=False)
    hi = run(sweep_point_config(base, "sigma_g_scale", 3.0, 1), write_artifacts=False)
    ratio = hi.manifest["constants"]["sigma_g_sq"] / lo.manifest["constants"]["sigma_g_sq"]
    assert ratio == pytest.approx(9.0, rel=1e-9)


def test_sweep_floors_decrease_with_participation(small_config, tmp_path):
    base = small_config(
        N=20,
        K_true=20,
        within_cluster_spread=0.0,
        tau=1,
        eta_c=1 / 8,
        eta_s=1 / 3,
        T=600,
        output_dir=tmp_path / "m_sweep",
    )
    result = sweep(base, "M", [2, 5, 10], write_artifacts=False)
    floors = [floor_estimate(r.records) for r in result.results]
    assert floors[0] > floors[1] > floors[2]


def test_fedavg_floor_matches_stationary_prediction(small_config):
    # tau=1, sigma=0: the update is w <- w - eta*(grad f(w) + n_t) with
    # per-coordinate noise variance given by the subset-mean variance of the
    # fixed client gradient gaps, so the stationary value of E||grad f||^2 is
    # sum_j a_j^2 * eta^2 V_j / (1 - (1 - eta a_j)^2). Empirical floors must
    # land near that prediction.
    cfg = small_config(
        N=20,
        K_true=20,
        within_cluster_spread=0.0,
        tau=1,
        eta_c=1 / 8,
        eta_s=1 / 3,
        M=4,
        T=4000,
    )
    result = run(cfg, write_artifacts=False)
    fed, consts = generate_federation(cfg.federation)
    eigs = fed.eigs
    gaps = eigs * (consts.w_star - fed.mus)  # N x d, constant in w
    eta = (1 / 3) * (1 / 8) * 1
    predicted = 0.0
    for j in range(3):
        vj = without_replacement_variance([g[j : j + 1] for g in gaps], 4)
        predicted += eigs[j] ** 2 * eta**2 * vj / (1 - (1 - eta * eigs[j]) ** 2)
    floor = floor_estimate(result.records)
    assert floor == pytest.approx(predicted, rel=0.4)


# ---------------------------------------------------------------------------
# Verification


VERIFY_CHECKS = (
    "subset-mean variance closed form vs enumeration",
    "subset mean is unbiased over enumeration",
    "fedvarp update is subset-mean unbiased over enumeration",
    "clusterfedvarp update is subset-mean unbiased over enumeration",
    "cluster reductions K=N and K=1 are bitwise identities",
    "single-participant path reproduces reference SAGA bitwise",
    "finite differences match exact gradients",
)


def test_verify_all_pass():
    checks = verify()
    assert tuple(c.name for c in checks) == VERIFY_CHECKS
    assert all(c.passed for c in checks)
    err = r"max err \d\.\d\de[-+]\d+"
    details = (r"max rel err \d\.\d\de[-+]\d+", err, err, err, "T=60 trajectories", "120 steps", err)
    assert [bool(re.fullmatch(p, c.detail)) for p, c in zip(details, checks)] == [True] * 7


def test_lemma_check_detects_mutated_formula(monkeypatch):
    # Fault injection: using N instead of N-1 in the closed form must be
    # flagged against the enumeration oracle.
    assert oracles.variance_gap(np.random.default_rng(71), 5) <= 1e-12
    closed = oracles.without_replacement_variance

    def mutated(xs, M):  # the (N-1) -> N mutation
        return closed(xs, M) * (len(xs) - 1) / len(xs)

    monkeypatch.setattr(oracles, "without_replacement_variance", mutated)
    assert oracles.variance_gap(np.random.default_rng(71), 5) > 1e-3


def _shift_stored_update_steps(monkeypatch):
    step = oracles.aggregator_step

    def shifted(state, *args):
        w = step(state, *args)
        if state.algo != FEDAVG:
            state.w = w = w - 1e-3
        return w

    monkeypatch.setattr(oracles, "aggregator_step", shifted)


def _one_step_off_by_one_ulp(monkeypatch):
    step = oracles.aggregator_step
    calls = itertools.count()

    def off(*args):
        w = step(*args)
        return np.nextafter(w, np.inf) if next(calls) == 7 else w

    monkeypatch.setattr(oracles, "aggregator_step", off)


def _scale_gradients(monkeypatch):
    exact = Federation.grads_and_losses

    def scaled(fed, w):
        grads, losses = exact(fed, w)
        return grads * (1 + 1e-3), losses

    monkeypatch.setattr(Federation, "grads_and_losses", scaled)


def _perturb_a_cluster_record(monkeypatch):
    run_config = oracles.run

    def perturbed(cfg, **kwargs):
        result = run_config(cfg, **kwargs)
        if cfg.algo.K == 1:
            rec = result.records[-1]
            result.records[-1] = replace(rec, global_loss=float(np.nextafter(rec.global_loss, 1.0)))
        return result

    monkeypatch.setattr(oracles, "run", perturbed)


def _fd_flagged(cfg):
    rng = np.random.default_rng(5)
    fed = Federation(eigs=rng.uniform(0.2, 2.0, size=3), mus=rng.normal(size=(2, 3)))
    return oracles.finite_difference_error(fed, rng.normal(size=(2, 3))) > 1e-6


@pytest.mark.parametrize(
    "plant, flagged",
    [
        (
            _shift_stored_update_steps,
            lambda cfg: max(oracles.update_bias(np.random.default_rng(5), 2)) > 1e-6,
        ),
        (
            _one_step_off_by_one_ulp,
            lambda cfg: not oracles.saga_matches(np.random.default_rng(5), 6, 20, 0.05),
        ),
        (_scale_gradients, _fd_flagged),
        (_perturb_a_cluster_record, lambda cfg: not oracles.reductions_hold(cfg)),
    ],
    ids=["bias", "saga", "finite_difference", "reductions"],
)
def test_oracles_flag_a_planted_fault(small_config, monkeypatch, plant, flagged):
    # Each oracle has one copy, shared by verify and the acceptance suite:
    # one that went vacuous would pass in both.
    cfg = small_config(noise_sigma=0.3, T=10)
    assert not flagged(cfg)
    plant(monkeypatch)
    assert flagged(cfg)
