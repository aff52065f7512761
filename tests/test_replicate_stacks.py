"""A stack of R replicates on a leading axis has each replicate's bits.

The kernels take an optional replicate axis: a stacked Federation's
(R, N, d) minimizers, (R, d) iterates, (R, M) participants and (R, M, d)
blocks. Every stacked call must give each replicate the bytes of its own
call, and a sweep that stacks its points must write each point's
artifacts exactly as a solo run of that point does.
"""
import json
from pathlib import Path

import numpy as np
import pytest

from conftest import make_federation
from fedvarp_sim import harness
from fedvarp_sim.aggregators import aggregator_step, init_state
from fedvarp_sim.artifacts import RUN_ARTIFACTS
from fedvarp_sim.config import sweep_point_config
from fedvarp_sim.core import ALGORITHMS, CLUSTERFEDVARP, ConfigError, DivergenceError
from fedvarp_sim.localsgd import local_sgd
from fedvarp_sim.objectives import Federation, block_assignment, global_grad_and_loss
from fedvarp_sim.harness import run, sweep

# ---------------------------------------------------------------------------
# Kernels


def stacked_federation(rng, R, N, d, sigma=0.0):
    eigs = rng.uniform(0.2, 1.7, size=d)
    eigs[rng.random(d) < 0.3] = 0.0  # zero curvature: gradient components of ±0.0
    mus = rng.normal(size=(R, N, d)) * 10.0 ** rng.integers(-3, 4, size=(R, 1, 1))
    return make_federation(mus, eigs, sigma)


def participant_sets(rng, R, N, M):
    return np.array([np.sort(rng.choice(N, size=M, replace=False)) for _ in range(R)])


@pytest.mark.parametrize("d", [1, 2, 3, 8])
def test_stacked_metrics_equal_each_replicates_own(d):
    rng = np.random.default_rng(d)
    for R, N in ((1, 5), (3, 40), (4, 700)):
        fed = stacked_federation(rng, R, N, d)
        w = rng.normal(size=(R, d)) * 10.0 ** rng.integers(-3, 100, size=(R, 1))
        g, loss = global_grad_and_loss(fed, w)
        assert g.shape == (R, d) and loss.shape == (R,)
        for r in range(R):
            g_r, loss_r = global_grad_and_loss(fed.replicate(r), w[r])
            assert g[r].tobytes() == g_r.tobytes(), (R, N, d, r)
            assert loss[r].tobytes() == np.float64(loss_r).tobytes(), (R, N, d, r)


@pytest.mark.parametrize("sigma", [0.0, 0.4])
@pytest.mark.parametrize("d", [1, 2, 8])
def test_stacked_local_sgd_equals_each_replicates_own(sigma, d):
    rng = np.random.default_rng(int(sigma * 10) + d)
    R, N, M, tau = 4, 12, 5, 3
    fed = stacked_federation(rng, R, N, d, sigma)
    ids = participant_sets(rng, R, N, M)
    w = rng.normal(size=(R, d))
    keys = rng.integers(0, 2**63, size=(R, M, 2), dtype=np.uint64) if sigma else None
    block = local_sgd(fed, ids, w, tau, 0.05, keys)
    assert block.shape == (R, M, d)
    for r in range(R):
        own = local_sgd(fed.replicate(r), ids[r], w[r], tau, 0.05, None if keys is None else keys[r])
        assert block[r].tobytes() == own.tobytes(), r


def test_stacked_local_sgd_checks_its_shapes():
    fed = make_federation(np.zeros((2, 4, 3)), np.ones(3), 0.5)
    ids = np.array([[0, 1], [1, 2]])
    with pytest.raises(ConfigError, match="key block"):
        local_sgd(fed, ids, np.zeros((2, 3)), 1, 0.1, np.zeros((2, 2), dtype=np.uint64))
    with pytest.raises(ValueError, match="model shape"):
        local_sgd(fed, ids, np.zeros(3), 1, 0.1, np.zeros((2, 2, 2), dtype=np.uint64))
    with pytest.raises(ValueError, match="participants"):
        local_sgd(fed, ids[0], np.zeros((2, 3)), 1, 0.1, np.zeros((2, 2, 2), dtype=np.uint64))


@pytest.mark.parametrize("d", [1, 2, 8])
@pytest.mark.parametrize("algo, K", [(a, 3 if a == CLUSTERFEDVARP else None) for a in ALGORITHMS])
def test_stacked_server_steps_equal_each_replicates_own(algo, K, d):
    # Replicates sample different clusters, so their hit rows are ragged;
    # some blocks carry -0.0 rows, which a table must store as +0.0.
    rng = np.random.default_rng(d)
    R, N, M = 5, 10, 4
    assignment = block_assignment(N, K) if K else None
    stacked = init_state(algo, np.zeros((R, d)), N, K, assignment)
    alone = [init_state(algo, np.zeros(d), N, K, assignment) for _ in range(R)]
    for t in range(6):
        ids = participant_sets(rng, R, N, M)
        block = rng.normal(size=(R, M, d)) * 10.0 ** rng.integers(-5, 5, size=(R, M, 1))
        block[rng.random((R, M)) < 0.2] = -0.0
        aggregator_step(stacked, ids, block, 0.3)
        for r, state in enumerate(alone):
            aggregator_step(state, ids[r], block[r], 0.3)
            assert stacked.w[r].tobytes() == state.w.tobytes(), (algo, t, r)
            if state.table is not None:
                assert stacked.table[r].tobytes() == state.table.tobytes(), (algo, t, r)


def test_stacked_server_step_rejects_a_bad_row():
    state = init_state("fedavg", np.zeros((2, 3)), N=4)
    for ids in ([[0, 1], [2, 2]], [[0, 1], [3, 4]], [[0, 1]], [0, 1]):
        with pytest.raises(ConfigError, match="participants"):
            aggregator_step(state, np.array(ids), np.zeros((2, 2, 3)), 0.1)


def test_a_stacked_federation_shares_eigs_and_noise():
    fed = make_federation(np.zeros((3, 4, 2)), [1.0, 2.0], 0.5)
    assert fed.lead == (3,) and fed.d == 2
    one = fed.replicate(1)
    assert one.lead == () and one.noise_sigma == 0.5 and np.shares_memory(one.mus, fed.mus)
    with pytest.raises(ConfigError, match="mus must be"):
        Federation(eigs=np.ones(2), mus=np.zeros((1, 1, 4, 2)))


# ---------------------------------------------------------------------------
# Sweeps run as stacks


def point_artifacts(cfg) -> dict:
    out = Path(cfg.output_dir)
    return {name: (out / name).read_bytes() for name in RUN_ARTIFACTS}


def assert_points_equal_solo_runs(base, values):
    """Every point of a sigma_g_scale sweep writes what its solo run writes."""
    result = sweep(base, "sigma_g_scale", values)
    cfgs = [sweep_point_config(base, "sigma_g_scale", v, i) for i, v in enumerate(values)]
    swept = [point_artifacts(cfg) for cfg in cfgs]
    for cfg, artifacts in zip(cfgs, swept):
        try:
            run(cfg)
        except DivergenceError:
            pass
        assert point_artifacts(cfg) == artifacts, cfg.output_dir
    return result


ALGO_CASES = {
    "fedavg": dict(algo="fedavg"),
    "fedvarp": dict(algo="fedvarp"),
    "cluster_K_divides_N": dict(algo="clusterfedvarp", K=2),
    "cluster_K_not_dividing_N": dict(algo="clusterfedvarp", K=3),
    "mifa_cold_start": dict(algo="mifa", mifa_mode="cold_start"),
    "mifa_full_first_round": dict(algo="mifa", mifa_mode="full_first_round"),
}


@pytest.mark.parametrize("d", [1, 2, 8])
@pytest.mark.parametrize("noise_sigma", [0.0, 0.3], ids=["noiseless", "noisy"])
@pytest.mark.parametrize("case", ALGO_CASES)
def test_stacked_sweep_points_write_their_solo_runs_bytes(small_config, tmp_path, case, noise_sigma, d):
    base = small_config(
        **ALGO_CASES[case], d=d, noise_sigma=noise_sigma, T=12, log_every=5, output_dir=tmp_path / "sw"
    )
    result = assert_points_equal_solo_runs(base, [0.5, 1.0, 2.0])
    assert all(res.completed for res in result.results)


def test_diverging_points_leave_the_stack_as_their_solo_runs_do(small_config, tmp_path):
    # Spreads scaled by s put the minimizers near s. With these rates a
    # round-0 local iterate is about 1e300 s and the next server iterate
    # about 1e400 s, so s = 1e10 diverges in local SGD, s = 1 at the
    # server step, s = 1e-200 in the metrics (|w| ~ 1e200) and s = 1e-260
    # in local SGD of round 1; s = 0 never moves and completes.
    base = small_config(eta_c=1e150, eta_s=1e100, tau=2, T=4, output_dir=tmp_path / "sw")
    values = [1e10, 1.0, 1e-200, 1e-260, 0.0]
    solo = {}
    for i, v in enumerate(values):
        try:
            run(sweep_point_config(base, "sigma_g_scale", v, i), write_artifacts=False)
            solo[v] = (None, None)
        except DivergenceError as exc:
            solo[v] = (exc.round, exc.step)
    assert solo[1e10][0] == 0 and solo[1e10][1] is not None
    assert solo[1.0] == (0, None) and solo[1e-200] == (0, None)
    assert solo[1e-260][0] == 1 and solo[1e-260][1] is not None
    assert solo[0.0] == (None, None)

    outcomes = harness.run_stack(*stack_of(base, values), write_artifacts=False)
    for v, out in zip(values, outcomes):
        if solo[v] == (None, None):
            assert out.completed
        else:
            assert (out.round, out.step) == solo[v], v
            assert out.result.aborted_round == out.round
    result = assert_points_equal_solo_runs(base, values)
    assert [res.completed for res in result.results] == [False, False, False, False, True]


def stack_of(base, values):
    """The run_stack arguments of a sigma_g_scale sweep's points, built as sweep builds them."""
    cfgs = [sweep_point_config(base, "sigma_g_scale", v, i) for i, v in enumerate(values)]
    realized = [harness._realize(cfg) for cfg in cfgs]
    mus = np.array([fed.mus for fed, _, _ in realized])
    return cfgs, Federation(realized[0][0].eigs, mus, realized[0][0].noise_sigma), realized


def count_calls(monkeypatch, *names):
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(harness, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(harness, name, counting)
    return calls


def test_a_scale_sweep_makes_one_call_per_round_for_all_points(small_config, tmp_path, monkeypatch):
    calls = count_calls(monkeypatch, "local_sgd", "aggregator_step", "global_grad_and_loss")
    base = small_config(algo="fedvarp", T=7, log_every=1, output_dir=tmp_path / "sw")
    sweep(base, "sigma_g_scale", [0.5, 1.0, 2.0])
    # The metrics of round 0 are measured point by point, before the stack runs.
    assert calls == {"local_sgd": 7, "aggregator_step": 7, "global_grad_and_loss": 3 + 7}


def test_other_axes_run_point_by_point(small_config, tmp_path, monkeypatch):
    calls = count_calls(monkeypatch, "local_sgd", "aggregator_step")
    base = small_config(T=7, output_dir=tmp_path / "sw")
    sweep(base, "eta_c", [0.01, 0.02, 0.03])
    assert calls == {"local_sgd": 21, "aggregator_step": 21}


def test_a_stack_grows_only_while_its_sizes_fit(small_config, tmp_path, monkeypatch):
    check_sizes = harness._check_sizes

    def at_most_two(cfg, replicates=1):
        if replicates > 2:
            raise ConfigError("too large")
        check_sizes(cfg, replicates)

    monkeypatch.setattr(harness, "_check_sizes", at_most_two)
    calls = count_calls(monkeypatch, "local_sgd")
    base = small_config(noise_sigma=0.3, T=6, output_dir=tmp_path / "sw")
    values = [0.5, 1.0, 2.0, 3.0, 4.0]
    assert harness._stack_points([sweep_point_config(base, "sigma_g_scale", v, i) for i, v in enumerate(values)]) == [
        [0, 1],
        [2, 3],
        [4],
    ]
    assert_points_equal_solo_runs(base, values)
    assert calls["local_sgd"] == 3 * 6 + 5 * 6  # the sweep's three stacks, then five solo runs


def test_a_stack_holds_one_copy_of_its_federations(small_config, tmp_path, monkeypatch):
    seen = []
    run_stack = harness.run_stack

    def recording(cfgs, fed, realized, write_artifacts=True):
        seen.append((fed, [point_fed for point_fed, _, _ in realized]))
        return run_stack(cfgs, fed, realized, write_artifacts)

    monkeypatch.setattr(harness, "run_stack", recording)
    sweep(small_config(T=3, output_dir=tmp_path / "sw"), "sigma_g_scale", [0.5, 1.0, 2.0])
    [(fed, point_feds)] = seen
    assert fed.mus.shape == (3, 8, 3)
    for r, point_fed in enumerate(point_feds):
        assert point_fed.mus.base is fed.mus and np.shares_memory(point_fed.mus, fed.mus[r])


def test_summary_values_are_the_values_the_points_hold(small_config, tmp_path):
    # "FedAvg" and "fedavg" run the same point, so the two summaries are one file.
    summaries = []
    for name, values in (("mixed", ["FedAvg", "fedvarp"]), ("lower", ["fedavg", "fedvarp"])):
        result = sweep(small_config(T=5, output_dir=tmp_path / name), "algo", values)
        summaries.append(result.summary_path.read_bytes())
    assert summaries[0] == summaries[1]
    assert summaries[0].decode().splitlines()[1].startswith("algo,fedavg,")


def test_manifest_reuses_the_generators_cluster_heterogeneity(small_config, monkeypatch):
    cfg = small_config(algo="clusterfedvarp", K=4, K_true=4, T=0)
    fed, consts, _ = harness._realize(cfg)
    expected = harness.cluster_heterogeneity(fed, block_assignment(8, 4))
    monkeypatch.setattr(harness, "cluster_heterogeneity", None)  # a call would fail
    manifest = harness.build_manifest(cfg, fed, consts, block_assignment(8, 4))
    assert manifest["constants"]["sigma_K_sq"] == expected
    assert json.dumps(manifest["constants"]) == json.dumps(run(cfg, write_artifacts=False).manifest["constants"])
