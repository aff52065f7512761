"""A stack of R replicates on a leading axis has each replicate's bits.

The kernels take only stacks: a Federation's (R, N, d) minimizers, (R, d)
iterates, (R, M) participants and (R, M, d) blocks. Every stacked call
must give each replicate the bytes of its own stack of one, and a sweep
that stacks its points must write each point's artifacts exactly as a
solo run of that point does.
"""
import gc
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import make_federation, sweep_points
from fedvarp_sim import artifacts, harness
from fedvarp_sim.aggregators import ServerAggregatorState, aggregator_step, init_state
from fedvarp_sim.artifacts import RUN_ARTIFACTS
from fedvarp_sim.config import sweep_point
from fedvarp_sim.core import ALGORITHMS, CLUSTERFEDVARP, ConfigError, DimensionError, DivergenceError
from fedvarp_sim.localsgd import local_sgd
from fedvarp_sim.objectives import Federation, block_assignment, federation_constants, global_grad_and_loss
from fedvarp_sim.harness import run
from fedvarp_sim.sweeps import sweep

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
            g_r, loss_r = global_grad_and_loss(make_federation(fed.mus[r : r + 1], fed.eigs), w[r : r + 1])
            assert g[r].tobytes() == g_r.tobytes(), (R, N, d, r)
            assert loss[r].tobytes() == loss_r.tobytes(), (R, N, d, r)


@pytest.mark.parametrize("sigma", [0.0, 0.4])
@pytest.mark.parametrize("d", [1, 2, 8])
def test_stacked_local_sgd_equals_each_replicates_own(sigma, d):
    rng = np.random.default_rng(int(sigma * 10) + d)
    R, N, M, tau = 4, 12, 5, 3
    fed = stacked_federation(rng, R, N, d, sigma)
    ids = participant_sets(rng, R, N, M)
    w = rng.normal(size=(R, d))
    keys = rng.integers(0, 2**63, size=(R, M, 2), dtype=np.uint64) if sigma else None
    block, _ = local_sgd(fed, ids, w, tau, 0.05, keys)
    assert block.shape == (R, M, d)
    for r in range(R):
        own_fed = make_federation(fed.mus[r : r + 1], fed.eigs, sigma)
        own, _ = local_sgd(own_fed, ids[r : r + 1], w[r : r + 1], tau, 0.05, None if keys is None else keys[r : r + 1])
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
    alone = [init_state(algo, np.zeros((1, d)), N, K, assignment) for _ in range(R)]
    for t in range(6):
        ids = participant_sets(rng, R, N, M)
        block = rng.normal(size=(R, M, d)) * 10.0 ** rng.integers(-5, 5, size=(R, M, 1))
        block[rng.random((R, M)) < 0.2] = -0.0
        aggregator_step(stacked, ids, block, 0.3)
        for r, state in enumerate(alone):
            aggregator_step(state, ids[r : r + 1], block[r : r + 1], 0.3)
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
    assert fed.mus.shape == (3, 4, 2) and fed.d == 2
    one = make_federation(fed.mus[1:2], fed.eigs, fed.noise_sigma)
    assert one.noise_sigma == 0.5 and np.shares_memory(one.mus, fed.mus)
    for mus in (np.zeros((4, 2)), np.zeros((1, 1, 4, 2))):
        with pytest.raises(ConfigError, match="mus must be"):
            Federation(eigs=np.ones(2), mus=mus)


def test_measured_rows_hold_the_bits_of_one_dot_per_model():
    # _measure takes the squared norms of a batch with np.vecdot; a run's
    # metrics held np.dot's bits of each model's vectors before batches.
    rng = np.random.default_rng(9)
    for d in (1, 2, 7, 100, 2000):
        fed = make_federation(rng.normal(size=(2, 30, d)), rng.uniform(0.2, 1.7, size=d))
        w, w_star = rng.normal(size=(2, 3, d)), rng.normal(size=(2, d))
        rows = harness._measure(fed, w, w_star)
        g, loss = global_grad_and_loss(fed, w)
        for r, c in np.ndindex(2, 3):
            diff = w[r, c] - w_star[r]
            assert rows[r, c].tolist() == [np.dot(g[r, c], g[r, c]), loss[r, c], np.dot(diff, diff)], (d, r, c)


def test_lone_shapes_are_refused():
    # A lone model, participant set or server state is a shape error, not a stack of one.
    fed = make_federation(np.zeros((1, 4, 3)), np.ones(3))
    with pytest.raises(DimensionError, match="model shape"):
        global_grad_and_loss(fed, np.zeros(3))
    with pytest.raises(DimensionError, match="model shape"):
        local_sgd(fed, [0, 1], np.zeros(3), 1, 0.1)
    with pytest.raises(DimensionError, match="participants"):
        local_sgd(fed, [0, 1], np.zeros((1, 3)), 1, 0.1)
    with pytest.raises(DimensionError, match="w0"):
        init_state("mifa", np.zeros(3), N=4)
    with pytest.raises(DimensionError, match="stack"):
        aggregator_step(ServerAggregatorState("fedavg", w=np.zeros(3), N=4), [0, 1], np.zeros((2, 3)), 0.1)
    with pytest.raises(DimensionError, match="update block"):
        aggregator_step(init_state("fedavg", np.zeros((1, 3)), N=4), [[0, 1]], np.zeros((2, 3)), 0.1)


# ---------------------------------------------------------------------------
# Sweeps run as stacks


def point_artifacts(cfg) -> dict:
    out = Path(cfg.output_dir)
    return {name: (out / name).read_bytes() for name in RUN_ARTIFACTS}


def assert_points_equal_solo_runs(base, values):
    """Every point of a sigma_g_scale sweep writes what its solo run writes."""
    result = sweep(base, "sigma_g_scale", values)
    cfgs = sweep_points(base, values)
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


def test_diverging_points_end_as_their_solo_runs_do(small_config, tmp_path):
    # Spreads scaled by s put the minimizers near s. With these rates a
    # round-0 local iterate is about 1e300 s and the next server iterate
    # about 1e400 s, so s = 1e10 diverges in local SGD, s = 1 at the
    # server step, s = 1e-200 in the metrics (|w| ~ 1e200) and s = 1e-260
    # in local SGD of round 1; s = 0 never moves and completes.
    base = small_config(eta_c=1e150, eta_s=1e100, tau=2, T=4, output_dir=tmp_path / "sw")
    values = [1e10, 1.0, 1e-200, 1e-260, 0.0]
    solo = {}
    for v, cfg in zip(values, sweep_points(base, values)):
        try:
            run(cfg, write_artifacts=False)
            solo[v] = (None, None)
        except DivergenceError as exc:
            solo[v] = (exc.round, exc.step)
    assert solo[1e10][0] == 0 and solo[1e10][1] is not None
    assert solo[1.0] == (0, None) and solo[1e-200] == (0, None)
    assert solo[1e-260][0] == 1 and solo[1e-260][1] is not None
    assert solo[0.0] == (None, None)

    outcomes = harness.run_many(sweep_points(base, values), write_artifacts=False)
    for v, out in zip(values, outcomes):
        if solo[v] == (None, None):
            assert out.completed
        else:
            assert (out.round, out.step) == solo[v], v
            assert out.result.aborted_round == out.round
    result = assert_points_equal_solo_runs(base, values)
    assert [res.completed for res in result.results] == [False, False, False, False, True]


def test_run_many_returns_each_configs_solo_outcome_in_order(small_config, tmp_path):
    # Two stack keys, interleaved: the eta_s = 1e200 configs diverge in
    # round 0's server step, the others complete.
    cfgs = [
        small_config(algo="fedvarp", noise_sigma=0.3, eta_s=eta_s, T=9, seed=seed, output_dir=tmp_path / f"{i}")
        for i, (eta_s, seed) in enumerate([(1.0, 1), (1e200, 2), (1.0, 3), (1e200, 4), (1.0, 5)])
    ]
    assert len(harness._stack_points(cfgs)) == 2
    outcomes = harness.run_many(cfgs)
    assert [isinstance(out, DivergenceError) for out in outcomes] == [False, True, False, True, False]
    many = [point_artifacts(cfg) for cfg in cfgs]
    for cfg, out, artifacts in zip(cfgs, outcomes, many):
        try:
            solo = run(cfg)
        except DivergenceError as exc:
            assert (out.round, out.step) == (exc.round, exc.step) == (0, None)
            out, solo = out.result, exc.result
        assert out.rounds.tolist() == solo.rounds.tolist() and out.metrics.tolist() == solo.metrics.tolist()
        assert out.output_dir == solo.output_dir
        assert point_artifacts(cfg) == artifacts, cfg.output_dir


def test_a_sweep_makes_its_directories_in_one_call(small_config, tmp_path, monkeypatch):
    calls = []
    make_output_dirs = harness.artifacts.make_output_dirs

    def recording(dirs):
        calls.append([str(path) for path in dirs])
        make_output_dirs(dirs)

    monkeypatch.setattr(harness.artifacts, "make_output_dirs", recording)
    for axis, values in (("sigma_g_scale", [0.5, 1.0, 2.0]), ("eta_c", [0.01, 0.02])):
        calls.clear()
        base = small_config(T=3, output_dir=tmp_path / axis)
        sweep(base, axis, values)
        points = [sweep_point(base, axis, v, i)[0].output_dir for i, v in enumerate(values)]
        assert calls == [[base.output_dir, *points]]


def count_calls(monkeypatch, *names):
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(harness, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(harness, name, counting)
    return calls


def test_a_scale_sweep_steps_all_points_in_one_call_per_round_and_measures_them_in_one_batch(
    small_config, tmp_path, monkeypatch
):
    calls = count_calls(monkeypatch, "local_sgd", "aggregator_step", "global_grad_and_loss")
    base = small_config(algo="fedvarp", T=7, log_every=1, output_dir=tmp_path / "sw")
    sweep(base, "sigma_g_scale", [0.5, 1.0, 2.0])
    # The metrics of round 0 are measured in one call, as the stack is built,
    # and a batch of max(1, ROW_BLOCK_BYTES // (8 R N d)) = 227 logged rounds
    # holds rounds 1 to 7.
    assert calls == {"local_sgd": 7, "aggregator_step": 7, "global_grad_and_loss": 1 + 1}


def test_other_axes_run_point_by_point(small_config, tmp_path, monkeypatch):
    calls = count_calls(monkeypatch, "local_sgd", "aggregator_step")
    base = small_config(T=7, output_dir=tmp_path / "sw")
    sweep(base, "eta_c", [0.01, 0.02, 0.03])
    assert calls == {"local_sgd": 21, "aggregator_step": 21}


def test_a_stack_whose_points_all_diverge_runs_no_round_after_the_latest_stop(small_config, tmp_path, monkeypatch):
    # The diverging points of test_diverging_points_end_as_their_solo_runs_do, over 20 rounds.
    base = small_config(eta_c=1e150, eta_s=1e100, tau=2, T=20, output_dir=tmp_path / "sw")
    calls = count_calls(monkeypatch, "local_sgd")
    outcomes = harness.run_many(sweep_points(base, [1e10, 1.0, 1e-200, 1e-260]), write_artifacts=False)
    assert [(out.round, out.kind) for out in outcomes] == [
        (0, "local step"), (0, "server step"), (0, "metrics"), (1, "local step")
    ]
    assert calls == {"local_sgd": 2}  # rounds 0 and 1


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
    assert harness._stack_points(sweep_points(base, values)) == [[0, 1], [2, 3], [4]]
    assert_points_equal_solo_runs(base, values)
    assert calls["local_sgd"] == 3 * 6 + 5 * 6  # the sweep's three stacks, then five solo runs


def test_a_stack_holds_one_copy_of_its_federations(small_config, tmp_path, monkeypatch):
    seen = []
    run_stack = harness.run_stack

    def recording(cfgs, fed, realized, *rest):
        seen.append((fed, [point_fed for point_fed, _, _ in realized]))
        return run_stack(cfgs, fed, realized, *rest)

    monkeypatch.setattr(harness, "run_stack", recording)
    sweep(small_config(T=3, output_dir=tmp_path / "sw"), "sigma_g_scale", [0.5, 1.0, 2.0])
    [(fed, point_feds)] = seen
    assert fed.mus.shape == (3, 8, 3)
    for r, point_fed in enumerate(point_feds):
        assert point_fed.mus.base is fed.mus and np.shares_memory(point_fed.mus, fed.mus[r])


def test_stacks_of_one_federation_share_one_copy(small_config, tmp_path, monkeypatch):
    # An eta_c sweep runs each point as a stack of one, all of one federation.
    seen = []
    run_stack = harness.run_stack

    def recording(cfgs, fed, *rest):
        seen.append(fed)
        return run_stack(cfgs, fed, *rest)

    monkeypatch.setattr(harness, "run_stack", recording)
    sweep(small_config(T=3, output_dir=tmp_path / "sw"), "eta_c", [0.01, 0.02, 0.03])
    assert len(seen) == 3 and seen[0].mus.shape == (1, 8, 3)
    assert all(fed.mus is seen[0].mus for fed in seen)


def test_a_lone_run_runs_its_generated_stack(small_config, monkeypatch):
    generated, seen = [], []
    generate_federation, run_stack = harness.generate_federation, harness.run_stack

    def generating(fed_cfgs):
        fed, consts = generate_federation(fed_cfgs)
        generated.append(fed.mus)
        return fed, consts

    def recording(cfgs, fed, *rest):
        seen.append(fed)
        return run_stack(cfgs, fed, *rest)

    monkeypatch.setattr(harness, "generate_federation", generating)
    monkeypatch.setattr(harness, "run_stack", recording)
    run(small_config(T=3), write_artifacts=False)
    [mus], [fed] = generated, seen
    assert fed.mus.shape == (1, 8, 3) and fed.mus is mus


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
    _, [(fed, consts, _)] = harness._realize((cfg.federation,))
    expected = federation_constants(fed, block_assignment(8, 4)).sigma_K_sq
    monkeypatch.setattr(artifacts, "federation_constants", None)  # a second constants call would fail
    manifest = artifacts.build_manifest(cfg, fed, consts, block_assignment(8, 4))
    assert manifest["constants"]["sigma_K_sq"] == expected
    assert json.dumps(manifest["constants"]) == json.dumps(run(cfg, write_artifacts=False).manifest["constants"])


def test_run_many_refuses_configs_that_share_an_output_dir(small_config, tmp_path, monkeypatch):
    calls = count_calls(monkeypatch, "generate_federation")
    for alias in ("a", "b/../a"):
        cfgs = [
            small_config(T=3, seed=seed, output_dir=tmp_path / out) for seed, out in ((1, "a"), (2, "b"), (3, alias))
        ]
        with pytest.raises(ConfigError, match="share the output_dir") as err:
            harness.run_many(cfgs)
        assert err.value.point == 2 and str(cfgs[2].output_dir) in str(err.value)
        assert calls == {"generate_federation": 0} and not any(tmp_path.iterdir())
    # Without artifacts nothing is written, so the configs may share a directory.
    assert all(out.completed for out in harness.run_many(cfgs, write_artifacts=False))


# ---------------------------------------------------------------------------
# Realized federations kept across run_many calls


def kept_federations() -> set:
    return {fed_cfg for feds in harness._kept for fed_cfg in feds}


def cold_artifacts(cfg) -> dict:
    """The artifacts of cfg's run made after dropping run_many's kept federations."""
    harness.run_many([])
    run(cfg)
    return point_artifacts(cfg)


@pytest.mark.parametrize("noise_sigma", [0.0, 0.3], ids=["noiseless", "noisy"])
def test_algorithms_sharing_a_federation_write_their_cold_runs_bytes(small_config, tmp_path, monkeypatch, noise_sigma):
    calls = count_calls(monkeypatch, "generate_federation")
    cases = [dict(algo="fedavg"), dict(algo="fedvarp"), dict(algo="clusterfedvarp", K=2), dict(algo="mifa")]
    cfgs = [
        small_config(**case, noise_sigma=noise_sigma, T=12, log_every=5, output_dir=tmp_path / case["algo"])
        for case in cases
    ]
    warm = []
    for cfg in cfgs:
        run(cfg)
        warm.append(point_artifacts(cfg))
    assert calls == {"generate_federation": 1}
    assert [cold_artifacts(cfg) for cfg in cfgs] == warm


def test_a_point_run_after_its_sweep_keeps_no_more_than_its_cold_run(small_config, tmp_path, monkeypatch):
    # The run drops the sweep's 4 x 400 x 250 stack (3.2 MB) and builds its own 0.8 MB federation.
    # The size probe's np.empty is freed untouched, so it costs no memory; it is left out of the trace.
    monkeypatch.setattr(harness, "_check_sizes", lambda cfg, replicates=1: None)
    base = small_config(N=400, d=250, K_true=8, M=5, T=2, output_dir=tmp_path / "sw")
    values = [0.5, 1.0, 2.0, 4.0]
    cfg = sweep_points(base, values)[1]
    traced = []
    tracemalloc.start()  # from before the sweep, so the stack it keeps counts
    try:
        sweep(base, "sigma_g_scale", values)
        swept = point_artifacts(cfg)
        for drop in (False, True):
            if drop:
                harness.run_many([])
            run(cfg)
            gc.collect()  # the json encoder's closures are cycles: count only what the runs keep
            traced.append(tracemalloc.get_traced_memory()[0])
            assert point_artifacts(cfg) == swept
    finally:
        tracemalloc.stop()
    warm, cold = traced
    assert kept_federations() == {cfg.federation}
    assert warm <= cold


def test_a_call_drops_the_federations_it_does_not_use_before_building(small_config, tmp_path, monkeypatch):
    built = []
    generate_federation = harness.generate_federation

    def generating(fed_cfgs):
        assert kept_federations() <= {cfg.federation for cfg in cfgs}
        built.append([fed_cfg.seed for fed_cfg in fed_cfgs])
        return generate_federation(fed_cfgs)

    monkeypatch.setattr(harness, "generate_federation", generating)
    cfgs = [small_config(T=3, federation_seed=seed, output_dir=tmp_path / str(seed)) for seed in (1, 2)]
    harness.run_many(cfgs)
    cfgs = [cfgs[1], small_config(T=3, federation_seed=3, output_dir=tmp_path / "3")]
    harness.run_many(cfgs)
    assert built == [[1, 2], [2, 3]]  # a stack's federations are built together, none taken from another stack
    assert kept_federations() == {cfg.federation for cfg in cfgs}
    harness.run_many([])
    assert not harness._kept


def test_the_kept_federations_are_read_only(small_config, tmp_path, monkeypatch):
    seen = []
    run_stack = harness.run_stack

    def recording(cfgs, fed, realized, *rest):
        seen.append((fed, realized))
        return run_stack(cfgs, fed, realized, *rest)

    monkeypatch.setattr(harness, "run_stack", recording)
    base = small_config(T=3, output_dir=tmp_path / "sw")
    run(base)
    sweep(base, "sigma_g_scale", [0.5, 1.0])
    for fed, realized in seen:
        arrays = [fed.mus, fed.eigs]
        for point_fed, consts, _ in realized:
            arrays += [point_fed.mus, point_fed.eigs, consts.w_star]
        assert not any(array.flags.writeable for array in arrays)
        with pytest.raises(ValueError, match="read-only"):
            fed.mus[0, 0, 0] = 1.0


def test_a_repeated_stacked_sweep_allocates_no_second_copy(small_config, tmp_path, monkeypatch):
    # 4 points of 400 x 250 minimizers: each federation is 0.8 MB, the stack's copy 3.2 MB.
    # The size probe's np.empty is freed untouched, so it costs no memory; it is left out of the trace.
    monkeypatch.setattr(harness, "_check_sizes", lambda cfg, replicates=1: None)
    seen = []
    run_stack = harness.run_stack

    def recording(cfgs, fed, *rest):
        seen.append(fed)
        return run_stack(cfgs, fed, *rest)

    monkeypatch.setattr(harness, "run_stack", recording)
    base = small_config(N=400, d=250, K_true=8, M=5, T=2, output_dir=tmp_path / "sw")
    peaks = []
    tracemalloc.start()  # from before the first call, so the copy a call keeps counts in the next
    try:
        for _ in range(2):
            tracemalloc.reset_peak()
            sweep(base, "sigma_g_scale", [0.5, 1.0, 2.0, 4.0], write_artifacts=False)
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    cold, warm = peaks
    assert seen[1] is seen[0] and seen[0].mus.shape == (4, 400, 250)
    # A second copy would add the stack's 3.2 MB; a call's own scratch stays far below half of that.
    assert warm - cold < seen[0].mus.nbytes / 2
