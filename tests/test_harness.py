import itertools
import json
import re
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from conftest import run_config, substream_keys, sweep_points
from fedvarp_sim.aggregators import aggregator_step, init_state
from fedvarp_sim import aggregators, artifacts, harness, oracles
from fedvarp_sim.config import (
    apply_overrides,
    derive_sweep_seed,
    load_config,
    parse_config,
    sweep_point,
)
from fedvarp_sim.core import ALGORITHMS, CLUSTERFEDVARP, FEDAVG, FEDVARP, ConfigError, DivergenceError
from fedvarp_sim.harness import run
from fedvarp_sim.sweeps import floor_estimate, sweep
from fedvarp_sim.objectives import Federation, block_assignment, federation_constants, generate_federation
from fedvarp_sim.localsgd import local_sgd
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


@pytest.mark.parametrize(
    "raw,message",
    [([1, 2], "config root must be a JSON object"), ({"hyper": 5}, "config section 'hyper' must be a JSON object")],
    ids=["root", "section"],
)
def test_a_config_part_that_is_not_an_object_is_rejected(tmp_path, raw, message):
    if isinstance(raw, dict):
        raw = {**raw_config(tmp_path), **raw}
    with pytest.raises(ConfigError, match=message):
        parse_config(raw)


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


def test_an_override_of_a_known_key_needs_its_section_in_the_file(tmp_path):
    message = "runs through a config part that is missing or not a JSON object"
    for raw, dotted in (
        ({**raw_config(tmp_path), "hyper": 5}, "hyper.M"),
        ({key: value for key, value in raw_config(tmp_path).items() if key != "algo"}, "algo.K"),
        ([1, 2], "seed"),
    ):
        with pytest.raises(ConfigError, match=f"override '{dotted}' {message}"):
            apply_overrides(raw, [f"{dotted}=3"])


def test_output_dirs_check_each_parent_once_and_stop_at_an_existing_one(tmp_path, monkeypatch):
    checked = []
    is_dir = Path.is_dir

    def recording(self, *args, **kwargs):
        checked.append(self)
        return is_dir(self, *args, **kwargs)

    monkeypatch.setattr(Path, "is_dir", recording)
    base = tmp_path / "new" / ".." / "sweep"  # "new/.." exists only once "new" is made
    dirs = {base: (artifacts.SUMMARY_FILE,), **{base / f"point{i}": artifacts.RUN_ARTIFACTS for i in range(3)}}
    artifacts.make_output_dirs(dirs)
    assert all((tmp_path / "sweep" / f"point{i}").is_dir() for i in range(3))
    parents = [q for q in checked if q.name not in (artifacts.SUMMARY_FILE, *artifacts.RUN_ARTIFACTS)]
    assert tmp_path.parent not in parents  # tmp_path exists, so nothing above it is checked
    # An existing directory is checked once; a missing one again just before it is made.
    assert parents.count(tmp_path) == 1 and parents.count(base) == 2


# ---------------------------------------------------------------------------
# Running


def logged(result):
    """A RunResult's logged round indices and metrics rows, as lists."""
    return result.rounds.tolist(), result.metrics.tolist()


def test_empty_run_logs_initial_point(small_config):
    result = run(small_config(T=0))
    assert result.rounds.tolist() == [0]
    assert result.metrics.shape == (1, 3)
    assert (result.output_dir / "manifest.json").exists()


def test_records_rounds_strictly_increase(small_config):
    result = run(small_config(T=12, log_every=5))
    assert result.rounds.tolist() == [0, 5, 10, 12]


@pytest.mark.parametrize("log_every", [2**63, 2**64])
def test_a_log_every_past_int64_logs_rounds_zero_and_T(small_config, tmp_path, log_every):
    run(small_config(T=7, log_every=7, output_dir=tmp_path / "T"))
    result = run(small_config(T=7, log_every=log_every, output_dir=tmp_path / "big"))
    assert result.rounds.tolist() == [0, 7]
    assert (tmp_path / "big" / "metrics.csv").read_bytes() == (tmp_path / "T" / "metrics.csv").read_bytes()


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
        grads = result.metrics[:, 0].tolist()
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
    """Wrap harness.local_sgd; collect the (participants, keys, steps) of every call."""
    calls = []
    original = harness.local_sgd

    def recording(fed, participants, w, tau, eta_c, keys=None):
        block, steps = original(fed, participants, w, tau, eta_c, keys)
        calls.append((np.array(participants), None if keys is None else np.array(keys), steps))
        return block, steps

    monkeypatch.setattr(harness, "local_sgd", recording)
    return calls


def test_a_replicates_local_step_is_that_of_its_lowest_diverging_row(small_config, tmp_path, monkeypatch):
    # Trained one after another in row order, row 0 of replicate 0 would be
    # the first to overflow, at its own later step. The overflowed rows make
    # the round's server step non-finite too, and the local step wins.
    original = harness.local_sgd

    def diverging(*args):
        block, _ = original(*args)
        steps = np.array([[5, 2, -1], [-1, -1, 3]])
        block[steps >= 0] = np.inf
        return block, steps

    monkeypatch.setattr(harness, "local_sgd", diverging)
    cfgs = [small_config(T=4, seed=seed, output_dir=tmp_path / str(seed)) for seed in (1, 2)]
    assert len(harness._stack_points(cfgs)) == 1
    outcomes = harness.run_many(cfgs, write_artifacts=False)
    assert [(out.round, out.step, out.kind) for out in outcomes] == [(0, 5, "local step"), (0, 3, "local step")]


def test_noiseless_run_builds_no_local_streams(small_config, monkeypatch):
    calls = _record_local_calls(monkeypatch)
    for algo in ALGORITHMS:
        K = 2 if algo == CLUSTERFEDVARP else None
        run(small_config(algo=algo, K=K, noise_sigma=0.0, T=12), write_artifacts=False)
    assert len(calls) == 4 * 12
    assert all(keys is None for _, keys, _ in calls)


def _record_sampling(monkeypatch):
    """Wrap harness.sample_participants; collect (N, M, rounds) of every call."""
    calls = []
    original = harness.sample_participants

    def recording(seeds, N, M, rounds):
        calls.append((N, M, len(rounds)))
        return original(seeds, N, M, rounds)

    monkeypatch.setattr(harness, "sample_participants", recording)
    return calls


def _assert_round_streams(cfg, calls):
    """Round t, a stack of one, sampled its round_size(t) ids from substream(seed, TAG_SAMPLING, t)'s
    key and passed one key per participant i, substream(seed, TAG_LOCAL, t, i)'s."""
    N = cfg.federation.N
    assert len(calls) == cfg.hyper.T
    for t, (ids, keys, _) in enumerate(calls):
        M = cfg.round_size(t)
        assert ids.shape == (1, M)
        assert ids[0].tolist() == sample_round(N, M, substream(cfg.seed, TAG_SAMPLING, t)).tolist()
        assert keys.shape == (1, M, 2) and keys.dtype == np.uint64
        assert keys[0].tobytes() == substream_keys(cfg.seed, TAG_LOCAL, t, ids=ids[0]).tobytes()


def test_noisy_run_builds_and_draws_one_stream_per_participant_round(small_config, monkeypatch):
    calls = _record_local_calls(monkeypatch)
    cfg = small_config(noise_sigma=0.3, T=12, M=3)
    run(cfg, write_artifacts=False)
    _assert_round_streams(cfg, calls)


def test_round_keys_derived_in_chunks_key_every_round(small_config, monkeypatch):
    # Chunks of 15 ids at M = 3 split 12 rounds as 5, 5 and 2.
    monkeypatch.setattr(harness, "ROUND_KEY_CHUNK", 15)
    sampled = _record_sampling(monkeypatch)
    calls = _record_local_calls(monkeypatch)
    cfg = small_config(noise_sigma=0.3, T=12, M=3)
    run(cfg, write_artifacts=False)
    assert sampled == [(8, 3, 5), (8, 3, 5), (8, 3, 2)]
    _assert_round_streams(cfg, calls)


def test_a_run_over_several_chunks_samples_each_chunk_once(small_config, monkeypatch):
    sampled = _record_sampling(monkeypatch)
    calls = _record_local_calls(monkeypatch)
    per_chunk = harness.ROUND_KEY_CHUNK // 3
    cfg = small_config(noise_sigma=0.3, T=3 * per_chunk + 1, M=3)
    run(cfg, write_artifacts=False)
    assert sampled == [(8, 3, per_chunk)] * 3 + [(8, 3, 1)]
    _assert_round_streams(cfg, calls)


def test_a_full_first_round_is_a_chunk_of_its_own(small_config, monkeypatch):
    # Chunks of 16 ids: 5 rounds of M = 3, or 2 full rounds of N = 8.
    monkeypatch.setattr(harness, "ROUND_KEY_CHUNK", 16)
    sampled = _record_sampling(monkeypatch)
    calls = _record_local_calls(monkeypatch)
    cfg = small_config(algo="mifa", mifa_mode="full_first_round", noise_sigma=0.3, T=12, M=3)
    run(cfg, write_artifacts=False)
    assert sampled == [(8, 8, 1), (8, 3, 5), (8, 3, 5), (8, 3, 1)]
    _assert_round_streams(cfg, calls)


def test_a_point_diverging_inside_a_chunk_leaves_the_others_their_participants(
    small_config, tmp_path, monkeypatch
):
    # Chunks of 4 rounds and batches of 5 logged rounds. At eta_c = 4 a
    # local step can triple the iterate, so the minimizers scaled by
    # 1e150 overflow the metrics in round 5, inside the second chunk and
    # batch, and the others stay finite. The point keeps its row in the
    # stack to the last round, and its rows after round 5 are discarded.
    monkeypatch.setattr(harness, "ROUND_KEY_CHUNK", 12)
    monkeypatch.setattr(harness, "ROW_BLOCK_BYTES", 5 * 8 * 3 * 8 * 3)  # 5 * 8 R N d
    base = small_config(
        algo="fedvarp", noise_sigma=0.3, eta_c=4.0, T=12, M=3, output_dir=tmp_path / "sw"
    )
    values = [1.0, 1e150, 2.0]
    cfgs = sweep_points(base, values)
    calls = _record_local_calls(monkeypatch)
    result = sweep(base, "sigma_g_scale", values)
    stacked = list(calls)
    ok, boom, ok2 = result.results
    assert ok.completed and ok2.completed and not boom.completed
    t0 = boom.aborted_round
    assert t0 % 4 != 0 and t0 < base.hyper.T - 1 and len(stacked) == base.hyper.T

    # Row k of every round's stacked call is point k's, the diverged point's included.
    for k, cfg in enumerate(cfgs):
        assert all(ids.shape == (3, 3) for ids, _, _ in stacked)
        _assert_round_streams(cfg, [(ids[k : k + 1], keys[k : k + 1], None) for ids, keys, _ in stacked])

    for cfg in cfgs:
        out = Path(cfg.output_dir)
        swept = {name: (out / name).read_bytes() for name in artifacts.RUN_ARTIFACTS}
        try:
            run(cfg)
        except DivergenceError as exc:
            assert exc.round == t0
        assert {name: (out / name).read_bytes() for name in artifacts.RUN_ARTIFACTS} == swept


def test_a_diverged_point_keeps_its_row_in_the_stack_to_the_last_round(small_config, monkeypatch):
    # The middle point's metrics overflow in round 5 (its spreads are scaled by 1e150), and its local
    # step in a later round; the stack still trains three rows in each of its 200 rounds.
    calls = _record_local_calls(monkeypatch)
    base = small_config(algo="fedvarp", noise_sigma=0.3, eta_c=4.0, M=3, T=200)
    outcomes = harness.run_many(sweep_points(base, [1.0, 1e150, 2.0]), write_artifacts=False)
    assert (outcomes[1].round, outcomes[1].kind) == (5, "metrics")
    assert [ids.shape[0] for ids, _, _ in calls] == [3] * 200
    first = next(t for t, (_, _, steps) in enumerate(calls) if (steps >= 0).any())
    assert first > 5 and (calls[first][2] >= 0).any(axis=1).tolist() == [False, True, False]


def _outcomes(cfgs):
    """Each config's (type, round, step, kind, logged rows, artifact bytes) from one run_many call."""
    outs = []
    for cfg, out in zip(cfgs, harness.run_many(cfgs)):
        res = out.result if isinstance(out, DivergenceError) else out
        files = {name: (Path(cfg.output_dir) / name).read_bytes() for name in artifacts.RUN_ARTIFACTS}
        stop = tuple(getattr(out, name, None) for name in ("round", "step", "kind"))
        outs.append((type(out), *stop, logged(res), files))
    return outs


@pytest.mark.parametrize(
    "eta_c, noise_sigma, values, T, boom",
    [
        # The metrics overflow in round 5, inside a batch of 12 rounds; the model stays finite.
        (4.0, 0.3, [1.0, 1e150, 2.0], 12, (5, None, "metrics")),
        # Its local step overflows near round 166, inside the same batch of 200 rounds.
        (4.0, 0.3, [1.0, 1e150, 2.0], 200, (5, None, "metrics")),
        # A local step and the metrics overflow in round 1, after finite metrics in round 0.
        (1e80, 0.0, [1e-200, 1e-10, 1e-190], 2, (1, 1, "local step")),
    ],
    ids=["metrics", "metrics_then_local_step", "local_step_and_metrics"],
)
def test_a_point_diverging_inside_a_batch_ends_as_round_by_round(
    small_config, tmp_path, monkeypatch, eta_c, noise_sigma, values, T, boom
):
    base = small_config(algo="fedvarp", noise_sigma=noise_sigma, eta_c=eta_c, T=T, M=3, output_dir=tmp_path / "sw")
    cfgs = sweep_points(base, values)
    batched = _outcomes(cfgs)
    assert harness.ROW_BLOCK_BYTES // (8 * 3 * 8 * 3) >= T  # one batch holds every logged round
    assert batched[1][1:4] == boom
    monkeypatch.setattr(harness, "ROW_BLOCK_BYTES", 1)  # a batch of one round: measured every round
    assert _outcomes(cfgs) == batched


# ---------------------------------------------------------------------------
# Whole runs against the reference simulator


def _edge_federations(monkeypatch):
    """Give every federation harness builds edge-value minimizers keyed by its seed; return the reference's mus_of."""
    generate = harness.generate_federation

    def edge_mus(fed_cfg):
        return reference.edge_rows(np.random.default_rng(fed_cfg.seed), fed_cfg.N, fed_cfg.d)

    def generating(fed_cfgs):
        fed, _ = generate(fed_cfgs)
        for mus, fed_cfg in zip(fed.mus, fed_cfgs):
            mus[...] = edge_mus(fed_cfg)
        assignments = [block_assignment(c.N, c.K_true) for c in fed_cfgs]
        return fed, [federation_constants(replace(fed, mus=fed.mus[r : r + 1]), a) for r, a in enumerate(assignments)]

    monkeypatch.setattr(harness, "generate_federation", generating)
    return edge_mus


def assert_runs_match_the_reference(cfgs, chunk=harness.ROUND_KEY_CHUNK, batch=None, edge=False):
    """Each outcome of run_many(cfgs) is the reference's: logged rounds, metrics bytes and stop.

    Rounds are sampled in chunks of ROUND_KEY_CHUNK = chunk ids, a stack of
    one measures batch logged rounds at a time (ROW_BLOCK_BYTES unchanged
    when None), and edge gives every federation edge-value minimizers.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "ROUND_KEY_CHUNK", chunk)
        if batch is not None:
            mp.setattr(harness, "ROW_BLOCK_BYTES", batch * 8 * cfgs[0].federation.N * cfgs[0].federation.d)
        mus_of = _edge_federations(mp) if edge else reference.federation_mus
        harness.run_many([])  # the federations one example keeps are not the next one's
        outcomes = harness.run_many(cfgs, write_artifacts=False)
    for cfg, out in zip(cfgs, outcomes):
        rounds, rows, stop = reference.simulate(cfg, mus_of)
        diverged = isinstance(out, DivergenceError)
        assert ((out.round, out.step, out.kind) if diverged else None) == stop
        result = out.result if diverged else out
        assert result.aborted_round == (stop and stop[0])
        assert result.rounds.tolist() == rounds
        assert result.metrics.tobytes() == np.reshape(rows, (-1, 3)).tobytes()


SEEDS = st.integers(0, 2**64)


@st.composite
def run_stacks(draw):
    """1 to 3 configs of at most two stack keys (eta_s differs), each point with its own seeds and spread scale."""
    N, d = draw(st.integers(1, 12), label="N"), draw(st.sampled_from([1, 2, 3, 9]), label="d")
    algo = draw(st.sampled_from(ALGORITHMS), label="algo")
    base = run_config(
        N=N,
        d=d,
        K_true=draw(st.sampled_from([k for k in range(1, N + 1) if N % k == 0]), label="K_true"),
        cluster_center_spread=draw(st.sampled_from([0.0, 1.0]), label="center spread"),
        within_cluster_spread=draw(st.sampled_from([0.0, 0.1, 1.0]), label="within spread"),
        noise_sigma=draw(st.sampled_from([0.0, 0.3]), label="noise_sigma"),
        hessian_eig_min=draw(st.sampled_from([0.0, 0.5] if d > 1 else [0.5]), label="eig_min"),  # L > 0
        hessian_eig_max=draw(st.sampled_from([1.0, 2.0]), label="eig_max"),
        eta_c=draw(st.sampled_from([0.05, 0.1, 0.3, 0.5, 4.0, 1e150]), label="eta_c"),  # 4.0 and 1e150 diverge
        eta_s=draw(st.sampled_from([1.0, 0.7]), label="eta_s"),
        tau=draw(st.integers(1, 3), label="tau"),
        T=draw(st.integers(0, 40), label="T"),
        M=draw(st.integers(1, N), label="M"),
        algo=algo,
        # K need not divide N; K <= 3 crowds the sampled clients into few clusters.
        K=min(N, draw(st.one_of(st.integers(1, 3), st.integers(1, N)), label="K")) if algo == CLUSTERFEDVARP else None,
        mifa_mode=draw(st.sampled_from([None, "cold_start", "full_first_round"]), label="mifa_mode"),
        log_every=draw(st.sampled_from([1, 2, 3, 7, 2**63]), label="log_every"),
    )
    points = []
    for _ in range(draw(st.integers(1, 3), label="R")):
        scale = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, 1e150]), label="spread scale")
        fed = replace(
            base.federation,
            seed=draw(SEEDS, label="federation seed"),
            cluster_center_spread=base.federation.cluster_center_spread * scale,
            within_cluster_spread=base.federation.within_cluster_spread * scale,
        )
        eta_s = draw(st.sampled_from([base.hyper.eta_s] * 3 + [1e100]), label="point eta_s")  # 1e100 diverges
        hyper = replace(base.hyper, eta_s=eta_s)
        points.append(replace(base, federation=fed, hyper=hyper, seed=draw(SEEDS, label="seed")))
    return points


# A stack of two fedvarp points and a crowded clusterfedvarp run (clusters of 5 and 4 clients, 7 sampled).
PLANTED = [
    *sweep_points(run_config(algo="fedvarp", M=5, T=10), [1.0, 2.0]),
    run_config(algo="clusterfedvarp", K=2, N=9, K_true=3, M=7, T=10),
]


def pinned(cfgs, chunk=harness.ROUND_KEY_CHUNK, batch=None, edge=False):
    return example(cfgs=cfgs, chunk=chunk, batch=batch, edge=edge)


# Metrics that overflow in round 5 while the model stays finite (1e150 spreads), then a local step too.
OVERFLOW = dict(algo="fedvarp", noise_sigma=0.3, eta_c=4.0, M=3)


@settings(max_examples=200, deadline=None, database=None)
@given(
    cfgs=run_stacks(),
    chunk=st.sampled_from([1, 3, 7, 16, harness.ROUND_KEY_CHUNK]),
    batch=st.sampled_from([1, 2, 5, None]),
    edge=st.booleans(),
)
# Logged rounds: [0, 5, 10, 12], and rounds 0 and T for a log_every past int64.
@pinned([run_config(T=12, log_every=5)])
@pinned([run_config(T=7, log_every=2**63)])
@pinned([run_config(T=7, log_every=2**64)])
# Noisy rounds in one chunk, in chunks of 5 or 341 rounds, and a full first round in a chunk of its own.
@pinned([run_config(noise_sigma=0.3, T=12, M=3)])
@pinned([run_config(noise_sigma=0.3, T=12, M=3)], chunk=15)
@pinned([run_config(noise_sigma=0.3, T=3 * 341 + 1, M=3)])
@pinned([run_config(algo="mifa", mifa_mode="full_first_round", noise_sigma=0.3, T=12, M=3)], chunk=16)
# A fedavg run carrying mifa's full_first_round samples M clients in round 0.
@pinned([run_config(mifa_mode="full_first_round")])
# A point diverging inside a chunk of 4 rounds and a batch of 5 logged rounds.
@pinned(sweep_points(run_config(**OVERFLOW, T=12), [1.0, 1e150, 2.0]), chunk=12, batch=15)
# The same inside one batch of 12 or 200 rounds, and measured every round.
@pinned(sweep_points(run_config(**OVERFLOW, T=12), [1.0, 1e150, 2.0]))
@pinned(sweep_points(run_config(**OVERFLOW, T=200), [1.0, 1e150, 2.0]))
@pinned(sweep_points(run_config(**OVERFLOW, T=200), [1.0, 1e150, 2.0]), batch=1)
# A local step and the metrics overflow in round 1, after finite metrics in round 0.
@pinned(sweep_points(run_config(algo="fedvarp", eta_c=1e80, M=3, T=2), [1e-200, 1e-10, 1e-190]), batch=1)
# Spreads scaled by s: s = 1e10 diverges in local SGD, s = 1 at the server step, s = 1e-200 in the
# metrics (|w| ~ 1e200), s = 1e-260 in local SGD of round 1, and s = 0 never moves.
@pinned(sweep_points(run_config(eta_c=1e150, eta_s=1e100, tau=2, T=4), [1e10, 1.0, 1e-200, 1e-260, 0.0]))
# The planted faults' runs: each fault below changes their bits.
@pinned(PLANTED, edge=True)
def test_runs_match_the_reference(cfgs, chunk, batch, edge):
    assert_runs_match_the_reference(cfgs, chunk, batch, edge)


def _sum_table_rows_last_to_first(monkeypatch):
    """_stored_update's sum over all K table rows, its one ordered_row_sum, reads the rows last to first."""
    ordered_row_sum = aggregators.ordered_row_sum

    def backwards(n, d, fill, lead=()):
        def reversed_fill(lo, hi, out):
            fill(n - hi, n - lo, out)
            out[...] = out[..., ::-1, :].copy()

        return ordered_row_sum(n, d, reversed_fill, lead)

    monkeypatch.setattr(aggregators, "ordered_row_sum", backwards)


def _refresh_members_right_to_left(monkeypatch):
    """Each hit cluster stores the mean of its members' updates added right to left."""
    stored_update = aggregators._stored_update

    def refreshed(state, ids, block):
        v = stored_update(state, ids, block)
        for r, (row_ids, rows) in enumerate(zip(ids.tolist(), block)):
            members = {}
            for i, row in zip(row_ids, rows):
                members.setdefault(int(state.assignment[i]), []).append(row)
            for k, hit in members.items():
                state.table[r, k] = reference.loop_sum(np.array(hit[::-1])) / len(hit)
        return v

    monkeypatch.setattr(aggregators, "_stored_update", refreshed)


@pytest.mark.parametrize(
    "plant", [_sum_table_rows_last_to_first, _refresh_members_right_to_left], ids=["table_sum", "refresh"]
)
def test_the_reference_check_flags_a_planted_fault(monkeypatch, plant):
    # Edge-value minimizers make each reordered sum change the bits of a few fixed runs.
    assert_runs_match_the_reference(PLANTED, edge=True)
    plant(monkeypatch)
    with pytest.raises(AssertionError):
        assert_runs_match_the_reference(PLANTED, edge=True)


# ---------------------------------------------------------------------------
# Running: sizes, artifacts and interruptions


def test_a_round_index_past_one_key_word_is_a_config_error(small_config, tmp_path):
    cfg = small_config(T=2**32 + 1, output_dir=tmp_path / "long")
    with pytest.raises(ConfigError, match=r"T must be at most 2\*\*32"):
        run(cfg)
    assert not (tmp_path / "long").exists()
    harness._check_sizes(replace(cfg, hyper=replace(cfg.hyper, T=2**32), log_every=2**32))


def test_a_metrics_table_too_large_to_allocate_is_a_config_error(small_config, tmp_path):
    # 2**32 + 1 logged rows of 3 float64s are 96 GiB, refused before anything is made.
    cfg = small_config(T=2**32, log_every=1, output_dir=tmp_path / "long")
    with pytest.raises(ConfigError, match=r"array shape \(1, 4294967297, 3\)"):
        run(cfg)
    assert not (tmp_path / "long").exists()


def _round_block(fed, w, seed, t, order):
    return local_sgd(fed, [order], w, 2, 0.05, substream_keys(seed, TAG_LOCAL, t, ids=order)[None])[0]


def test_participant_order_does_not_change_step():
    # Training the participants as batch rows in reversed order, then
    # flipping the rows back to id order, must give the same bits as
    # training them in id order, round after round.
    N, d, seed = 8, 3, 4242
    fed, _ = generate_federation([run_config(N=N, d=d, noise_sigma=0.4).federation])
    for algo in ALGORITHMS:
        K, assignment = (3, np.arange(N) % 3) if algo == CLUSTERFEDVARP else (None, None)
        ascending = init_state(algo, np.zeros((1, d)), N, K, assignment)
        reversed_ = init_state(algo, np.zeros((1, d)), N, K, assignment)
        for t in range(6):
            ids = sample_round(N, 5, substream(seed, TAG_SAMPLING, t))
            fwd = _round_block(fed, ascending.w, seed, t, ids)
            rev = _round_block(fed, reversed_.w, seed, t, ids[::-1])
            aggregator_step(ascending, [ids], fwd, 0.1)
            aggregator_step(reversed_, [ids], rev[:, ::-1], 0.1)
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
    assert len(lines) == 1 + len(result.rounds)
    for t, (grad, loss, dist), line in zip(result.rounds.tolist(), result.metrics.tolist(), lines[1:]):
        r, g, l, dd = line.split(",")
        assert int(r) == t
        assert float(g) == grad  # exact round trip
        assert float(l) == loss
        assert float(dd) == dist
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

    def counting(cfgs):
        built.extend(cfgs)
        return generate_federation(cfgs)

    monkeypatch.setattr(harness, "generate_federation", counting)
    base = small_config(T=5, output_dir=tmp_path / "sw")
    sweep(base, "sigma_g_scale", [1.0, 2.0, 3.0])
    assert len(built) == 3
    built.clear()
    # Point 1.0 holds base's federation as a row of the kept stack; the stacks of one build it once more.
    sweep(base, "eta_c", [0.01, 0.02, 0.03], write_artifacts=False)
    assert built == [base.federation]


def test_sweep_checks_every_size_before_building_a_federation(small_config, tmp_path, monkeypatch):
    built = []

    def counting(cfgs):
        built.extend(cfgs)
        return generate_federation(cfgs)

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
    assert mifa_first.metrics[-1, 0] == avg_full.metrics[-1, 0]


def test_mifa_cold_start_differs_from_full_first(small_config):
    cold = run(small_config(algo="mifa", T=3, output_dir="u1"), write_artifacts=False)
    warm = run(
        small_config(algo="mifa", mifa_mode="full_first_round", T=3, output_dir="u2"),
        write_artifacts=False,
    )
    assert cold.metrics[-1, 0] != warm.metrics[-1, 0]


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
    assert logged(carried) == logged(plain)


def test_manifest_constants_match_closed_forms(small_config):
    cfg = small_config(T=0)
    result = run(cfg, write_artifacts=False)
    _, [consts] = generate_federation([cfg.federation])
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
    cfgs = [sweep_point(base, "eta_s", v, 0)[0] for v in (1, 1.0, np.float64(1.0))]
    assert cfgs[0] == cfgs[1] == cfgs[2]
    assert cfgs[0].hyper.eta_s == 1.0
    assert cfgs[0].seed == derive_sweep_seed(base.seed, "eta_s", 1.0) == 6640729279704080003


def test_sweep_point_seed_comes_from_the_value_the_config_holds(small_config):
    base = small_config()
    mixed, lower = (sweep_point(base, "algo", name, 0)[0] for name in ("FedAvg", "fedavg"))
    assert mixed == lower
    assert mixed.algo.name == "fedavg"
    assert mixed.seed == derive_sweep_seed(base.seed, "algo", "fedavg") == 6376544525692774143


def test_sweep_invalid_axis(small_config):
    with pytest.raises(ConfigError, match="axis"):
        sweep(small_config(), "flux", [1.0], write_artifacts=False)


def test_degenerate_sweep_equals_direct_run(small_config, tmp_path):
    base = small_config(T=15, output_dir=tmp_path / "sw")
    result = sweep(base, "eta_c", [0.04])
    direct = run(sweep_point(base, "eta_c", 0.04, 0)[0])
    assert result.results[0].metrics[:, 0].tolist() == direct.metrics[:, 0].tolist()
    assert result.summary_path.exists()
    lines = result.summary_path.read_text().strip().splitlines()
    assert len(lines) == 2 and lines[0].startswith("axis,value,seed")


def test_divergent_sweep_point_keeps_the_other_points(small_config, tmp_path):
    base = small_config(T=15, output_dir=tmp_path / "sw")
    result = sweep(base, "eta_s", [1.0, 1e200, 0.5])
    ok, boom, ok2 = result.results
    assert ok.completed and ok2.completed and not boom.completed
    assert boom.aborted_round == 0
    assert len(boom.rounds) == 1  # the initial point, logged before the diverging round
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
    assert float(rows[0]["floor_grad_norm_sq"]) == floor_estimate(ok.metrics[:, 0])
    assert float(rows[2]["final_grad_norm_sq"]) == ok2.metrics[-1, 0]
    # Points after the divergent one are the runs they would be alone.
    direct = run(sweep_point(base, "eta_s", 0.5, 2)[0], write_artifacts=False)
    assert logged(ok2) == logged(direct)


def test_sigma_g_scale_axis_scales_heterogeneity(small_config):
    base = small_config(T=0, within_cluster_spread=0.0)
    lo = run(sweep_point(base, "sigma_g_scale", 1.0, 0)[0], write_artifacts=False)
    hi = run(sweep_point(base, "sigma_g_scale", 3.0, 1)[0], write_artifacts=False)
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
    floors = [floor_estimate(r.metrics[:, 0]) for r in result.results]
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
    fed, [consts] = generate_federation([cfg.federation])
    eigs = fed.eigs
    gaps = eigs * (consts.w_star - fed.mus[0])  # N x d, constant in w
    eta = (1 / 3) * (1 / 8) * 1
    predicted = 0.0
    for j in range(3):
        vj = without_replacement_variance([g[j : j + 1] for g in gaps], 4)
        predicted += eigs[j] ** 2 * eta**2 * vj / (1 - (1 - eta * eigs[j]) ** 2)
    floor = floor_estimate(result.metrics[:, 0])
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
    assert oracles.subset_gaps(np.random.default_rng(71), 5)["variance"] <= 1e-12
    closed = oracles.without_replacement_variance

    def mutated(xs, M):  # the (N-1) -> N mutation
        return closed(xs, M) * (len(xs) - 1) / len(xs)

    monkeypatch.setattr(oracles, "without_replacement_variance", mutated)
    assert oracles.subset_gaps(np.random.default_rng(71), 5)["variance"] > 1e-3


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
    run_many = oracles.run_many

    def perturbed(cfgs, **kwargs):
        # The K=1 run of the second config: a check that read only the
        # first config would miss it.
        outcomes = run_many(cfgs, **kwargs)
        result = outcomes[[i for i, cfg in enumerate(cfgs) if cfg.algo.K == 1][1]]
        result.metrics[-1, 1] = np.nextafter(result.metrics[-1, 1], 1.0)  # the last global_loss
        return outcomes

    monkeypatch.setattr(oracles, "run_many", perturbed)


def _reductions_flagged(cfg):
    return not oracles.reductions_hold([cfg, replace(cfg, seed=cfg.seed + 1)])


def _bias_flagged(cfg):
    gaps = oracles.subset_gaps(np.random.default_rng(5), 5)
    return gaps[FEDVARP] > 1e-6 and gaps[CLUSTERFEDVARP] > 1e-6


def _fd_flagged(cfg):
    rng = np.random.default_rng(5)
    fed = Federation(eigs=rng.uniform(0.2, 2.0, size=3), mus=rng.normal(size=(1, 2, 3)))
    return oracles.finite_difference_error(fed, rng.normal(size=(2, 3))) > 1e-6


@pytest.mark.parametrize(
    "plant, flagged",
    [
        (_shift_stored_update_steps, _bias_flagged),
        (
            _one_step_off_by_one_ulp,
            lambda cfg: not oracles.saga_matches(np.random.default_rng(5), 6, 20, 0.05),
        ),
        (_scale_gradients, _fd_flagged),
        (_perturb_a_cluster_record, _reductions_flagged),
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


def test_a_sweep_of_no_values_and_a_floor_of_no_rows_are_config_errors(small_config, tmp_path):
    with pytest.raises(ConfigError, match="at least one value"):
        sweep(small_config(output_dir=tmp_path / "sw"), "eta_c", [])
    assert not (tmp_path / "sw").exists()
    with pytest.raises(ConfigError, match="no logged rows"):
        floor_estimate(np.empty(0))


def test_reductions_hold_needs_a_config():
    with pytest.raises(ConfigError, match="at least one config"):
        oracles.reductions_hold([])
