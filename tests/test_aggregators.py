import itertools

import numpy as np
import pytest

from conftest import make_federation
from fedvarp_sim.aggregators import (
    RoundUpdates,
    aggregator_step,
    cluster_miss_probability,
    clusterfedvarp_step,
    fedavg_step,
    init_state,
    mifa_step,
)
from fedvarp_sim.core import (
    CLUSTERFEDVARP,
    FEDAVG,
    FEDVARP,
    MIFA,
    ConfigError,
    HyperParams,
    effective_server_lr,
)
from fedvarp_sim.localsgd import LocalRunConfig, local_sgd
from fedvarp_sim.objectives import global_grad_and_loss
from fedvarp_sim.sampling import RoundPlan, enumerate_subsets


def updates(round_index, deltas):
    parts = tuple(sorted(deltas))
    return RoundUpdates(
        RoundPlan(round=round_index, participants=parts),
        {i: np.atleast_1d(np.asarray(v, dtype=np.float64)) for i, v in deltas.items()},
    )


def test_fedavg_mean_and_step():
    state = init_state(FEDAVG, np.zeros(1), N=2)
    w = fedavg_step(state, updates(0, {0: [1.0], 1: [3.0]}), eta_tilde=0.1)
    assert w[0] == pytest.approx(-0.2, rel=1e-15)


def test_fedavg_singleton():
    state = init_state(FEDAVG, np.array([1.0, 1.0]), N=5)
    w = fedavg_step(state, updates(0, {3: [2.0, -2.0]}), eta_tilde=1.0)
    assert np.array_equal(w, [-1.0, 3.0])


def test_fedavg_full_participation_is_gradient_descent():
    # tau=1, no noise, M=N: one round equals plain GD with rate eta_s*eta_c on f.
    rng = np.random.default_rng(60)
    fed = make_federation(rng.normal(size=(5, 3)), rng.uniform(0.5, 1.5, size=3))
    w0 = rng.normal(size=3)
    h = HyperParams(eta_c=0.08, eta_s=1.25, tau=1, T=1, M=5, N=5)
    cfg = LocalRunConfig(tau=1, eta_c=h.eta_c)
    deltas = dict(enumerate(local_sgd(fed, range(5), w0, cfg)))
    state = init_state(FEDAVG, w0, N=5)
    w1 = fedavg_step(state, updates(0, deltas), effective_server_lr(h))
    g, _ = global_grad_and_loss(fed, w0)
    assert np.allclose(w1, w0 - h.eta_s * h.eta_c * g, rtol=1e-12, atol=1e-14)


def test_step_requires_matching_tag():
    state = init_state(FEDAVG, np.zeros(1), N=2)
    with pytest.raises(ConfigError):
        clusterfedvarp_step(state, updates(0, {0: [1.0]}), 0.1)


def test_round_updates_key_mismatch_rejected():
    with pytest.raises(ConfigError):
        RoundUpdates(RoundPlan(round=0, participants=(0, 1)), {0: np.zeros(1)})


def test_fedvarp_first_round_equals_fedavg():
    upd = updates(0, {0: [1.0, 0.0], 2: [3.0, -4.0]})
    a = init_state(FEDAVG, np.zeros(2), N=4)
    b = init_state(FEDVARP, np.zeros(2), N=4)
    wa = fedavg_step(a, upd, 0.3)
    wb = aggregator_step(b, upd, 0.3)
    assert wa.tobytes() == wb.tobytes()


def test_fedvarp_hand_case():
    state = init_state(FEDVARP, np.zeros(1), N=3)
    state.table = np.array([[1.0], [2.0], [3.0]])
    w = aggregator_step(state, updates(0, {0: [5.0]}), eta_tilde=1.0)
    # v = (5 - 1) + (1/3)(1 + 2 + 3) = 6
    assert w[0] == pytest.approx(-6.0, rel=1e-12)
    assert np.allclose(state.table[:, 0], [5.0, 2.0, 3.0])


def test_fedvarp_table_tracks_latest_updates():
    rng = np.random.default_rng(61)
    N, d = 6, 2
    state = init_state(FEDVARP, np.zeros(d), N=N)
    shadow = {i: np.zeros(d) for i in range(N)}
    for t in range(40):
        M = int(rng.integers(1, N + 1))
        parts = sorted(rng.choice(N, size=M, replace=False).tolist())
        upd = updates(t, {i: rng.normal(size=d) for i in parts})
        aggregator_step(state, upd, 0.05)
        for i in parts:
            shadow[i] = upd.deltas[i]
        for i in range(N):
            assert np.array_equal(state.table[i], shadow[i])


def test_exhaustive_unbiasedness_example():
    # N=3, M=2, deltas (0,3,6), uniform table: both averages equal 3.
    deltas = {0: [0.0], 1: [3.0], 2: [6.0]}
    v_vals, avg_vals = [], []
    for plan in enumerate_subsets(3, 2):
        upd = updates(0, {i: deltas[i] for i in plan.participants})
        sv = init_state(FEDVARP, np.zeros(1), N=3)
        sv.table = np.ones((3, 1))
        v_vals.append(-aggregator_step(sv, upd, 1.0)[0])
        sa = init_state(FEDAVG, np.zeros(1), N=3)
        avg_vals.append(-fedavg_step(sa, upd, 1.0)[0])
    assert np.mean(v_vals) == pytest.approx(3.0, abs=1e-13)
    assert np.mean(avg_vals) == pytest.approx(3.0, abs=1e-13)


def test_cluster_single_cluster_matches_fedavg_bitwise():
    rng = np.random.default_rng(62)
    upd = updates(0, {i: rng.normal(size=3) for i in (0, 2, 5)})
    a = init_state(FEDAVG, np.zeros(3), N=6)
    c = init_state(CLUSTERFEDVARP, np.zeros(3), N=6, K=1, assignment=np.zeros(6, dtype=int))
    c.table = rng.normal(size=(1, 3))  # arbitrary shared state must cancel
    wa = fedavg_step(a, upd, 0.2)
    wc = clusterfedvarp_step(c, upd, 0.2)
    assert wa.tobytes() == wc.tobytes()


def test_cluster_hand_case():
    state = init_state(
        CLUSTERFEDVARP, np.zeros(1), N=4, K=2, assignment=np.array([0, 0, 1, 1])
    )
    state.table = np.array([[10.0], [20.0]])
    w = clusterfedvarp_step(state, updates(0, {0: [4.0], 2: [6.0]}), eta_tilde=1.0)
    # v = 1/2[(4-10)+(6-20)] + 1/4(10+10+20+20) = 5
    assert w[0] == pytest.approx(-5.0, rel=1e-12)
    assert np.allclose(state.table[:, 0], [4.0, 6.0])


def test_cluster_within_cluster_mean():
    state = init_state(
        CLUSTERFEDVARP, np.zeros(1), N=4, K=2, assignment=np.array([0, 0, 1, 1])
    )
    state.table = np.array([[1.0], [9.0]])
    clusterfedvarp_step(state, updates(0, {0: [4.0], 1: [8.0]}), eta_tilde=1.0)
    assert state.table[0, 0] == pytest.approx(6.0)
    assert state.table[1, 0] == 9.0  # untouched cluster keeps its state


def test_cluster_requires_assignment():
    with pytest.raises(ConfigError):
        init_state(CLUSTERFEDVARP, np.zeros(1), N=4, K=2, assignment=None)
    with pytest.raises(ConfigError):
        init_state(CLUSTERFEDVARP, np.zeros(1), N=4, K=2, assignment=np.array([0, 0, 1, 5]))


def test_exhaustive_unbiasedness_property():
    rng = np.random.default_rng(63)
    # d=1 is the shape where np.add.reduce switches to pairwise summation.
    for d, N in itertools.product((2, 1), range(2, 7)):
        for M in range(1, N + 1):
            deltas = {i: rng.normal(size=d) for i in range(N)}
            table = rng.normal(size=(N, d))
            K = int(rng.integers(1, N + 1))
            assignment = rng.integers(0, K, size=N)
            ctable = rng.normal(size=(K, d))
            subsets = enumerate_subsets(N, M)
            sums = {FEDAVG: np.zeros(d), FEDVARP: np.zeros(d), CLUSTERFEDVARP: np.zeros(d)}
            for plan in subsets:
                upd = updates(0, {i: deltas[i] for i in plan.participants})
                sa = init_state(FEDAVG, np.zeros(d), N=N)
                sums[FEDAVG] -= fedavg_step(sa, upd, 1.0)
                sv = init_state(FEDVARP, np.zeros(d), N=N)
                sv.table = table.copy()
                sums[FEDVARP] -= aggregator_step(sv, upd, 1.0)
                sc = init_state(CLUSTERFEDVARP, np.zeros(d), N=N, K=K, assignment=assignment)
                sc.table = ctable.copy()
                sums[CLUSTERFEDVARP] -= clusterfedvarp_step(sc, upd, 1.0)
            count = len(subsets)
            for algo in (FEDVARP, CLUSTERFEDVARP):
                assert np.max(np.abs(sums[algo] / count - sums[FEDAVG] / count)) < 1e-12


def test_mifa_full_history_matches_full_participation_average():
    rng = np.random.default_rng(64)
    N = 4
    deltas = {i: rng.normal(size=2) for i in range(N)}
    upd = updates(0, deltas)
    m = init_state(MIFA, np.zeros(2), N=N)
    a = init_state(FEDAVG, np.zeros(2), N=N)
    wm = mifa_step(m, upd, 0.5)
    wa = fedavg_step(a, upd, 0.5)
    assert np.allclose(wm, wa, rtol=1e-12)


def test_mifa_hand_case():
    state = init_state(MIFA, np.zeros(1), N=2)
    state.table = np.array([[0.0], [7.0]])
    w = mifa_step(state, updates(0, {0: [3.0]}), eta_tilde=1.0)
    assert np.allclose(state.table[:, 0], [3.0, 7.0])
    assert w[0] == pytest.approx(-5.0)


def test_mifa_cold_start_bias():
    state = init_state(MIFA, np.zeros(1), N=4)
    w = mifa_step(state, updates(0, {0: [4.0]}), eta_tilde=1.0)
    assert w[0] == pytest.approx(-1.0)  # averaged against three zero states


def test_miss_probability_hand_case():
    assert cluster_miss_probability(4, 2, 2) == pytest.approx(1 / 6, rel=1e-15)


def test_miss_probability_trivial_cases():
    assert cluster_miss_probability(6, 6, 1) == 0.0
    assert cluster_miss_probability(6, 2, 6) == 0.0
    assert cluster_miss_probability(6, 3, 5) == 0.0  # M > N - r
    with pytest.raises(ConfigError):
        cluster_miss_probability(4, 5, 1)
    with pytest.raises(ConfigError):
        cluster_miss_probability(6, 4, 1)  # 4 does not divide 6


def test_miss_probability_matches_enumeration():
    N, r, M = 6, 3, 2
    cluster = set(range(r))
    plans = enumerate_subsets(N, M)
    missing = sum(1 for p in plans if not cluster & set(p.participants))
    assert cluster_miss_probability(N, r, M) == pytest.approx(missing / len(plans), rel=1e-15)


def test_rounds_increment():
    state = init_state(FEDAVG, np.zeros(1), N=3)
    for t in range(5):
        fedavg_step(state, updates(t, {0: [1.0]}), 0.01)
    assert state.round == 5
