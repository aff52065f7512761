import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_federation
from reference import edge_rows, loop_step
from fedvarp_sim.aggregators import aggregator_step, cluster_miss_probability, init_state
from fedvarp_sim.core import (
    ALGORITHMS,
    CLUSTERFEDVARP,
    FEDAVG,
    FEDVARP,
    MIFA,
    ConfigError,
    DimensionError,
    HyperConfig,
    effective_server_lr,
)
from fedvarp_sim.localsgd import local_sgd
from fedvarp_sim.objectives import block_assignment, global_grad_and_loss
from fedvarp_sim.oracles import update_bias
from fedvarp_sim.sampling import enumerate_subsets


def updates(deltas):
    """The (1, M) participants and (1, M, d) block of one round of a stack of one from {client id: update}."""
    parts = sorted(deltas)
    block = np.array([[np.atleast_1d(np.asarray(deltas[i], dtype=np.float64)) for i in parts]])
    return np.array([parts], dtype=np.intp), block


def test_fedavg_mean_and_step():
    state = init_state(FEDAVG, np.zeros((1, 1)), N=2)
    w = aggregator_step(state, *updates({0: [1.0], 1: [3.0]}), eta_tilde=0.1)
    assert w[0, 0] == pytest.approx(-0.2, rel=1e-15)


def test_fedavg_singleton():
    state = init_state(FEDAVG, np.array([[1.0, 1.0]]), N=5)
    w = aggregator_step(state, *updates({3: [2.0, -2.0]}), eta_tilde=1.0)
    assert np.array_equal(w, [[-1.0, 3.0]])


def test_fedavg_full_participation_is_gradient_descent():
    # tau=1, no noise, M=N: one round equals plain GD with rate eta_s*eta_c on f.
    rng = np.random.default_rng(60)
    fed = make_federation(rng.normal(size=(1, 5, 3)), rng.uniform(0.5, 1.5, size=3))
    w0 = rng.normal(size=(1, 3))
    h = HyperConfig(eta_c=0.08, eta_s=1.25, tau=1, T=1, M=5)
    block, _ = local_sgd(fed, np.arange(5)[None], w0, h.tau, h.eta_c)
    state = init_state(FEDAVG, w0, N=5)
    w1 = aggregator_step(state, np.arange(5)[None], block, effective_server_lr(h))
    g, _ = global_grad_and_loss(fed, w0)
    assert np.allclose(w1, w0 - h.eta_s * h.eta_c * g, rtol=1e-12, atol=1e-14)


def test_round_updates_key_mismatch_rejected():
    # The block needs one row per participant of each replicate, each as wide as the model.
    for algo in ALGORITHMS:
        for shape in ((1, 1, 2), (1, 3, 2), (1, 2, 1), (1, 2, 3), (2, 2, 2), (2, 2), (1, 2, 2, 1)):
            state = init_state(algo, np.zeros((1, 2)), N=3, K=2, assignment=np.array([0, 0, 1]))
            with pytest.raises(DimensionError):
                aggregator_step(state, np.array([[0, 1]]), np.zeros(shape), 0.1)


BAD_SETS = {
    "unsorted": [[2, 1]],
    "repeated": [[1, 1]],
    "negative": [[-1, 0]],
    "at_N": [[1, 3]],
    "above_N": [[1, 5]],
    "empty": [[]],
    "wrong_R": [[0, 1], [0, 1]],
    "three_dim": [[[0, 1]]],
    "lone": [0, 1],
    "scalar": 1,
}


@pytest.mark.parametrize("bad", BAD_SETS)
@pytest.mark.parametrize("algo", ALGORITHMS)
def test_bad_participant_sets_rejected(algo, bad):
    # N=3, a stack of one: ids must be distinct, ascending and in [0, 3), in a non-empty (1, M) set.
    ids = BAD_SETS[bad]
    state = init_state(algo, np.zeros((1, 2)), N=3, K=2, assignment=np.array([0, 0, 1]))
    before = (state.w.copy(), None if state.table is None else state.table.copy())
    block = np.ones((1, np.size(ids), 2))
    with pytest.raises(ConfigError):
        aggregator_step(state, ids, block, 0.1)
    assert state.w.tobytes() == before[0].tobytes()
    if state.table is not None:
        assert state.table.tobytes() == before[1].tobytes()


def test_fedvarp_first_round_equals_fedavg():
    upd = updates({0: [1.0, 0.0], 2: [3.0, -4.0]})
    a = init_state(FEDAVG, np.zeros((1, 2)), N=4)
    b = init_state(FEDVARP, np.zeros((1, 2)), N=4)
    wa = aggregator_step(a, *upd, 0.3)
    wb = aggregator_step(b, *upd, 0.3)
    assert wa.tobytes() == wb.tobytes()


def test_fedvarp_hand_case():
    state = init_state(FEDVARP, np.zeros((1, 1)), N=3)
    state.table = np.array([[[1.0], [2.0], [3.0]]])
    w = aggregator_step(state, *updates({0: [5.0]}), eta_tilde=1.0)
    # v = (5 - 1) + (1/3)(1 + 2 + 3) = 6
    assert w[0, 0] == pytest.approx(-6.0, rel=1e-12)
    assert np.allclose(state.table[0, :, 0], [5.0, 2.0, 3.0])


def test_fedvarp_table_tracks_latest_updates():
    rng = np.random.default_rng(61)
    N, d = 6, 2
    state = init_state(FEDVARP, np.zeros((1, d)), N=N)
    shadow = {i: np.zeros(d) for i in range(N)}
    for _ in range(40):
        M = int(rng.integers(1, N + 1))
        parts = sorted(rng.choice(N, size=M, replace=False).tolist())
        deltas = {i: rng.normal(size=d) for i in parts}
        aggregator_step(state, *updates(deltas), 0.05)
        shadow.update(deltas)
        for i in range(N):
            assert np.array_equal(state.table[0, i], shadow[i])


def test_exhaustive_unbiasedness_example():
    # N=3, M=2, deltas (0,3,6), uniform table: both averages equal 3.
    deltas = {0: [0.0], 1: [3.0], 2: [6.0]}
    v_vals, avg_vals = [], []
    for ids in enumerate_subsets(3, 2):
        upd = updates({i: deltas[i] for i in ids.tolist()})
        sv = init_state(FEDVARP, np.zeros((1, 1)), N=3)
        sv.table = np.ones((1, 3, 1))
        v_vals.append(-aggregator_step(sv, *upd, 1.0)[0, 0])
        sa = init_state(FEDAVG, np.zeros((1, 1)), N=3)
        avg_vals.append(-aggregator_step(sa, *upd, 1.0)[0, 0])
    assert np.mean(v_vals) == pytest.approx(3.0, abs=1e-13)
    assert np.mean(avg_vals) == pytest.approx(3.0, abs=1e-13)


def test_cluster_single_cluster_matches_fedavg_bitwise():
    rng = np.random.default_rng(62)
    upd = updates({i: rng.normal(size=3) for i in (0, 2, 5)})
    a = init_state(FEDAVG, np.zeros((1, 3)), N=6)
    c = init_state(CLUSTERFEDVARP, np.zeros((1, 3)), N=6, K=1, assignment=np.zeros(6, dtype=int))
    c.table = rng.normal(size=(1, 1, 3))  # arbitrary shared state must cancel
    wa = aggregator_step(a, *upd, 0.2)
    wc = aggregator_step(c, *upd, 0.2)
    assert wa.tobytes() == wc.tobytes()


def test_cluster_hand_case():
    state = init_state(
        CLUSTERFEDVARP, np.zeros((1, 1)), N=4, K=2, assignment=np.array([0, 0, 1, 1])
    )
    state.table = np.array([[[10.0], [20.0]]])
    w = aggregator_step(state, *updates({0: [4.0], 2: [6.0]}), eta_tilde=1.0)
    # v = 1/2[(4-10)+(6-20)] + 1/4(10+10+20+20) = 5
    assert w[0, 0] == pytest.approx(-5.0, rel=1e-12)
    assert np.allclose(state.table[0, :, 0], [4.0, 6.0])


def test_cluster_within_cluster_mean():
    state = init_state(
        CLUSTERFEDVARP, np.zeros((1, 1)), N=4, K=2, assignment=np.array([0, 0, 1, 1])
    )
    state.table = np.array([[[1.0], [9.0]]])
    aggregator_step(state, *updates({0: [4.0], 1: [8.0]}), eta_tilde=1.0)
    assert state.table[0, 0, 0] == pytest.approx(6.0)
    assert state.table[0, 1, 0] == 9.0  # untouched cluster keeps its state


def test_cluster_requires_assignment():
    with pytest.raises(ConfigError):
        init_state(CLUSTERFEDVARP, np.zeros((1, 1)), N=4, K=2, assignment=None)
    with pytest.raises(ConfigError):
        init_state(CLUSTERFEDVARP, np.zeros((1, 1)), N=4, K=2, assignment=np.array([0, 0, 1, 5]))
    with pytest.raises(ConfigError, match="cover all 4 clients"):
        init_state(CLUSTERFEDVARP, np.zeros((1, 1)), N=4, K=2, assignment=np.array([0, 1, 1]))


def test_unknown_algorithm_has_no_state():
    with pytest.raises(ConfigError, match="unknown algorithm tag 'sgd'"):
        init_state("sgd", np.zeros((1, 1)), N=4)


def test_exhaustive_unbiasedness_property():
    rng = np.random.default_rng(63)
    # d=1 is the shape where np.add.reduce switches to pairwise summation.
    for d in (2, 1):
        assert max(update_bias(rng, d)) < 1e-12


def test_mifa_full_history_matches_full_participation_average():
    rng = np.random.default_rng(64)
    N = 4
    deltas = {i: rng.normal(size=2) for i in range(N)}
    upd = updates(deltas)
    m = init_state(MIFA, np.zeros((1, 2)), N=N)
    a = init_state(FEDAVG, np.zeros((1, 2)), N=N)
    wm = aggregator_step(m, *upd, 0.5)
    wa = aggregator_step(a, *upd, 0.5)
    assert np.allclose(wm, wa, rtol=1e-12)


def test_mifa_hand_case():
    state = init_state(MIFA, np.zeros((1, 1)), N=2)
    state.table = np.array([[[0.0], [7.0]]])
    w = aggregator_step(state, *updates({0: [3.0]}), eta_tilde=1.0)
    assert np.allclose(state.table[0, :, 0], [3.0, 7.0])
    assert w[0, 0] == pytest.approx(-5.0)


@pytest.mark.parametrize("algo", [MIFA, FEDVARP, CLUSTERFEDVARP])
def test_a_strided_table_takes_the_writes_of_a_contiguous_one(algo):
    # A transposed view: reshaping it to (R * rows, d) would copy it and drop the writes.
    participants, block = np.array([[0, 1], [1, 2]]), np.ones((2, 2, 2))
    states = [init_state(algo, np.zeros((2, 2)), N=3, K=3, assignment=np.arange(3)) for _ in range(2)]
    states[1].table = np.zeros((2, 2, 3)).transpose(0, 2, 1)
    for state in states:
        aggregator_step(state, participants, block, eta_tilde=1.0)
    contiguous, strided = states
    assert contiguous.table.any() and contiguous.w.any()
    assert strided.table.tobytes() == contiguous.table.tobytes()
    assert strided.w.tobytes() == contiguous.w.tobytes()


def test_mifa_cold_start_bias():
    state = init_state(MIFA, np.zeros((1, 1)), N=4)
    w = aggregator_step(state, *updates({0: [4.0]}), eta_tilde=1.0)
    assert w[0, 0] == pytest.approx(-1.0)  # averaged against three zero states


@pytest.mark.parametrize("R", [1, 2], ids=["stack_of_one", "stack"])
@pytest.mark.parametrize("algo", ALGORITHMS)
def test_an_overflowing_server_step_is_non_finite_without_a_warning(algo, R):
    # Finite updates whose sums overflow: the mean of the block, mifa's
    # table sum, and clusterfedvarp's refresh of a cluster with two
    # sampled members (clients 0 and 1 of cluster 0).
    N, M, d = 6, 3, 2
    K = 2 if algo == CLUSTERFEDVARP else None
    state = init_state(algo, np.zeros((R, d)), N, K, block_assignment(N, K) if K else None)
    ids = np.tile([0, 1, 4], (R, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = aggregator_step(state, ids, np.full((R, M, d), 1e308), eta_tilde=0.1)
    assert w.shape == (R, d) and not np.isfinite(w).any()


# A tuple of ids must not be read as a multi-axis index.
ID_FORMS = (tuple, lambda parts: [list(p) for p in parts], lambda parts: np.array(parts, dtype=np.intp))


@pytest.mark.parametrize("algo", ALGORITHMS)
@settings(max_examples=100, deadline=None, database=None)
@given(
    R=st.sampled_from([1, 2, 3]),
    d=st.sampled_from([1, 2, 3, 17]),
    N=st.one_of(st.integers(1, 8), st.integers(9, 24)),  # d=1 sums turn pairwise from 8 rows
    crowded=st.booleans(),
    rounds=st.integers(1, 4),
    layout=st.sampled_from(["C", "F", "reversed view"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_steps_match_the_participant_loops_bitwise(algo, R, d, N, crowded, rounds, layout, seed):
    rng = np.random.default_rng(seed)
    # K <= 2 puts most sampled members in one cluster; K > N leaves some empty.
    K = int(rng.integers(1, 3 if crowded else N + 3))
    assignment = rng.integers(0, K, size=N)  # unsorted
    w0 = edge_rows(rng, R, d)
    # refs[r] runs the loops on replicate r alone; each stack of R takes the ids as one form in ID_FORMS.
    refs = [init_state(algo, w0[r : r + 1], N, K, assignment) for r in range(R)]
    stacks = [init_state(algo, w0, N, K, assignment) for _ in ID_FORMS]
    if refs[0].table is not None:
        for r, ref in enumerate(refs):
            ref.table[0] = edge_rows(rng, *ref.table.shape[1:])
            for stack in stacks:
                stack.table[r] = ref.table[0]
    for t in range(rounds):
        M = int(rng.integers(1, N + 1))
        parts = [tuple(sorted(rng.choice(N, M, replace=False).tolist())) for _ in range(R)]
        block = np.stack([edge_rows(rng, M, d) for _ in range(R)])
        if layout == "F":
            passed = np.asfortranarray(block)
        elif layout == "reversed view":
            passed = block[:, ::-1].copy()[:, ::-1]
        else:
            passed = block.copy()
        eta_tilde = float(rng.choice([1.0, 0.3]))
        expected = [loop_step(ref, parts[r], block[r], eta_tilde) for r, ref in enumerate(refs)]
        for form, stack in zip(ID_FORMS, stacks):
            w = aggregator_step(stack, form(parts), passed, eta_tilde)
            for r, ref in enumerate(refs):
                assert w[r].tobytes() == expected[r].tobytes()
                if algo != FEDAVG:
                    assert stack.table[r].tobytes() == ref.table[0].tobytes()
            assert passed.tobytes() == block.tobytes()  # the step leaves its input alone


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
    for M in (0, 7):
        with pytest.raises(ConfigError, match="1 <= M <= N"):
            cluster_miss_probability(6, 2, M)


def test_miss_probability_matches_enumeration():
    N, r, M = 6, 3, 2
    cluster = set(range(r))
    plans = enumerate_subsets(N, M)
    missing = sum(1 for ids in plans if not cluster & set(ids.tolist()))
    assert cluster_miss_probability(N, r, M) == pytest.approx(missing / len(plans), rel=1e-15)

