import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import forced_split, make_federation, substream_keys
from fedvarp_sim import core
from fedvarp_sim.core import ConfigError, DivergenceError
from fedvarp_sim.localsgd import local_sgd
from fedvarp_sim.rng import TAG_LOCAL, philox_keys, substream


def gradient(fed, i, w):
    return fed.grads_and_losses(w)[0][i]


def reference_local_sgd(eigs, mu, w, tau, eta_c, sigma, rng):
    """The per-client recursion the batched kernel must reproduce row by row."""
    d = w.shape[0]
    grad_sum = np.zeros_like(w)
    w_k = w
    for _ in range(tau):
        g = eigs * (w_k - mu)
        if sigma > 0:
            g = g + rng.standard_normal(d) * (sigma / np.sqrt(d))
        grad_sum = grad_sum + g
        w_k = w - (eta_c * tau) * (grad_sum / tau)
    return grad_sum / tau, w_k


def test_single_noiseless_step_returns_gradient_bitwise():
    fed = make_federation([[0.3, -1.7]], [0.8, 1.3])
    w = np.array([2.0, 0.5])
    (delta,) = local_sgd(fed, (0,), w, 1, 0.05)
    assert delta.tobytes() == gradient(fed, 0, w).tobytes()


def test_two_step_hand_recursion():
    fed = make_federation([[2.0]], [1.0])
    w = np.array([0.0])
    delta = local_sgd(fed, (0,), w, 2, 0.5)
    assert delta[0, 0] == -1.5  # iterates 0 -> 1 -> 1.5, and (0 - 1.5) / (0.5 * 2)
    assert (w - (0.5 * 2) * delta[0])[0] == 1.5  # the server step lands on the final iterate
    assert w[0] == 0.0  # input untouched


def test_fixed_point_returns_zero_update():
    fed = make_federation([[1.0, -2.0, 0.5]], [1.0, 0.7, 0.2])
    for tau in (1, 3, 7):
        delta = local_sgd(fed, (0,), fed.mus[0], tau, 0.1)
        assert np.array_equal(delta, np.zeros((1, 3)))


def test_server_step_reproduces_final_iterate_bitwise():
    # With eta_s = 1 and a single participant, w - (eta_s eta_c tau) * delta
    # must equal the client's final local iterate exactly.
    rng = np.random.default_rng(40)
    for tau in (1, 2, 3, 5, 8):
        eigs = rng.uniform(0.3, 1.5, size=4)
        fed = make_federation([rng.normal(size=4)], eigs, sigma=0.4)
        w = rng.normal(size=4)
        eta_c = float(rng.uniform(0.01, 0.2))
        stream_key = int(rng.integers(1 << 30))
        delta = local_sgd(fed, (0,), w, tau, eta_c, substream_keys(stream_key, ids=[0]))
        stream = substream(stream_key, 0)
        _, w_final = reference_local_sgd(eigs, fed.mus[0], w, tau, eta_c, 0.4, stream)
        eta_tilde = (1.0 * eta_c) * tau
        reconstructed = w - eta_tilde * delta[0]
        assert reconstructed.tobytes() == w_final.tobytes()


def test_determinism_in_stream_key():
    fed = make_federation([[0.0, 0.0]], [1.0, 1.0], sigma=0.5)
    w = np.array([1.0, -1.0])
    a = local_sgd(fed, (0,), w, 4, 0.05, substream_keys(7, 3, ids=[5]))
    b = local_sgd(fed, (0,), w, 4, 0.05, substream_keys(7, 3, ids=[5]))
    c = local_sgd(fed, (0,), w, 4, 0.05, substream_keys(7, 3, ids=[6]))
    assert a.tobytes() == b.tobytes()
    assert a.tobytes() != c.tobytes()


def test_noiseless_contraction():
    rng = np.random.default_rng(41)
    eigs = np.array([0.5, 1.0, 2.0])
    L = eigs.max()
    fed = make_federation([rng.normal(size=3)], eigs)
    for eta_c in (0.1 / L, 0.9 / L, 1.9 / L):
        for tau in (1, 2, 6):
            w = rng.normal(size=3)
            (delta,) = local_sgd(fed, (0,), w, tau, eta_c)
            _, w_final = reference_local_sgd(eigs, fed.mus[0], w, tau, eta_c, 0.0, None)
            assert (w - (eta_c * tau) * delta).tobytes() == w_final.tobytes()
            assert np.linalg.norm(w_final - fed.mus[0]) <= np.linalg.norm(w - fed.mus[0]) * (
                1 + 1e-12
            )


def test_divergence_raises_with_step_index():
    fed = make_federation([[0.0]], [1.0])
    with pytest.raises(DivergenceError) as err:
        local_sgd(fed, (0,), np.array([1.0]), 500, 1e200)
    assert err.value.step >= 0
    assert err.value.step < 500


def test_divergence_step_is_that_of_the_first_diverging_row():
    # Each local step multiplies |w - mu| by about 1e100, so client 0,
    # starting 1e-300 from its minimizer, overflows several steps after
    # client 1, starting 1 away. Trained one after another, client 0 is
    # the first to raise, with its own (later) step.
    fed = make_federation([[1e-300], [1.0]], [1.0])
    w = np.array([0.0])
    steps = []
    for i in (0, 1):
        with pytest.raises(DivergenceError) as alone:
            local_sgd(fed, (i,), w, 50, 1e100)
        steps.append(alone.value.step)
    assert steps[0] > steps[1]
    with pytest.raises(DivergenceError) as err:
        local_sgd(fed, (0, 1), w, 50, 1e100)
    assert err.value.step == steps[0]
    # Split into slabs, client 0 is slab 0 and client 1 diverges first in
    # slab 1; the lower row's step is still the one reported.
    with forced_split(), pytest.raises(DivergenceError) as err:
        local_sgd(fed, (0, 1), w, 50, 1e100)
    assert err.value.step == steps[0]


def test_divergence_in_a_worker_slab_is_a_divergence_not_a_warning():
    # Only client 1, trained in the second slab's thread, overflows. The
    # suite turns warnings into errors, so a worker without its own
    # errstate would surface a RuntimeWarning here instead.
    fed = make_federation([[0.0], [1.0]], [1.0])
    w = np.array([0.0])
    with pytest.raises(DivergenceError) as alone:
        local_sgd(fed, (1,), w, 50, 1e100)
    with forced_split(), pytest.raises(DivergenceError) as err:
        local_sgd(fed, (0, 1), w, 50, 1e100)
    assert err.value.step == alone.value.step


def test_a_stacked_call_reports_each_rows_first_divergent_step():
    # At eta_c = 10 a local step multiplies |w - mu| by about 10, so over
    # 50 steps a distance of 1e280 (replicate 0, row 0) overflows, later
    # than one of 1e300 (replicate 2, row 1), and replicate 1 stays finite.
    # Split in two, slab 1 holds replicate 2 and diverges at the earlier step.
    mus = np.array([[[1e280], [0.5]], [[1.0], [-2.0]], [[0.25], [1e300]]])
    fed = make_federation(mus, [1.0])
    ids, w = np.array([[0, 1]] * 3), np.zeros((3, 1))
    solo = []
    for r in (0, 2):
        with pytest.raises(DivergenceError) as alone:
            local_sgd(make_federation(mus[r], [1.0]), ids[r], w[r], 50, 10.0)
        solo.append(alone.value.step)
    assert solo[1] < solo[0]
    finite = local_sgd(make_federation(mus[1], [1.0]), ids[1], w[1], 50, 10.0)
    for split in (1, 2):
        with forced_split(split), pytest.raises(DivergenceError) as err:
            local_sgd(fed, ids, w, 50, 10.0)
        exc = err.value
        assert exc.step == solo[0]
        assert exc.steps.tolist() == [[solo[0], -1], [-1, -1], [-1, solo[1]]]
        assert exc.block.shape == (3, 2, 1) and exc.block[1].tobytes() == finite.tobytes()


def test_no_slabs_steps_are_lost_under_contention():
    # Eight slabs, more than the cores, record their rows' steps as they
    # finish; a short switch interval interleaves them. Rows 1e200 to 1e300
    # from their minimizers diverge at steps that fall with the distance,
    # and the nearest stay finite.
    fed = make_federation(10.0 ** np.linspace(200, 300, 64)[:, None], [1.0])
    ids, w = np.arange(64), np.zeros(1)
    with pytest.raises(DivergenceError) as one_slab:
        local_sgd(fed, ids, w, 50, 10.0)
    expected = one_slab.value.steps.tolist()
    assert expected[0] == -1 and len(set(expected)) > 10
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            with forced_split(workers=8), pytest.raises(DivergenceError) as err:
                local_sgd(fed, ids, w, 50, 10.0)
            assert err.value.steps.tolist() == expected
    finally:
        sys.setswitchinterval(interval)


def test_equal_keys_give_equal_rows_under_a_split():
    # A row's noise depends on its key alone: rows given one key are
    # equal, in one slab or spread over threads that each rekey their
    # own generator, and equal to that key's stream trained alone.
    fed = make_federation([[0.5, -1.0, 2.0]] * 3, [1.0, 0.5, 2.0], sigma=0.7)
    w = np.array([1.0, 1.0, 1.0])
    parts = np.zeros(64, dtype=int)
    keys = np.repeat(substream_keys(5, ids=[1]), len(parts), axis=0)
    serial = local_sgd(fed, parts, w, 3, 0.1, keys)
    with forced_split(workers=4):
        split = local_sgd(fed, parts, w, 3, 0.1, keys)
    alone = local_sgd(fed, (0,), w, 3, 0.1, keys[:1])
    assert split.tobytes() == serial.tobytes() == np.repeat(alone, len(parts), axis=0).tobytes()


def test_noisy_call_needs_one_key_per_participant():
    fed = make_federation([[0.0, 1.0]] * 3, [1.0, 2.0], sigma=0.5)
    keys = substream_keys(3, ids=[0, 1, 2])
    for bad in (None, keys[:2], keys[:, :1], keys.ravel(), [substream(3, 0)] * 3):
        with pytest.raises(ConfigError, match="key block"):
            local_sgd(fed, (0, 1, 2), np.zeros(2), 1, 0.1, bad)
    # A noiseless federation reads no keys.
    plain = make_federation([[0.0, 1.0]] * 3, [1.0, 2.0])
    assert local_sgd(plain, (0, 1, 2), np.zeros(2), 1, 0.1, keys).tobytes() == (
        local_sgd(plain, (0, 1, 2), np.zeros(2), 1, 0.1).tobytes()
    )


def test_local_steps_and_rate_are_checked():
    fed = make_federation([[0.0]], [1.0])
    with pytest.raises(ConfigError, match="tau"):
        local_sgd(fed, (0,), np.zeros(1), 0, 0.1)
    with pytest.raises(ConfigError, match="eta_c"):
        local_sgd(fed, (0,), np.zeros(1), 1, 0.0)


def test_one_cpu_trains_inline(monkeypatch):
    def no_threads(*args, **kwargs):
        raise AssertionError("a one-slab call must not start a thread")

    monkeypatch.setattr(core.threading, "Thread", no_threads)
    fed = make_federation(np.ones((4, 3)), [1.0, 0.5, 2.0])
    with forced_split(workers=1):
        local_sgd(fed, (0, 1, 2, 3), np.zeros(3), 2, 0.1)
    # Eight CPUs, but 4 * 2 * 3 elements of work, far below SPLIT_MIN_WORK.
    monkeypatch.setattr(core, "WORKERS", 8)
    assert 4 * 2 * 3 < core.SPLIT_MIN_WORK
    local_sgd(fed, (0, 1, 2, 3), np.zeros(3), 2, 0.1)


@settings(max_examples=80, deadline=None, database=None)
@given(
    M=st.integers(1, 8),
    tau=st.integers(1, 6),
    d=st.sampled_from([1, 2, 3, 17]),
    noisy=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    workers=st.sampled_from([2, 3, 8]),
)
def test_batched_kernel_matches_per_client_recursion(M, tau, d, noisy, seed, workers):
    rng = np.random.default_rng(seed)
    N = M + int(rng.integers(0, 4))
    sigma = float(rng.uniform(0.1, 2.0)) if noisy else 0.0
    fed = make_federation(rng.normal(size=(N, d)), rng.uniform(0.1, 2.0, size=d), sigma)
    parts = tuple(int(i) for i in rng.choice(N, size=M, replace=False))
    w = rng.normal(size=d)
    eta_c = float(rng.uniform(0.01, 0.5))

    def train():
        return local_sgd(fed, parts, w, tau, eta_c, philox_keys(seed, TAG_LOCAL, 7, ids=parts))

    inline = train()
    # The same draws split into min(M, workers) row slabs, M below the
    # worker count included.
    with forced_split(workers):
        split = train()
    for deltas in (inline, split):
        assert deltas.shape == (M, d)
        for m, i in enumerate(parts):
            ref_delta, ref_final = reference_local_sgd(
                fed.eigs, fed.mus[i], w, tau, eta_c, sigma, substream(seed, TAG_LOCAL, 7, i)
            )
            assert deltas[m].tobytes() == ref_delta.tobytes()
            # Module identities: the server step with eta_s = 1 lands on the
            # final local iterate, and a noiseless single step is the gradient.
            assert (w - (1.0 * eta_c * tau) * deltas[m]).tobytes() == ref_final.tobytes()
            if tau == 1 and not noisy:
                assert deltas[m].tobytes() == gradient(fed, i, w).tobytes()
