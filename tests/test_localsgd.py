import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import forced_split, make_federation, substream_keys
from reference import local_sgd as reference_local_sgd
from fedvarp_sim import localsgd
from fedvarp_sim.core import ConfigError
from fedvarp_sim.localsgd import local_sgd
from fedvarp_sim.rng import TAG_LOCAL, philox_keys, substream


def gradient(fed, i, w):
    """Client i's exact gradient at w, of a stack of one federation."""
    return fed.grads_and_losses(w)[0][0, i]


def test_single_noiseless_step_returns_gradient_bitwise():
    fed = make_federation([[[0.3, -1.7]]], [0.8, 1.3])
    w = np.array([[2.0, 0.5]])
    [[delta]], _ = local_sgd(fed, [[0]], w, 1, 0.05)
    assert delta.tobytes() == gradient(fed, 0, w).tobytes()


def test_two_step_hand_recursion():
    fed = make_federation([[[2.0]]], [1.0])
    w = np.array([[0.0]])
    delta, _ = local_sgd(fed, [[0]], w, 2, 0.5)
    assert delta[0, 0, 0] == -1.5  # iterates 0 -> 1 -> 1.5, and (0 - 1.5) / (0.5 * 2)
    assert (w - (0.5 * 2) * delta[:, 0])[0, 0] == 1.5  # the server step lands on the final iterate
    assert w[0, 0] == 0.0  # input untouched


def test_fixed_point_returns_zero_update():
    fed = make_federation([[[1.0, -2.0, 0.5]]], [1.0, 0.7, 0.2])
    for tau in (1, 3, 7):
        delta, _ = local_sgd(fed, [[0]], fed.mus[:, 0], tau, 0.1)
        assert np.array_equal(delta, np.zeros((1, 1, 3)))


def test_server_step_reproduces_final_iterate_bitwise():
    # With eta_s = 1 and a single participant, w - (eta_s eta_c tau) * delta
    # must equal the client's final local iterate exactly.
    rng = np.random.default_rng(40)
    for tau in (1, 2, 3, 5, 8):
        eigs = rng.uniform(0.3, 1.5, size=4)
        fed = make_federation([[rng.normal(size=4)]], eigs, sigma=0.4)
        w = rng.normal(size=(1, 4))
        eta_c = float(rng.uniform(0.01, 0.2))
        stream_key = int(rng.integers(1 << 30))
        [[delta]], _ = local_sgd(fed, [[0]], w, tau, eta_c, substream_keys(stream_key, ids=[0])[None])
        stream = substream(stream_key, 0)
        _, w_final, _ = reference_local_sgd(eigs, fed.mus[0, 0], w[0], tau, eta_c, 0.4, stream)
        eta_tilde = (1.0 * eta_c) * tau
        reconstructed = w[0] - eta_tilde * delta
        assert reconstructed.tobytes() == w_final.tobytes()


def test_determinism_in_stream_key():
    fed = make_federation([[[0.0, 0.0]]], [1.0, 1.0], sigma=0.5)
    w = np.array([[1.0, -1.0]])
    a, _ = local_sgd(fed, [[0]], w, 4, 0.05, substream_keys(7, 3, ids=[5])[None])
    b, _ = local_sgd(fed, [[0]], w, 4, 0.05, substream_keys(7, 3, ids=[5])[None])
    c, _ = local_sgd(fed, [[0]], w, 4, 0.05, substream_keys(7, 3, ids=[6])[None])
    assert a.tobytes() == b.tobytes()
    assert a.tobytes() != c.tobytes()


def test_noiseless_contraction():
    rng = np.random.default_rng(41)
    eigs = np.array([0.5, 1.0, 2.0])
    L = eigs.max()
    fed = make_federation([[rng.normal(size=3)]], eigs)
    mu = fed.mus[0, 0]
    for eta_c in (0.1 / L, 0.9 / L, 1.9 / L):
        for tau in (1, 2, 6):
            w = rng.normal(size=(1, 3))
            [[delta]], _ = local_sgd(fed, [[0]], w, tau, eta_c)
            _, w_final, _ = reference_local_sgd(eigs, mu, w[0], tau, eta_c, 0.0, None)
            assert (w[0] - (eta_c * tau) * delta).tobytes() == w_final.tobytes()
            assert np.linalg.norm(w_final - mu) <= np.linalg.norm(w[0] - mu) * (1 + 1e-12)


def test_divergence_reports_its_step_index():
    fed = make_federation([[[0.0]]], [1.0])
    _, [[step]] = local_sgd(fed, [[0]], np.array([[1.0]]), 500, 1e200)
    assert 0 <= step < 500


def test_each_row_reports_its_own_first_divergent_step():
    # Each local step multiplies |w - mu| by about 1e100, so client 0,
    # starting 1e-300 from its minimizer, overflows several steps after
    # client 1, starting 1 away. Trained together, each row reports the
    # step it reports alone.
    fed = make_federation([[[1e-300], [1.0]]], [1.0])
    w = np.array([[0.0]])
    alone = [local_sgd(fed, [[i]], w, 50, 1e100)[1][0, 0] for i in (0, 1)]
    assert alone[0] > alone[1] >= 0
    _, steps = local_sgd(fed, [[0, 1]], w, 50, 1e100)
    assert steps.tolist() == [alone]
    # Split into slabs, client 0 is slab 0 and client 1 diverges first in
    # slab 1; each row still reports its own step.
    with forced_split():
        _, steps = local_sgd(fed, [[0, 1]], w, 50, 1e100)
    assert steps.tolist() == [alone]


def test_divergence_in_a_worker_slab_is_a_divergence_not_a_warning():
    # Only client 1, trained in the second slab's thread, overflows. The
    # suite turns warnings into errors, so a worker without its own
    # errstate would surface a RuntimeWarning here instead.
    fed = make_federation([[[0.0], [1.0]]], [1.0])
    w = np.array([[0.0]])
    _, [[alone]] = local_sgd(fed, [[1]], w, 50, 1e100)
    assert alone >= 0
    with forced_split():
        _, steps = local_sgd(fed, [[0, 1]], w, 50, 1e100)
    assert steps.tolist() == [[-1, alone]]


def test_a_stacked_call_reports_each_rows_first_divergent_step():
    # At eta_c = 10 a local step multiplies |w - mu| by about 10, so over
    # 50 steps a distance of 1e280 (replicate 0, row 0) overflows, later
    # than one of 1e300 (replicate 2, row 1), and replicate 1 stays finite.
    # Split in two, slab 1 holds replicate 2 and diverges at the earlier step.
    mus = np.array([[[1e280], [0.5]], [[1.0], [-2.0]], [[0.25], [1e300]]])
    fed = make_federation(mus, [1.0])
    ids, w = np.array([[0, 1]] * 3), np.zeros((3, 1))
    solo = [
        local_sgd(make_federation(mus[r : r + 1], [1.0]), ids[r : r + 1], w[r : r + 1], 50, 10.0)[1].max()
        for r in (0, 2)
    ]
    assert 0 <= solo[1] < solo[0]
    finite, _ = local_sgd(make_federation(mus[1:2], [1.0]), ids[1:2], w[1:2], 50, 10.0)
    for split in (1, 2):
        with forced_split(split):
            block, steps = local_sgd(fed, ids, w, 50, 10.0)
        assert steps.tolist() == [[solo[0], -1], [-1, -1], [-1, solo[1]]]
        assert block.shape == (3, 2, 1) and block[1].tobytes() == finite.tobytes()


def test_no_slabs_steps_are_lost_under_contention():
    # Eight slabs, more than the cores, record their rows' steps as they
    # finish; a short switch interval interleaves them. Rows 1e200 to 1e300
    # from their minimizers diverge at steps that fall with the distance,
    # and the nearest stay finite.
    fed = make_federation(10.0 ** np.linspace(200, 300, 64)[None, :, None], [1.0])
    ids, w = np.arange(64)[None], np.zeros((1, 1))
    expected = local_sgd(fed, ids, w, 50, 10.0)[1].tolist()
    assert expected[0][0] == -1 and len(set(expected[0])) > 10
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            with forced_split(workers=8):
                _, steps = local_sgd(fed, ids, w, 50, 10.0)
            assert steps.tolist() == expected
    finally:
        sys.setswitchinterval(interval)


class SlabError(Exception):
    pass


@pytest.mark.parametrize("failing,raised", [((1, 3), 1), ((0, 1, 3), 0)])
def test_a_failing_slab_is_raised_once_every_slab_ran(failing, raised):
    # Eight rows in four slabs of two: the lowest failing slab's error is
    # the one raised, after every slab, a failing one included, has run.
    # Each slab's scratch is made in the calling thread before any slab runs.
    ran, made = [], []

    def scratch(rows):
        made.append((threading.get_ident(), rows, len(ran)))
        return (rows,)

    def fill(lo, hi, rows):
        assert rows == hi - lo
        ran.append((lo, hi))
        if lo // 2 in failing:
            raise SlabError(lo // 2)

    with forced_split(workers=4), pytest.raises(SlabError) as err:
        localsgd.run_slabs(8, 1, fill, scratch)
    assert sorted(ran) == [(0, 2), (2, 4), (4, 6), (6, 8)]
    assert made == [(threading.get_ident(), 2, 0)] * 4
    assert err.value.args == (raised,)


def test_equal_keys_give_equal_rows_under_a_split():
    # A row's noise depends on its key alone: rows given one key are
    # equal, in one slab or spread over threads that each rekey their
    # own generator, and equal to that key's stream trained alone.
    fed = make_federation([[[0.5, -1.0, 2.0]] * 3], [1.0, 0.5, 2.0], sigma=0.7)
    w = np.array([[1.0, 1.0, 1.0]])
    parts = np.zeros((1, 64), dtype=int)
    keys = np.repeat(substream_keys(5, ids=[1]), 64, axis=0)[None]
    serial, _ = local_sgd(fed, parts, w, 3, 0.1, keys)
    with forced_split(workers=4):
        split, _ = local_sgd(fed, parts, w, 3, 0.1, keys)
    alone, _ = local_sgd(fed, [[0]], w, 3, 0.1, keys[:, :1])
    assert split.tobytes() == serial.tobytes() == np.repeat(alone, 64, axis=1).tobytes()


def test_noisy_call_needs_one_key_per_participant():
    fed = make_federation([[[0.0, 1.0]] * 3], [1.0, 2.0], sigma=0.5)
    keys = substream_keys(3, ids=[0, 1, 2])[None]
    for bad in (None, keys[0], keys[:, :2], keys[..., :1], keys.ravel(), [[substream(3, 0)] * 3]):
        with pytest.raises(ConfigError, match="key block"):
            local_sgd(fed, [[0, 1, 2]], np.zeros((1, 2)), 1, 0.1, bad)
    # A noiseless federation reads no keys.
    plain = make_federation([[[0.0, 1.0]] * 3], [1.0, 2.0])
    assert local_sgd(plain, [[0, 1, 2]], np.zeros((1, 2)), 1, 0.1, keys)[0].tobytes() == (
        local_sgd(plain, [[0, 1, 2]], np.zeros((1, 2)), 1, 0.1)[0].tobytes()
    )


def test_local_steps_and_rate_are_checked():
    fed = make_federation([[[0.0]]], [1.0])
    with pytest.raises(ConfigError, match="tau"):
        local_sgd(fed, [[0]], np.zeros((1, 1)), 0, 0.1)
    with pytest.raises(ConfigError, match="eta_c"):
        local_sgd(fed, [[0]], np.zeros((1, 1)), 1, 0.0)


def test_one_cpu_trains_inline(monkeypatch):
    def no_threads(*args, **kwargs):
        raise AssertionError("a one-slab call must not start a thread")

    monkeypatch.setattr(localsgd.threading, "Thread", no_threads)
    fed = make_federation(np.ones((1, 4, 3)), [1.0, 0.5, 2.0])
    with forced_split(workers=1):
        local_sgd(fed, [[0, 1, 2, 3]], np.zeros((1, 3)), 2, 0.1)
    # Eight CPUs, but 4 * 2 * 3 elements of work, far below SPLIT_MIN_WORK.
    monkeypatch.setattr(localsgd, "WORKERS", 8)
    assert 4 * 2 * 3 < localsgd.SPLIT_MIN_WORK
    local_sgd(fed, [[0, 1, 2, 3]], np.zeros((1, 3)), 2, 0.1)


@pytest.mark.parametrize("tile", [1, 2, 3])
def test_rows_trained_a_tile_at_a_time_match_the_per_client_recursion(monkeypatch, tile):
    # Two replicates of M = 7 split into two slabs of 7 rows, each trained tile rows at a time: 7 is no
    # multiple of 2 or 3, so every slab ends on a short tile. Rows [0, 4] and [1, 6], 1e300 and 1e298 from
    # their minimizers, diverge in a later tile of their slab at steps of their own; the rest stay finite.
    R, M, N, d, tau, eta_c, sigma, seed = 2, 7, 9, 3, 12, 10.0, 0.5, 8
    rng = np.random.default_rng(seed)
    eigs = rng.uniform(0.5, 1.0, size=d)
    mus = rng.normal(size=(R, N, d))
    parts = np.array([rng.permutation(N)[:M] for _ in range(R)])
    mus[0, parts[0, 4]] = 1e300
    mus[1, parts[1, 6]] = 1e298
    fed = make_federation(mus, eigs, sigma)
    w = rng.normal(size=(R, d))
    keys = np.array([philox_keys(seed, TAG_LOCAL, r, ids=ids) for r, ids in enumerate(parts)])
    monkeypatch.setattr(localsgd, "ROW_BLOCK_BYTES", 8 * d * tile)
    assert localsgd.tile_rows(d) == tile
    with forced_split():
        deltas, steps = local_sgd(fed, parts, w, tau, eta_c, keys)
    with np.errstate(over="ignore", invalid="ignore"):
        refs = [
            reference_local_sgd(eigs, mus[r, i], w[r], tau, eta_c, sigma, substream(seed, TAG_LOCAL, r, i))
            for r, i in np.ndindex(R, M) for i in [parts[r, i]]
        ]
    assert deltas.tobytes() == np.array([delta for delta, _, _ in refs]).tobytes()
    expected = [-1 if bad is None else bad for _, _, bad in refs]
    assert steps.ravel().tolist() == expected
    assert [m for m, step in enumerate(expected) if step >= 0] == [4, M + 6]
    assert expected[4] != expected[M + 6]


def test_a_noisy_call_allocates_no_noise_block_of_all_its_rows(monkeypatch):
    # deep-local's shape in one slab. The peak is the three (R*M, d) arrays a call must hold (minimizers,
    # start rows and result) plus one tile's scratch, (8, tau, d) of noise at d = 2000: 3.4 MB, where
    # one (R*M, tau, d) noise block alone is 4 MB.
    R, M, N, d, tau = 1, 50, 200, 2000, 5
    monkeypatch.setattr(localsgd, "WORKERS", 1)
    rng = np.random.default_rng(3)
    fed = make_federation(rng.normal(size=(R, N, d)), rng.uniform(0.5, 1.0, size=d), sigma=0.5)
    parts, w = np.arange(M)[None], np.zeros((R, d))
    keys = philox_keys(3, TAG_LOCAL, 0, ids=parts[0])[None]
    block, rows = 8 * R * M * tau * d, 8 * R * M * d
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        local_sgd(fed, parts, w, tau, 0.01, keys)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 3 * rows + block / 3 < block


@settings(max_examples=80, deadline=None, database=None)
@given(
    R=st.integers(1, 3),
    M=st.integers(1, 8),
    tau=st.integers(1, 6),
    d=st.sampled_from([1, 2, 3, 17]),
    noisy=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    workers=st.sampled_from([2, 3, 8]),
    tile=st.sampled_from([None, 1, 2, 3]),
)
def test_batched_kernel_matches_per_client_recursion(R, M, tau, d, noisy, seed, workers, tile):
    # Replicate r: minimizers at its own scale, 1e-3 to 1e3, participants in a random order (each row's
    # bits depend on its own inputs alone), and participant i's draws from (seed, TAG_LOCAL, r, i).
    rng = np.random.default_rng(seed)
    N = M + int(rng.integers(0, 4))
    sigma = float(rng.uniform(0.1, 2.0)) if noisy else 0.0
    eigs = rng.uniform(0.1, 2.0, size=d)
    eigs[rng.random(d) < 0.3] = 0.0  # zero curvature: gradient components of ±0.0
    mus = rng.normal(size=(R, N, d)) * 10.0 ** rng.integers(-3, 4, size=(R, 1, 1))
    fed = make_federation(mus, eigs, sigma)
    parts = [tuple(int(i) for i in rng.choice(N, size=M, replace=False)) for _ in range(R)]
    w = rng.normal(size=(R, d))
    eta_c = float(rng.uniform(0.01, 0.5))
    keys = np.array([philox_keys(seed, TAG_LOCAL, r, ids=ids) for r, ids in enumerate(parts)])

    inline, _ = local_sgd(fed, parts, w, tau, eta_c, keys)
    # The same draws split into min(R * M, workers) row slabs, R * M below the worker count included,
    # each trained tile rows at a time, or all at once (tile None) at these d.
    with forced_split(workers), pytest.MonkeyPatch.context() as mp:
        if tile is not None:
            mp.setattr(localsgd, "ROW_BLOCK_BYTES", 8 * d * tile)
        split, _ = local_sgd(fed, parts, w, tau, eta_c, keys)
    for deltas in (inline, split):
        assert deltas.shape == (R, M, d)
        for r, m in np.ndindex(R, M):
            i = parts[r][m]
            rng_i = substream(seed, TAG_LOCAL, r, i)
            ref_delta, ref_final, _ = reference_local_sgd(eigs, fed.mus[r, i], w[r], tau, eta_c, sigma, rng_i)
            assert deltas[r, m].tobytes() == ref_delta.tobytes()
            # Module identities: the server step with eta_s = 1 lands on the final local iterate, and
            # a noiseless single step is the gradient, added to a sum started at +0.0 (a -0.0 reads +0.0).
            assert (w[r] - (1.0 * eta_c * tau) * deltas[r, m]).tobytes() == ref_final.tobytes()
            if tau == 1 and not noisy:
                assert deltas[r, m].tobytes() == (0.0 + fed.grads_and_losses(w[:, None])[0][r, 0, i]).tobytes()
