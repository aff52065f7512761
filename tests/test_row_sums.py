"""Ordered row sums: the blocked reductions keep the bits of the row loops they replace."""
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_federation
from fedvarp_sim.aggregators import aggregator_step, init_state
from fedvarp_sim.core import (
    CLUSTERFEDVARP,
    FEDVARP,
    MIFA,
    ROW_BLOCK_BYTES,
    ordered_row_sum,
    sum_rows,
)
from fedvarp_sim.objectives import global_grad_and_loss
from fedvarp_sim.sampling import RoundPlan

# Wide enough that a block holds one row besides the running sum.
WIDE_D = ROW_BLOCK_BYTES // 16
# Values whose sums cancel exactly or keep a signed zero.
EDGE_VALUES = np.array([-0.0, 0.0, 1.0, -1.0, 0.1, -0.1, 3.0, 1e16, -1e16])


def rows_per_buffer(d):
    return max(2, ROW_BLOCK_BYTES // (8 * max(d, 2)))


def loop_sum(rows, scales):
    """The reductions as written before the helper: one row at a time from
    +0.0, skipping empty clusters, as the aggregator loop did."""
    def row(k):
        return rows[k] if scales is None else rows[k] * scales[k]

    acc = np.zeros(rows.shape[1])
    for k in range(rows.shape[0]):
        if scales is None or scales[k] > 0:
            acc = acc + row(k)
    return acc


@settings(max_examples=80, deadline=None, database=None)
@given(data=st.data())
def test_ordered_row_sum_matches_row_loop_bitwise(data):
    d = data.draw(st.sampled_from([1, 2, 3, 17, WIDE_D]), label="d")
    cap = rows_per_buffer(d)
    boundaries = sorted({max(1, b * (cap - 1) + s) for b in (1, 2, 3) for s in (-1, 0, 1, 2)})
    K = data.draw(
        st.one_of(st.integers(1, min(3 * cap + 1, 60)), st.sampled_from(boundaries)), label="K"
    )
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    scaled = data.draw(st.booleans(), label="scaled")

    rng = np.random.default_rng(seed)
    edge = rng.random((K, d)) < 0.5
    rows = np.where(edge, rng.choice(EDGE_VALUES, size=(K, d)), rng.normal(size=(K, d)))
    scales = None
    if scaled:
        sizes = rng.integers(0, 3, size=K)  # zero sizes are empty clusters
        scales = sizes / max(1, int(sizes.sum()))

    blocks = []

    def fill(lo, hi, out):
        assert out.shape == (hi - lo, d) and out.nbytes <= ROW_BLOCK_BYTES
        blocks.append((lo, hi))
        if scales is None:
            np.copyto(out, rows[lo:hi])
        else:
            np.multiply(rows[lo:hi], scales[lo:hi, None], out=out)

    got = ordered_row_sum(K, d, fill)
    assert got.tobytes() == loop_sum(rows, scales).tobytes()
    assert [lo for lo, _ in blocks] == [0] + [hi for _, hi in blocks[:-1]]
    assert blocks[-1][1] == K
    full = rows if scales is None else rows * scales[:, None]
    assert got.tobytes() == sum_rows(full).tobytes()


def test_ordered_row_sum_zero_scale_adds_nothing():
    # A sum started at +0.0 stays +0.0 when rows of -0.0 (or finite rows
    # times a zero coefficient) follow; skipping them gives the same bits.
    rows = np.array([[-0.0, -3.0], [-0.0, 5.0], [-0.0, -0.0]])
    scales = np.array([0.0, 0.0, 1.0])
    got = ordered_row_sum(
        3, 2, lambda lo, hi, out: np.multiply(rows[lo:hi], scales[lo:hi, None], out=out)
    )
    assert got.tobytes() == np.zeros(2).tobytes()


def old_grad_and_loss(fed, w):
    """The metrics pass before blocking: (N, d) gradients, then numpy means."""
    grads, losses = fed.grads_and_losses(w)
    return grads.mean(axis=0), float(losses.mean())


def test_blocked_metrics_match_whole_table_bitwise():
    rng = np.random.default_rng(7)
    shapes = [(3000, 17), (2000, 100), (900, 300), (3, WIDE_D), (20000, 1)]
    shapes += [(1, 5), (40, 8), (8, 3), (50, 10)]  # mus fits in one block
    for N, d in shapes:
        eigs = rng.uniform(0.2, 1.7, size=d)
        eigs[rng.random(d) < 0.3] = 0.0  # zero curvature: gradient components of ±0.0
        fed = make_federation(rng.normal(size=(N, d)), eigs)
        points = [rng.normal(size=d) * s for s in (1e-3, 1.0, 1e100)]
        points.append(fed.mus.min(axis=0) - 1.0)  # every w - mu_i < 0: all -0.0 in zero columns
        for w in points:
            g, loss = global_grad_and_loss(fed, w)
            g_ref, loss_ref = old_grad_and_loss(fed, w)
            assert g.tobytes() == g_ref.tobytes(), (N, d)
            assert np.float64(loss).tobytes() == np.float64(loss_ref).tobytes(), (N, d)


def peak_traced_bytes(fn):
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_table_reductions_allocate_far_less_than_the_table():
    N, d, M = 4000, 100, 50
    bound = N * d * 8 / 4
    rng = np.random.default_rng(3)
    fed = make_federation(rng.normal(size=(N, d)), rng.uniform(0.1, 2.0, size=d))
    w = rng.normal(size=d)
    assert peak_traced_bytes(lambda: global_grad_and_loss(fed, w)) < bound

    parts = tuple(sorted(int(i) for i in rng.choice(N, size=M, replace=False)))
    plan = RoundPlan(participants=parts)
    block = rng.normal(size=(M, d))
    states = [
        init_state(FEDVARP, np.zeros(d), N),
        init_state(CLUSTERFEDVARP, np.zeros(d), N, K=N // 2, assignment=rng.integers(0, N // 2, N)),
        init_state(MIFA, np.zeros(d), N),
    ]
    for state in states:
        state.table[:] = rng.normal(size=state.table.shape)
        peak = peak_traced_bytes(lambda: aggregator_step(state, plan, block, 0.1))
        assert peak < bound, (state.algo, peak)
