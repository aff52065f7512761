"""Server-side aggregation strategies over one round of client updates.

Four strategies share one update shape: average the received updates,
optionally add a correction built from server-side state, then take the
effective server step.

    fedavg          no state
    fedvarp         per-client table of latest updates (N singleton clusters)
    clusterfedvarp  one shared state per client cluster
    mifa            per-client table, equal weight to stored updates

aggregator_step runs a round of any of them for a stack of R servers on
each replicate's participant ids, distinct and ascending, and their
updates as one (R, M, d) block, row [r, m] for client participants[r, m];
it branches once on the state's algorithm. Table writes are
fancy-indexed row assignments and every sum is an array reduction. No
step loops over participants or clusters in Python; the one Python loop
is the stored-update refresh's, one in-place slice add per member rank
after the first, so as many as the most members any sampled cluster
has, less one (none for fedvarp).

Floating-point schedule is part of the contract here, not an accident.
Every sum has the bits of a sequential loop acc = 0; acc = acc + row in
ascending client/cluster id (core.sum_rows, core.ordered_row_sum), and
the state correction is assembled as

    (sum_k table_k * (n_k / N)) - (sum_k table_k * (m_k / M))

with n_k = cluster size and m_k = sampled members. The coefficients make
degenerate configurations exact arithmetic identities: one cluster gives
n_k/N = m_k/M = 1 so the correction cancels bitwise (fedavg), singleton
clusters give coefficient 1/N resp. 1/M per client (fedvarp), and a
single participant reproduces a classical SAGA step bitwise. Tests
assert these equalities at the bit level; do not reorder the sums.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .core import (
    CLUSTERFEDVARP,
    FEDAVG,
    FEDVARP,
    MIFA,
    ConfigError,
    DimensionError,
    ordered_row_sum,
    sum_rows,
)


@dataclass
class ServerAggregatorState:
    """Mutable memory of a stack of R servers: the models w (R, d) and tables (R, rows, d) of stored updates.

    N is the number of clients. table rows start at zero: one row per
    client for mifa, one per cluster for fedvarp and clusterfedvarp.
    The stored-update kernel alone has the rest: assignment maps each
    client to its row (the identity for fedvarp), and weights holds each
    row's coefficient n_k/N in the sum over all rows, n_k being the
    row's number of clients: one scalar when every row has the same size
    (fedvarp always, clusterfedvarp when K | N), else a (K, 1) column.
    The R servers share N, assignment and weights.
    """

    algo: str
    w: np.ndarray
    N: int
    table: np.ndarray | None = None
    assignment: np.ndarray | None = None
    weights: np.ndarray | np.float64 | None = None


def init_state(
    algo: str,
    w0: np.ndarray,
    N: int,
    K: int | None = None,
    assignment: np.ndarray | None = None,
) -> ServerAggregatorState:
    """Zero-initialized state of a stack of R aggregators for N clients, one per row of the (R, d) w0."""
    if np.ndim(w0) != 2:
        raise DimensionError(f"w0 must be an (R, d) stack, got shape {np.shape(w0)}")
    R, d = np.shape(w0)
    state = ServerAggregatorState(algo=algo, w=np.array(w0, dtype=np.float64), N=N)
    if algo == FEDVARP:  # N singleton clusters
        K, assignment = N, np.arange(N)
    if algo in (FEDVARP, CLUSTERFEDVARP):
        if K is None or assignment is None:
            raise ConfigError("clusterfedvarp needs K and a client->cluster assignment")
        assignment = np.asarray(assignment, dtype=np.int64)
        if assignment.shape != (N,):
            raise ConfigError(f"assignment must cover all {N} clients")
        if assignment.min() < 0 or assignment.max() >= K:
            raise ConfigError(f"cluster ids must lie in [0, {K})")
        state.table = np.zeros((R, K, d))
        state.assignment = assignment
        weights = np.bincount(assignment, minlength=K) / N
        # Equal clusters (fedvarp always, clusterfedvarp when K | N) share
        # one weight, which scales a block as a scalar: the same products.
        state.weights = weights[0] if (weights == weights[0]).all() else weights[:, None]
    elif algo == MIFA:
        state.table = np.zeros((R, N, d))
    elif algo != FEDAVG:
        raise ConfigError(f"unknown algorithm tag {algo!r}")
    return state


def aggregator_step(
    state: ServerAggregatorState, participants, block: np.ndarray, eta_tilde: float
) -> np.ndarray:
    """One server round of state.algo for each of its R replicates; returns the new (R, d) models state.w.

    participants: (R, M) ids, each row distinct and ascending; row [r, m]
    of the (R, M, d) block is the update of client participants[r, m] of
    replicate r. Each replicate has the bits of a stack of one.
    """
    if state.w.ndim != 2:
        raise DimensionError(f"the server state must hold an (R, d) stack, got shape {state.w.shape}")
    ids = np.asarray(participants, dtype=np.intp)
    (R, d), N = state.w.shape, state.N
    if (
        ids.ndim != 2
        or ids.shape[0] != R
        or not ids.size
        or (ids[:, 1:] <= ids[:, :-1]).any()
        or ids[:, 0].min() < 0
        or ids[:, -1].max() >= N
    ):
        raise ConfigError(f"participants must be ({R}, M) distinct ascending ids in [0, {N}), got {participants}")
    M = ids.shape[1]
    block = np.asarray(block, dtype=np.float64)
    if block.shape != (R, M, d):
        raise DimensionError(f"update block shape {block.shape} != {(R, M, d)}")
    # Overflow anywhere in the step, a sum of finite updates included,
    # surfaces as a divergence error in the run loop, not a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        if state.algo == FEDAVG:
            v = sum_rows(block) / M
        elif state.algo == MIFA:  # stored and fresh updates weigh the same
            state.table[np.arange(R)[:, None], ids] = block  # through the 3-D table: a reshape may copy
            v = sum_rows(state.table) / N
        else:
            v = _stored_update(state, ids, block)
        state.w = state.w - eta_tilde * v
    return state.w


def _stored_update(state: ServerAggregatorState, ids: np.ndarray, block: np.ndarray) -> np.ndarray:
    """The fedvarp/clusterfedvarp update v of each replicate; refreshes the tables afterwards.

    v = mean_{i in S}(delta_i - y_{c_i}) + (1/N) sum_j y_{c_j}, all terms
    from the pre-round table; then every cluster with sampled members
    stores the mean update of those members, other clusters keep their
    state. With singleton clusters this is fedvarp: the coefficients are
    1/M and 1/N and the refresh stores delta_i / 1. ids is (R, M) and
    block (R, M, d); row r*K + k of the R tables, counted as one (R*K, d)
    table, is cluster k of replicate r, at (r, k) of the 3-D table.
    """
    R, M, d = block.shape
    table = state.table
    K, n = table.shape[1], R * M
    slot = (state.assignment[ids] + np.arange(0, R * K, K)[:, None]).ravel()
    # Sorted by table row, each row's members keep their block order and
    # replicate r's rows are the places r*M..(r+1)*M-1. rank is a row's
    # place among its cluster's members; ranks[j] counts the clusters
    # with more than j members, so ranks[0] is the number of hit rows.
    order = slot.argsort(kind="stable")
    sorted_slot = slot.take(order)
    first = sorted_slot.searchsorted(sorted_slot)
    rank = np.arange(n) - first
    ranks = np.bincount(rank).tolist()
    hits, single = ranks[0], len(ranks) == 1
    if single:  # one member per hit row: the refresh takes the rows in sorted order
        hit, pick = sorted_slot, order
    else:
        # The refresh takes the rows by rank, then by member count, then
        # by table row: rank j's clusters are the last ranks[j] of rank
        # j - 1's, and the first `hits` rows are the hit rows' first
        # members, at the sorted places `heads`.
        counts = sorted_slot.searchsorted(sorted_slot, side="right") - first
        pass_order = np.lexsort((counts, rank))
        heads = pass_order[:hits]
        hit, members = sorted_slot.take(heads), counts.take(heads)
        pick = order.take(pass_order)
    at = np.divmod(hit, K)  # (replicate, cluster) of each hit row

    # t_part sums each replicate's hit rows, scaled by m_k/M, in
    # ascending cluster order: in sorted order when every hit row has one
    # member, else each at its first member's sorted place. Replicates
    # with fewer hit rows get +0.0 rows at their other members' places,
    # which leave each sum unchanged. The sum over all K rows reads the
    # table in small blocks and never copies it whole. Empty clusters get
    # weight 0 instead of being skipped: that adds ±0.0, which leaves a
    # sum started at +0.0 unchanged.
    part = table[at]
    if single:
        part *= 1 / M
    else:
        part *= (members / M)[:, None]
        if R == 1:
            part = part.take(heads.argsort(), axis=0)
        else:
            scaled, part = part, np.zeros((n, d))
            part[heads] = scaled
    t_part = sum_rows(part.reshape(R, -1, d))
    weights = state.weights
    t_all = ordered_row_sum(
        K, d, lambda lo, hi, out: np.multiply(table[:, lo:hi], weights[lo:hi] if weights.ndim else weights, out=out), (R,)
    )
    v = sum_rows(block) / M + (t_all - t_part)

    # Refresh: the block rows in pass order, rank by rank. Rank 0 starts
    # every hit row's sum from +0.0 (a -0.0 update stores +0.0), and
    # rank j adds its rows to the sums of the last ranks[j] clusters, so
    # each cluster adds its members left to right.
    rows = block.reshape(n, d).take(pick, axis=0)
    sums = rows[:hits]
    sums += 0.0
    lo = hits
    for clusters in ranks[1:]:
        sums[hits - clusters :] += rows[lo : lo + clusters]
        lo += clusters
    if not single:
        sums /= members[:, None]
    table[at] = sums
    return v


def cluster_miss_probability(N: int, r: int, M: int) -> float:
    """Probability that an M-subset of [N] misses a fixed r-client cluster.

    Equals C(N-r, M) / C(N, M); zero once M > N - r. Requires the
    equal-size clustering r | N that the rate analysis assumes.
    """
    if r < 1 or r > N:
        raise ConfigError(f"cluster size r must be in [1, N], got r={r} N={N}")
    if N % r != 0:
        raise ConfigError(f"equal-size clusters need r | N, got N={N} r={r}")
    if not 1 <= M <= N:
        raise ConfigError(f"need 1 <= M <= N, got M={M} N={N}")
    return comb(N - r, M) / comb(N, M)
