"""Server-side aggregation strategies over one round of client updates.

Four strategies share one update shape: average the received updates,
optionally add a correction built from server-side state, then take the
effective server step.

    fedavg          no state
    fedvarp         per-client table of latest updates (N singleton clusters)
    clusterfedvarp  one shared state per client cluster
    mifa            per-client table, equal weight to stored updates

aggregator_step runs a round of any of them on the participants' ids,
distinct and ascending, and their updates as one (M, d) block, row m for
client participants[m]; it branches once on the state's algorithm. Table
writes are fancy-indexed row assignments and every sum is an array
reduction; no step loops over participants or clusters in Python.

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
    """Mutable server memory: the model and a table of stored updates.

    N is the number of clients. table rows start at zero: one row per
    client for mifa, one per cluster for fedvarp and clusterfedvarp.
    assignment maps each client to its row and sizes counts the clients
    per row (stored-update kernel only; fedvarp uses the identity
    assignment). A stack of R servers holds w as (R, d) and table as
    (R, rows, d); they share N, assignment and sizes.
    """

    algo: str
    w: np.ndarray
    N: int
    table: np.ndarray | None = None
    assignment: np.ndarray | None = None
    sizes: np.ndarray | None = None


def init_state(
    algo: str,
    w0: np.ndarray,
    N: int,
    K: int | None = None,
    assignment: np.ndarray | None = None,
) -> ServerAggregatorState:
    """Zero-initialized aggregator state for N clients; a (R, d) w0 gives a stack of R."""
    *lead, d = w0.shape
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
        state.table = np.zeros((*lead, K, d))
        state.assignment = assignment
        state.sizes = np.bincount(assignment, minlength=K)
    elif algo == MIFA:
        state.table = np.zeros((*lead, N, d))
    elif algo != FEDAVG:
        raise ConfigError(f"unknown algorithm tag {algo!r}")
    return state


def aggregator_step(
    state: ServerAggregatorState, participants, block: np.ndarray, eta_tilde: float
) -> np.ndarray:
    """One server round of state.algo; returns the new model state.w.

    participants: distinct ascending client ids, any 1-D int sequence;
    row m of the (M, d) block is the update of client participants[m].
    A stack of R servers takes (R, M) participants and an (R, M, d)
    block, one round of each replicate, each with the bits of its own
    step.
    """
    ids = np.asarray(participants, dtype=np.intp)
    N, lead, d = state.N, state.w.shape[:-1], state.w.shape[-1]
    if (
        ids.shape[:-1] != lead
        or ids.ndim != len(lead) + 1
        or not ids.size
        or (ids[..., 1:] <= ids[..., :-1]).any()
        or ids[..., 0].min() < 0
        or ids[..., -1].max() >= N
    ):
        raise ConfigError(f"participants must be distinct ascending ids in [0, {N}), got {participants}")
    M = ids.shape[-1]
    block = np.asarray(block, dtype=np.float64)
    if block.shape != (*lead, M, d):
        raise DimensionError(f"update block shape {block.shape} != {(*lead, M, d)}")
    # Every kernel runs on a replicate axis; a lone server is a stack of one.
    R = lead[0] if lead else 1
    ids, block = ids.reshape(R, M), block.reshape(R, M, d)
    if state.algo == FEDAVG:
        v = sum_rows(block) / M
    elif state.algo == MIFA:  # stored and fresh updates weigh the same
        table = state.table.reshape(R, N, d)
        table.reshape(R * N, d)[_stack_rows(ids, N)] = block.reshape(R * M, d)
        v = sum_rows(table) / N
    else:
        v = _stored_update(state, ids, block)
    # Overflow surfaces as a divergence error in the run loop, not a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        state.w = state.w - eta_tilde * v.reshape(state.w.shape)
    return state.w


def _stack_rows(ids: np.ndarray, rows: int) -> np.ndarray:
    """Row r*rows + ids[r, m] of an (R*rows, d) table, flattened: replicate r's row ids[r, m]."""
    R = ids.shape[0]
    return ids.ravel() if R == 1 else (ids + rows * np.arange(R)[:, None]).ravel()


def _stored_update(state: ServerAggregatorState, ids: np.ndarray, block: np.ndarray) -> np.ndarray:
    """The fedvarp/clusterfedvarp update v of each replicate; refreshes the tables afterwards.

    v = mean_{i in S}(delta_i - y_{c_i}) + (1/N) sum_j y_{c_j}, all terms
    from the pre-round table; then every cluster with sampled members
    stores the mean update of those members, other clusters keep their
    state. With singleton clusters this is fedvarp: the coefficients are
    1/M and 1/N and the refresh stores delta_i / 1. ids is (R, M) and
    block (R, M, d), R = 1 for a lone server; the R tables are read as
    one (R*K, d) table whose row r*K + k is cluster k of replicate r.
    """
    R, M, d = block.shape
    K = state.sizes.shape[0]
    table = state.table
    flat = table.reshape(R * K, d)
    slot = _stack_rows(state.assignment[ids], K)  # table row of each block row
    counts = np.bincount(slot, minlength=R * K)
    hit = counts.nonzero()[0]  # rows with sampled members: by replicate, clusters ascending
    members = counts[hit]

    # The hit rows are at most M per replicate, so they are scaled in one
    # copy, then padded with +0.0 rows to the replicate with the most;
    # the padding leaves each sum unchanged. The sum over all K rows
    # reads the table in small blocks and never copies it whole. Empty
    # clusters get coefficient 0 instead of being skipped: that adds
    # ±0.0, which leaves a sum started at +0.0 unchanged.
    hit_rows = flat[hit]
    hit_rows *= (members / M)[:, None]
    if R > 1:
        rep = hit // K
        per_rep = np.bincount(rep, minlength=R)
        padded = np.zeros((R, per_rep.max(), d))
        padded[rep, np.arange(hit.size) - (per_rep.cumsum() - per_rep)[rep]] = hit_rows
        hit_rows = padded
    t_part = sum_rows(hit_rows.reshape(R, -1, d))
    coef = state.sizes / state.N
    t_all = ordered_row_sum(
        K, d, lambda lo, hi, out: np.multiply(table[..., lo:hi, :], coef[lo:hi, None], out=out), table.shape[:-2]
    )
    v = sum_rows(block) / M + (t_all - t_part)

    # Refresh: each hit row's members, in block order, are consecutive
    # in `order` from `first`. Pass j adds every hit row's j-th member at
    # once, so each cluster sums its rows left to right.
    rows = block.reshape(R * M, d)
    order = slot.argsort(kind="stable")
    first = members.cumsum() - members
    acc = rows[order[first]]
    acc += 0.0  # the loop's +0.0 start: a -0.0 first row stores +0.0
    for j in range(1, members.max()):
        more = (members > j).nonzero()[0]
        acc[more] += rows[order[first[more] + j]]
    acc /= members[:, None]
    flat[hit] = acc
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
