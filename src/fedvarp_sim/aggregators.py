"""Server-side aggregation strategies over one round of client updates.

Four strategies share one update shape: average the received updates,
optionally add a correction built from server-side state, then take the
effective server step.

    fedavg          no state
    fedvarp         per-client table of latest updates (N singleton clusters)
    clusterfedvarp  one shared state per client cluster
    mifa            per-client table, equal weight to stored updates

A round's updates arrive as one (M, d) block: row m is the update of
client plan.participants[m], so rows are in ascending client id. Table
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
from .sampling import RoundPlan


@dataclass
class ServerAggregatorState:
    """Mutable server memory: the model and a table of stored updates.

    table rows start at zero: one row per client for mifa, one per
    cluster for fedvarp and clusterfedvarp. assignment maps each client
    to its row and sizes counts the clients per row (stored-update
    kernel only; fedvarp uses the identity assignment).
    """

    algo: str
    w: np.ndarray
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
    """Zero-initialized aggregator state for N clients."""
    d = w0.shape[0]
    state = ServerAggregatorState(algo=algo, w=np.array(w0, dtype=np.float64))
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
        state.table = np.zeros((K, d))
        state.assignment = assignment
        state.sizes = np.bincount(assignment, minlength=K)
    elif algo == MIFA:
        state.table = np.zeros((N, d))
    elif algo != FEDAVG:
        raise ConfigError(f"unknown algorithm tag {algo!r}")
    return state


def _checked_block(state: ServerAggregatorState, plan: RoundPlan, block) -> np.ndarray:
    """The round's updates as an (M, d) float64 array, row m for plan.participants[m]."""
    M = len(plan.participants)
    if not M:
        raise ConfigError("empty participant set")
    block = np.asarray(block, dtype=np.float64)
    if block.shape != (M, state.w.shape[0]):
        raise DimensionError(f"update block shape {block.shape} != {(M, state.w.shape[0])}")
    return block


def _server_step(state: ServerAggregatorState, v: np.ndarray, eta_tilde: float) -> np.ndarray:
    # Overflow surfaces as a divergence error in the run loop, not a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        state.w = state.w - eta_tilde * v
    return state.w


def fedavg_step(
    state: ServerAggregatorState, plan: RoundPlan, block: np.ndarray, eta_tilde: float
) -> np.ndarray:
    """w <- w - eta_tilde * mean of received updates."""
    if state.algo != FEDAVG:
        raise ConfigError(f"state is tagged {state.algo!r}, not fedavg")
    block = _checked_block(state, plan, block)
    return _server_step(state, sum_rows(block) / block.shape[0], eta_tilde)


def clusterfedvarp_step(
    state: ServerAggregatorState, plan: RoundPlan, block: np.ndarray, eta_tilde: float
) -> np.ndarray:
    """Variance-reduced step using one stored update per cluster.

    v = mean_{i in S}(delta_i - y_{c_i}) + (1/N) sum_j y_{c_j}, all terms
    from the pre-round table; afterwards every cluster with sampled
    members stores the mean update of those members, other clusters keep
    their state. With singleton clusters this is fedvarp: the
    coefficients are 1/M and 1/N and the refresh stores delta_i / 1.
    """
    if state.algo not in (FEDVARP, CLUSTERFEDVARP):
        raise ConfigError(f"state is tagged {state.algo!r}, not fedvarp or clusterfedvarp")
    block = _checked_block(state, plan, block)
    table = state.table
    K, d = table.shape
    M = block.shape[0]
    cl = state.assignment[list(plan.participants)]  # cluster of each row
    counts = np.bincount(cl, minlength=K)
    hit = counts.nonzero()[0]  # clusters with sampled members, ascending
    members = counts[hit]

    # The hit rows are at most M, so they are scaled in one copy. The sum
    # over all K rows reads the table in small blocks and never copies it
    # whole. Empty clusters get coefficient 0 instead of being skipped:
    # that adds ±0.0, which leaves a sum started at +0.0 unchanged.
    hit_rows = table[hit]
    hit_rows *= (members / M)[:, None]
    t_part = sum_rows(hit_rows)
    coef = state.sizes / state.assignment.shape[0]
    t_all = ordered_row_sum(
        K, d, lambda lo, hi, out: np.multiply(table[lo:hi], coef[lo:hi, None], out=out)
    )
    v = sum_rows(block) / M + (t_all - t_part)
    w = _server_step(state, v, eta_tilde)

    # Refresh: each hit cluster's members, in row order, are consecutive
    # in `order` from `first`. Pass j adds every hit cluster's j-th
    # member at once, so each cluster sums its rows left to right.
    order = cl.argsort(kind="stable")
    first = members.cumsum() - members
    acc = block[order[first]]
    acc += 0.0  # the loop's +0.0 start: a -0.0 first row stores +0.0
    for j in range(1, members.max()):
        more = (members > j).nonzero()[0]
        acc[more] += block[order[first[more] + j]]
    acc /= members[:, None]
    table[hit] = acc
    return w


def mifa_step(
    state: ServerAggregatorState, plan: RoundPlan, block: np.ndarray, eta_tilde: float
) -> np.ndarray:
    """Equal-weight baseline: refresh stored updates first, then average all.

    Stored and fresh updates get the same weight, so rounds before full
    table coverage take a biased (shrunken) step.
    """
    if state.algo != MIFA:
        raise ConfigError(f"state is tagged {state.algo!r}, not mifa")
    block = _checked_block(state, plan, block)
    table = state.table
    table[list(plan.participants)] = block
    return _server_step(state, sum_rows(table) / table.shape[0], eta_tilde)


STEP_FUNCTIONS = {
    FEDAVG: fedavg_step,
    FEDVARP: clusterfedvarp_step,
    CLUSTERFEDVARP: clusterfedvarp_step,
    MIFA: mifa_step,
}


def aggregator_step(
    state: ServerAggregatorState, plan: RoundPlan, block: np.ndarray, eta_tilde: float
) -> np.ndarray:
    """Dispatch one aggregation round by the state's algorithm tag.

    Row m of the (M, d) block is the update of client plan.participants[m].
    """
    return STEP_FUNCTIONS[state.algo](state, plan, block, eta_tilde)


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
