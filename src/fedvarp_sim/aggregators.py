"""Server-side aggregation strategies over one round of client updates.

Four strategies share one update shape: average the received updates,
optionally add a correction built from server-side state, then take the
effective server step.

    fedavg          no state
    fedvarp         per-client table of latest updates (N singleton clusters)
    clusterfedvarp  one shared state per client cluster
    mifa            per-client table, equal weight to stored updates

Floating-point schedule is part of the contract here, not an accident.
All reductions are sequential in ascending client/cluster id, and the
state correction is assembled as

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
)
from .sampling import RoundPlan


@dataclass
class RoundUpdates:
    """Normalized updates of one round, keyed by participant id."""

    plan: RoundPlan
    deltas: dict[int, np.ndarray]

    def __post_init__(self):
        if set(self.deltas) != set(self.plan.participants):
            raise ConfigError(
                f"delta keys {sorted(self.deltas)} != participants {self.plan.participants}"
            )
        dims = {v.shape for v in self.deltas.values()}
        if len(dims) > 1:
            raise DimensionError(f"inconsistent delta shapes: {dims}")


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
    round: int = 0


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


def _participant_mean(upd: RoundUpdates) -> np.ndarray:
    parts = upd.plan.participants
    if not parts:
        raise ConfigError("empty participant set")
    acc = np.zeros_like(upd.deltas[parts[0]])
    for i in parts:
        acc = acc + upd.deltas[i]
    return acc / len(parts)


def _server_step(state: ServerAggregatorState, v: np.ndarray, eta_tilde: float) -> np.ndarray:
    # Overflow surfaces as a divergence error in the run loop, not a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        state.w = state.w - eta_tilde * v
    state.round += 1
    return state.w


def fedavg_step(
    state: ServerAggregatorState, upd: RoundUpdates, eta_tilde: float
) -> np.ndarray:
    """w <- w - eta_tilde * mean of received updates."""
    if state.algo != FEDAVG:
        raise ConfigError(f"state is tagged {state.algo!r}, not fedavg")
    return _server_step(state, _participant_mean(upd), eta_tilde)


def clusterfedvarp_step(
    state: ServerAggregatorState, upd: RoundUpdates, eta_tilde: float
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
    parts = upd.plan.participants
    assign = state.assignment
    table = state.table
    sizes = state.sizes
    N = assign.shape[0]
    M = len(parts)
    K = table.shape[0]
    if not parts:
        raise ConfigError("empty participant set")

    hit: dict[int, list[int]] = {}
    for i in parts:
        hit.setdefault(int(assign[i]), []).append(i)

    # The sum over all K rows reads the table in small blocks and never
    # copies it whole. Empty clusters get coefficient 0 instead of being
    # skipped: that adds ±0.0, which leaves a sum started at +0.0 unchanged.
    mean_delta = _participant_mean(upd)
    t_part = np.zeros_like(mean_delta)
    for k in sorted(hit):
        t_part = t_part + table[k] * (len(hit[k]) / M)
    coef = sizes / N
    t_all = ordered_row_sum(
        K, table.shape[1], lambda lo, hi, out: np.multiply(table[lo:hi], coef[lo:hi, None], out=out)
    )
    v = mean_delta + (t_all - t_part)
    w = _server_step(state, v, eta_tilde)

    for k in sorted(hit):
        acc = np.zeros_like(mean_delta)
        for i in hit[k]:
            acc = acc + upd.deltas[i]
        table[k] = acc / len(hit[k])
    return w


def mifa_step(
    state: ServerAggregatorState, upd: RoundUpdates, eta_tilde: float
) -> np.ndarray:
    """Equal-weight baseline: refresh stored updates first, then average all.

    Stored and fresh updates get the same weight, so rounds before full
    table coverage take a biased (shrunken) step.
    """
    if state.algo != MIFA:
        raise ConfigError(f"state is tagged {state.algo!r}, not mifa")
    parts = upd.plan.participants
    if not parts:
        raise ConfigError("empty participant set")
    table = state.table
    N = table.shape[0]
    for i in parts:
        table[i] = upd.deltas[i]
    v = ordered_row_sum(N, table.shape[1], lambda lo, hi, out: np.copyto(out, table[lo:hi])) / N
    return _server_step(state, v, eta_tilde)


STEP_FUNCTIONS = {
    FEDAVG: fedavg_step,
    FEDVARP: clusterfedvarp_step,
    CLUSTERFEDVARP: clusterfedvarp_step,
    MIFA: mifa_step,
}


def aggregator_step(
    state: ServerAggregatorState, upd: RoundUpdates, eta_tilde: float
) -> np.ndarray:
    """Dispatch one aggregation round by the state's algorithm tag."""
    return STEP_FUNCTIONS[state.algo](state, upd, eta_tilde)


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
