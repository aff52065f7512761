"""Client-side local training: tau SGD steps for all M participants of a round.

The participants train as one (M, d) array, row m for client
participants[m]. Every operation is elementwise per row, so a row's bits
are those of training that client alone. The iterate after k+1 steps is
evaluated as

    w_k+1 = w - (eta_c * tau) * (running_gradient_sum / tau)

which is the plain SGD recursion regrouped. Holding this exact grouping
matters: the returned update delta = gradient_sum / tau then satisfies
w - (eta_s*eta_c*tau) * delta == final local iterate bitwise when
eta_s = 1, and a one-step noiseless update returns the gradient itself
bitwise. The aggregator equivalence checks rely on both identities.
"""
from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, DivergenceError, as_model_vector
from .objectives import Federation

# CPUs this process may run on: the most row slabs one call trains at once.
WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
# A call splits into slabs when M * tau * d, doubled for a noisy
# federation, reaches SPLIT_MIN_WORK. On a 2-core host a 2-slab split
# costs 0.1-0.2 ms of thread start, join and handoff; it lost up to
# 1e5 elements noisy and 2e5 noiseless, and won from 1.5e5 noisy and
# 3e5 noiseless (d = 1000-2000).
SPLIT_MIN_WORK = 300_000
NOISE_WORK_WEIGHT = 2


@dataclass(frozen=True)
class LocalRunConfig:
    """Local steps and client learning rate."""

    tau: int
    eta_c: float

    def __post_init__(self):
        if self.tau < 1:
            raise ConfigError(f"tau must be >= 1, got {self.tau}")
        if not self.eta_c > 0:
            raise ConfigError(f"eta_c must be > 0, got {self.eta_c}")


def local_sgd(
    fed: Federation,
    participants,
    w: np.ndarray,
    cfg: LocalRunConfig,
    rngs=(),
    return_final: bool = False,
):
    """Run tau local SGD steps from w for each participant; return the (M, d) updates.

    Row m is (w - w_final_m) / (eta_c * tau), equivalently the mean of the
    stochastic gradients client participants[m] saw along its local path.
    rngs holds one generator per participant and is read only when
    fed.noise_sigma > 0; participant m draws its tau noise vectors as one
    (tau, d) block. The input w is not modified.

    A call whose work reaches SPLIT_MIN_WORK trains contiguous row slabs,
    one per available CPU, in threads; rows and their streams are
    independent, so the bits are those of one slab. Rows sharing a
    generator draw in row order, so such a call runs as one slab.

    A non-finite iterate raises DivergenceError carrying the first
    non-finite step of the lowest row that diverges, which is the step
    that training the participants one after another in row order reports.
    """
    w = as_model_vector(w, fed.d)
    mus = fed.mus[np.asarray(participants, dtype=np.intp)]
    M = mus.shape[0]
    noisy = fed.noise_sigma > 0
    if noisy and len(rngs) != M:
        raise ConfigError(f"need one generator per participant, got {len(rngs)} for {M}")
    slabs = min(M, WORKERS)
    work = M * cfg.tau * fed.d * (NOISE_WORK_WEIGHT if noisy else 1)
    if slabs < 2 or work < SPLIT_MIN_WORK or (noisy and len(set(map(id, rngs))) < M):
        delta, w_k = _train_rows(fed, mus, w, cfg, rngs if noisy else None)
    else:
        delta, w_k = _train_slabs(fed, mus, w, cfg, rngs if noisy else None, slabs, return_final)
    if return_final:
        return delta, w_k
    return delta


def _train_rows(fed, mus, w, cfg, rngs, out=None):
    """tau steps for the rows of mus; returns (delta written to out, final iterates)."""
    M = mus.shape[0]
    noise = None
    if rngs is not None:
        noise = np.empty((M, cfg.tau, fed.d))
        for m, rng in enumerate(rngs):
            fed.draw_noise(rng, noise[m])
    step_scale = cfg.eta_c * cfg.tau
    grad_sum = np.zeros_like(mus)
    w_k = w
    first_bad = None  # per row: first non-finite step, -1 while finite
    # Overflow here is a reportable divergence, not a warning condition.
    # The error state is per thread, so each slab sets its own.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(cfg.tau):
            g = fed.eigs * (w_k - mus)
            if noise is not None:
                g = g + noise[:, k]
            grad_sum = grad_sum + g
            w_k = w - step_scale * (grad_sum / cfg.tau)
            if not np.all(np.isfinite(w_k)):
                if first_bad is None:
                    first_bad = np.full(M, -1)
                bad = ~np.all(np.isfinite(w_k), axis=1)
                first_bad[bad & (first_bad < 0)] = k
    if first_bad is not None:
        raise DivergenceError(step=int(first_bad[first_bad >= 0][0]))
    return np.divide(grad_sum, cfg.tau, out=out), w_k


def _train_slabs(fed, mus, w, cfg, rngs, slabs, return_final):
    """_train_rows on contiguous row slabs, slab 0 in this thread and one thread per other slab.

    Returns the (M, d) updates and, if return_final, the final iterates.
    Every thread is joined before this returns or raises. The exception
    of the lowest failing slab is raised, so a divergence names the first
    bad step of the lowest diverging row.
    """
    M = mus.shape[0]
    bounds = [M * s // slabs for s in range(slabs + 1)]
    delta = np.empty_like(mus)
    outcomes = [None] * slabs  # final iterates, or the exception the slab raised

    def train(s):
        lo, hi = bounds[s], bounds[s + 1]
        try:
            outcomes[s] = _train_rows(
                fed, mus[lo:hi], w, cfg, None if rngs is None else rngs[lo:hi], delta[lo:hi]
            )[1]
        except BaseException as exc:  # re-raised by the calling thread below
            outcomes[s] = exc

    threads = [threading.Thread(target=train, args=(s,)) for s in range(1, slabs)]
    try:
        for t in threads:
            t.start()
        train(0)
    finally:
        for t in threads:
            if t.ident is not None:
                t.join()
    for outcome in outcomes:
        if isinstance(outcome, BaseException):
            raise outcome
    return delta, np.concatenate(outcomes) if return_final else None
