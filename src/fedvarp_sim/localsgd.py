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


def local_sgd(
    fed: Federation,
    participants,
    w: np.ndarray,
    tau: int,
    eta_c: float,
    rngs=(),
) -> np.ndarray:
    """Run tau local SGD steps from w for each participant; return the (M, d) updates.

    Row m is (w - w_final_m) / (eta_c * tau), equivalently the mean of the
    stochastic gradients client participants[m] saw along its local path.
    rngs holds one generator per participant and is read only when
    fed.noise_sigma > 0; participant m draws its tau noise vectors as one
    (tau, d) block. The input w is not modified.

    A call whose work reaches SPLIT_MIN_WORK trains contiguous row slabs,
    one per available CPU, in threads; rows and their streams are
    independent, so the bits are those of one slab. Rows sharing a
    generator draw in row order, so such a call runs as one slab. The
    (M, d) result and the (M, tau, d) noise buffer, the largest blocks,
    are allocated here in the calling thread for either path, so a
    worker thread's malloc arena does not keep them cached.

    A non-finite iterate raises DivergenceError carrying the first
    non-finite step of the lowest row that diverges, which is the step
    that training the participants one after another in row order reports.
    """
    if tau < 1:
        raise ConfigError(f"tau must be >= 1, got {tau}")
    if not eta_c > 0:
        raise ConfigError(f"eta_c must be > 0, got {eta_c}")
    w = as_model_vector(w, fed.d)
    mus = fed.mus[np.asarray(participants, dtype=np.intp)]
    M = mus.shape[0]
    noisy = fed.noise_sigma > 0
    if noisy and len(rngs) != M:
        raise ConfigError(f"need one generator per participant, got {len(rngs)} for {M}")
    out = np.empty_like(mus)
    noise = np.empty((M, tau, fed.d)) if noisy else None
    slabs = min(M, WORKERS)
    work = M * tau * fed.d * (NOISE_WORK_WEIGHT if noisy else 1)
    if slabs < 2 or work < SPLIT_MIN_WORK or (noisy and len(set(map(id, rngs))) < M):
        return _train_rows(fed, mus, w, tau, eta_c, rngs, out, noise)
    return _train_slabs(fed, mus, w, tau, eta_c, rngs, out, noise, slabs)


def _train_rows(fed, mus, w, tau, eta_c, rngs, out, noise):
    """tau steps for the rows of mus; writes their updates to out and returns it.

    noise is None for a noiseless federation; otherwise row m draws its
    noise from rngs[m] into noise[m], shape (tau, d).
    """
    if noise is not None:
        for m, rng in enumerate(rngs):
            fed.draw_noise(rng, noise[m])
    step_scale = eta_c * tau
    grad_sum = np.zeros_like(mus)
    w_k = w
    first_bad = None  # per row: first non-finite step, -1 while finite
    # Overflow here is a reportable divergence, not a warning condition.
    # The error state is per thread, so each slab sets its own.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(tau):
            g = fed.eigs * (w_k - mus)
            if noise is not None:
                g = g + noise[:, k]
            grad_sum = grad_sum + g
            w_k = w - step_scale * (grad_sum / tau)
            if not np.all(np.isfinite(w_k)):
                if first_bad is None:
                    first_bad = np.full(mus.shape[0], -1)
                bad = ~np.all(np.isfinite(w_k), axis=1)
                first_bad[bad & (first_bad < 0)] = k
    if first_bad is not None:
        raise DivergenceError(step=int(first_bad[first_bad >= 0][0]))
    return np.divide(grad_sum, tau, out=out)


def _train_slabs(fed, mus, w, tau, eta_c, rngs, out, noise, slabs):
    """_train_rows on contiguous row slabs, slab 0 in this thread and one thread per other slab.

    Each slab writes its rows of out and draws into its rows of noise.
    Every thread is joined before this returns out or raises. The
    exception of the lowest failing slab is raised, so a divergence
    names the first bad step of the lowest diverging row.
    """
    M = mus.shape[0]
    bounds = [M * s // slabs for s in range(slabs + 1)]
    errors = [None] * slabs  # the exception each slab raised, if any

    def train(s):
        lo, hi = bounds[s], bounds[s + 1]
        try:
            buf = None if noise is None else noise[lo:hi]
            _train_rows(fed, mus[lo:hi], w, tau, eta_c, rngs[lo:hi], out[lo:hi], buf)
        except BaseException as exc:  # re-raised by the calling thread below
            errors[s] = exc

    threads = [threading.Thread(target=train, args=(s,)) for s in range(1, slabs)]
    try:
        for t in threads:
            t.start()
        train(0)
    finally:
        for t in threads:
            if t.ident is not None:
                t.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return out
