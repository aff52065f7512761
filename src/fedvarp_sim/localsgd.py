"""Client-side local training: tau SGD steps for all M participants of a round.

The participants train as one (M, d) array, row m for client
participants[m]. Every operation is elementwise per row, so a row's bits
are those of training that client alone. A stack of R federations on a
leading replicate axis trains its R rounds as one (R*M, d) array, each
row from its own replicate's minimizer and iterate, so a stacked row has
the bits of its replicate's own call. The iterate after k+1 steps is
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

from .core import ConfigError, DimensionError, DivergenceError
from .objectives import Federation
from .rng import philox_rekeyer

# CPUs this process may run on: the most row slabs one call trains at once.
WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
# A call splits into slabs when rows * tau * d, doubled for a noisy
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
    keys=None,
) -> np.ndarray:
    """Run tau local SGD steps from w for each participant; return the (M, d) updates.

    Row m is (w - w_final_m) / (eta_c * tau), equivalently the mean of the
    stochastic gradients client participants[m] saw along its local path.
    keys is an (M, 2) block of Philox keys, one per participant, read
    only when fed.noise_sigma > 0: participant m draws its tau noise
    vectors as one (tau, d) block from a fresh Philox keyed keys[m]. A
    noisy call without such a block is a ConfigError. The input w is not
    modified.

    A stacked federation (mus of shape (R, N, d)) trains R replicates at
    once: w is (R, d), participants (R, M), keys (R, M, 2), and the
    result is (R, M, d), with row [r, m] client participants[r, m] of
    replicate r trained from w[r]. The R*M rows go through the same
    loop as one replicate's M, so each row has the bits of its
    replicate's own call.

    Every call trains contiguous row slabs, slab 0 in this thread and one
    thread per other slab: one slab per available CPU once the work
    reaches SPLIT_MIN_WORK, else one slab, which starts no thread. A row's
    draws depend on its key alone, so the bits are those of one slab. The
    result, the (rows, tau, d) noise buffer and every per-step buffer are
    allocated here, in the calling thread, so a worker thread's malloc
    arena does not keep them cached. Every thread is joined before this
    returns or raises.

    A non-finite iterate raises DivergenceError carrying the first
    non-finite step of the lowest row that diverges (the lowest failing
    slab's error is raised), which is the step that training the
    participants one after another in row order reports.
    """
    if tau < 1:
        raise ConfigError(f"tau must be >= 1, got {tau}")
    if not eta_c > 0:
        raise ConfigError(f"eta_c must be > 0, got {eta_c}")
    lead, d = fed.lead, fed.d
    ids = np.asarray(participants, dtype=np.intp)
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (*lead, d):
        raise DimensionError(f"expected model shape {(*lead, d)}, got {w.shape}")
    if ids.ndim != len(lead) + 1 or ids.shape[:-1] != lead:
        raise DimensionError(f"participants must have shape {(*lead, 'M')}, got {ids.shape}")
    M = ids.shape[-1]
    if lead:
        mus = fed.mus[np.arange(lead[0])[:, None], ids].reshape(-1, d)
        w_rows = np.repeat(w, M, axis=0)
    else:
        mus, w_rows = fed.mus[ids], w  # every row starts from the one w
    rows = mus.shape[0]
    noisy = fed.noise_sigma > 0
    if noisy and np.shape(keys) != (*lead, M, 2):
        raise ConfigError(f"need an {(*lead, M, 2)} key block for M={M} participants, got {np.shape(keys)}")
    if noisy:
        keys = np.reshape(keys, (rows, 2))
    out = np.zeros_like(mus)  # each row's running gradient sum, divided by tau at the end
    g, w_k = np.empty_like(mus), np.empty_like(mus)
    finite = np.empty(mus.shape, dtype=bool)
    noise = np.empty((rows, tau, d)) if noisy else None
    work = rows * tau * d * (NOISE_WORK_WEIGHT if noisy else 1)
    slabs = min(rows, WORKERS) if work >= SPLIT_MIN_WORK else 1
    errors = [None] * slabs  # the exception each slab raised, if any

    def train(s):
        lo, hi = rows * s // slabs, rows * (s + 1) // slabs
        try:
            keys_and_noise = (keys[lo:hi], noise[lo:hi]) if noisy else (None, None)
            _train_rows(
                fed, mus[lo:hi], w_rows[lo:hi] if lead else w_rows, tau, eta_c,
                out[lo:hi], g[lo:hi], w_k[lo:hi], finite[lo:hi], *keys_and_noise,
            )
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
    return out.reshape(*lead, M, d)


def _train_rows(fed, mus, w, tau, eta_c, grad_sum, g, w_k, finite, keys, noise):
    """tau steps for the rows of mus from the rows of w; leaves their updates in grad_sum.

    grad_sum starts at zero; g, w_k and finite are scratch of the rows'
    shape. Each step runs in place, with the ufuncs of
    w_k = w - step_scale * ((grad_sum + eigs * (w_k - mus) [+ noise]) / tau)
    in that order, so nothing is allocated per step. noise is None for a
    noiseless federation; otherwise row m draws its noise into noise[m],
    shape (tau, d), from this slab's one Philox generator rekeyed to keys[m].
    """
    if noise is not None:
        rekey = philox_rekeyer()
        for key, row in zip(keys, noise):
            fed.draw_noise(rekey(key), row)
    step_scale = eta_c * tau
    first_bad = None  # per row: first non-finite step, -1 while finite
    # Overflow here is a reportable divergence, not a warning condition.
    # The error state is per thread, so each slab sets its own.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(tau):
            np.subtract(w if k == 0 else w_k, mus, out=g)
            g *= fed.eigs
            if noise is not None:
                g += noise[:, k]
            grad_sum += g
            np.divide(grad_sum, tau, out=w_k)
            w_k *= step_scale
            np.subtract(w, w_k, out=w_k)
            np.isfinite(w_k, out=finite)
            if not finite.all():
                if first_bad is None:
                    first_bad = np.full(mus.shape[0], -1)
                bad = ~finite.all(axis=1)
                first_bad[bad & (first_bad < 0)] = k
    if first_bad is not None:
        raise DivergenceError(step=int(first_bad[first_bad >= 0][0]))
    grad_sum /= tau
