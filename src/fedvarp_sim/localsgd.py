"""Client-side local training: tau SGD steps for all participants of a round.

A stack of R federations trains the M participants of each replicate as
one (R*M, d) array, row r*M + m for client participants[r, m] from
replicate r's minimizer and iterate. Every operation is elementwise per
row, so a row's bits are those of training that client alone. The
iterate after k+1 steps is evaluated as

    w_k+1 = w - (eta_c * tau) * (running_gradient_sum / tau)

which is the plain SGD recursion regrouped. Holding this exact grouping
matters: the returned update delta = gradient_sum / tau then satisfies
w - (eta_s*eta_c*tau) * delta == final local iterate bitwise when
eta_s = 1, and a one-step noiseless update returns the gradient added to
a sum started at +0.0: the gradient's bits, except that a -0.0
component comes back as +0.0. The aggregator equivalence checks rely on
both identities.
"""
from __future__ import annotations

import os
import threading

import numpy as np

from .core import ROW_BLOCK_BYTES, ConfigError, DimensionError
from .objectives import Federation
from .rng import philox_rekeyer

# CPUs this process may run on: the most row slabs one call runs at once.
WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
# The work (elements) from which a call splits into slabs: on a 2-core host local SGD lost up to
# 1e5 elements noisy and 2e5 noiseless, and won from 1.5e5 and 3e5 (d = 1000-2000).
SPLIT_MIN_WORK = 300_000


def run_slabs(rows: int, work: int, fill, scratch) -> None:
    """fill(lo, hi, *scratch(hi - lo)) on contiguous slabs covering rows: one per CPU once work reaches SPLIT_MIN_WORK,
    else one.

    Every slab's scratch is made in this thread before any slab runs, so a worker thread's malloc arena does not keep
    it cached. Slab 0 runs in this thread, each other in its own; all are joined, then the lowest failing slab's error
    raised.
    """
    slabs = min(rows, WORKERS) if work >= SPLIT_MIN_WORK else 1
    bounds = [(rows * s // slabs, rows * (s + 1) // slabs) for s in range(slabs)]
    args = [(lo, hi, *scratch(hi - lo)) for lo, hi in bounds]
    errors = [None] * slabs  # the exception each slab raised, if any

    def one(s):
        try:
            fill(*args[s])
        except BaseException as exc:  # re-raised by the calling thread below
            errors[s] = exc

    threads = [threading.Thread(target=one, args=(s,)) for s in range(1, slabs)]
    try:
        for t in threads:
            t.start()
        one(0)
    finally:
        for t in threads:
            if t.ident is not None:
                t.join()
    for exc in filter(None, errors):
        raise exc


def tile_rows(d: int) -> int:
    """The rows a slab trains at once: as many as fill ROW_BLOCK_BYTES of a (rows, d) float64 buffer, at least one."""
    return max(1, ROW_BLOCK_BYTES // (8 * d))


# A call's work for run_slabs is rows * tau * d, doubled for a noisy federation.
NOISE_WORK_WEIGHT = 2


def local_sgd(
    fed: Federation,
    participants,
    w: np.ndarray,
    tau: int,
    eta_c: float,
    keys=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Run tau local SGD steps from w for each participant; return the (R, M, d) updates and (R, M) steps.

    fed is a stack of R federations, w (R, d) and participants (R, M): row
    [r, m] is (w[r] - w_final) / (eta_c * tau) of client participants[r, m]
    of replicate r, equivalently the mean of the stochastic gradients it
    saw along its local path. keys is an (R, M, 2) block of Philox keys,
    one per participant, read only when fed.noise_sigma > 0: participant
    [r, m] draws its tau noise vectors as one (tau, d) block from a fresh
    Philox keyed keys[r, m]. A noisy call without such a block is a
    ConfigError. The input w is not modified.

    The R*M rows train on run_slabs' slabs, and each slab trains its
    rows tile_rows(d) at a time, through scratch of one tile: the
    gradient, the iterate, the finite mask and, for a noisy federation,
    a (tile, tau, d) noise buffer, so the scratch does not grow with
    R*M. A row's draws depend on its key alone and every operation works
    row by row, so the bits are those of one slab of one tile, and each
    replicate has the bits of a stack of one. The result, each row's
    first non-finite step and every slab's scratch are allocated here,
    in the calling thread, so a worker thread's malloc arena does not
    keep them cached.

    steps[r, m] is the first local step at which row [r, m]'s iterate
    went non-finite, -1 where the row stayed finite: the caller decides
    what a divergence stops.
    """
    if tau < 1:
        raise ConfigError(f"tau must be >= 1, got {tau}")
    if not eta_c > 0:
        raise ConfigError(f"eta_c must be > 0, got {eta_c}")
    R, _, d = fed.mus.shape
    ids = np.asarray(participants, dtype=np.intp)
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (R, d):
        raise DimensionError(f"expected model shape {(R, d)}, got {w.shape}")
    if ids.ndim != 2 or ids.shape[0] != R:
        raise DimensionError(f"participants must have shape {(R, 'M')}, got {ids.shape}")
    M = ids.shape[1]
    rows = R * M
    mus = fed.mus[np.arange(R)[:, None], ids].reshape(rows, d)
    # Each row's start as a contiguous copy: the step ufuncs run faster on it than on a broadcast view.
    w_rows = np.repeat(w, M, axis=0)
    noisy = fed.noise_sigma > 0
    if noisy and np.shape(keys) != (R, M, 2):
        raise ConfigError(f"need an {(R, M, 2)} key block for M={M} participants, got {np.shape(keys)}")
    if noisy:
        keys = np.reshape(keys, (rows, 2))
    out = np.zeros_like(mus)  # each row's running gradient sum, divided by tau at the end
    first_bad = np.full(rows, -1)  # each row's first non-finite step, -1 while finite
    step_scale = eta_c * tau
    tile = tile_rows(d)

    def scratch(slab_rows):
        """A slab's gradient, iterate, finite-mask and noise buffers, each as many rows as its largest tile."""
        n = min(slab_rows, tile)
        noise = np.empty((n, tau, d)) if noisy else None
        return np.empty((n, d)), np.empty((n, d)), np.empty((n, d), dtype=bool), noise

    def train(lo, hi, g, w_k, finite, noise):
        rekey = philox_rekeyer() if noisy else None
        # Overflow here, the noise scaling's included, is a reportable divergence, not a warning
        # condition. The error state is per thread, so each slab sets its own.
        with np.errstate(over="ignore", invalid="ignore"):
            for a in range(lo, hi, tile):
                b = min(a + tile, hi)
                # The tile's rows of every buffer. Each step runs in place, with the ufuncs of
                # w_k = w - step_scale * ((grad_sum + eigs * (w_k - mus) [+ noise]) / tau) in that order.
                mu, w0, grad_sum, bad_t = mus[a:b], w_rows[a:b], out[a:b], first_bad[a:b]
                g_t, w_t, finite_t = g[: b - a], w_k[: b - a], finite[: b - a]
                if noisy:  # row m draws its (tau, d) noise from one generator rekeyed to its key
                    noise_t = noise[: b - a]
                    for key, row in zip(keys[a:b], noise_t):
                        rekey(key).standard_normal(out=row)
                    noise_t *= fed.noise_sigma / np.sqrt(fed.d)
                for k in range(tau):
                    np.subtract(w0 if k == 0 else w_t, mu, out=g_t)
                    g_t *= fed.eigs
                    if noisy:
                        g_t += noise_t[:, k]
                    grad_sum += g_t
                    np.divide(grad_sum, tau, out=w_t)
                    w_t *= step_scale
                    np.subtract(w0, w_t, out=w_t)
                    np.isfinite(w_t, out=finite_t)
                    if not finite_t.all():
                        bad = ~finite_t.all(axis=1)
                        bad_t[bad & (bad_t < 0)] = k
                grad_sum /= tau

    run_slabs(rows, rows * tau * d * (NOISE_WORK_WEIGHT if noisy else 1), train, scratch)
    return out.reshape(R, M, d), first_bad.reshape(R, M)
