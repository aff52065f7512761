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

import numpy as np

from .core import ConfigError, DimensionError, DivergenceError, run_slabs
from .objectives import Federation
from .rng import philox_rekeyer

# A call's work for core.run_slabs is rows * tau * d, doubled for a noisy federation.
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

    The rows train on core.run_slabs' slabs; a row's draws depend on its
    key alone, so the bits are those of one slab. The result, the noise
    block and every per-step buffer are allocated here, in the calling
    thread, so a worker thread's malloc arena does not keep them cached.

    A non-finite iterate raises DivergenceError once every row has
    trained. Its step is the first non-finite step of the lowest row
    that diverges, the step that training the participants one after
    another in row order reports; it also carries every row's first
    non-finite step as `steps`, shaped like participants (-1 where the
    row stayed finite), and the finished result as `block`.
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
    # Every row trains on a replicate axis; a lone call is a stack of one.
    R = lead[0] if lead else 1
    mus = fed.mus.reshape(R, -1, d)[np.arange(R)[:, None], ids.reshape(R, M)].reshape(R * M, d)
    # Each row's start as a contiguous copy: the step ufuncs run faster on it than on a broadcast view.
    w_rows = np.repeat(w.reshape(R, d), M, axis=0)
    rows = R * M
    noisy = fed.noise_sigma > 0
    if noisy and np.shape(keys) != (*lead, M, 2):
        raise ConfigError(f"need an {(*lead, M, 2)} key block for M={M} participants, got {np.shape(keys)}")
    if noisy:
        keys = np.reshape(keys, (rows, 2))
    out = np.zeros_like(mus)  # each row's running gradient sum, divided by tau at the end
    g, w_k = np.empty_like(mus), np.empty_like(mus)
    finite = np.empty(mus.shape, dtype=bool)
    noise = np.empty((rows, tau, d)) if noisy else None
    # (first row, each row's first non-finite step) of every slab that saw one;
    # list.append is atomic, so the slab threads need no lock.
    diverged = []

    def train(lo, hi):
        keys_and_noise = (keys[lo:hi], noise[lo:hi]) if noisy else (None, None)
        first_bad = _train_rows(
            fed, mus[lo:hi], w_rows[lo:hi], tau, eta_c, out[lo:hi], g[lo:hi], w_k[lo:hi], finite[lo:hi],
            *keys_and_noise,
        )
        if first_bad is not None:
            diverged.append((lo, first_bad))

    run_slabs(rows, rows * tau * d * (NOISE_WORK_WEIGHT if noisy else 1), train)
    block = out.reshape(*lead, M, d)
    if diverged:
        steps = np.full(rows, -1)
        for lo, first_bad in diverged:
            steps[lo : lo + first_bad.size] = first_bad
        raise DivergenceError(int(steps[steps >= 0][0]), steps.reshape(ids.shape), block)
    return block


def _train_rows(fed, mus, w, tau, eta_c, grad_sum, g, w_k, finite, keys, noise):
    """tau steps for the rows of mus from the rows of w; leaves their updates in grad_sum.

    grad_sum starts at zero; g, w_k and finite are scratch of the rows'
    shape. Each step runs in place, with the ufuncs of
    w_k = w - step_scale * ((grad_sum + eigs * (w_k - mus) [+ noise]) / tau)
    in that order, so nothing is allocated per step. noise is None for a
    noiseless federation; otherwise row m draws its noise into noise[m],
    shape (tau, d), from this slab's one Philox generator rekeyed to keys[m].
    Returns each row's first non-finite step (-1 where finite), or None if
    every row stayed finite; only then is that array allocated.
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
    grad_sum /= tau
    return first_bad
