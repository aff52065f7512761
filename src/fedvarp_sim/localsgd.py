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

from dataclasses import dataclass

import numpy as np

from .core import ConfigError, DivergenceError, as_model_vector
from .objectives import Federation


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

    A non-finite iterate raises DivergenceError carrying the first
    non-finite step of the lowest row that diverges, which is the step
    that training the participants one after another in row order reports.
    """
    w = as_model_vector(w, fed.d)
    mus = fed.mus[np.asarray(participants, dtype=np.intp)]
    M = mus.shape[0]
    noise = None
    if fed.noise_sigma > 0:
        if len(rngs) != M:
            raise ConfigError(f"need one generator per participant, got {len(rngs)} for {M}")
        noise = np.empty((M, cfg.tau, fed.d))
        for m, rng in enumerate(rngs):
            fed.draw_noise(rng, noise[m])
    step_scale = cfg.eta_c * cfg.tau
    grad_sum = np.zeros_like(mus)
    w_k = w
    first_bad = None  # per row: first non-finite step, -1 while finite
    # Overflow here is a reportable divergence, not a warning condition.
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
    delta = grad_sum / cfg.tau
    if return_final:
        return delta, w_k
    return delta
