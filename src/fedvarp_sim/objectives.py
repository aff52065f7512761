"""Synthetic quadratic client objectives with analytically exact constants.

Every client shares one diagonal Hessian A and differs only in its local
minimizer mu_i. That choice makes the client-vs-global gradient gap
A(mu_bar - mu_i) independent of the query point, so the heterogeneity
constants usually only *assumed* to exist are exact, reportable numbers:

    L          = max diagonal entry of A
    sigma_g^2  = max_i ||A(mu_bar - mu_i)||^2
    sigma_K^2  = max_k max_{i in cluster k} ||A(mu_bar_k - mu_i)||^2
    w*         = mu_bar,  f* = global loss at mu_bar

Local stochastic gradients add isotropic Gaussian noise scaled so the
expected squared noise norm equals noise_sigma^2 exactly.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ConfigError, DimensionError, as_model_vector, ordered_row_sum
from .rng import TAG_CENTERS, TAG_OFFSETS, philox_keys, philox_rekeyer, substream


@dataclass(frozen=True)
class Federation:
    """All N clients as arrays: shared Hessian diagonal eigs (d,), minimizers mus (N, d).

    Client i has f_i(w) = 0.5 (w - mus[i])^T diag(eigs) (w - mus[i]); its
    stochastic gradient adds N(0, (noise_sigma^2/d) I) noise.
    """

    eigs: np.ndarray
    mus: np.ndarray
    noise_sigma: float = 0.0

    def __post_init__(self):
        if self.mus.ndim != 2 or self.mus.shape[0] < 1:
            raise ConfigError(f"mus must be an (N, d) array with N >= 1, got {self.mus.shape}")
        if self.eigs.shape != (self.mus.shape[1],):
            raise DimensionError("hessian eigenvalues and minimizers must share the dimension")
        if np.any(self.eigs < 0):
            raise ConfigError("hessian eigenvalues must be nonnegative")
        if self.noise_sigma < 0:
            raise ConfigError("noise_sigma must be nonnegative")

    @property
    def d(self) -> int:
        return self.mus.shape[1]

    def grads_and_losses(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Exact per-client gradients A(w - mu_i), shape (N, d), and losses, shape (N,)."""
        diffs = w - self.mus
        grads = self.eigs * diffs
        return grads, 0.5 * np.sum(grads * diffs, axis=1)

    def draw_noise(self, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
        """Fill out, shape (..., d), with gradient noise rows from rng.

        A (tau, d) block holds the same numbers as tau successive (d,) draws.
        """
        rng.standard_normal(out=out)
        out *= self.noise_sigma / np.sqrt(self.d)
        return out


@dataclass(frozen=True)
class FederationConfig:
    """Generator knobs for the synthetic federation: the JSON `federation` section.

    K_true equal-size generator clusters (K_true | N): client i belongs
    to cluster i // (N / K_true) and sits at its center plus a seeded
    offset of norm at most within_cluster_spread. Centers are
    standard-normal draws scaled by cluster_center_spread/sqrt(d)
    (expected squared norm = spread^2); the Hessian eigenvalues are
    evenly spaced over [hessian_eig_min, hessian_eig_max].
    """

    N: int
    d: int
    K_true: int
    cluster_center_spread: float
    within_cluster_spread: float
    noise_sigma: float
    hessian_eig_min: float
    hessian_eig_max: float
    seed: int

    def __post_init__(self):
        if self.N < 1 or self.d < 1:
            raise ConfigError(f"need N >= 1 and d >= 1, got N={self.N} d={self.d}")
        if not 1 <= self.K_true <= self.N:
            raise ConfigError(f"K_true must be in [1, N], got {self.K_true}")
        if self.N % self.K_true != 0:
            raise ConfigError(
                f"equal-size generator clusters need K_true | N, got N={self.N} K_true={self.K_true}"
            )
        if min(self.cluster_center_spread, self.within_cluster_spread, self.noise_sigma) < 0:
            raise ConfigError("spreads and noise_sigma must be nonnegative")
        if not 0 <= self.hessian_eig_min <= self.hessian_eig_max:
            raise ConfigError("need 0 <= hessian_eig_min <= hessian_eig_max")
        if not self.hessian_eig_max > 0:
            raise ConfigError(f"hessian_eig_max must be > 0, got {self.hessian_eig_max}")
        if self.seed < 0:
            raise ConfigError(f"federation.seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class FederationConstants:
    """Exact constants of the generated federation."""

    L: float
    sigma_g_sq: float
    sigma_K_sq: float
    w_star: np.ndarray
    f_star: float


def block_assignment(N: int, K: int) -> np.ndarray:
    """K contiguous blocks, i -> (i*K) // N: equal for K | N, else sizes differ by at most 1."""
    return (np.arange(N) * K) // N


def generate_federation(cfg: FederationConfig) -> tuple[Federation, FederationConstants]:
    """Build the federation arrays and their exact constants, deterministically in the seed."""
    scale = cfg.cluster_center_spread / np.sqrt(cfg.d)
    centers = scale * substream(cfg.seed, TAG_CENTERS).standard_normal((cfg.K_true, cfg.d))
    assign = block_assignment(cfg.N, cfg.K_true)
    half_width = cfg.within_cluster_spread / np.sqrt(cfg.d)  # box offsets keep ||offset|| <= spread
    lo, hi = -half_width, half_width
    # Row i holds the uniforms of substream(seed, TAG_OFFSETS, i); the map
    # after it has the bits of uniform(lo, hi) = lo + (hi - lo) * u.
    mus = np.empty((cfg.N, cfg.d))
    rekey = philox_rekeyer()
    for key, row in zip(philox_keys(cfg.seed, TAG_OFFSETS, ids=np.arange(cfg.N)), mus):
        rekey(key).random(out=row)
    mus *= hi - lo
    mus += lo
    mus += centers[assign]
    eigs = np.linspace(cfg.hessian_eig_min, cfg.hessian_eig_max, cfg.d)
    fed = Federation(eigs=eigs, mus=mus, noise_sigma=cfg.noise_sigma)
    return fed, federation_constants(fed, assign)


def federation_constants(fed: Federation, assignment: np.ndarray) -> FederationConstants:
    """Exact L, heterogeneity bounds, minimizer, and optimal loss."""
    eigs, mus = fed.eigs, fed.mus
    mu_bar = mus.mean(axis=0)
    f_star = float(np.mean(0.5 * np.sum(eigs * (mu_bar - mus) ** 2, axis=1)))
    return FederationConstants(
        L=float(np.max(eigs)),
        sigma_g_sq=_max_gap_sq(eigs, mu_bar, mus),
        sigma_K_sq=cluster_heterogeneity(fed, assignment),
        w_star=mu_bar,
        f_star=f_star,
    )


def _max_gap_sq(eigs: np.ndarray, center: np.ndarray, rows: np.ndarray) -> float:
    """max over rows of ||A(center - row)||^2: a client's gradient gap, constant in w."""
    dev = eigs * (center - rows)
    return float(np.max(np.sum(dev * dev, axis=1)))


def cluster_heterogeneity(fed: Federation, assignment: np.ndarray) -> float:
    """Exact max squared gap between a client gradient and its cluster mean gradient."""
    worst = 0.0
    for k in np.unique(assignment):
        members = fed.mus[assignment == k]
        worst = max(worst, _max_gap_sq(fed.eigs, members.mean(axis=0), members))
    return worst


def global_grad_and_loss(fed: Federation, w: np.ndarray) -> tuple[np.ndarray, float]:
    """Exact global gradient and loss, averaged over all clients.

    The gradients are formed and summed block by block (ordered_row_sum),
    not as (N, d) temporaries, with the bits of grads_and_losses(w),
    grads.mean(axis=0) and losses.mean() where numpy's reduction starts
    from +0.0 (numpy 2.4); elsewhere only the sign of an all-zero column
    of g could differ, and metrics read g only as dot(g, g). At d=1
    numpy sums the column pairwise, so d=1 keeps the whole column.
    """
    w = as_model_vector(w, fed.d)
    N, d = fed.mus.shape
    if d == 1:
        grads, losses = fed.grads_and_losses(w)
        return grads.mean(axis=0), float(losses.mean())
    row_sums = np.empty(N)

    def grads_into(lo: int, hi: int, out: np.ndarray) -> None:
        diffs = np.subtract(w, fed.mus[lo:hi], out=np.empty_like(out))
        np.multiply(fed.eigs, diffs, out=out)
        diffs *= out  # grads * diffs, the products each loss sums
        np.add.reduce(diffs, axis=1, out=row_sums[lo:hi])

    grad_sum = ordered_row_sum(N, d, grads_into)
    return grad_sum / N, float((0.5 * row_sums).mean())
