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

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import ROW_BLOCK_BYTES, ConfigError, DimensionError, ordered_row_sum
from .rng import TAG_CENTERS, TAG_OFFSETS, philox_keys, philox_rekeyer, substream


@dataclass(frozen=True)
class Federation:
    """R federations of N clients as arrays: shared Hessian diagonal eigs (d,), minimizers mus (R, N, d).

    Client i of replicate r has f_i(w) = 0.5 (w - mus[r, i])^T diag(eigs) (w - mus[r, i]);
    its stochastic gradient adds N(0, (noise_sigma^2/d) I) noise. The R
    federations share one shape, eigs and noise_sigma.
    """

    eigs: np.ndarray
    mus: np.ndarray
    noise_sigma: float = 0.0

    def __post_init__(self):
        if self.mus.ndim != 3 or self.mus.shape[1] < 1:
            raise ConfigError(f"mus must be an (R, N, d) array with N >= 1, got {self.mus.shape}")
        if self.eigs.shape != (self.mus.shape[-1],):
            raise DimensionError("hessian eigenvalues and minimizers must share the dimension")
        if np.any(self.eigs < 0):
            raise ConfigError("hessian eigenvalues must be nonnegative")
        if self.noise_sigma < 0:
            raise ConfigError("noise_sigma must be nonnegative")

    @property
    def d(self) -> int:
        return self.mus.shape[-1]

    def grads_and_losses(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Exact per-client gradients A(w - mu_i), shape (R, ..., N, d), and losses, shape (R, ..., N), at the
        (R, ..., d) w, whose middle axes broadcast against replicate r's mus."""
        w = np.asarray(w)
        diffs = w[..., None, :] - self.mus[(slice(None),) + (None,) * (w.ndim - 2)]
        grads = self.eigs * diffs
        return grads, 0.5 * np.sum(grads * diffs, axis=-1)


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


def generate_federation(cfgs: list[FederationConfig]) -> tuple[Federation, list[FederationConstants]]:
    """Build the (R, N, d) stack of cfgs' federations and each one's exact constants, deterministically in the seeds.

    cfgs differ at most in their seeds and spreads. Federation r is drawn into row r of the stack in
    the calling thread: client i holds substream(seed, TAG_OFFSETS, i)'s uniforms u, mapped in place
    to (hi - lo) * u + lo + center, the bits of uniform(lo, hi) + center. A ConfigError of
    federation r's constants holds r as `row`.
    """
    first = cfgs[0]
    N, d, K = first.N, first.d, first.K_true
    eigs = np.linspace(first.hessian_eig_min, first.hessian_eig_max, d)
    fed = Federation(eigs=eigs, mus=np.empty((len(cfgs), N, d)), noise_sigma=first.noise_sigma)
    assignment = block_assignment(N, K)
    rekey, consts = philox_rekeyer(), []
    for r, cfg in enumerate(cfgs):
        for key, row in zip(philox_keys(cfg.seed, TAG_OFFSETS, ids=np.arange(N)), fed.mus[r]):
            rekey(key).random(out=row)
        clusters = fed.mus[r].reshape(K, N // K, d)  # client i belongs to cluster i // (N / K)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow shows in the constants
            centers = cfg.cluster_center_spread / np.sqrt(d) * substream(cfg.seed, TAG_CENTERS).standard_normal((K, d))
            half_width = cfg.within_cluster_spread / np.sqrt(d)  # box offsets keep ||offset|| <= spread
            clusters *= 2 * half_width
            clusters += -half_width
            clusters += centers[:, None]
        try:
            consts.append(federation_constants(replace(fed, mus=fed.mus[r : r + 1]), assignment))
        except ConfigError as exc:
            exc.row = r
            raise
    return fed, consts


def federation_constants(fed: Federation, assignment: np.ndarray) -> FederationConstants:
    """Exact L, heterogeneity bounds, minimizer, and optimal loss of fed's one federation.

    sigma_K_sq is that of the clusters of assignment. A ConfigError if a constant overflows float64.
    """
    [mus] = fed.mus
    with np.errstate(over="ignore", invalid="ignore"):
        mu_bar = mus.mean(axis=0)
        losses, gaps, cluster_gaps = _client_terms(fed.eigs, mus, mu_bar, assignment)
        L, sigma_g_sq, sigma_K_sq = (float(x.max()) for x in (fed.eigs, gaps, cluster_gaps))
        f_star = float(np.mean(0.5 * losses))
    # A non-finite w_star makes sigma_g_sq non-finite, so the four scalars cover it.
    if not all(map(math.isfinite, (L, sigma_g_sq, sigma_K_sq, f_star))):
        raise ConfigError("the federation's exact constants overflow float64")
    return FederationConstants(L=L, sigma_g_sq=sigma_g_sq, sigma_K_sq=sigma_K_sq, w_star=mu_bar, f_star=f_star)


def _client_terms(eigs: np.ndarray, mus: np.ndarray, mu_bar: np.ndarray, assignment: np.ndarray) -> np.ndarray:
    """Each client's sum(A (mu_bar - mu_i)^2), ||A(mu_bar - mu_i)||^2 and ||A(c - mu_i)||^2, as (3, N) rows.

    c is the mean of client i's cluster k, with the bits of mus[assignment == k].mean(axis=0): the
    clusters of each size s reduce as one (clusters, s, d) array along that mean's axis (pairwise at
    d = 1), a view of mus for equal contiguous blocks, else a gather in row order. Then blocks of at
    most ROW_BLOCK_BYTES run each expression's steps, with the bits of the whole (N, d) arrays.
    """
    N, d = mus.shape
    sizes = np.bincount(assignment)
    order = np.argsort(assignment, kind="stable")
    centers = np.zeros((sizes.size, d))  # a label no client has keeps a row no client reads
    for s in set(sizes.tolist()) - {0}:
        ks = np.flatnonzero(sizes == s)
        view = ks.size * s == N and (order[1:] > order[:-1]).all()  # one size, in row order
        starts = np.cumsum(sizes)[ks] - s  # each cluster's first place in order
        members = mus.reshape(ks.size, s, d) if view else mus[order[starts[:, None] + np.arange(s)]]
        centers[ks] = np.add.reduce(members, axis=1) / s
    terms = np.empty((3, N))
    block = max(1, min(N, ROW_BLOCK_BYTES // (8 * d)))
    diff, dev, tiled = np.empty((3, block, d))
    tiled[...] = eigs  # a same-shape product runs faster than one broadcasting eigs
    for lo in range(0, N, block):
        hi = min(N, lo + block)
        x, y, e, rows = diff[: hi - lo], dev[: hi - lo], tiled[: hi - lo], mus[lo:hi]
        np.subtract(mu_bar, rows, out=x)
        np.add.reduce(np.square(np.multiply(e, x, out=y), out=y), axis=1, out=terms[1, lo:hi])
        np.add.reduce(np.multiply(e, np.square(x, out=x), out=x), axis=1, out=terms[0, lo:hi])
        np.subtract(np.take(centers, assignment[lo:hi], axis=0, out=x, mode="clip"), rows, out=x)
        np.add.reduce(np.square(np.multiply(e, x, out=x), out=x), axis=1, out=terms[2, lo:hi])
    return terms


def global_grad_and_loss(fed: Federation, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact global gradients (R, ..., d) and losses (R, ...) at the (R, ..., d) w, averaged over each replicate's clients.

    The middle axes of w (a batch of logged rounds, say) broadcast
    against replicate r's mus; entry [r, c] has the bits of an (R, d)
    call at w[:, c]. The gradients are formed and summed block by block
    (ordered_row_sum), not as (R, ..., N, d) temporaries, with the bits
    of grads_and_losses(w) and its means over the clients where numpy's
    reduction starts from +0.0 (numpy 2.4); elsewhere only the sign of an
    all-zero column of g could differ, and metrics read g only as its
    squared norm. At d=1 numpy sums the column pairwise, so d=1 keeps the
    whole column. Each replicate has the bits of a stack of one.
    """
    w = np.asarray(w, dtype=np.float64)
    R, N, d = fed.mus.shape
    if w.ndim < 2 or (w.shape[0], w.shape[-1]) != (R, d):
        raise DimensionError(f"expected model shape ({R}, ..., {d}), got {w.shape}")
    if d == 1:
        grads, losses = fed.grads_and_losses(w)
        return grads.mean(axis=-2), losses.mean(axis=-1)
    lead = w.shape[:-1]
    row_sums = np.empty((*lead, N))
    w_row = w[..., None, :]  # each model against its replicate's rows
    mus = fed.mus[(slice(None),) + (None,) * (w.ndim - 2)]

    def grads_into(lo: int, hi: int, out: np.ndarray) -> None:
        diffs = np.subtract(w_row, mus[..., lo:hi, :], out=np.empty_like(out))
        np.multiply(fed.eigs, diffs, out=out)
        diffs *= out  # grads * diffs, the products each loss sums
        np.add.reduce(diffs, axis=-1, out=row_sums[..., lo:hi])

    g = ordered_row_sum(N, d, grads_into, lead) / N
    return g, (0.5 * row_sums).mean(axis=-1)
