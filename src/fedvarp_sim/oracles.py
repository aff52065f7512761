"""Exact oracles: each check of the simulator against enumeration or a reference, once.

Each check is a plain function of an rng (or a config or federation) and
instance counts or sizes, returning its worst error or a bool. verify()
runs all seven at fixed seeds; the acceptance and unit tests call the same
functions at their own seeds and sizes, so a check has one copy.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .aggregators import aggregator_step, init_state
from .config import AlgoConfig, RunConfig
from .core import (
    CLUSTERFEDVARP, FEDAVG, FEDVARP, ConfigError, DivergenceError, HyperConfig, effective_server_lr, sum_rows
)
from .harness import run_many
from .localsgd import local_sgd
from .objectives import Federation, FederationConfig
from .reference_saga import saga_trajectory
from .sampling import enumerate_subsets, without_replacement_variance


def variance_gap(rng: np.random.Generator, instances: int) -> float:
    """Worst relative gap of without_replacement_variance to the enumerated variance.

    Each instance draws N in [2, 8], d in {1, 3, 10} and the (N, d) rows,
    then compares the closed form with the mean squared deviation of the
    subset mean over all M-subsets, for every M in [1, N].
    """
    worst = 0.0
    for _ in range(instances):
        N = int(rng.integers(2, 9))
        d = int(rng.choice([1, 3, 10]))
        xs = rng.normal(size=(N, d))
        x_bar = np.mean(xs, axis=0)
        for M in range(1, N + 1):
            closed = without_replacement_variance(xs, M)
            exhaustive = float(
                np.mean(
                    [
                        np.sum((np.mean(xs[ids], axis=0) - x_bar) ** 2)
                        for ids in enumerate_subsets(N, M)
                    ]
                )
            )
            worst = max(worst, abs(closed - exhaustive) / max(abs(exhaustive), abs(closed), 1e-30))
    return worst


def subset_mean_bias(rng: np.random.Generator, instances: int, d: int) -> float:
    """Worst gap of the subset mean, averaged over all M-subsets, to the full mean.

    Each instance draws N in [2, 7], M in [1, N] and the (N, d) rows.
    """
    worst = 0.0
    for _ in range(instances):
        N = int(rng.integers(2, 8))
        M = int(rng.integers(1, N + 1))
        xs = rng.normal(size=(N, d))
        means = [np.mean(xs[ids], axis=0) for ids in enumerate_subsets(N, M)]
        worst = max(worst, float(np.max(np.abs(np.mean(means, axis=0) - np.mean(xs, axis=0)))))
    return worst


def update_bias(rng: np.random.Generator, d: int) -> tuple[float, float]:
    """Worst gaps of the mean fedvarp and clusterfedvarp updates to the mean fedavg update.

    For every N in [2, 6] and M in [1, N] it draws the (N, d) updates, the
    fedvarp table, K, the client->cluster assignment and the cluster
    table, and averages each aggregator's update over all M-subsets, run
    as one stack of servers; the stored-update correction must cancel in
    that average.
    """
    worst = {FEDVARP: 0.0, CLUSTERFEDVARP: 0.0}
    for N in range(2, 7):
        for M in range(1, N + 1):
            deltas = rng.normal(size=(N, d))
            tables = {FEDVARP: rng.normal(size=(N, d))}
            K = int(rng.integers(1, N + 1))
            assignment = rng.integers(0, K, size=N)
            tables[CLUSTERFEDVARP] = rng.normal(size=(K, d))
            subsets = enumerate_subsets(N, M)
            means = {}
            for algo in (FEDAVG, FEDVARP, CLUSTERFEDVARP):
                state = init_state(algo, np.zeros((len(subsets), d)), N, K, assignment)
                if algo in tables:
                    state.table[:] = tables[algo]
                aggregator_step(state, subsets, deltas[subsets], 1.0)
                means[algo] = -sum_rows(state.w) / len(subsets)  # each w moved from zero by -v
            for algo in worst:
                worst[algo] = max(worst[algo], float(np.max(np.abs(means[algo] - means[FEDAVG]))))
    return worst[FEDVARP], worst[CLUSTERFEDVARP]


def reductions_hold(cfgs: list[RunConfig]) -> bool:
    """Whether clusterfedvarp runs each of cfgs exactly as fedvarp at K=N and as fedavg at K=1.

    The variants run as one run_many list; a diverging run raises its DivergenceError.
    """
    if not cfgs:
        raise ConfigError("reductions_hold needs at least one config")
    variants = [  # each reference run, then the clusterfedvarp run that must equal it
        replace(cfg, algo=AlgoConfig(name, K=K))
        for cfg in cfgs
        for name, K in ((FEDVARP, None), (CLUSTERFEDVARP, cfg.federation.N), (FEDAVG, None), (CLUSTERFEDVARP, 1))
    ]
    outs = run_many(variants, write_artifacts=False)
    for out in outs:
        if isinstance(out, DivergenceError):
            raise out
    return all(
        a.rounds.tobytes() == b.rounds.tobytes() and a.metrics.tobytes() == b.metrics.tobytes()
        for a, b in zip(outs[::2], outs[1::2])
    )


def saga_matches(rng: np.random.Generator, N: int, steps: int, lr: float) -> bool:
    """Whether one-participant fedvarp retraces saga_trajectory bitwise.

    Draws N scalar minimizers (Hessian 1, start 0), then `steps` picks.
    """
    mus = rng.normal(size=N)
    fed = Federation(eigs=np.array([1.0]), mus=mus.reshape(1, N, 1))
    picks = [int(rng.integers(N)) for _ in range(steps)]
    reference = saga_trajectory(1.0, mus, 0.0, lr, picks)
    eta_tilde = effective_server_lr(HyperConfig(eta_c=lr, eta_s=1.0, tau=1, T=steps, M=1))
    state = init_state(FEDVARP, np.zeros((1, 1)), N)
    for t, j in enumerate(picks):
        block, _ = local_sgd(fed, [[j]], state.w, 1, lr)
        w = aggregator_step(state, [[j]], block, eta_tilde)
        if w.tobytes() != np.array([reference[t + 1]]).tobytes():
            return False
    return True


def finite_difference_error(fed: Federation, points: np.ndarray) -> float:
    """Worst gap of client i's exact gradient at points[i] to central differences of its loss.

    fed is a stack of one federation.
    """
    eps = 1e-5
    worst = 0.0
    for i, w in enumerate(points[:, None]):
        g = fed.grads_and_losses(w)[0][0, i]
        for j in range(fed.d):
            e = np.zeros(fed.d)
            e[j] = eps
            fd = (fed.grads_and_losses(w + e)[1][0, i] - fed.grads_and_losses(w - e)[1][0, i]) / (2 * eps)
            worst = max(worst, float(abs(fd - g[j])))
    return worst


@dataclass
class VerifyCheck:
    name: str
    passed: bool
    detail: str


def verify(seed: int = 20240501) -> list[VerifyCheck]:
    """Run the seven oracle checks at fixed seeds; all must pass on a healthy build."""
    rng = np.random.default_rng
    lemma = variance_gap(rng(seed), 40)
    mean = subset_mean_bias(rng(seed + 1), 20, 3)
    varp, cluster = update_bias(rng(seed + 2), 3)
    fd_rng = rng(seed + 6)
    eigs = fd_rng.uniform(0.2, 2.0, size=6)
    fed = Federation(eigs=eigs, mus=fd_rng.normal(size=(1, 4, 6)))
    fd = finite_difference_error(fed, fd_rng.normal(size=(4, 6)))
    unbiased = "update is subset-mean unbiased over enumeration"
    checks = [
        ("subset-mean variance closed form vs enumeration", lemma, f"max rel err {lemma:.2e}"),
        ("subset mean is unbiased over enumeration", mean, f"max err {mean:.2e}"),
        (f"fedvarp {unbiased}", varp, f"max err {varp:.2e}"),
        (f"clusterfedvarp {unbiased}", cluster, f"max err {cluster:.2e}"),
    ]
    return [VerifyCheck(name, err <= 1e-12, detail) for name, err, detail in checks] + [
        VerifyCheck(
            "cluster reductions K=N and K=1 are bitwise identities",
            reductions_hold([_quick_config(seed)]),
            "T=60 trajectories",
        ),
        VerifyCheck(
            "single-participant path reproduces reference SAGA bitwise",
            saga_matches(rng(seed + 5), 12, 120, 0.04),
            "120 steps",
        ),
        VerifyCheck("finite differences match exact gradients", fd <= 1e-6, f"max err {fd:.2e}"),
    ]


def _quick_config(seed: int) -> RunConfig:
    federation = FederationConfig(
        N=8, d=3, K_true=8, cluster_center_spread=1.0, within_cluster_spread=0.0,
        noise_sigma=0.3, hessian_eig_min=0.5, hessian_eig_max=1.0, seed=seed,
    )
    hyper = HyperConfig(eta_c=0.05, eta_s=1.0, tau=2, T=60, M=3)
    return RunConfig(
        federation, hyper, AlgoConfig(FEDAVG), log_every=1, output_dir="unused", seed=seed + 17
    )
