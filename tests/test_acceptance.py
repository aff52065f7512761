"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line and holding its stated tolerance and runtime budget.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines as they complete.
"""
import functools
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import make_federation
from fedvarp_sim.config import AlgoConfig, RunConfig
from fedvarp_sim.core import CLUSTERFEDVARP, FEDAVG, FEDVARP, HyperConfig, lr_precondition_report
from fedvarp_sim.harness import run
from fedvarp_sim.sweeps import floor_estimate, sweep
from fedvarp_sim.localsgd import local_sgd
from fedvarp_sim.objectives import FederationConfig
from fedvarp_sim.oracles import (
    finite_difference_error,
    reductions_hold,
    saga_matches,
    update_bias,
    variance_gap,
)
from fedvarp_sim.rng import philox_keys


def criterion(label, budget_s):
    """Print one PASS/FAIL line per criterion and enforce its time budget."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"{label}: FAIL")
                raise
            elapsed = time.perf_counter() - start
            print(f"{label}: PASS ({elapsed:.2f}s, budget {budget_s:g}s)")
            assert elapsed < budget_s, f"{label} exceeded its {budget_s}s runtime budget"

        return wrapper

    return deco


def config(
    *,
    N,
    d,
    K_true,
    center_spread,
    within_spread,
    sigma,
    eig_min,
    eig_max,
    eta_c,
    eta_s,
    tau,
    T,
    M,
    algo,
    K=None,
    log_every=1,
    federation_seed=1234,
    seed=5678,
    output_dir="unused",
):
    return RunConfig(
        federation=FederationConfig(
            N=N,
            d=d,
            K_true=K_true,
            cluster_center_spread=center_spread,
            within_cluster_spread=within_spread,
            noise_sigma=sigma,
            hessian_eig_min=eig_min,
            hessian_eig_max=eig_max,
            seed=federation_seed,
        ),
        hyper=HyperConfig(eta_c=eta_c, eta_s=eta_s, tau=tau, T=T, M=M),
        algo=AlgoConfig(name=algo, K=K),
        log_every=log_every,
        output_dir=str(output_dir),
        seed=seed,
    )


def theory_rates(L, tau, M, N):
    """The largest (eta_c, eta_s) satisfying every algorithm's rate bounds."""
    eta_c = min(1 / (8 * L * tau), 1 / (10 * L * tau))
    prod = min(
        1 / (24 * tau * L),
        M**1.5 / (8 * L * tau * N),
        5 * M / (48 * tau * L),
        1 / (4 * L * tau),
    )
    return eta_c, prod / eta_c


# ---------------------------------------------------------------------------


@criterion("A1 subset-variance closed form vs enumeration", 1.0)
def test_a1_lemma_identity():
    assert variance_gap(np.random.default_rng(811), 100) <= 1e-12


@criterion("A2 exhaustive subset-mean unbiasedness", 1.0)
def test_a2_unbiasedness():
    varp_gap, cluster_gap = update_bias(np.random.default_rng(822), 3)
    assert varp_gap <= 1e-12 and cluster_gap <= 1e-12


@criterion("A3 variance elimination: linear convergence vs floor", 10.0)
def test_a3_variance_elimination():
    N, M, d, tau, L = 50, 5, 10, 1, 1.0
    eta_c, eta_s = theory_rates(L, tau, M, N)
    base = config(
        N=N,
        d=d,
        K_true=N,
        center_spread=1.0,
        within_spread=0.0,
        sigma=0.0,
        eig_min=0.5,
        eig_max=1.0,
        eta_c=eta_c,
        eta_s=eta_s,
        tau=tau,
        T=5000,
        M=M,
        algo=FEDVARP,
    )
    for algo in (FEDAVG, FEDVARP):
        assert all(c.satisfied for c in lr_precondition_report(base.hyper, N, L, algo))
    varp = run(base, write_artifacts=False)
    avg = run(replace(base, algo=AlgoConfig(FEDAVG)), write_artifacts=False)
    assert varp.manifest["constants"]["sigma_g_sq"] > 0
    varp_final = varp.metrics[-1, 0]
    avg_floor = floor_estimate(avg.metrics[:, 0])
    assert varp_final <= 1e-10
    assert avg_floor >= 1e3 * varp_final
    assert avg_floor > 1e-8  # the fedavg floor is a real floor, not noise


def _floor_base(output_dir="unused"):
    return config(
        N=40,
        d=8,
        K_true=40,
        center_spread=1.0,
        within_spread=0.0,
        sigma=0.0,
        eig_min=0.5,
        eig_max=1.0,
        eta_c=1 / 8,
        eta_s=1 / 3,
        tau=1,
        T=4000,
        M=5,
        algo=FEDAVG,
        output_dir=output_dir,
    )


@criterion("A4 fedavg floor scales linearly with heterogeneity", 60.0)
def test_a4_floor_scaling_in_heterogeneity():
    values = [10 ** (j / 8) for j in range(5)]  # sigma_g_sq spans one decade
    result = sweep(_floor_base(), "sigma_g_scale", values, write_artifacts=False)
    log_sigma = [np.log(r.manifest["constants"]["sigma_g_sq"]) for r in result.results]
    log_floor = [np.log(floor_estimate(r.metrics[:, 0])) for r in result.results]
    assert max(log_sigma) - min(log_sigma) == pytest.approx(np.log(10), rel=1e-6)
    slope = np.polyfit(log_sigma, log_floor, 1)[0]
    assert 0.7 <= slope <= 1.3, f"floor-vs-heterogeneity slope {slope:.3f}"


@criterion("A5 fedavg floor is linear in the server rate", 60.0)
def test_a5_floor_scaling_in_server_rate():
    base = _floor_base()
    full = run(base, write_artifacts=False)
    halved = run(
        replace(base, hyper=replace(base.hyper, eta_s=base.hyper.eta_s / 2)),
        write_artifacts=False,
    )
    ratio = floor_estimate(halved.metrics[:, 0]) / floor_estimate(full.metrics[:, 0])
    assert 0.35 <= ratio <= 0.7, f"floor ratio after halving eta_s: {ratio:.3f}"


@criterion("A6 cluster reductions K=N and K=1 are bitwise", 5.0)
def test_a6_reduction_equivalences():
    bases = [
        config(
            N=12,
            d=4,
            K_true=12,
            center_spread=1.0,
            within_spread=0.0,
            sigma=0.3,
            eig_min=0.5,
            eig_max=1.0,
            eta_c=0.05,
            eta_s=1.0,
            tau=3,
            T=200,
            M=3,
            algo=FEDVARP,
            federation_seed=900 + seed,
            seed=300 + seed,
        )
        for seed in range(10)
    ]
    assert reductions_hold(bases)


@criterion("A7 single-participant path equals reference SAGA bitwise", 1.0)
def test_a7_saga_equivalence():
    assert saga_matches(np.random.default_rng(877), 20, 500, 0.05)


@criterion("A8 cluster states interpolate between fedavg and fedvarp", 30.0)
def test_a8_cluster_interpolation():
    # Two well-separated generator clusters: clustering must remove almost
    # all of the participation-variance floor.
    N, M, tau, L = 20, 5, 1, 1.0
    eta_c, eta_s = theory_rates(L, tau, M, N)
    separated = config(
        N=N,
        d=5,
        K_true=2,
        center_spread=3.0,
        within_spread=0.05,
        sigma=0.0,
        eig_min=0.5,
        eig_max=1.0,
        eta_c=eta_c,
        eta_s=eta_s,
        tau=tau,
        T=3000,
        M=M,
        algo=FEDAVG,
    )
    avg = run(separated, write_artifacts=False)
    clustered = run(
        replace(separated, algo=AlgoConfig(CLUSTERFEDVARP, K=2)), write_artifacts=False
    )
    consts = clustered.manifest["constants"]
    assert consts["sigma_K_sq"] <= 1e-2 * consts["sigma_g_sq"]
    assert floor_estimate(clustered.metrics[:, 0]) <= 0.1 * floor_estimate(avg.metrics[:, 0])

    # Singleton generator clusters: K = N matches the per-client table.
    singleton = config(
        N=N,
        d=5,
        K_true=N,
        center_spread=1.0,
        within_spread=0.0,
        sigma=0.2,
        eig_min=0.5,
        eig_max=1.0,
        eta_c=eta_c,
        eta_s=eta_s,
        tau=tau,
        T=2000,
        M=M,
        algo=FEDVARP,
    )
    varp = run(singleton, write_artifacts=False)
    c_n = run(replace(singleton, algo=AlgoConfig(CLUSTERFEDVARP, K=N)), write_artifacts=False)
    assert c_n.manifest["constants"]["sigma_K_sq"] == 0.0
    floor_v = floor_estimate(varp.metrics[:, 0])
    floor_c = floor_estimate(c_n.metrics[:, 0])
    assert floor_v > 0
    assert 0.5 <= floor_c / floor_v <= 2.0


@criterion("A9 gradient oracle integrity", 5.0)
def test_a9_gradient_oracle():
    rng = np.random.default_rng(899)
    eigs = rng.uniform(0.2, 2.0, size=6)
    fed = make_federation(rng.normal(size=(1, 4, 6)), eigs)
    assert finite_difference_error(fed, rng.normal(size=(4, 6))) <= 1e-6

    # One-step local updates are stochastic gradients; 100k participants
    # sharing one client, each with its own key, give 100k independent draws.
    noisy = make_federation([[[0.2, -0.4]]], [1.0, 1.5], sigma=1.0)
    w = np.array([[1.0, 2.0]])
    exact = noisy.grads_and_losses(w)[0][0, 0]
    n = 100_000
    keys = philox_keys(899, 0, ids=np.arange(n))[None]
    [draws], _ = local_sgd(noisy, np.zeros((1, n), dtype=int), w, 1, 0.1, keys)
    assert np.all(np.abs(draws.mean(axis=0) - exact) < 0.02)
    noise_sq = np.sum((draws - exact) ** 2, axis=1)
    assert abs(noise_sq.mean() - 1.0) < 0.03


@criterion("A10 byte-identical artifacts across repeated runs", 5.0)
def test_a10_determinism(tmp_path):
    cfg = config(
        N=8,
        d=3,
        K_true=4,
        center_spread=1.0,
        within_spread=0.1,
        sigma=0.4,
        eig_min=0.5,
        eig_max=1.0,
        eta_c=0.05,
        eta_s=1.0,
        tau=2,
        T=40,
        M=3,
        algo=FEDVARP,
        output_dir=tmp_path / "a10",
    )
    run(cfg)
    names = ("metrics.csv", "manifest.json", "status.json")
    first = {n: (tmp_path / "a10" / n).read_bytes() for n in names}
    run(cfg)
    second = {n: (tmp_path / "a10" / n).read_bytes() for n in names}
    assert first == second
