from dataclasses import replace

import numpy as np
import pytest

from conftest import make_federation
from reference import federation_mus, grad_and_loss
from fedvarp_sim.core import ConfigError, DimensionError
from fedvarp_sim.objectives import (
    Federation,
    FederationConfig,
    federation_constants,
    generate_federation,
    block_assignment,
    global_grad_and_loss,
)
from fedvarp_sim import objectives
from fedvarp_sim.localsgd import local_sgd
from fedvarp_sim.oracles import finite_difference_error
from fedvarp_sim.rng import TAG_CENTERS, substream


def test_two_point_constants():
    # N=2, d=1, A=[1], minimizers at 0 and 2, two generator clusters.
    fed = make_federation([[[0.0], [2.0]]], [1.0])
    consts = federation_constants(fed, block_assignment(2, 2))
    assert consts.L == 1.0
    assert consts.w_star[0] == pytest.approx(1.0)
    # f(w*) = (1/2N) sum (mu_bar - mu_i)^T A (mu_bar - mu_i) = 1/2
    assert consts.f_star == pytest.approx(0.5)
    assert consts.sigma_g_sq == pytest.approx(1.0)


def test_identical_clients_have_zero_heterogeneity():
    fed = make_federation([[[1.0, -1.0]] * 4], [1.0, 2.0])
    consts = federation_constants(fed, block_assignment(4, 1))
    assert consts.sigma_g_sq == 0.0
    assert consts.sigma_K_sq == 0.0


def test_singleton_clusters_zero_within_spread():
    cfg = FederationConfig(
        N=6,
        d=3,
        K_true=6,
        cluster_center_spread=1.0,
        within_cluster_spread=0.0,
        noise_sigma=0.0,
        hessian_eig_min=0.5,
        hessian_eig_max=1.0,
        seed=9,
    )
    _, [consts] = generate_federation([cfg])
    assert consts.sigma_K_sq == 0.0
    assert consts.sigma_g_sq > 0.0


def test_unequal_cluster_split_rejected():
    with pytest.raises(ConfigError, match="equal-size"):
        FederationConfig(
            N=7,
            d=2,
            K_true=2,
            cluster_center_spread=1.0,
            within_cluster_spread=0.0,
            noise_sigma=0.0,
            hessian_eig_min=1.0,
            hessian_eig_max=1.0,
            seed=1,
        )


VALID = FederationConfig(6, 4, 3, 1.0, 0.2, 0.1, 0.5, 1.5, seed=77)


@pytest.mark.parametrize(
    "edit",
    [
        {"N": 0},
        {"d": 0},
        {"K_true": 0},
        {"K_true": 12},
        {"cluster_center_spread": -1.0},
        {"within_cluster_spread": -0.1},
        {"noise_sigma": -0.1},
        {"hessian_eig_min": -0.5},
        {"hessian_eig_min": 2.0},
        {"hessian_eig_min": 0.0, "hessian_eig_max": 0.0},
        {"seed": -1},
    ],
    ids=lambda edit: ",".join(f"{k}={v}" for k, v in edit.items()),
)
def test_federation_config_rejects_out_of_range_knobs(edit):
    with pytest.raises(ConfigError):
        replace(VALID, **edit)


def test_generation_is_deterministic_in_seed():
    a, [ca] = generate_federation([VALID])
    b, [cb] = generate_federation([VALID])
    assert a.mus.tobytes() == b.mus.tobytes()
    assert ca.w_star.tobytes() == cb.w_star.tobytes()
    assert ca.sigma_g_sq == cb.sigma_g_sq


def test_offsets_respect_within_cluster_spread():
    spread = 0.3
    cfg = FederationConfig(8, 5, 2, 2.0, spread, 0.0, 1.0, 1.0, seed=13)
    fed, _ = generate_federation([cfg])
    # With zero spread every client sits exactly at its cluster's center.
    centers, _ = generate_federation([replace(cfg, within_cluster_spread=0.0)])
    assign = block_assignment(8, 2)
    assert np.array_equal(centers.mus, centers.mus[:, assign * 4])
    for mu, center in zip(fed.mus[0], centers.mus[0]):
        assert 0 < np.linalg.norm(mu - center) <= spread + 1e-12


# The benchmark's three federation shapes, then the edge cases.
PINNED_FEDERATIONS = {
    "wide-table": FederationConfig(1000, 100, 10, 1.0, 0.1, 0.0, 0.5, 1.0, seed=2**31 + 5),
    "deep-local": FederationConfig(200, 2000, 10, 1.0, 0.1, 0.5, 0.5, 1.0, seed=7),
    "floor-sweep": FederationConfig(40, 8, 40, 1.0, 0.0, 0.0, 0.5, 1.0, seed=0),
    "d=1": FederationConfig(12, 1, 3, 1.0, 0.4, 0.0, 0.5, 1.0, seed=1),
    "spread=0": FederationConfig(12, 7, 2, 2.0, 0.0, 0.0, 0.5, 1.0, seed=2**32 + 7),
    "seed>=2**64": FederationConfig(30, 5, 5, 1.0, 0.3, 0.0, 0.5, 2.0, seed=2**64 + 11),
}


@pytest.mark.parametrize("cfg", PINNED_FEDERATIONS.values(), ids=PINNED_FEDERATIONS.keys())
def test_generation_matches_one_substream_per_client(cfg):
    mus = federation_mus(cfg)[None]
    fed, [consts] = generate_federation([cfg])
    assert fed.mus.tobytes() == mus.tobytes()
    expected = federation_constants(replace(fed, mus=mus), block_assignment(cfg.N, cfg.K_true))
    for name in ("L", "sigma_g_sq", "sigma_K_sq", "f_star"):
        assert getattr(consts, name) == getattr(expected, name), name
    assert consts.w_star.tobytes() == expected.w_star.tobytes()


def test_generation_derives_one_substream_for_the_centers(monkeypatch):
    paths = []

    def counting(seed, *path):
        paths.append(path)
        return substream(seed, *path)

    monkeypatch.setattr(objectives, "substream", counting)
    generate_federation([PINNED_FEDERATIONS["wide-table"]])
    assert paths == [(TAG_CENTERS,)]



def test_block_assignment_is_equal_blocks_or_balanced():
    # The generator's clusters and clusterfedvarp's share this one map.
    for N in range(1, 41):
        for K in range(1, N + 1):
            assign = block_assignment(N, K)
            sizes = np.bincount(assign, minlength=K)
            assert np.all(np.diff(assign) >= 0)  # contiguous blocks
            if N % K == 0:
                assert np.array_equal(assign, np.arange(N) // (N // K))
            else:
                assert sizes.min() >= 1 and sizes.max() - sizes.min() <= 1

def test_noiseless_gradient_is_exact():
    fed = make_federation([[[0.0, 0.0]]], [1.0, 1.0])
    w = np.array([[3.0, 4.0]])
    g, _ = local_sgd(fed, [[0]], w, 1, 0.1)
    assert np.array_equal(g, [[[3.0, 4.0]]])
    at_mu, _ = local_sgd(fed, [[0]], fed.mus[:, 0], 1, 0.1)
    assert np.array_equal(at_mu, [[[0.0, 0.0]]])


def test_global_single_client():
    fed = make_federation([[[2.0]]], [1.5])
    g, loss = global_grad_and_loss(fed, np.array([[0.0]]))
    assert g[0, 0] == pytest.approx(-3.0)
    assert loss[0] == pytest.approx(0.5 * 1.5 * 4.0)


def test_global_zero_gradient_at_mean():
    fed = make_federation([[[0.0, 1.0], [2.0, 3.0], [4.0, -1.0]]], [1.0, 0.5])
    mu_bar = fed.mus.mean(axis=1)
    g, _ = global_grad_and_loss(fed, mu_bar)
    assert np.max(np.abs(g)) < 1e-15


def test_global_hand_case():
    fed = make_federation([[[0.0], [2.0]]], [1.0])
    g, loss = global_grad_and_loss(fed, np.array([[0.0]]))
    assert g[0, 0] == pytest.approx(-1.0)
    assert loss[0] == pytest.approx(1.0)


def test_global_empty_rejected():
    with pytest.raises(ConfigError):
        Federation(eigs=np.ones(1), mus=np.zeros((1, 0, 1)))


@pytest.mark.parametrize(
    "eigs,sigma,error,message",
    [
        ([1.0], 0.0, DimensionError, "share the dimension"),
        ([1.0, -0.5], 0.0, ConfigError, "eigenvalues must be nonnegative"),
        ([1.0, 0.5], -0.1, ConfigError, "noise_sigma must be nonnegative"),
        ([1.0, np.nan], 0.0, ConfigError, "eigenvalues must be nonnegative and finite"),
        ([1.0, np.inf], 0.0, ConfigError, "eigenvalues must be nonnegative and finite"),
        ([1.0, 0.5], np.nan, ConfigError, "noise_sigma must be nonnegative and finite"),
        ([1.0, 0.5], np.inf, ConfigError, "noise_sigma must be nonnegative and finite"),
    ],
    ids=["eigs_length", "negative_eig", "negative_sigma", "nan_eig", "inf_eig", "nan_sigma", "inf_sigma"],
)
def test_federation_rejects_bad_hessians_and_noise(eigs, sigma, error, message):
    with pytest.raises(error, match=message):
        Federation(eigs=np.array(eigs), mus=np.zeros((1, 3, 2)), noise_sigma=sigma)


def test_finite_difference_agreement():
    rng = np.random.default_rng(21)
    eigs = rng.uniform(0.1, 3.0, size=5)
    fed = make_federation(rng.normal(size=(1, 3, 5)), eigs)
    assert finite_difference_error(fed, rng.normal(size=(3, 5))) < 1e-6


def test_smoothness_with_equality_witness():
    rng = np.random.default_rng(22)
    eigs = np.array([0.3, 0.9, 2.0])
    fed = make_federation([[rng.normal(size=3)]], eigs)
    L = eigs.max()

    def grad(w):
        return fed.grads_and_losses(w[None])[0][0, 0]

    for _ in range(1000):
        x, y = rng.normal(size=(2, 3))
        lhs = np.linalg.norm(grad(x) - grad(y))
        assert lhs <= L * np.linalg.norm(x - y) * (1 + 1e-12)
    top = np.array([0.0, 0.0, 1.0])  # eigendirection of the max eigenvalue
    x = rng.normal(size=3)
    y = x + 0.7 * top
    lhs = np.linalg.norm(grad(x) - grad(y))
    assert lhs == pytest.approx(L * np.linalg.norm(x - y), rel=1e-12)


def test_heterogeneity_is_w_independent_and_matches_reported():
    fed, [consts] = generate_federation([FederationConfig(6, 4, 3, 1.5, 0.3, 0.0, 0.4, 1.2, seed=31)])
    mu_bar = fed.mus[0].mean(axis=0)
    rng = np.random.default_rng(32)
    gaps = []
    for i, mu in enumerate(fed.mus[0]):
        expected = float(np.sum((fed.eigs * (mu_bar - mu)) ** 2))
        for _ in range(5):
            w = rng.normal(size=(1, 4))
            g_global, _ = global_grad_and_loss(fed, w)
            gap = float(np.sum((fed.grads_and_losses(w)[0][0, i] - g_global[0]) ** 2))
            assert gap == pytest.approx(expected, rel=1e-10, abs=1e-14)
        gaps.append(expected)
    assert max(gaps) == pytest.approx(consts.sigma_g_sq, rel=1e-12)


def test_cluster_heterogeneity_uses_assignment():
    fed = make_federation([[[0.0], [0.2], [5.0], [5.2]]], [1.0])
    tight = federation_constants(fed, np.array([0, 0, 1, 1])).sigma_K_sq
    loose = federation_constants(fed, np.array([0, 1, 0, 1])).sigma_K_sq
    assert tight == pytest.approx(0.01)
    assert loose > 1.0


@pytest.mark.parametrize(
    "N,d,K_true", [(1, 1, 1), (1, 6, 1), (9, 1, 3), (12, 17, 4), (40, 8, 40), (200, 100, 10)]
)
def test_cached_mus_metrics_match_stacked_bitwise(N, d, K_true):
    # The federation's cached mus measure as a federation stacked from each client's own copy.
    rng = np.random.default_rng(N * 1000 + d)
    for trial in range(5):
        fed, _ = generate_federation([FederationConfig(N, d, K_true, 1.5, 0.3, 0.0, 0.2, 1.7, trial)])
        stacked = make_federation(np.stack([fed.mus[0, i].copy() for i in range(N)])[None], fed.eigs)
        for scale in (1e-3, 1.0, 1e150):
            w = rng.normal(size=(1, d)) * scale
            g, loss = global_grad_and_loss(fed, w)
            g_ref, loss_ref = grad_and_loss(stacked, w)
            assert g.tobytes() == g_ref.tobytes()
            assert loss.tobytes() == loss_ref.tobytes()
