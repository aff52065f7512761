"""The exact constants and the offset draws, bit for bit against the formulas they replaced.

federation_constants and cluster_heterogeneity form their per-client
terms in one pass over row blocks, and generate_federation draws its
rows on row slabs. The reference below is the whole-array code with a
Python loop over clusters; every result must carry its bits.
"""
import numpy as np
import pytest

from conftest import forced_split, make_federation
from fedvarp_sim import core, objectives
from fedvarp_sim.core import ConfigError
from fedvarp_sim.objectives import (
    FederationConfig,
    block_assignment,
    cluster_heterogeneity,
    federation_constants,
    generate_federation,
)
from test_objectives import PINNED_FEDERATIONS

SCALARS = ("L", "sigma_g_sq", "sigma_K_sq", "f_star")


def _max_gap_sq(eigs, center, rows):
    dev = eigs * (center - rows)
    return float(np.max(np.sum(dev * dev, axis=1)))


def reference_cluster_heterogeneity(fed, assignment):
    worst = 0.0
    for k in np.unique(assignment):
        members = fed.mus[assignment == k]
        worst = max(worst, _max_gap_sq(fed.eigs, members.mean(axis=0), members))
    return worst


def reference_constants(fed, assignment):
    """name -> value of the four scalar constants, and w_star."""
    eigs, mus = fed.eigs, fed.mus
    mu_bar = mus.mean(axis=0)
    return {
        "L": float(np.max(eigs)),
        "sigma_g_sq": _max_gap_sq(eigs, mu_bar, mus),
        "sigma_K_sq": reference_cluster_heterogeneity(fed, assignment),
        "f_star": float(np.mean(0.5 * np.sum(eigs * (mu_bar - mus) ** 2, axis=1))),
    }, mu_bar


def bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


def assert_matches_reference(fed, assignment):
    expected, w_star = reference_constants(fed, assignment)
    consts = federation_constants(fed, assignment)
    for name in SCALARS:
        assert bits(getattr(consts, name)) == bits(expected[name]), name
    assert bits(consts.w_star) == bits(w_star)
    assert bits(cluster_heterogeneity(fed, assignment)) == bits(expected["sigma_K_sq"])


def assignments(N, rng):
    """Block clusterings for several K, K not dividing N among them, then non-contiguous ones."""
    found = [block_assignment(N, K) for K in sorted({1, 2, 3, 7, N // 2 or 1, N}) if K <= N]
    found.append(np.arange(N) % 2)  # [0, 1, 0, 1, ...]
    found.append(rng.integers(0, max(1, N // 3), N))  # random labels, some possibly unused
    found.append(rng.permutation(block_assignment(N, min(N, 4))))
    return found


@pytest.mark.parametrize("cfg", PINNED_FEDERATIONS.values(), ids=PINNED_FEDERATIONS.keys())
def test_pinned_federations_match_the_reference_bitwise(cfg):
    fed, consts = generate_federation(cfg)
    expected, w_star = reference_constants(fed, block_assignment(cfg.N, cfg.K_true))
    for name in SCALARS:
        assert bits(getattr(consts, name)) == bits(expected[name]), name
    assert bits(consts.w_star) == bits(w_star)
    rng = np.random.default_rng(cfg.N)
    for assignment in assignments(cfg.N, rng)[-4:]:  # K = N and the non-contiguous ones
        expected = reference_cluster_heterogeneity(fed, assignment)
        assert bits(cluster_heterogeneity(fed, assignment)) == bits(expected)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("N", [1, 2, 5, 9, 17, 130, 300])
@pytest.mark.parametrize("block_rows", [None, 1, 3])
def test_random_federations_match_the_reference_bitwise(monkeypatch, N, d, block_rows):
    if block_rows is not None:  # force several row blocks at these small widths
        monkeypatch.setattr(objectives, "ROW_BLOCK_BYTES", 8 * d * block_rows)
    rng = np.random.default_rng(N * 10 + d)
    eigs = rng.uniform(0.1, 3.0, d)
    # Offsets over 8 decades around a common point, so that the gaps
    # cancel and a change of summation order in any mean or row sum shows
    # in the bits; then magnitudes over 16 decades.
    near = 3.0 + rng.standard_normal((N, d)) * 10.0 ** rng.uniform(-10, -2, (N, d))
    wide = rng.standard_normal((N, d)) * 10.0 ** rng.uniform(-8, 8, (N, d))
    for mus in (near, wide):
        for assignment in assignments(N, rng):
            assert_matches_reference(make_federation(mus, eigs), assignment)


def test_zero_eigenvalue_columns_and_negative_zero_rows_match_the_reference_bitwise():
    rng = np.random.default_rng(5)
    mus = rng.standard_normal((12, 4))
    mus[[0, 5, 6, 11]] = -0.0
    mus[:, 2] = -0.0  # an all -0.0 column
    for eigs in ([0.0, 1.0, 0.0, 2.0], [0.0] * 3 + [1.0]):
        for assignment in assignments(12, rng):
            assert_matches_reference(make_federation(mus, eigs), assignment)
    all_zero = make_federation(np.full((6, 3), -0.0), [1.0, 0.0, 2.0])
    for assignment in assignments(6, rng):
        assert_matches_reference(all_zero, assignment)


@pytest.mark.parametrize("workers", [2, 3, 8])
def test_slab_split_generation_matches_one_slab(workers):
    for cfg in PINNED_FEDERATIONS.values():
        one_fed, one = generate_federation(cfg)
        with forced_split(workers):
            fed, consts = generate_federation(cfg)
        assert fed.mus.tobytes() == one_fed.mus.tobytes()
        for name in SCALARS:
            assert bits(getattr(consts, name)) == bits(getattr(one, name)), name
        assert bits(consts.w_star) == bits(one.w_star)


def test_generation_below_the_split_threshold_starts_no_thread(monkeypatch):
    def no_threads(*args, **kwargs):
        raise AssertionError("a one-slab generation must not start a thread")

    monkeypatch.setattr(core.threading, "Thread", no_threads)
    monkeypatch.setattr(core, "WORKERS", 8)
    cfg = PINNED_FEDERATIONS["wide-table"]  # N * d = 1e5 draws, a GIL-bound row loop
    assert cfg.N * cfg.d < core.SPLIT_MIN_WORK
    generate_federation(cfg)


@pytest.mark.parametrize(
    "spreads,eig",
    [
        ((0.0, 1.15e153), 16.0),  # sigma_g_sq alone overflows
        ((1e160, 0.1), 1.0),  # every constant overflows
        ((1e308, 0.0), 1.0),  # the centers themselves overflow
    ],
)
def test_overflowing_constants_are_a_config_error(spreads, eig):
    cfg = FederationConfig(8, 3, 4, *spreads, 0.0, eig, eig, seed=11)
    with pytest.raises(ConfigError, match="constants overflow float64"):
        generate_federation(cfg)
    fed = make_federation([[1e200, 0.0], [-1e200, 0.0]], [1.0, 1.0])
    with pytest.raises(ConfigError, match="constants overflow float64"):
        federation_constants(fed, block_assignment(2, 1))
