"""The exact constants and the offset draws, bit for bit against the formulas they replaced.

federation_constants forms its per-client terms in one pass over row
blocks, sigma_K_sq for any clustering, and generate_federation draws a
stack's federations into one array in the calling thread. The reference,
reference.whole_array_constants, is the whole-array code with a Python
loop over clusters; every result must carry its bits.
"""
import threading
from dataclasses import replace

import numpy as np
import pytest

from conftest import forced_split, make_federation
from fedvarp_sim import localsgd, objectives
from fedvarp_sim.core import ConfigError
from fedvarp_sim.objectives import (
    FederationConfig,
    block_assignment,
    federation_constants,
    generate_federation,
)
from reference import cluster_heterogeneity, whole_array_constants
from test_objectives import PINNED_FEDERATIONS

SCALARS = ("L", "sigma_g_sq", "sigma_K_sq", "f_star")


def bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


def assert_matches_reference(fed, assignment):
    expected, w_star = whole_array_constants(fed, assignment)
    consts = federation_constants(fed, assignment)
    for name in SCALARS:
        assert bits(getattr(consts, name)) == bits(expected[name]), name
    assert bits(consts.w_star) == bits(w_star)


def assignments(N, rng):
    """Block clusterings for several K, K not dividing N among them, then non-contiguous ones."""
    found = [block_assignment(N, K) for K in sorted({1, 2, 3, 7, N // 2 or 1, N}) if K <= N]
    found.append(np.arange(N) % 2)  # [0, 1, 0, 1, ...]
    found.append(rng.integers(0, max(1, N // 3), N))  # random labels, some possibly unused
    found.append(rng.permutation(block_assignment(N, min(N, 4))))
    return found


@pytest.mark.parametrize("cfg", PINNED_FEDERATIONS.values(), ids=PINNED_FEDERATIONS.keys())
def test_pinned_federations_match_the_reference_bitwise(cfg):
    fed, [consts] = generate_federation([cfg])
    expected, w_star = whole_array_constants(fed, block_assignment(cfg.N, cfg.K_true))
    for name in SCALARS:
        assert bits(getattr(consts, name)) == bits(expected[name]), name
    assert bits(consts.w_star) == bits(w_star)
    rng = np.random.default_rng(cfg.N)
    for assignment in assignments(cfg.N, rng)[-4:]:  # K = N and the non-contiguous ones
        expected = cluster_heterogeneity(fed, assignment)
        assert bits(federation_constants(fed, assignment).sigma_K_sq) == bits(expected)


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
            assert_matches_reference(make_federation(mus[None], eigs), assignment)


def test_zero_eigenvalue_columns_and_negative_zero_rows_match_the_reference_bitwise():
    rng = np.random.default_rng(5)
    mus = rng.standard_normal((1, 12, 4))
    mus[:, [0, 5, 6, 11]] = -0.0
    mus[..., 2] = -0.0  # an all -0.0 column
    for eigs in ([0.0, 1.0, 0.0, 2.0], [0.0] * 3 + [1.0]):
        for assignment in assignments(12, rng):
            assert_matches_reference(make_federation(mus, eigs), assignment)
    all_zero = make_federation(np.full((1, 6, 3), -0.0), [1.0, 0.0, 2.0])
    for assignment in assignments(6, rng):
        assert_matches_reference(all_zero, assignment)


def test_generation_starts_no_thread(monkeypatch):
    def no_threads(*args, **kwargs):
        raise AssertionError("generation must not start a thread")

    cfg = PINNED_FEDERATIONS["deep-local"]  # N * d = 4e5 draws: work local SGD would split
    assert cfg.N * cfg.d >= localsgd.SPLIT_MIN_WORK
    monkeypatch.setattr(threading, "Thread", no_threads)
    with forced_split(workers=8):
        generate_federation([cfg])


@pytest.mark.parametrize("name", ["seed>=2**64", "d=1"])
def test_each_row_of_a_stack_is_its_federation_generated_alone(name):
    base = PINNED_FEDERATIONS[name]
    cfgs = [
        base,
        replace(base, seed=3, within_cluster_spread=0.0),
        replace(base, seed=2**40, cluster_center_spread=7.5, within_cluster_spread=2.0),
    ]
    fed, consts = generate_federation(cfgs)
    assert fed.mus.shape == (3, base.N, base.d)
    for r, cfg in enumerate(cfgs):
        alone, [one] = generate_federation([cfg])
        assert fed.mus[r].tobytes() == alone.mus[0].tobytes(), r
        for name in SCALARS:
            assert bits(getattr(consts[r], name)) == bits(getattr(one, name)), (r, name)
        assert bits(consts[r].w_star) == bits(one.w_star), r


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
        generate_federation([cfg])
    fed = make_federation([[[1e200, 0.0], [-1e200, 0.0]]], [1.0, 1.0])
    with pytest.raises(ConfigError, match="constants overflow float64"):
        federation_constants(fed, block_assignment(2, 1))
