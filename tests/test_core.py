import itertools
from math import sqrt

import numpy as np
import pytest

from fedvarp_sim.core import (
    CLUSTERFEDVARP,
    FEDAVG,
    FEDVARP,
    MIFA,
    ConfigError,
    HyperConfig,
    effective_server_lr,
    lr_precondition_report,
)


def _hp(eta_c, eta_s, tau, M=1, T=10):
    return HyperConfig(eta_c=eta_c, eta_s=eta_s, tau=tau, T=T, M=M)


@pytest.mark.parametrize(
    "eta_s,eta_c,tau,expected",
    [(1.0, 0.1, 5, 0.5), (1.0, 1.0, 1, 1.0), (2.0, 0.01, 10, 0.2)],
)
def test_effective_server_lr(eta_s, eta_c, tau, expected):
    assert effective_server_lr(_hp(eta_c, eta_s, tau)) == pytest.approx(expected, rel=1e-15)


def test_effective_server_lr_full_precision():
    rng = np.random.default_rng(1)
    for _ in range(100):
        eta_c, eta_s = rng.uniform(1e-6, 2.0, size=2)
        tau = int(rng.integers(1, 40))
        assert effective_server_lr(_hp(eta_c, eta_s, tau)) == eta_s * eta_c * tau


def test_hyperparams_validation(small_config):
    with pytest.raises(ConfigError):
        _hp(0.0, 1.0, 1)
    with pytest.raises(ConfigError):
        _hp(0.1, 0.0, 1)
    with pytest.raises(ConfigError):
        _hp(0.1, 1.0, 0)
    with pytest.raises(ConfigError):
        _hp(0.1, 1.0, 1, T=-1)
    with pytest.raises(ConfigError):
        _hp(0.1, 1.0, 1, M=0)
    # M <= N spans two sections, so the run config checks it.
    with pytest.raises(ConfigError, match="M <= N"):
        small_config(N=2, K_true=1, M=3)


@pytest.mark.parametrize(
    "eta_c,eta_s,tau",
    [
        (float("inf"), 1.0, 1),
        (0.1, float("inf"), 1),
        (1e308, 1.0, 2),  # eta_c * tau overflows
        (10.0, 1e307, 2),  # only eta_s * eta_c * tau overflows
        (0.1, 1.0, 10**400),  # a tau too large to convert to a float
    ],
    ids=["eta_c_inf", "eta_s_inf", "local_product", "server_product", "huge_tau"],
)
def test_step_sizes_whose_products_are_not_finite_are_config_errors(eta_c, eta_s, tau):
    with pytest.raises(ConfigError, match=r"eta_c \* tau and eta_s \* eta_c \* tau must be finite"):
        _hp(eta_c, eta_s, tau)


def test_the_largest_finite_step_sizes_are_accepted():
    assert effective_server_lr(_hp(1e308, 1.0, 1)) == 1e308
    assert effective_server_lr(_hp(1e150, 1e100, 2)) == 2e250


def test_fedavg_bounds_hand_case():
    report = lr_precondition_report(_hp(0.01, 1.0, 4), N=1, L=1.0, algo=FEDAVG)
    by_name = {c.quantity: c for c in report}
    assert by_name["eta_c"].bound == pytest.approx(1 / 32)
    assert by_name["eta_s_eta_c"].bound == pytest.approx(1 / 96)
    assert by_name["eta_c"].satisfied


def test_fedvarp_bound_is_min_of_three():
    report = lr_precondition_report(_hp(0.01, 1.0, 1, M=1), N=1, L=1.0, algo=FEDVARP)
    by_name = {c.quantity: c for c in report}
    # min{1/8, 5/48, 1/4} = 5/48
    assert by_name["eta_s_eta_c"].bound == pytest.approx(5 / 48)


def test_clusterfedvarp_bound_needs_p():
    with pytest.raises(ConfigError):
        lr_precondition_report(_hp(0.01, 1.0, 1, M=2), N=4, L=1.0, algo=CLUSTERFEDVARP)
    report = lr_precondition_report(
        _hp(0.01, 1.0, 1, M=2), N=4, L=1.0, algo=CLUSTERFEDVARP, p=1 / 6
    )
    by_name = {c.quantity: c for c in report}
    expected = min(np.sqrt(2) * (1 - 1 / 6) / 8, 2 / 16, 1 / 4)
    assert by_name["eta_s_eta_c"].bound == pytest.approx(expected)


def test_mifa_has_no_bounds():
    assert lr_precondition_report(_hp(0.01, 1.0, 1), N=1, L=1.0, algo=MIFA) == []


def test_invalid_smoothness_rejected():
    with pytest.raises(ValueError):
        lr_precondition_report(_hp(0.01, 1.0, 1), N=1, L=0.0, algo=FEDAVG)


def test_unknown_algorithm_rejected():
    with pytest.raises(ConfigError, match="unknown algorithm tag 'sgd'"):
        lr_precondition_report(_hp(0.01, 1.0, 1), N=1, L=1.0, algo="sgd")


def test_report_monotone_in_rates():
    rng = np.random.default_rng(2)
    for _ in range(60):
        eta_c = float(rng.uniform(1e-4, 0.5))
        eta_s = float(rng.uniform(1e-2, 3.0))
        tau = int(rng.integers(1, 10))
        M = int(rng.integers(1, 6))
        N = int(rng.integers(M, 12))
        L = float(rng.uniform(0.2, 4.0))
        algo = [FEDAVG, FEDVARP][int(rng.integers(2))]
        before = lr_precondition_report(_hp(eta_c, eta_s, tau, M), N, L, algo)
        shrink = float(rng.uniform(0.1, 1.0))
        after = lr_precondition_report(_hp(eta_c * shrink, eta_s * shrink, tau, M), N, L, algo)
        for b, a in zip(before, after):
            if b.satisfied:
                assert a.satisfied


def test_bounds_equal_their_expressions_bitwise():
    # The manifest prints these floats in full, so a regrouped expression
    # that rounds differently must fail here: compare with ==, not approx.
    grid = itertools.product(
        (0.003, 0.01, 0.125, 0.7),  # eta_c: 0.125 meets fedavg's bound at L=1, tau=1
        (0.5, 1.0, 3.0),  # eta_s
        (1, 3, 7, 13),  # tau
        (1, 2, 5),  # M
        (1, 5, 13),  # N
        (0.3, 1.0, 2.7, 3.3333),  # L
        (0.0, 1 / 6, 0.93),  # p
    )
    for eta_c, eta_s, tau, M, N, L, p in grid:
        h = _hp(eta_c, eta_s, tau, M)
        expected = {
            FEDAVG: (1.0 / (8.0 * L * tau), 1.0 / (24.0 * tau * L)),
            FEDVARP: (
                1.0 / (10.0 * L * tau),
                min(M**1.5 / (8.0 * L * tau * N), 5.0 * M / (48.0 * tau * L), 1.0 / (4.0 * L * tau)),
            ),
            CLUSTERFEDVARP: (
                1.0 / (10.0 * L * tau),
                min(sqrt(M) * (1.0 - p) / (8.0 * L * tau), M / (16.0 * tau * L), 1.0 / (4.0 * L * tau)),
            ),
        }
        for algo, (bound_c, bound_sc) in expected.items():
            report = lr_precondition_report(h, N, L, algo, p)
            assert [(c.quantity, c.bound, c.value, c.satisfied) for c in report] == [
                ("eta_c", bound_c, eta_c, eta_c <= bound_c),
                ("eta_s_eta_c", bound_sc, eta_s * eta_c, eta_s * eta_c <= bound_sc),
            ]
