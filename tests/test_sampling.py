from collections import Counter
from math import comb

import numpy as np
import pytest

from fedvarp_sim.core import ConfigError, OracleScaleError
from fedvarp_sim.rng import substream
from fedvarp_sim.sampling import (
    RoundPlan,
    enumerate_subsets,
    sample_round,
    without_replacement_variance,
)


def test_full_participation_is_identity():
    plan = sample_round(6, 6, substream(1, 0))
    assert plan.participants == tuple(range(6))


def test_plan_validation():
    with pytest.raises(ConfigError):
        RoundPlan(participants=(2, 1))
    with pytest.raises(ConfigError):
        RoundPlan(participants=(1, 1))
    with pytest.raises(ConfigError):
        sample_round(3, 4, substream(1, 0))


def test_marginal_inclusion_frequencies():
    N, M, draws = 5, 2, 100_000
    stream = substream(2024, 1)
    counts = np.zeros(N)
    for _ in range(draws):
        for i in sample_round(N, M, stream).participants:
            counts[i] += 1
    expected = draws * M / N
    sigma = np.sqrt(draws * (M / N) * (1 - M / N))
    assert np.all(np.abs(counts - expected) <= 3 * sigma)


def test_subset_frequencies_uniform():
    N, M, draws = 4, 2, 100_000
    stream = substream(2024, 2)
    counts = Counter(sample_round(N, M, stream).participants for _ in range(draws))
    assert len(counts) == comb(N, M)
    expected = draws / comb(N, M)
    sigma = np.sqrt(draws * (1 / 6) * (5 / 6))
    for subset_count in counts.values():
        assert abs(subset_count - expected) <= 3 * sigma


def test_enumeration_small_cases():
    plans = enumerate_subsets(3, 2)
    assert [p.participants for p in plans] == [(0, 1), (0, 2), (1, 2)]
    assert len(enumerate_subsets(4, 4)) == 1
    assert len(enumerate_subsets(6, 3)) == 20


def test_enumeration_cap():
    with pytest.raises(OracleScaleError):
        enumerate_subsets(50, 25)


def test_variance_trivial_cases():
    xs = [np.array([1.0, 2.0]), np.array([-1.0, 0.5]), np.array([3.0, 3.0])]
    assert without_replacement_variance(xs, 3) == 0.0
    assert without_replacement_variance([np.array([4.0])] * 5, 2) == 0.0
    assert without_replacement_variance([np.array([7.0])], 1) == 0.0
    with pytest.raises(ConfigError):
        without_replacement_variance([], 1)


def test_variance_hand_case():
    xs = [np.array([0.0]), np.array([1.0]), np.array([2.0])]
    assert without_replacement_variance(xs, 2) == pytest.approx(1 / 6, rel=1e-15)


def _exhaustive_variance(xs, M):
    x_bar = np.mean(xs, axis=0)
    vals = []
    for plan in enumerate_subsets(len(xs), M):
        sub = np.mean([xs[i] for i in plan.participants], axis=0)
        vals.append(float(np.sum((sub - x_bar) ** 2)))
    return float(np.mean(vals))


def test_closed_form_matches_enumeration():
    rng = np.random.default_rng(55)
    for _ in range(60):
        N = int(rng.integers(2, 9))
        M = int(rng.integers(1, N + 1))
        d = int(rng.choice([1, 3, 10]))
        xs = [rng.normal(size=d) for _ in range(N)]
        closed = without_replacement_variance(xs, M)
        exhaustive = _exhaustive_variance(xs, M)
        assert closed == pytest.approx(exhaustive, rel=1e-12, abs=1e-15)


def test_subset_mean_unbiased():
    rng = np.random.default_rng(56)
    for _ in range(30):
        N = int(rng.integers(2, 8))
        M = int(rng.integers(1, N + 1))
        xs = [rng.normal(size=4) for _ in range(N)]
        x_bar = np.mean(xs, axis=0)
        avg = np.mean(
            [np.mean([xs[i] for i in p.participants], axis=0) for p in enumerate_subsets(N, M)],
            axis=0,
        )
        assert np.max(np.abs(avg - x_bar)) < 1e-12


def _row_loop_variance(xs, M):
    """The closed form as written before it took arrays: one vector at a time."""
    vecs = [np.atleast_1d(np.asarray(x, dtype=np.float64)) for x in xs]
    N = len(vecs)
    x_bar = np.zeros_like(vecs[0])
    for x in vecs:
        x_bar = x_bar + x
    x_bar = x_bar / N
    total = 0.0
    for x in vecs:
        diff = x - x_bar
        total += float(np.dot(diff, diff))
    return (1.0 / M) * ((N - M) / (N - 1.0)) * (total / N)


def test_variance_of_an_array_matches_the_list_and_the_row_loop_bitwise():
    # Values whose sums cancel or keep a signed zero make the bits depend
    # on the summation order.
    edge = np.array([-0.0, 0.0, 1.0, -1.0, 0.1, 3.0, 1e16, -1e16])
    rng = np.random.default_rng(57)
    for _ in range(200):
        N = int(rng.integers(2, 40))
        M = int(rng.integers(1, N + 1))
        d = int(rng.choice([1, 2, 5]))
        rows = np.where(rng.random((N, d)) < 0.5, rng.choice(edge, (N, d)), rng.normal(size=(N, d)))
        got = without_replacement_variance(rows, M)
        refs = [without_replacement_variance(list(rows), M), _row_loop_variance(list(rows), M)]
        if d == 1:  # one scalar per client
            refs.append(without_replacement_variance([float(x) for x in rows[:, 0]], M))
        for ref in refs:
            assert np.float64(ref).tobytes() == np.float64(got).tobytes()
    for d in (1, 2):
        zeros = np.full((5, d), -0.0)
        got = without_replacement_variance(zeros, 2)
        assert np.float64(got).tobytes() == np.float64(_row_loop_variance(zeros, 2)).tobytes()
