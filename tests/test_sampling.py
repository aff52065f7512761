import tracemalloc
from collections import Counter
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference import list_sample_round, row_loop_variance
from fedvarp_sim import harness, sampling
from fedvarp_sim.core import ConfigError, OracleScaleError
from fedvarp_sim.oracles import subset_mean_bias
from fedvarp_sim.rng import TAG_SAMPLING, philox_keys, substream
from fedvarp_sim.sampling import (
    enumerate_subsets,
    sample_participants,
    sample_round,
    sample_rounds,
    without_replacement_variance,
)


def test_full_participation_is_identity():
    ids = sample_round(6, 6, substream(1, 0))
    assert ids.dtype == np.intp
    assert ids.tolist() == list(range(6))


def test_plan_validation():
    # The id checks themselves are made by aggregator_step.
    with pytest.raises(ConfigError):
        sample_round(3, 4, substream(1, 0))


def _philox_state(gen):
    state = gen.bit_generator.state
    return (
        state["state"]["counter"].tolist(),
        state["state"]["key"].tolist(),
        state["buffer"].tolist(),
        state["buffer_pos"],
        state["has_uint32"],
        state["uinteger"],
    )


@pytest.mark.parametrize("seed", [0, 5678, 2**62 + 9])
@pytest.mark.parametrize(
    "N, M",
    [(1, 1), (3, 1), (7, 7), (40, 5), (40, 40), (1000, 50), (1000, 1), (2**20, 3), (2**20, 2**10)],
)
def test_sample_round_matches_the_list_loop_and_leaves_the_same_stream(seed, N, M):
    # The batched bounds must read the stream exactly as M scalar calls:
    # same ids, and the generator left in the same state for later draws.
    fast, slow = substream(seed, 1, N, M), substream(seed, 1, N, M)
    ids = sample_round(N, M, fast)
    assert ids.dtype == np.intp
    assert ids.tobytes() == list_sample_round(N, M, slow).tobytes()
    assert _philox_state(fast) == _philox_state(slow)
    assert fast.integers(2**40, size=3).tolist() == slow.integers(2**40, size=3).tolist()


def test_sample_round_matches_the_list_loop_round_after_round():
    # One stream read by many calls, as in the tests above; every M from
    # 1 to N, so consecutive calls start at every buffered half word.
    fast, slow = substream(77, 1), substream(77, 1)
    for N in (1, 2, 5, 13, 64):
        for M in range(1, N + 1):
            assert sample_round(N, M, fast).tolist() == list_sample_round(N, M, slow).tolist()
    assert _philox_state(fast) == _philox_state(slow)


def _count_fallbacks(monkeypatch):
    """Count the rows sample_rounds redraws with sample_round."""
    calls = []
    original = sampling.sample_round

    def counting(N, M, rng):
        calls.append(N)
        return original(N, M, rng)

    monkeypatch.setattr(sampling, "sample_round", counting)
    return calls


def _assert_rows_are_sample_rounds(seed, N, M, rounds):
    """sample_rounds over the sampling keys of rounds 0..rounds-1 gives, row t, round t's sample_round bytes."""
    got = sample_rounds(N, M, philox_keys(seed, TAG_SAMPLING, ids=np.arange(rounds)))
    assert got.shape == (rounds, M) and got.dtype == np.intp
    for t, row in enumerate(got):
        assert row.tobytes() == sample_round(N, M, substream(seed, TAG_SAMPLING, t)).tobytes()


@settings(max_examples=150, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**63),
    N=st.integers(1, 60),
    m=st.integers(1, 60),
    rounds=st.integers(1, 12),
)
def test_sample_rounds_rows_are_sample_round_bytes(seed, N, m, rounds):
    _assert_rows_are_sample_rounds(seed, N, min(m, N), rounds)


@pytest.mark.parametrize("N, M", [(1, 1), (2, 2), (7, 7), (64, 64), (1000, 50), (100, 99)])
def test_sample_rounds_at_full_and_near_full_participation(N, M):
    # At M = N the last bound is 1, which draws nothing.
    _assert_rows_are_sample_rounds(31, N, M, 40)


def test_sample_rounds_redraws_the_rows_numpy_would_redraw(monkeypatch):
    # A bound near 3 * 2**30 is redrawn about a quarter of the time, so
    # about 1 - (3/4)**5 = 76% of rows of five bounds take sample_round.
    fallbacks = _count_fallbacks(monkeypatch)
    _assert_rows_are_sample_rounds(5, 3 * 2**30, 5, 200)
    assert 100 < len(fallbacks) < 200


def test_sample_rounds_above_one_word_bounds_uses_sample_round(monkeypatch):
    # numpy draws bounds past 2**32 from whole 64-bit words.
    fallbacks = _count_fallbacks(monkeypatch)
    _assert_rows_are_sample_rounds(6, 2**32 + 5, 3, 20)
    assert len(fallbacks) == 20
    fallbacks.clear()
    _assert_rows_are_sample_rounds(6, 2**32, 3, 20)
    assert fallbacks == []


def test_sample_rounds_memory_does_not_grow_with_N():
    # A (rounds, N) or (N,) array at N = 1e9 would be gigabytes.
    N, M, rounds = 10**9, 40, 64
    keys = philox_keys(8, TAG_SAMPLING, ids=np.arange(rounds))
    tracemalloc.start()
    try:
        got = sample_rounds(N, M, keys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * rounds * 2 * M * 8  # a few (rounds, 2M) arrays, not N-sized ones
    for t, row in enumerate(got):
        assert row.tobytes() == sample_round(N, M, substream(8, TAG_SAMPLING, t)).tobytes()


def test_sample_rounds_of_no_keys_and_bad_sizes():
    none = sample_rounds(9, 4, np.empty((0, 2), dtype=np.uint64))
    assert none.shape == (0, 4) and none.dtype == np.intp
    with pytest.raises(ConfigError):
        sample_rounds(3, 4, philox_keys(1, TAG_SAMPLING, ids=[0]))
    with pytest.raises(ConfigError):
        sample_rounds(3, 0, philox_keys(1, TAG_SAMPLING, ids=[0]))


@settings(max_examples=80, deadline=None, database=None)
@given(
    seeds=st.lists(st.integers(0, 2**70), min_size=1, max_size=4),
    N=st.integers(1, 40),
    m=st.integers(1, 40),
    start=st.integers(0, 2**32 - harness.ROUND_KEY_CHUNK - 1),
    kind=st.sampled_from(["some rounds", "one round of N ids", "a full chunk"]),
    length=st.integers(1, 6),
)
@example(seeds=[2**64, 2**64 - 1, 0, 2**70], N=5, m=1, start=2**32 - 1025, kind="a full chunk", length=1)
@example(seeds=[2**64 + 3], N=40, m=40, start=0, kind="one round of N ids", length=1)
def test_sample_participants_is_the_per_seed_sample_rounds_of_a_chunk(seeds, N, m, start, kind, length):
    """Bit for bit the per-seed sample_rounds calls a stack made inline, for chunks as run_stack cuts them."""
    M = N if kind == "one round of N ids" else min(m, N)
    C = {"some rounds": length, "one round of N ids": 1, "a full chunk": max(1, harness.ROUND_KEY_CHUNK // M)}[kind]
    rounds = np.arange(start, start + C)
    got = sample_participants(seeds, N, M, rounds)
    reference = [sample_rounds(N, M, philox_keys(seed, TAG_SAMPLING, ids=rounds)) for seed in seeds]
    assert got.shape == (len(seeds), C, M) and got.dtype == np.intp
    assert got.tobytes() == np.array(reference).tobytes()
    for r, seed in enumerate(seeds):  # and the definition, at the chunk's ends
        for c in (0, C - 1):
            assert got[r, c].tobytes() == sample_round(N, M, substream(seed, TAG_SAMPLING, int(rounds[c]))).tobytes()


def test_marginal_inclusion_frequencies():
    N, M, draws = 5, 2, 100_000
    stream = substream(2024, 1)
    counts = np.zeros(N)
    for _ in range(draws):
        for i in sample_round(N, M, stream):
            counts[i] += 1
    expected = draws * M / N
    sigma = np.sqrt(draws * (M / N) * (1 - M / N))
    assert np.all(np.abs(counts - expected) <= 3 * sigma)


def test_subset_frequencies_uniform():
    N, M, draws = 4, 2, 100_000
    stream = substream(2024, 2)
    counts = Counter(tuple(sample_round(N, M, stream).tolist()) for _ in range(draws))
    assert len(counts) == comb(N, M)
    expected = draws / comb(N, M)
    sigma = np.sqrt(draws * (1 / 6) * (5 / 6))
    for subset_count in counts.values():
        assert abs(subset_count - expected) <= 3 * sigma


def test_enumeration_small_cases():
    ids = enumerate_subsets(3, 2)
    assert ids.dtype == np.intp
    assert ids.tolist() == [[0, 1], [0, 2], [1, 2]]
    assert enumerate_subsets(4, 4).shape == (1, 4)
    assert enumerate_subsets(6, 3).shape == (20, 3)
    assert enumerate_subsets(5, 1).shape == (5, 1)


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


@pytest.mark.parametrize("M", [0, 4])
def test_subset_sizes_outside_one_to_n_are_rejected(M):
    with pytest.raises(ConfigError, match="1 <= M <= N"):
        enumerate_subsets(3, M)
    with pytest.raises(ConfigError, match="1 <= M <= N"):
        without_replacement_variance(np.ones((3, 2)), M)


def test_variance_hand_case():
    xs = [np.array([0.0]), np.array([1.0]), np.array([2.0])]
    assert without_replacement_variance(xs, 2) == pytest.approx(1 / 6, rel=1e-15)


def test_subset_mean_unbiased():
    assert subset_mean_bias(np.random.default_rng(56), 30, 4) < 1e-12


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
        refs = [without_replacement_variance(list(rows), M), row_loop_variance(list(rows), M)]
        if d == 1:  # one scalar per client
            refs.append(without_replacement_variance([float(x) for x in rows[:, 0]], M))
        for ref in refs:
            assert np.float64(ref).tobytes() == np.float64(got).tobytes()
    for d in (1, 2):
        zeros = np.full((5, d), -0.0)
        got = without_replacement_variance(zeros, 2)
        assert np.float64(got).tobytes() == np.float64(row_loop_variance(zeros, 2)).tobytes()


def test_variance_array_form_matches_the_row_loop_bitwise_at_any_scale():
    # Sizes up to N = 300 and d = 257, and scales whose squared norms
    # underflow, or overflow to inf.
    rng = np.random.default_rng(70)
    for _ in range(300):
        N, d = int(rng.integers(2, 301)), int(rng.integers(1, 258))
        xs = rng.normal(size=(N, d)) * 10.0 ** rng.choice([-200, -5, 0, 5, 150, 200])
        M = int(rng.integers(1, N + 1))
        with np.errstate(over="ignore"):
            got, want = without_replacement_variance(xs, M), row_loop_variance(xs, M)
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), (N, d, M)
