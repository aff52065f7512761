"""Uniform without-replacement client sampling plus enumeration oracles."""
from __future__ import annotations

from itertools import combinations
from math import comb

import numpy as np

from .core import ConfigError, OracleScaleError, sum_rows

ENUMERATION_CAP = 1_000_000


def sample_round(N: int, M: int, rng: np.random.Generator) -> np.ndarray:
    """Sample M of N clients uniformly without replacement; their ids ascending, as np.intp.

    Partial Fisher-Yates over [0, N): exactly uniform over all C(N, M)
    subsets, deterministic in the stream. Step j swaps position j with
    j + rng.integers(N - j); the M bounds are drawn in one call, which
    reads the stream as M scalar calls would, and only the swapped
    positions are stored, so the work is O(M).
    """
    if not 1 <= M <= N:
        raise ConfigError(f"need 1 <= M <= N, got M={M} N={N}")
    moved = {}  # position -> client id, for every position a swap has touched
    for j, r in enumerate(rng.integers(np.arange(N, N - M, -1)).tolist()):
        r += j
        moved[j], moved[r] = moved.get(r, r), moved.get(j, j)
    return np.array(sorted(moved[j] for j in range(M)), dtype=np.intp)


def enumerate_subsets(N: int, M: int) -> np.ndarray:
    """All C(N, M) participant sets in lexicographic order, one row of M ids each."""
    if not 1 <= M <= N:
        raise ConfigError(f"need 1 <= M <= N, got M={M} N={N}")
    count = comb(N, M)
    if count > ENUMERATION_CAP:
        raise OracleScaleError(f"C({N},{M}) = {count} exceeds cap {ENUMERATION_CAP}")
    return np.array(list(combinations(range(N), M)), dtype=np.intp)


def without_replacement_variance(xs, M: int) -> float:
    """Closed-form variance of the M-subset mean around the full mean.

    xs holds N vectors of one length, as a list or an (N, d) array.
    Returns (1/M) ((N-M)/(N-1)) (1/N) sum_i ||x_i - x_bar||^2, x_bar
    and the sum both added in row order. For N = 1 the formula's (N-1)
    denominator is vacuous and the variance is zero, so 0.0 is returned.
    """
    N = len(xs)
    if N == 0:
        raise ConfigError("empty vector list")
    if not 1 <= M <= N:
        raise ConfigError(f"need 1 <= M <= N, got M={M} N={N}")
    if N == 1:
        return 0.0
    rows = np.asarray(xs, dtype=np.float64).reshape(N, -1)
    x_bar = sum_rows(rows) / N
    total = 0.0
    for x in rows:
        diff = x - x_bar
        total += float(np.dot(diff, diff))
    return (1.0 / M) * ((N - M) / (N - 1.0)) * (total / N)
