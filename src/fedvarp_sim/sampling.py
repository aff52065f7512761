"""Uniform without-replacement client sampling plus enumeration oracles."""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .core import ConfigError, OracleScaleError

ENUMERATION_CAP = 1_000_000


@dataclass(frozen=True)
class RoundPlan:
    """The participant set of one round: M distinct sorted client ids."""

    participants: tuple[int, ...]

    def __post_init__(self):
        p = self.participants
        if len(set(p)) != len(p):
            raise ConfigError(f"duplicate participants in {p}")
        if any(p[i] >= p[i + 1] for i in range(len(p) - 1)):
            raise ConfigError(f"participants must be sorted ascending, got {p}")
        if p and p[0] < 0:
            raise ConfigError(f"negative client id in {p}")


def sample_round(N: int, M: int, rng: np.random.Generator) -> RoundPlan:
    """Sample M of N clients uniformly without replacement.

    Partial Fisher-Yates over [0, N): exactly uniform over all C(N, M)
    subsets, O(N) work, deterministic in the stream.
    """
    if not 1 <= M <= N:
        raise ConfigError(f"need 1 <= M <= N, got M={M} N={N}")
    idx = list(range(N))
    for j in range(M):
        r = j + int(rng.integers(N - j))
        idx[j], idx[r] = idx[r], idx[j]
    return RoundPlan(participants=tuple(sorted(idx[:M])))


def enumerate_subsets(N: int, M: int) -> list[RoundPlan]:
    """All C(N, M) participant sets in lexicographic order."""
    if not 1 <= M <= N:
        raise ConfigError(f"need 1 <= M <= N, got M={M} N={N}")
    count = comb(N, M)
    if count > ENUMERATION_CAP:
        raise OracleScaleError(f"C({N},{M}) = {count} exceeds cap {ENUMERATION_CAP}")
    return [RoundPlan(participants=subset) for subset in combinations(range(N), M)]


def without_replacement_variance(xs: list[np.ndarray], M: int) -> float:
    """Closed-form variance of the M-subset mean around the full mean.

    Returns (1/M) ((N-M)/(N-1)) (1/N) sum_i ||x_i - x_bar||^2. For N = 1
    the formula's (N-1) denominator is vacuous and the variance is zero,
    so 0.0 is returned directly.
    """
    vecs = [np.atleast_1d(np.asarray(x, dtype=np.float64)) for x in xs]
    N = len(vecs)
    if N == 0:
        raise ConfigError("empty vector list")
    if not 1 <= M <= N:
        raise ConfigError(f"need 1 <= M <= N, got M={M} N={N}")
    if N == 1:
        return 0.0
    x_bar = np.zeros_like(vecs[0])
    for x in vecs:
        x_bar = x_bar + x
    x_bar = x_bar / N
    total = 0.0
    for x in vecs:
        diff = x - x_bar
        total += float(np.dot(diff, diff))
    return (1.0 / M) * ((N - M) / (N - 1.0)) * (total / N)
