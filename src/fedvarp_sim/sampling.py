"""Uniform without-replacement client sampling plus enumeration oracles.

sample_round draws one round's participants from a generator and is the
definition. sample_rounds draws the participants of many rounds, one
Philox key each, in one array pass with the bits sample_round gives
each key. sample_participants is the one place a run draws its
participants: a chunk of rounds for every replicate of a stack.
"""
from __future__ import annotations

from itertools import combinations
from math import comb

import numpy as np

from .core import ConfigError, OracleScaleError, sum_rows
from .rng import TAG_SAMPLING, philox_keys, philox_rekeyer

ENUMERATION_CAP = 1_000_000

_MASK32 = 0xFFFFFFFF


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


def sample_rounds(N: int, M: int, keys) -> np.ndarray:
    """sample_round(N, M, rekey(keys[c])) as row c of a (C, M) np.intp array, for a (C, 2) Philox key block.

    numpy draws a bound b = N - j <= 2**32 with Lemire's rule from one
    uint32, the low half of a 64-bit Philox word first: r = (u * b) >> 32,
    redrawn while the low 32 bits of u * b are below (2**32 - b) % b
    (b = 1 gives 0 and draws nothing, which only the last of M = N steps
    meets). So the first ceil(M/2) words of each key give every row's
    bounds as uint64 array steps. A row whose bounds meet a redraw
    (about N / 2**32 per bound) is drawn again by sample_round, as is
    every row for N > 2**32, where numpy draws 64-bit bounds.

    The M swaps run over compact slots: slot s < M of a row is position
    s, the others are the distinct positions j + r_j >= M. Step j swaps
    slot j with the slot of j + r_j in every row at once, so the work and
    memory are O(C * M) and nothing of size N is made.
    """
    if not 1 <= M <= N:
        raise ConfigError(f"need 1 <= M <= N, got M={M} N={N}")
    keys = np.asarray(keys, dtype=np.uint64).reshape(-1, 2)
    C = len(keys)
    rekey = philox_rekeyer()
    if N > 2**32:
        return np.array([sample_round(N, M, rekey(k)) for k in keys], dtype=np.intp).reshape(C, M)
    W = (M + 1) // 2
    words = np.array([rekey(k).bit_generator.random_raw(W) for k in keys.tolist()], dtype=np.uint64)
    u = np.stack([words & _MASK32, words >> 32], axis=-1).reshape(C, 2 * W)[:, :M]
    bound = np.arange(N, N - M, -1, dtype=np.uint64)
    scaled = u * bound
    redrawn = ((scaled & _MASK32) < (2**32 - bound) % bound).any(axis=1)

    # Row c's touched positions: 0..M-1, then each step's j + r_j. Equal
    # positions share a slot, numbered by rank; as every position below
    # M is there, position s < M has slot s. Slot s of row c is entry
    # s * C + c of the (2M, C) array ids, so step j reads row j whole.
    pos = np.empty((C, 2 * M), dtype=np.intp)
    pos[:, :M] = np.arange(M)
    pos[:, M:] = (scaled >> 32).astype(np.intp) + np.arange(M)
    order = pos.argsort(axis=1)
    ranked = np.take_along_axis(pos, order, axis=1)
    rank = np.zeros_like(ranked)
    np.cumsum(ranked[:, 1:] != ranked[:, :-1], axis=1, out=rank[:, 1:])
    entry = rank * C + np.arange(C)[:, None]
    ids = np.empty((2 * M, C), dtype=np.intp)
    flat = ids.reshape(-1)
    flat[entry] = ranked  # a slot starts holding the client at its position
    swap = np.empty_like(entry)
    np.put_along_axis(swap, order, entry, axis=1)
    swap = swap[:, M:].T.copy()  # step j's other entry in every row
    for j in range(M):
        held = ids[j].copy()
        ids[j] = flat[swap[j]]
        flat[swap[j]] = held
    out = np.sort(ids[:M].T, axis=1)
    for c in redrawn.nonzero()[0]:
        out[c] = sample_round(N, M, rekey(keys[c]))
    return out


def sample_participants(seeds, N: int, M: int, rounds) -> np.ndarray:
    """The (R, C, M) ids whose row r, round c is sample_round(N, M, substream(seeds[r], TAG_SAMPLING, rounds[c]))."""
    return np.array([sample_rounds(N, M, philox_keys(seed, TAG_SAMPLING, ids=rounds)) for seed in seeds])


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
    diffs = rows - sum_rows(rows) / N
    # cumsum adds the squared norms left to right, as a loop from 0.0 does (each is >= +0.0).
    total = float(np.cumsum(np.vecdot(diffs, diffs))[-1])
    return (1.0 / M) * ((N - M) / (N - 1.0)) * (total / N)
