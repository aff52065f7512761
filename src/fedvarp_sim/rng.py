"""Keyed random streams via counter-based splitting.

Every consumer of randomness receives its own generator derived from
(root seed, purpose tag, *indices). Streams are therefore independent of
the order in which work is executed: running the clients of a round in
any order, or in parallel, draws exactly the same numbers.

`substream` defines every stream. A Philox stream is fully determined
by its 128-bit key, so a family of streams (seed, *path, i), i in ids,
can also be had as one key block: `philox_keys` computes the keys of
substream(seed, *path, i) vectorized over i, and `philox_rekeyer` gives
one reused Philox generator set to any key's starting state. A run draws
all its randomness this way: the federation's offsets, each round's
participants and each participant's gradient noise.
`substream` remains the definition the tests check them against.
"""
from __future__ import annotations

import numpy as np

from .core import ConfigError

# Purpose tags keep unrelated streams apart even at equal indices.
TAG_SAMPLING = 1
TAG_LOCAL = 2
TAG_CENTERS = 3
TAG_OFFSETS = 4

# philox_keys takes each id as one 32-bit entropy word: ids stay below this.
KEY_INDEX_LIMIT = 2**32


def substream(seed: int, *path: int) -> np.random.Generator:
    """Derive the generator keyed by (seed, *path).

    Philox is counter-based, so distinct keys give statistically
    independent streams and the derivation is pure arithmetic.
    """
    if seed < 0:
        raise ValueError(f"root seed must be nonnegative, got {seed}")
    key = np.random.SeedSequence(entropy=(int(seed),) + tuple(int(x) for x in path))
    return np.random.Generator(np.random.Philox(key))


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _words(n: int) -> list[int]:
    """The little-endian 32-bit words SeedSequence reads from a nonnegative int (0 is one word)."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def philox_keys(seed: int, *path: int, ids) -> np.ndarray:
    """The Philox keys of substream(seed, *path, i) for i in ids, shape (len(ids), 2) uint64.

    This is SeedSequence((seed, *path, i)).generate_state(2, np.uint64),
    with numpy's entropy mix run as uint32 array steps over i. The words
    of seed and path are the same for every id, so they are mixed as
    Python ints until the id word reaches them. Each id must be an
    integer in [0, KEY_INDEX_LIMIT), one entropy word; any other is a
    ConfigError.
    """
    if seed < 0 or any(x < 0 for x in path):
        raise ValueError(f"seed and path must be nonnegative, got {seed} and {path}")
    ids = np.asarray(ids)
    if ids.ndim != 1 or (ids.size and ids.dtype.kind not in "iu"):
        raise ConfigError(f"key ids must be integers in [0, 2**32), got {ids!r}")
    if ids.size and not (ids.min() >= 0 and ids.max() < KEY_INDEX_LIMIT):
        raise ConfigError(f"key ids must be in [0, 2**32), got {ids.min()} to {ids.max()}")
    entropy = _words(seed) + [w for x in path for w in _words(x)] + [ids.astype(np.uint32)]
    entropy += [0] * (_POOL_SIZE - len(entropy))
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    state = np.empty((ids.size, _POOL_SIZE), dtype="<u4")
    out_hash = _hasher(_INIT_B, _MULT_B)
    for j, value in enumerate(pool):  # generate_state: one output word per pool word
        state[:, j] = out_hash(value)
    return state.view("<u8").astype(np.uint64)


def _wrap(value):
    """value mod 2**32: a Python int is reduced, a uint32 array has wrapped already."""
    return value & _MASK32 if isinstance(value, int) else value


def _hasher(init: int, mult: int):
    """SeedSequence's hashmix with its running constant, over ints or uint32 arrays."""
    const = init

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = (const * mult) & _MASK32
        value = _wrap(value * const)
        return value ^ (value >> 16)

    return hashmix


def _mix(x, y):
    result = _wrap(_wrap(_MIX_MULT_L * x) - _wrap(_MIX_MULT_R * y))
    return result ^ (result >> 16)


def philox_rekeyer():
    """One reused Philox generator and the function that rekeys it.

    rekey(key) sets the generator's key with the counter at 0 and the
    buffer empty, which is the state Philox(key=key) starts in, and
    returns it: after rekey(philox_keys(seed, *path, ids=[i])[0]) it
    draws what substream(seed, *path, i) draws.
    """
    gen = np.random.Generator(np.random.Philox(0))
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": None},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }

    def rekey(key) -> np.random.Generator:
        state["state"]["key"] = key
        gen.bit_generator.state = state
        return gen

    return rekey

