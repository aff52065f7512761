"""Keyed random streams via counter-based splitting.

Every consumer of randomness receives its own generator derived from
(root seed, purpose tag, *indices). Streams are therefore independent of
the order in which work is executed: running the clients of a round in
any order, or in parallel, draws exactly the same numbers.

`substream` defines every stream. A Philox stream is fully determined
by its 128-bit key, so a family of streams (seed, tag, i), i < count,
can also be had as one key block: `philox_keys` computes the keys of
substream(seed, tag, i) vectorized over i, and `draw_keyed_rows` draws
every row through one reused Philox. The federation's offset streams,
keyed exactly as substream(seed, TAG_OFFSETS, i), are made this way;
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
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_MASK32 = 0xFFFFFFFF


def _words(n: int) -> list[int]:
    """The little-endian 32-bit words SeedSequence reads from a nonnegative int (0 is one word)."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def philox_keys(seed: int, tag: int, count: int) -> np.ndarray:
    """The Philox keys of substream(seed, tag, i) for i in range(count), shape (count, 2) uint64.

    This is SeedSequence((seed, tag, i)).generate_state(2, np.uint64),
    with numpy's entropy mix run as uint32 array steps over i.
    """
    if seed < 0 or tag < 0:
        raise ValueError(f"seed and tag must be nonnegative, got {seed} and {tag}")
    if not 0 <= count <= 2**32:  # i must be one entropy word
        raise ConfigError(f"key count must be in [0, 2**32], got {count}")
    i = np.arange(count, dtype=np.uint32)
    entropy = [np.full(count, w, dtype=np.uint32) for w in _words(seed) + _words(tag)] + [i]
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(entropy[j] if j < len(entropy) else np.zeros_like(i)) for j in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    state = np.empty((count, _POOL_SIZE), dtype="<u4")
    out_hash = _hasher(_INIT_B, _MULT_B)
    for j, value in enumerate(pool):  # generate_state: one output word per pool word
        state[:, j] = out_hash(value)
    return state.view("<u8").astype(np.uint64)


def _hasher(init: int, mult: int):
    """SeedSequence's hashmix with its running constant, over uint32 arrays."""
    const = init

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = (const * mult) & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> np.uint32(16))


def draw_keyed_rows(keys: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill out[i] with random() doubles from a fresh Philox keyed keys[i]; return out.

    One generator is reused: before each row its key is set with the
    counter at 0 and the buffer empty, which is the state Philox(key=...)
    starts in, so row i equals Generator(Philox(key=keys[i])).random(d).
    """
    gen = np.random.Generator(np.random.Philox(0))
    state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64), "key": None},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for key, row in zip(keys, out):
        state["state"]["key"] = key
        gen.bit_generator.state = state
        gen.random(out=row)
    return out
