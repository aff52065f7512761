import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedvarp_sim.core import ConfigError
from fedvarp_sim.rng import (
    KEY_INDEX_LIMIT,
    TAG_LOCAL,
    TAG_OFFSETS,
    TAG_SAMPLING,
    philox_keys,
    philox_rekeyer,
    substream,
)

# Seeds around every 32-bit word boundary SeedSequence splits on, up to
# nine words: with a tag and an index, more than the pool's four words.
WORD_EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**64 + 11, 3**50, 2**256 - 1]
seeds = st.one_of(st.sampled_from(WORD_EDGE_SEEDS), st.integers(0, 2**64), st.integers(0, 2**300))
# Prefix words of one, two and several 32-bit words: a round index past
# 2**32 is a valid prefix, only the id is held to one word.
prefix_words = st.one_of(st.integers(0, 50), st.integers(0, 2**32 - 1), st.integers(2**32, 2**100))
ids_arrays = st.lists(st.integers(0, KEY_INDEX_LIMIT - 1), max_size=12).map(np.array)


def _expected_key(seed, *path):
    return np.random.SeedSequence((seed, *path)).generate_state(2, np.uint64)


@settings(max_examples=100, deadline=None, database=None)
@given(
    seed=seeds,
    tag=st.one_of(st.sampled_from([1, 2, 3, TAG_OFFSETS]), st.integers(0, 2**96)),
    count=st.integers(0, 12),
    d=st.sampled_from([1, 2, 3, 4, 5, 7, 8, 13]),
)
@example(seed=0, tag=TAG_OFFSETS, count=0, d=1)
@example(seed=0, tag=TAG_OFFSETS, count=1, d=1)
@example(seed=2**32 - 1, tag=TAG_OFFSETS, count=1, d=3)
@example(seed=2**32, tag=TAG_OFFSETS, count=2, d=5)
@example(seed=2**64, tag=2**40, count=3, d=6)
@example(seed=3**50, tag=TAG_OFFSETS, count=4, d=7)
def test_keys_and_rows_match_substream_bitwise(seed, tag, count, d):
    keys = philox_keys(seed, tag, ids=np.arange(count))
    assert keys.shape == (count, 2) and keys.dtype == np.uint64
    # Rows drawn as generate_federation draws its offsets: one generator rekeyed per row.
    rekey = philox_rekeyer()
    rows = np.empty((count, d))
    for key, row in zip(keys, rows):
        rekey(key).random(out=row)
    for i in range(count):
        assert keys[i].tobytes() == _expected_key(seed, tag, i).tobytes()
        assert rows[i].tobytes() == substream(seed, tag, i).random(d).tobytes()


@settings(max_examples=150, deadline=None, database=None)
@given(
    seed=seeds,
    tag=st.sampled_from([TAG_SAMPLING, TAG_LOCAL, TAG_OFFSETS]),
    prefix=st.lists(prefix_words, max_size=3),
    ids=ids_arrays,
)
@example(seed=2**64 + 11, tag=TAG_LOCAL, prefix=[2**32 + 5], ids=np.array([7, 2, 2**32 - 1, 0]))
@example(seed=0, tag=TAG_LOCAL, prefix=[0], ids=np.array([], dtype=np.intp))
@example(seed=2**300, tag=TAG_SAMPLING, prefix=[], ids=np.array([2**32 - 1]))
def test_keys_of_any_prefix_and_id_array_match_substream_bitwise(seed, tag, prefix, ids):
    # Ids in any order, with gaps and repeats, for every length of the
    # fixed words before them (the id lands in the pool or after it).
    keys = philox_keys(seed, tag, *prefix, ids=ids)
    assert keys.shape == (len(ids), 2) and keys.dtype == np.uint64
    for key, i in zip(keys, ids.tolist()):
        assert key.tobytes() == _expected_key(seed, tag, *prefix, i).tobytes()


@pytest.mark.parametrize("dtype", [np.int8, np.int64, np.uint32, np.uint64, np.intp])
def test_keys_take_ids_of_every_integer_dtype(dtype):
    ids = np.array([0, 5, 100], dtype=dtype)
    expected = [_expected_key(9, TAG_LOCAL, 3, i) for i in (0, 5, 100)]
    assert philox_keys(9, TAG_LOCAL, 3, ids=ids).tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize("seed,path", [(-1, ()), (3, (TAG_LOCAL, -2))], ids=["seed", "path"])
def test_negative_seed_or_path_word_is_rejected(seed, path):
    if not path:
        with pytest.raises(ValueError, match="root seed must be nonnegative"):
            substream(seed)
    with pytest.raises(ValueError, match="seed and path must be nonnegative"):
        philox_keys(seed, *path, ids=[0])


def test_key_count_above_one_index_word_is_rejected():
    # An id must be one 32-bit entropy word; a larger one is refused,
    # never wrapped into another client's key.
    for bad in ([KEY_INDEX_LIMIT], [0, 2**32 + 5], [-1], [2**64 - 1], [2**70]):
        with pytest.raises(ConfigError, match=r"key ids must be"):
            philox_keys(0, TAG_OFFSETS, ids=bad)
    with pytest.raises(ConfigError, match=r"key ids must be"):
        philox_keys(0, TAG_OFFSETS, ids=np.array([2**32], dtype=np.uint64))
    for not_ids in ([0.0, 1.0], [[0, 1]], np.array([True])):
        with pytest.raises(ConfigError, match=r"key ids must be"):
            philox_keys(0, TAG_OFFSETS, ids=not_ids)
    assert philox_keys(0, TAG_OFFSETS, ids=[KEY_INDEX_LIMIT - 1]).shape == (1, 2)


def test_a_rekeyed_generator_draws_what_substream_draws():
    # Rekeying resets the counter and drops buffered words, whatever the
    # previous key's draws left behind (integers keep a half word).
    rekey = philox_rekeyer()
    keys = philox_keys(31, TAG_LOCAL, 4, ids=[3, 0, 3])
    for key, i in zip(keys, (3, 0, 3)):
        gen = rekey(key)
        ref = substream(31, TAG_LOCAL, 4, i)
        assert gen.integers(7, size=5).tolist() == ref.integers(7, size=5).tolist()
        assert gen.standard_normal(3).tobytes() == ref.standard_normal(3).tobytes()
        assert rekey(key) is gen
