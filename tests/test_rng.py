import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedvarp_sim.core import ConfigError
from fedvarp_sim.rng import TAG_OFFSETS, draw_keyed_rows, philox_keys, substream

# Seeds around every 32-bit word boundary SeedSequence splits on, up to
# nine words: with a tag and an index, more than the pool's four words.
WORD_EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**64 + 11, 3**50, 2**256 - 1]
seeds = st.one_of(st.sampled_from(WORD_EDGE_SEEDS), st.integers(0, 2**64), st.integers(0, 2**300))


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
    keys = philox_keys(seed, tag, count)
    assert keys.shape == (count, 2) and keys.dtype == np.uint64
    rows = draw_keyed_rows(keys, np.empty((count, d)))
    for i in range(count):
        expected_key = np.random.SeedSequence((seed, tag, i)).generate_state(2, np.uint64)
        assert keys[i].tobytes() == expected_key.tobytes()
        assert rows[i].tobytes() == substream(seed, tag, i).random(d).tobytes()


def test_key_count_above_one_index_word_is_rejected(monkeypatch):
    def no_allocation(*args, **kwargs):
        raise AssertionError("allocated before rejecting the count")

    monkeypatch.setattr(np, "arange", no_allocation)
    monkeypatch.setattr(np, "full", no_allocation)
    monkeypatch.setattr(np, "empty", no_allocation)
    with pytest.raises(ConfigError, match="key count"):
        philox_keys(0, TAG_OFFSETS, 2**32 + 1)
    with pytest.raises(ConfigError, match="key count"):
        philox_keys(0, TAG_OFFSETS, -1)
