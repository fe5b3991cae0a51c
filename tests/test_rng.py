import numpy as np
import pytest

from sawsps.rng import substream, substreams

RANKS = np.array([0, 1, 7, 123456789, 2 ** 32 - 1])


def expand(key, i):
    """Key i of a batch: element i of the array entry, the rest as given."""
    return tuple(int(k[i]) if isinstance(k, np.ndarray) else k for k in key)


@pytest.mark.parametrize("seed", [0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 3,
                                  12345, 2 ** 130 + 7])
@pytest.mark.parametrize("key", [(RANKS,), (RANKS, 5), (1, 0, RANKS),
                                 (RANKS, 2 ** 32 - 1, 0), (3, RANKS)],
                         ids=["array", "array_first", "array_last",
                              "array_first_of_3", "array_second"])
def test_batched_keys_match_seed_sequence(seed, key):
    streams = 0
    for i, rng in enumerate(substreams(seed, *key)):
        k = expand(key, i)
        state = rng.bit_generator.state
        philox_key = np.random.SeedSequence(seed, spawn_key=k).generate_state(
            2, np.uint64)
        assert np.array_equal(state["state"]["key"], philox_key), (seed, k)
        assert not state["state"]["counter"].any()
        assert state["buffer_pos"] == 4 and state["has_uint32"] == 0
        plain = substream(seed, *k)
        assert np.array_equal(rng.random(6), plain.random(6))
        assert np.array_equal(rng.standard_exponential(40),
                              plain.standard_exponential(40))
        # leave half a word buffered: the next stream must not see it
        rng.integers(10, size=1, dtype=np.uint32)
        streams += 1
    assert streams == RANKS.size


def test_scalar_key_gives_one_stream():
    streams = list(substreams(777, 4))
    assert len(streams) == 1
    assert np.array_equal(streams[0].random(5), substream(777, 4).random(5))


@pytest.mark.parametrize("key", [(np.arange(0),), (2, np.zeros(0, np.int64))])
def test_empty_array_yields_no_stream(key):
    assert list(substreams(1, *key)) == []


@pytest.mark.parametrize("key", [(2 ** 32,), (-1,), (np.array([0, 2 ** 32]),),
                                 (1, np.array([3, -1])), (np.array([0.5]),)])
def test_key_entry_outside_32_bits_rejected(key):
    with pytest.raises(ValueError):
        substreams(1, *key)
