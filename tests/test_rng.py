import numpy as np
import pytest

from sawsps.rng import substream, substreams

BLOCKS = np.array([0, 1, 7, 2 ** 32, 2 ** 64 - 1], np.uint64)


def counter_block(seed, key, block):
    """A fresh generator at counter block `block` of substream(seed, *key)."""
    philox_key = substream(seed, *key).bit_generator.state["state"]["key"]
    counter = np.array([0, block, 0, 0], np.uint64)
    return np.random.Generator(np.random.Philox(key=philox_key, counter=counter))


# each key is a stream's full key: its last entry is the array of blocks
@pytest.mark.parametrize("seed", [0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 3,
                                  12345, 2 ** 130 + 7])
@pytest.mark.parametrize("key", [(BLOCKS,), (3, BLOCKS), (1, 0, BLOCKS),
                                 (2 ** 32 - 1, 0, BLOCKS)],
                         ids=["array", "array_second", "array_last",
                              "array_after_max_word"])
def test_batched_keys_match_seed_sequence(seed, key):
    *fixed, blocks = key
    philox_key = np.random.SeedSequence(seed, spawn_key=fixed).generate_state(
        2, np.uint64)
    streams = 0
    for block, rng in zip(blocks.tolist(), substreams(seed, *fixed,
                                                      blocks=blocks),
                          strict=True):
        state = rng.bit_generator.state
        assert np.array_equal(state["state"]["key"], philox_key), (seed, key)
        assert state["state"]["counter"].tolist() == [0, block, 0, 0]
        assert state["buffer_pos"] == 4 and state["has_uint32"] == 0
        plain = counter_block(seed, fixed, block)
        # a half-word left by the stream before would show in the first
        assert np.array_equal(rng.integers(2 ** 32, size=3, dtype=np.uint32),
                              plain.integers(2 ** 32, size=3, dtype=np.uint32))
        assert np.array_equal(rng.random(6), plain.random(6))
        assert np.array_equal(rng.standard_exponential(40),
                              plain.standard_exponential(40))
        # leave half a word buffered: the next stream must not see it
        rng.integers(10, size=1, dtype=np.uint32)
        streams += 1
    assert streams == BLOCKS.size


def test_scalar_key_gives_one_stream():
    # one block of a key of scalars: block 0 is the plain substream
    streams = list(substreams(777, 4, blocks=[0]))
    assert len(streams) == 1
    assert np.array_equal(streams[0].random(5), substream(777, 4).random(5))


@pytest.mark.parametrize("key", [(np.arange(0),), (2, np.zeros(0, np.int64))])
def test_empty_array_yields_no_stream(key):
    *fixed, blocks = key
    assert list(substreams(1, *fixed, blocks=blocks)) == []


# a uint64 cast would take 0.5 as block 0 and int64 -1 as block 2**64 - 1
@pytest.mark.parametrize("blocks", [[2 ** 64], np.array([-1]), [0, 2 ** 64],
                                    np.array([3, -1]), np.array([0.5]),
                                    [-1, 2 ** 64 - 1]])
def test_block_outside_64_bits_rejected(blocks):
    with pytest.raises(ValueError):
        substreams(1, 2, blocks=blocks)
