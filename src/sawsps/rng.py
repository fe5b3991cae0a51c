"""Counter-based random streams for reproducible parallel sampling.

Every stream is `substream(master_seed, purpose, *index)`.  The keys in use,
all distinct within one scenario run:

    key                  draws                                  opened by
    (0, variant)         device pair counts and positions       run_device
    (1, variant, rank)   cascade photons of the device site at  run_device,
                         encounter rank `rank`: one block of    through
                         standard exponentials, the same values `substreams`
                         as one scalar draw per emission step
    (2, block)           g2 per-cycle photon times of a block   g2_antibunching
    (3, variant)         device capture uniforms: pass k of     run_device
                         pocket i is draw O_i + k, O_i the
                         passes of the pockets born before
                         it, read by offset
    (7, variant)         fig7 spectral frame of a SAW variant   fig7_remote
    (10 + gi, block)     fig3 start levels of pump index gi     fig3_power_series
    (99,)                fig5 dot field                         fig5_ensemble

`variant` is fig7's SAW variant (0 saw_off, 1 idt1, 2 idt2) and 0 in every
other device run, so no two variants or seeds share a stream.
"""

import itertools

import numpy as np

_M32 = 0xFFFFFFFF


def substream(master_seed: int, *key: int) -> np.random.Generator:
    """Return a Philox generator that is a pure function of (master_seed, key).

    Every unit of parallel work (trajectory, device site, worker block) draws
    from its own substream, so scheduling order and thread count cannot change
    any sampled value.
    """
    seq = np.random.SeedSequence(int(master_seed), spawn_key=tuple(map(int, key)))
    return np.random.Generator(np.random.Philox(seq))


def _map_blocks(func, num_blocks: int, threads: int) -> list:
    """`[func(b) for b in range(num_blocks)]`, on `threads` worker threads.

    At threads=1 the blocks run in the calling thread in index order, and
    no pool is built or imported: importing `concurrent.futures` adds about
    0.5 MB to a run's peak memory.  Results do not depend on the thread
    count: a block that draws owns a substream keyed by its index, and g2's
    pair chunks share no stream and return integer counts, whose sum does
    not depend on order.
    """
    if threads <= 1:
        return [func(b) for b in range(num_blocks)]
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(func, range(num_blocks)))


def _hasher(const: int, mult: int):
    """numpy `SeedSequence`'s hashmix, with its running hash constant, on a
    Python int or a uint64 array of 32-bit words."""
    def hashmix(value):
        nonlocal const
        value = (value ^ const) * (const := const * mult & _M32) & _M32
        return value ^ value >> 16
    return hashmix


def substreams(master_seed: int, *key):
    """`substream(master_seed, *key)` for every key of a batch, in order; an
    entry of `key` may be a 1-d int array, one stream per element.

    The Philox keys come from one vectorised pass of numpy's `SeedSequence`
    hash (`mix_entropy`, then `generate_state(2, np.uint64)`).  One generator
    is re-keyed in place for each stream (key, counter 0, empty buffer), so
    draw from a stream before taking the next.
    """
    seed = int(master_seed)
    if seed < 0:
        raise ValueError("master seed must be >= 0")
    words = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (4 - len(words)) * bool(key)  # numpy pads spawned entropy
    for k in key:
        a = np.asarray(k)
        if a.dtype.kind not in "iu" or ((a < 0) | (a > _M32)).any():
            raise ValueError("key entries must be integers in [0, 2**32)")
        words.append(int(k) if a.ndim == 0 else a.astype(np.uint64))
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(w) for w in (words + [0] * 4)[:4]]

    def mix_in(dst, value):  # numpy's mix(pool[dst], hashmix(value))
        mixed = (0xCA01F9DD * pool[dst] - 0x4973F715 * hashmix(value)) & _M32
        pool[dst] = mixed ^ mixed >> 16
    for src, dst in itertools.permutations(range(4), 2):
        mix_in(dst, pool[src])
    for w, dst in itertools.product(words[4:], range(4)):
        mix_in(dst, w)
    state = list(map(_hasher(0x8B51F9DD, 0x58F38DED), pool))
    keys = np.empty((np.broadcast(0, *key).size, 2), np.uint64)
    keys[:, 0], keys[:, 1] = state[0] | state[1] << 32, state[2] | state[3] << 32
    bits = np.random.Philox(0)
    rng, fresh = np.random.Generator(bits), bits.state

    def rekey(row):
        fresh["state"]["key"] = row
        bits.state = fresh
        return rng
    return map(rekey, keys)
