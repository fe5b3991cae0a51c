"""Counter-based random streams for reproducible parallel sampling."""

import numpy as np


def substream(master_seed: int, *key: int) -> np.random.Generator:
    """Return a Philox generator that is a pure function of (master_seed, key).

    Every unit of parallel work (trajectory, device site, worker block) draws
    from its own substream, so scheduling order and thread count cannot change
    any sampled value.
    """
    seq = np.random.SeedSequence(int(master_seed), spawn_key=tuple(map(int, key)))
    return np.random.Generator(np.random.Philox(seq))
