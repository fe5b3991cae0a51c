"""Counter-based random streams for reproducible parallel sampling.

Every stream is `substream(master_seed, purpose, *index)`.  The keys in use,
all distinct within one scenario run:

    key                  draws                                  opened by
    (0, variant)         device pair counts and positions       run_device
    (1, variant, rank)   cascade photons of the device site at  run_device
                         encounter rank `rank`: one block of
                         standard exponentials, the same values
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

import numpy as np


def substream(master_seed: int, *key: int) -> np.random.Generator:
    """Return a Philox generator that is a pure function of (master_seed, key).

    Every unit of parallel work (trajectory, device site, worker block) draws
    from its own substream, so scheduling order and thread count cannot change
    any sampled value.
    """
    seq = np.random.SeedSequence(int(master_seed), spawn_key=tuple(map(int, key)))
    return np.random.Generator(np.random.Philox(seq))
