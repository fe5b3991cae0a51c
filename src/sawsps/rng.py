"""Counter-based random streams for reproducible parallel sampling.

Every stream is `substream(master_seed, purpose, *index)` or one of its
counter blocks.  The keys in use, all distinct within one scenario run:

    key                  draws                                  opened by
    (0, variant)         device pair counts and positions       run_device
    (1, variant)         cascade waits, counter block r for     run_device,
                         the site at encounter rank r: one      through
                         standard exponential per load if       `substreams`
                         one-level, else the event loop's block
    (2,)                 g2 per-cycle photon times              g2_antibunching
    (3, variant)         device capture uniforms, one per       run_device
                         pocket-site pass, site by site in
                         encounter order, drawn a block of
                         sites at a time
    (7, variant)         fig7 spectral frame of a SAW variant   fig7_remote
    (10, gi)             fig3 level counts of pump index gi,    fig3_power_series
                         one multinomial
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


def substreams(master_seed: int, *key: int, blocks):
    """`substream(master_seed, *key)` at Philox counter (0, b, 0, 0), with an
    empty buffer, for each counter block b of `blocks`, in order.

    A block holds 2**64 four-word draws that no other block reaches, so each
    stream is a pure function of (master_seed, key, b), and block 0 is the
    substream itself.  One generator is re-positioned in place for each
    block: draw from a stream before taking the next.  Raises ValueError for
    a block that is not an integer in [0, 2**64).
    """
    blocks = np.asarray(blocks)  # checked uncast: uint64 wraps -1, floors 0.5
    if blocks.size and (blocks.dtype.kind not in "iu" or blocks.min() < 0):
        raise ValueError("counter blocks must be integers in [0, 2**64)")
    rng = substream(master_seed, *key)
    state = rng.bit_generator.state

    def at(block):
        state["state"]["counter"][1] = block
        rng.bit_generator.state = state
        return rng
    return map(at, blocks)
