"""Stochastic sampling of the cascade: time-stamped photon streams.

One event-driven sampler serves every caller: a dot is loaded with excitons
at given times (pulse-aligned Poisson loads folded to the top level, or the
captures of the transport device) and steps down the chain through
sequential exponential waiting times, which is exact for a linear chain (no
time-stepped propagation needed).
"""

import csv
import math

import numpy as np

from ._csvfile import write_csv


# One emitted photon per entry: when, which transition, from which emitter,
# where.  Every photon stream is a 1-d array of this dtype: the sampler's is
# site by site (each site's by time), a device run's by time.
PHOTON_DTYPE = np.dtype([("time_ns", "f8"), ("transition", "O"),
                         ("emitter_id", "i8"), ("x_um", "f8"), ("y_um", "f8")])


def sample_start_levels(g: float, num: int, num_levels: int,
                        rng: np.random.Generator) -> np.ndarray:
    """Poisson loading levels folded to the top level."""
    if not 0 <= g < math.inf:
        raise ValueError("mean must be finite and >= 0")
    return np.minimum(rng.poisson(g, size=num), num_levels)


def sample_cascade_from_loads(models, load_times, load_counts, rngs,
                              load_site=None, emitter_ids=None,
                              positions_um=None) -> np.ndarray:
    """Event-driven cascade for loads at arbitrary times on many sites.

    Site s has model `models[s]`, draws from the s-th stream of `rngs`, and
    stamps its photons with `emitter_ids[s]` and `positions_um[s]` (default
    0 and (0, 0)).  Load i brings `load_counts[i]` excitons at
    `load_times[i]` to site `load_site[i]` (default 0).  Each site's loads
    are contiguous and in time order, sites ascending, times finite and
    counts integers >= 0, else `ValueError` before any site draws.  Between
    loads a dot steps down its chain with exponential waits; a load arriving
    before the next emission re-raises the level (capped at the top), and
    the emission clock restarts, which is exact because waits are memoryless.

    A site's waits are one block of standard exponentials from its stream,
    taken in order, each scaled by the lifetime of the level it leaves.
    Every draw either emits a photon or is cut short by the next load, so
    sum(min(count, levels)) plus one per load always suffices.  Photons come
    site by site, each site's in time order.
    """
    nsites = len(models)
    times = np.asarray(load_times, dtype=float)
    counts = np.asarray(load_counts)
    site = np.zeros(times.shape, np.int64) if load_site is None \
        else np.asarray(load_site)
    if times.ndim != 1 or not times.shape == counts.shape == site.shape:
        raise ValueError("need one exciton count and one site per load time")
    stamp = np.zeros(nsites, PHOTON_DTYPE)  # each site's id and position
    stamp["emitter_id"] = 0 if emitter_ids is None else emitter_ids
    if positions_um is not None:
        stamp["x_um"], stamp["y_um"] = np.reshape(positions_um, (nsites, 2)).T
    if not times.size:
        return stamp[:0]
    if not (counts.dtype.kind in "iu" and site.dtype.kind in "iu"
            and counts.min() >= 0 and 0 <= site[0] and site[-1] < nsites
            and np.isfinite(times).all()
            and ((site[1:] > site[:-1]) | (site[1:] == site[:-1])
                 & (times[1:] >= times[:-1])).all()):
        raise ValueError("each site's loads must be contiguous and in time "
                         "order, sites ascending, times finite and counts "
                         "integers >= 0")
    # indexed by the level a photon leaves
    chains = [((0.0, *m.lifetimes_ns), (None, *m.labels), m.num_levels)
              for m in models]
    counts = np.minimum(counts, np.array([c[2] for c in chains])[site])
    need = np.bincount(site, counts + 1, nsites).astype(np.int64).tolist()
    blocks = [rng.standard_exponential(n).tolist()
              for rng, n in zip(rngs, need, strict=True)]
    # a load of -1 at infinity opens each site and closes the last: it
    # empties the chain, then the next site's model and waits take over
    rows = np.arange(1, times.size + 1) + site
    load_t = np.full(times.size + nsites + 1, math.inf)
    load_n = np.full(load_t.size, -1)
    load_t[rows], load_n[rows] = times, counts
    emitted, emitted_labels, ends = [], [], []
    emit, label = emitted.append, emitted_labels.append
    level, t_now, s = 0, 0.0, -1
    for t_load, count in zip(load_t.tolist(), load_n.tolist()):
        while level:
            # exponential(scale) is scale * standard_exponential, in order
            t_emit = t_now + lifetimes[level] * waits[k]
            k += 1
            if t_emit >= t_load:
                break
            emit(t_emit)
            label(labels[level])
            level -= 1
            t_now = t_emit
        if count < 0:
            ends.append(len(emitted))
            s += 1
            if s < nsites:
                (lifetimes, labels, nlev), waits, k = chains[s], blocks[s], 0
            continue
        level += count
        if level > nlev:
            level = nlev
        t_now = t_load
    photons = np.repeat(stamp, np.diff(ends))
    photons["time_ns"] = emitted
    photons["transition"] = emitted_labels
    return photons


# ---------------------------------------------------------------------------
# Photon stream CSV interchange
# ---------------------------------------------------------------------------

PHOTON_CSV_HEADER = ["time_ns", "transition", "emitter_id", "x_um", "y_um"]


def write_photon_csv(path, records) -> None:
    """Write a photon stream, one row per photon; a transition label holding
    ',', '"', CR or LF raises `ValueError` (`_csvfile`)."""
    columns = [records[name] for name in PHOTON_CSV_HEADER]
    for c in (3, 4):
        # positions repeat per site: format each distinct bit pattern once
        # (so -0.0 keeps its sign), as `write_csv` would format it
        bits, row = np.unique(np.asarray(columns[c], np.float64).view(np.int64),
                              return_inverse=True)
        columns[c] = np.array([str(x) for x in bits.view(np.float64).tolist()],
                              object)[row]
    write_csv(path, PHOTON_CSV_HEADER, columns)


def read_photon_csv(path) -> np.ndarray:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != PHOTON_CSV_HEADER:
            raise ValueError(f"unexpected photon CSV header: {header}")
        return np.array([(float(t), label, int(eid), float(x), float(y))
                         for t, label, eid, x, y in reader],
                        dtype=PHOTON_DTYPE)
