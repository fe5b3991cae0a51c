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
from .cascade import CascadeModel, Transient


# One emitted photon per entry: when, which transition, from which emitter,
# where.  Every photon stream is a 1-d array of this dtype, sorted by time.
PHOTON_DTYPE = np.dtype([("time_ns", "f8"), ("transition", "O"),
                         ("emitter_id", "i8"), ("x_um", "f8"), ("y_um", "f8")])


def sample_start_levels(g: float, num: int, num_levels: int,
                        rng: np.random.Generator) -> np.ndarray:
    """Poisson loading levels folded to the top level."""
    if g < 0:
        raise ValueError("mean must be >= 0")
    return np.minimum(rng.poisson(g, size=num), num_levels)


def sample_cascade_from_loads(model: CascadeModel, load_times, load_counts,
                              rng: np.random.Generator,
                              emitter_id: int = 0,
                              position_um: tuple[float, float] = (0.0, 0.0),
                              ) -> np.ndarray:
    """Event-driven cascade for loading events at arbitrary times.

    Load i brings `load_counts[i]` excitons at `load_times[i]`; the times are
    finite and non-decreasing and the counts >= 0, else `ValueError` before
    any draw.  Between loads the dot steps down the chain with exponential
    waits; a load arriving before the next emission re-raises the level
    (capped at the top), and the emission clock restarts, which is exact
    because exponential waits are memoryless.

    The waits are one block of standard exponentials, taken in order, each
    scaled by the lifetime of the level it leaves.  Every draw either emits a
    photon or is cut short by the next load, so sum(min(count, levels)) plus
    one per load always suffices; the rest of the block goes unused.
    """
    times = np.asarray(load_times, dtype=float)
    counts = np.asarray(load_counts)
    if times.ndim != 1 or times.shape != counts.shape:
        raise ValueError("need one exciton count per load time")
    nlev = model.num_levels
    load_t, load_n = times.tolist(), np.minimum(counts, nlev).tolist()
    # sorted with finite ends means all finite; NaN fails every comparison
    if load_t and not (math.isfinite(load_t[0]) and math.isfinite(load_t[-1])
                       and (times[1:] >= times[:-1]).all()):
        raise ValueError("load times must be finite and non-decreasing")
    if min(load_n, default=0) < 0:
        raise ValueError("load count must be >= 0")
    waits = rng.standard_exponential(sum(load_n) + len(load_t)).tolist()
    # indexed by the level a photon leaves
    lifetimes, labels = (0.0, *model.lifetimes_ns), (None, *model.labels)
    emitted, emitted_labels = [], []
    emit, label = emitted.append, emitted_labels.append
    level, t_now, k = 0, 0.0, 0
    for t_load, count in zip(load_t + [math.inf], load_n + [0]):
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
        level += count
        if level > nlev:
            level = nlev
        t_now = t_load
    photons = np.zeros(len(emitted), PHOTON_DTYPE)
    photons["time_ns"] = emitted
    photons["transition"] = emitted_labels
    photons["emitter_id"] = emitter_id
    photons["x_um"], photons["y_um"] = position_um
    return photons


def ensemble_histogram(streams, transition: str, bin_ns: float,
                       period_ns: float):
    """Photon counts of one transition, times folded modulo the pulse period,
    as a `Transient` of (bin_centers_ns, counts)."""
    if bin_ns <= 0:
        raise ValueError("bin width must be > 0")
    if period_ns <= 0:
        raise ValueError("period must be > 0")
    nbins = max(int(round(period_ns / bin_ns)), 1)
    edges = np.linspace(0.0, period_ns, nbins + 1)
    photons = np.concatenate([np.zeros(0, PHOTON_DTYPE), *streams])
    times = photons["time_ns"][photons["transition"] == transition]
    counts, _ = np.histogram(np.mod(times, period_ns), bins=edges)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return Transient(centers, counts.astype(float))


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
