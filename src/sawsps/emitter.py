"""Stochastic sampling of the cascade: time-stamped photon streams.

Loading per pulse is a Poisson draw folded to the top level; the chain then
steps down through sequential exponential waiting times, which is exact for a
linear chain (no time-stepped propagation needed).  An event-driven variant
handles loading times that are not pulse-aligned, as produced by the
transport device.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

from ._csvfile import write_csv
from .cascade import CascadeModel, PumpSpec, Transient
from .rng import substream


# One emitted photon per entry: when, which transition, from which emitter,
# where.  Every photon stream is a 1-d array of this dtype, sorted by time.
PHOTON_DTYPE = np.dtype([("time_ns", "f8"), ("transition", "O"),
                         ("emitter_id", "i8"), ("x_um", "f8"), ("y_um", "f8")])


@dataclass(frozen=True)
class TrajectoryConfig:
    """Addresses one trajectory's private random substream."""

    num_pulses: int
    master_seed: int
    trajectory_index: int = 0

    def __post_init__(self):
        if self.num_pulses < 1:
            raise ValueError("need at least one pulse")
        if self.trajectory_index < 0:
            raise ValueError("trajectory index must be >= 0")


def simulate_trajectory(model: CascadeModel, pump: PumpSpec,
                        config: TrajectoryConfig,
                        start_level: int | None = None,
                        emitter_id: int = 0) -> np.ndarray:
    """One emitter's photon stream over a pulse train.

    Each pulse draws a loading level (or uses the forced `start_level`), then
    emits that many photons at cumulative exponential waiting times, labelled
    from the loaded level downwards.  The stream is a pure function of
    (master_seed, trajectory_index).
    """
    if start_level is not None and not 1 <= start_level <= model.num_levels:
        raise ValueError("start level out of range")
    rng = substream(config.master_seed, config.trajectory_index)
    n = config.num_pulses
    if start_level is None:
        levels = sample_start_levels(pump.mean_excitons_per_pulse, n,
                                     model.num_levels, rng)
    else:
        levels = np.full(n, start_level)
    # the levels are in range by construction, so unchecked
    times, fired = _emission_times(model, levels, rng)
    level_idx, pulse = np.nonzero(fired)
    times = times[fired] + pulse * pump.pulse_period_ns
    order = np.argsort(times, kind="stable")
    photons = np.zeros(times.size, PHOTON_DTYPE)
    photons["time_ns"] = times[order]
    photons["transition"] = np.array(model.labels, dtype=object)[
        level_idx[order]]
    photons["emitter_id"] = emitter_id
    return photons


def sample_emission_times(model: CascadeModel, start_levels: np.ndarray,
                          rng: np.random.Generator) -> np.ndarray:
    """Vectorized emission times for a batch of single-pulse cascades.

    Returns an array of shape (num_levels, len(start_levels)); entry [i-1, j]
    is the emission time of transition i in trajectory j, or NaN when the
    trajectory started below level i.
    """
    start = np.asarray(start_levels, dtype=int)
    if np.any(start < 0) or np.any(start > model.num_levels):
        raise ValueError("start levels out of range")
    times, fired = _emission_times(model, start, rng)
    return np.where(fired, times, np.nan)


def _emission_times(model: CascadeModel, start: np.ndarray,
                    rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """`sample_emission_times` for start levels known to be in range, as
    (times, fired): times[i-1, j] is meaningful where fired[i-1, j], i.e.
    where trajectory j started at level i or above."""
    nlev = model.num_levels
    # exponential(scale) draws scale * standard_exponential, in this order
    waits = rng.standard_exponential((nlev, start.size)) \
        * np.asarray(model.lifetimes_ns)[:, None]
    fired = np.arange(1, nlev + 1)[:, None] <= start
    # transition i fires at the sum of waits from the start level down to i
    times = np.cumsum(np.where(fired, waits, 0.0)[::-1], axis=0)[::-1]
    return times, fired


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
                       period_ns: float, normalized: bool = False,
                       num_pulses: int = 1):
    """Histogram of photon times folded modulo the pulse period.

    Returns (bin_centers_ns, values).  `normalized` divides counts by
    (number of streams * num_pulses * bin width), giving a rate per pulse
    comparable to the analytic emission trace.
    """
    if bin_ns <= 0:
        raise ValueError("bin width must be > 0")
    if period_ns <= 0:
        raise ValueError("period must be > 0")
    nbins = max(int(round(period_ns / bin_ns)), 1)
    edges = np.linspace(0.0, period_ns, nbins + 1)
    photons = np.concatenate([np.zeros(0, PHOTON_DTYPE), *streams])
    times = photons["time_ns"][photons["transition"] == transition]
    counts, _ = np.histogram(np.mod(times, period_ns), bins=edges)
    values = counts.astype(float)
    if normalized:
        width = edges[1] - edges[0]
        values = values / (max(len(streams), 1) * num_pulses * width)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return Transient(centers, values)


# ---------------------------------------------------------------------------
# Photon stream CSV interchange
# ---------------------------------------------------------------------------

PHOTON_CSV_HEADER = ["time_ns", "transition", "emitter_id", "x_um", "y_um"]


def write_photon_csv(path, records) -> None:
    """Write a photon stream, one row per photon; a transition label holding
    ',', '"', CR or LF raises `ValueError` (`_csvfile`)."""
    write_csv(path, PHOTON_CSV_HEADER,
              [records[name] for name in PHOTON_CSV_HEADER])


def read_photon_csv(path) -> np.ndarray:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != PHOTON_CSV_HEADER:
            raise ValueError(f"unexpected photon CSV header: {header}")
        return np.array([(float(t), label, int(eid), float(x), float(y))
                         for t, label, eid, x, y in reader],
                        dtype=PHOTON_DTYPE)
