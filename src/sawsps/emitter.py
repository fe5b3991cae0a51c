"""Stochastic sampling of the cascade: time-stamped photon streams.

Loading per pulse is a Poisson draw folded to the top level; the chain then
steps down through sequential exponential waiting times, which is exact for a
linear chain (no time-stepped propagation needed).  An event-driven variant
handles loading times that are not pulse-aligned, as produced by the
transport device.
"""

import csv
from dataclasses import dataclass

import numpy as np

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
    times = sample_emission_times(model, levels, rng) \
        + np.arange(n) * pump.pulse_period_ns
    fired = np.isfinite(times)
    photons = np.zeros(np.count_nonzero(fired), PHOTON_DTYPE)
    photons["time_ns"] = times[fired]
    photons["transition"] = np.array(model.labels, dtype=object)[
        np.nonzero(fired)[0]]
    photons["emitter_id"] = emitter_id
    return photons[np.argsort(photons["time_ns"], kind="stable")]


def sample_emission_times(model: CascadeModel, start_levels: np.ndarray,
                          rng: np.random.Generator) -> np.ndarray:
    """Vectorized emission times for a batch of single-pulse cascades.

    Returns an array of shape (num_levels, len(start_levels)); entry [i-1, j]
    is the emission time of transition i in trajectory j, or NaN when the
    trajectory started below level i.
    """
    start = np.asarray(start_levels, dtype=int)
    nlev = model.num_levels
    if np.any(start < 0) or np.any(start > nlev):
        raise ValueError("start levels out of range")
    waits = rng.exponential(np.asarray(model.lifetimes_ns)[:, None],
                            size=(nlev, start.size))
    level_idx = np.arange(1, nlev + 1)[:, None]
    active = level_idx <= start[None, :]
    masked = np.where(active, waits, 0.0)
    # transition i fires at the sum of waits from the start level down to i
    times = np.cumsum(masked[::-1], axis=0)[::-1]
    return np.where(active, times, np.nan)


def sample_start_levels(g: float, num: int, num_levels: int,
                        rng: np.random.Generator) -> np.ndarray:
    """Poisson loading levels folded to the top level."""
    if g < 0:
        raise ValueError("mean must be >= 0")
    return np.minimum(rng.poisson(g, size=num), num_levels)


def sample_cascade_from_loads(model: CascadeModel,
                              loads: list[tuple[float, int]],
                              rng: np.random.Generator,
                              emitter_id: int = 0,
                              position_um: tuple[float, float] = (0.0, 0.0),
                              ) -> np.ndarray:
    """Event-driven cascade for loading events at arbitrary times.

    `loads` is a time-sorted list of (time_ns, exciton_count).  Between loads
    the dot steps down the chain with exponential waits; a load arriving
    before the next emission re-raises the level (capped at the top), and the
    emission clock restarts, which is exact because exponential waits are
    memoryless.
    """
    nlev = model.num_levels
    lifetimes = model.lifetimes_ns
    labels = model.labels
    x, y = position_um
    records = []
    level = 0
    t_now = 0.0
    events = list(loads) + [(np.inf, 0)]
    for t_load, count in events:
        if count < 0:
            raise ValueError("load count must be >= 0")
        while level > 0:
            t_emit = t_now + rng.exponential(lifetimes[level - 1])
            if t_emit >= t_load:
                break
            records.append((t_emit, labels[level - 1], emitter_id, x, y))
            level -= 1
            t_now = t_emit
        if not np.isfinite(t_load):
            break
        level = min(level + count, nlev)
        t_now = t_load
    return np.array(records, dtype=PHOTON_DTYPE)


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
    columns = [records[name].tolist() for name in PHOTON_CSV_HEADER]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(PHOTON_CSV_HEADER)
        writer.writerows((repr(t), label, eid, repr(x), repr(y))
                         for t, label, eid, x, y in zip(*columns))


def read_photon_csv(path) -> np.ndarray:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != PHOTON_CSV_HEADER:
            raise ValueError(f"unexpected photon CSV header: {header}")
        return np.array([(float(t), label, int(eid), float(x), float(y))
                         for t, label, eid, x, y in reader],
                        dtype=PHOTON_DTYPE)
