"""Oracles that only the tests use: a fixed-step solution of the cascade
rate equations, a folded photon histogram, the ballistic conveyance delay,
the per-cycle photon train drawn in one piece, and the capture and load
rows of a device run, which `run_device` does not keep.  Test modules
import them by name (`from oracles import ...`)."""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from sawsps import transport
from sawsps.cascade import CascadeModel, Transient
from sawsps.transport import SawWave


# ---------------------------------------------------------------------------
# Fixed-step numeric solution of the cascade
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OccupancyTrace:
    """Occupancies n_i(t) of every level on a uniform time grid."""

    time_ns: np.ndarray
    occupancies: np.ndarray  # shape (num_levels, num_times)

    def __post_init__(self):
        t = np.asarray(self.time_ns, dtype=float)
        n = np.asarray(self.occupancies, dtype=float)
        if t.ndim != 1 or n.ndim != 2 or n.shape[1] != t.size:
            raise ValueError("occupancies must be (levels, times) matching the grid")
        d = np.diff(t)
        if d.size and (np.any(d <= 0) or not np.allclose(d, d[0], rtol=1e-9, atol=1e-12)):
            raise ValueError("time grid must be uniform and strictly increasing")
        if np.any(n < -1e-9):
            raise ValueError("occupancies must be non-negative")
        n = np.maximum(n, 0.0)  # clip integrator round-off
        object.__setattr__(self, "time_ns", t)
        object.__setattr__(self, "occupancies", n)

    @property
    def num_levels(self) -> int:
        return self.occupancies.shape[0]

    def level(self, level: int) -> np.ndarray:
        if not 1 <= level <= self.num_levels:
            raise ValueError(f"level {level} out of range 1..{self.num_levels}")
        return self.occupancies[level - 1]


def _chain_matrix(rates: np.ndarray) -> np.ndarray:
    """Generator matrix of the chain: dn/dt = A n."""
    nlev = rates.size
    a = np.diag(-rates)
    for i in range(nlev - 1):
        a[i, i + 1] = rates[i + 1]
    return a


def _rk4_step_map(a: np.ndarray, dt: float) -> np.ndarray:
    """One classic RK4 step of a linear system, precomputed.

    For dn/dt = A n the RK4 stages collapse algebraically to n' = M n with
    M = I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24, so the integration is one
    matrix-vector product per step.
    """
    eye = np.eye(a.shape[0])
    ha = dt * a
    return eye + ha @ (eye + ha @ (eye / 2 + ha @ (eye / 6 + ha / 24)))


def solve_cascade_numeric(model: CascadeModel, start_level: int,
                          horizon_ns: float, dt_ns: float) -> OccupancyTrace:
    """Fixed-step fourth-order integration of the expected-occupancy
    equations from `start_level` excitons at t = 0.

    The chain is linear, so the classic RK4 step collapses to a precomputed
    one-step matrix (`_rk4_step_map`), identical to stage-form RK4 up to
    rounding.
    """
    if not 1 <= start_level <= model.num_levels:
        raise ValueError(
            f"start level {start_level} out of range 1..{model.num_levels}")
    min_tau = min(model.lifetimes_ns)
    if dt_ns <= 0:
        raise ValueError("dt must be > 0")
    if dt_ns > min_tau / 20:
        raise ValueError(
            f"dt = {dt_ns} too large; need dt <= min lifetime / 20 = {min_tau / 20:g}")
    if horizon_ns < dt_ns:
        raise ValueError("horizon must be at least one step")

    num_steps = int(math.ceil(horizon_ns / dt_ns))
    times = np.arange(num_steps + 1) * dt_ns
    step_m = _rk4_step_map(_chain_matrix(model.rates), dt_ns)
    n = np.zeros(model.num_levels)
    n[start_level - 1] = 1.0
    occ = np.empty((num_steps + 1, model.num_levels))
    occ[0] = n
    for s in range(num_steps):
        n = step_m @ n
        occ[s + 1] = n
    return OccupancyTrace(times, occ.T)


# ---------------------------------------------------------------------------
# Photon streams and the device
# ---------------------------------------------------------------------------

def ensemble_histogram(photons, transition: str, bin_ns: float,
                       period_ns: float):
    """Photon counts of one transition in a photon array, times folded
    modulo the pulse period, as a `Transient` of (bin_centers_ns, counts)."""
    if not 0 < bin_ns < math.inf:
        raise ValueError("bin width must be finite and > 0")
    if not 0 < period_ns < math.inf:
        raise ValueError("period must be finite and > 0")
    nbins = max(int(round(period_ns / bin_ns)), 1)
    edges = np.linspace(0.0, period_ns, nbins + 1)
    times = photons["time_ns"][photons["transition"] == transition]
    counts, _ = np.histogram(np.mod(times, period_ns), bins=edges)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return Transient(centers, counts.astype(float))


def arrival_delay(distance_um: float, saw: SawWave) -> float:
    """Conveyance time over a distance: d / (f * lambda)."""
    if not 0 <= distance_um < math.inf:
        raise ValueError("distance must be finite and >= 0")
    return distance_um / saw.velocity_um_per_ns


def one_shot_emission_times(num_cycles: int, period_ns: float,
                            capture_prob: float, lifetime_ns: float,
                            rng: np.random.Generator) -> np.ndarray:
    """`transport.per_cycle_emission_times` drawn in one piece: every
    cycle's uniform in one call, then every load's wait in one call, and
    the capacity-1 rule applied to the whole train at once."""
    loads = np.flatnonzero(rng.random(num_cycles) < capture_prob) * period_ns
    times = rng.exponential(lifetime_ns, loads.size)
    times += loads
    kept = np.ones(times.size, dtype=bool)
    np.less(times[:-1], loads[1:], out=kept[:-1])
    return times[kept]


def run_with_rows(spot, sites, saw, *args):
    """`run_device(spot, sites, saw, *args)` and the rows of its captures
    and loads, rebuilt from what the kernel `transport._convey` was given
    and returned (the run looks it up by name when it calls it).

    A capture row is (time, site id, species code, carriers moved, pocket
    birth time, pocket birth position) and a load row (time, site id,
    excitons formed).  The kernel returns its captures site by site; the
    rows are sorted into event order, by (time, pocket, rank).  With the
    wave off nothing is conveyed, and both are None.
    """
    calls = []
    convey = transport._convey

    def recording(pockets, *rest):
        counts, columns = convey(pockets, *rest)
        calls.append((pockets, columns))
        return counts, columns

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(transport, "_convey", recording)
        result = transport.run_device(spot, sites, saw, *args)
    if not calls:
        return result, None, None
    [(pockets, columns)] = calls
    # a pocket passes a rank once, so (time, pocket, rank) orders every row
    order = np.lexsort(columns[2::-1])
    t, pk, rank, moved, formed = (c[order] for c in columns)
    # the sites in encounter order: a stable sort of direction * x
    site = np.argsort(saw.direction * sites.x_um, kind="stable")[rank]
    captures = list(zip(t.tolist(), site.tolist(),
                        pockets["species"][pk].tolist(), moved.tolist(),
                        pockets["birth_time_ns"][pk].tolist(),
                        pockets["position_um"][pk].tolist()))
    load = formed > 0
    loads = list(zip(t[load].tolist(), site[load].tolist(),
                     formed[load].tolist()))
    return result, captures, loads
